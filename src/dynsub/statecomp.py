"""Composition of bipartite operators through the reshuffling involution.

The product ``x (.) y = reshuffle(reshuffle(x) @ reshuffle(y))`` mirrors the
concatenation of quantum maps at the level of their Choi matrices.  It is
associative, non-commutative, preserves Hermiticity and positivity, and the
rescaled identity ``reshuffle(eye) = N * P_plus`` is its neutral element.

Unit-trace operators are not closed under the raw product: composing two
unit-trace bipartite states yields trace 1/N.  ``odot_state`` multiplies by
N, which restores closure on the class of states with maximally mixed left
marginal and makes the maximally entangled projector the neutral element.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import ClassError, DimensionError
from .matcore import _float_or_stack, _square_side, kron, max_entangled_projector, partial_trace, reshuffle

MEMBERSHIP_TOL = 1e-8


class StateClass(enum.Enum):
    GENERAL = "general"
    D_I = "left marginal maximally mixed"
    D_II = "both marginals maximally mixed"


def odot_raw(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Reshuffled product of two matrices of dimension N**2, or of two stacks of them, member by member."""
    x, y = np.asarray(x), np.asarray(y)
    if x.shape != y.shape:
        raise DimensionError(f"operand shapes differ: {x.shape} vs {y.shape}")
    return reshuffle(reshuffle(x) @ reshuffle(y))


def _marginal_defect(sigma: np.ndarray, side: str):
    """Max-norm distance of the marginal left by tracing out ``side`` from the maximally mixed state.

    One per member of a stack.
    """
    n = _square_side(sigma, stack=True)
    return np.abs(partial_trace(sigma, side) - np.eye(n) / n).max(axis=(-2, -1))


def membership(sigma: np.ndarray, tol: float = MEMBERSHIP_TOL):
    """Classify a bipartite state by which marginals are maximally mixed.

    A stack of states gets the list of its members' classes.
    """
    sigma = np.asarray(sigma)
    if sigma.ndim > 2:
        return [membership(s, tol) for s in sigma]
    if not _marginal_defect(sigma, "A") <= tol:
        return StateClass.GENERAL
    return StateClass.D_II if _marginal_defect(sigma, "B") <= tol else StateClass.D_I


def odot_state(sigma1: np.ndarray, sigma2: np.ndarray, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
    """State-level composition: N times the raw product; member by member for two stacks.

    Both operands, or every member of both, must have maximally mixed left
    marginal; the result is again such a state, with unit trace.  If both
    operands also have maximally mixed right marginal, so does the result.
    """
    n = _square_side(sigma1, stack=True)
    for name, s in (("first", sigma1), ("second", sigma2)):
        if not (_marginal_defect(s, "A") <= tol).all():
            raise ClassError(f"{name} operand has left marginal away from maximally mixed")
    return n * odot_raw(sigma1, sigma2)


def idempotent_extension(rho0: np.ndarray) -> np.ndarray:
    """Extend a state by the maximally mixed one: ``rho0 (x) eye/N``.

    The result is idempotent under ``odot_state`` and, rescaled by N, is the
    Choi matrix of the channel that maps every input to ``rho0``.
    """
    n = np.asarray(rho0).shape[0]
    return kron(rho0, np.eye(n)) / n


def not_square_witness(sigma: np.ndarray):
    """Max-norm gap between the self-composition and the matrix square; one per member of a stack."""
    return _float_or_stack(np.abs(odot_raw(sigma, sigma) - sigma @ sigma).max(axis=(-2, -1)))


__all__ = [
    "StateClass",
    "odot_raw",
    "odot_state",
    "membership",
    "idempotent_extension",
    "not_square_witness",
    "max_entangled_projector",
]
