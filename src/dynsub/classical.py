"""Column-stochastic matrices, probability vectors and their entropies.

A transition matrix ``T`` is column-stochastic, ``sum_i T[i, j] = 1`` for
every column j, and acts on probability vectors as ``p' = T @ p``.  Three
entropy functionals are provided:

* ``entropy_uniform``   -- H(T), the average column entropy at uniform weights;
* ``entropy_invariant`` -- H_I(T), columns weighted by the invariant vector;
* ``entropy_weighted``  -- H_P(T), columns weighted by an arbitrary vector.

All three coincide with H(T) when T is bistochastic and range over
[0, ln N].

The validators, entropies and bounds take one matrix (and vector) or a
stack of them along leading axes.  On one they return what they always
did, Python floats included; each member of a stack gets exactly the bits
of its own call, and a validator raises if any member fails.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    BistochasticityError,
    DimensionError,
    NonUniqueInvariantError,
    NumericalError,
    StochasticityError,
)
from .matcore import _float_or_stack, eta, shannon_entropy

STOCH_TOL = 1e-10


def validate_prob_vector(p: np.ndarray, tol: float = STOCH_TOL) -> np.ndarray:
    """``p`` as a float array of probability vectors along the last axis.

    A scalar counts as a vector of one entry.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.size == 0:
        raise DimensionError("empty probability vector")
    if p.min() < -tol:
        raise StochasticityError(f"negative entry {p.min():.3e}")
    total = p.sum(axis=-1)
    if np.abs(total - 1.0).max() > tol:
        raise StochasticityError(f"entries sum to {total}, not 1")
    return p


def validate_stochastic(t: np.ndarray, tol: float = STOCH_TOL) -> np.ndarray:
    """``t`` as a float array of column-stochastic matrices along the last two axes."""
    t = np.asarray(t, dtype=float)
    if t.ndim < 2 or t.shape[-1] != t.shape[-2]:
        raise DimensionError(f"expected square matrix, got shape {t.shape}")
    if t.min() < -tol:
        raise StochasticityError(f"negative entry {t.min():.3e}")
    dev = np.abs(t.sum(axis=-2) - 1.0).max()
    if dev > tol:
        raise StochasticityError(f"column sums deviate from 1 by {dev:.3e}")
    return t


def is_bistochastic(t: np.ndarray, tol: float = STOCH_TOL):
    """Whether the row sums of a validated T are 1 within ``tol``; an array for a stack."""
    t = validate_stochastic(t, tol)
    ok = np.abs(t.sum(axis=-1) - 1.0).max(axis=-1) <= tol
    return bool(ok) if ok.ndim == 0 else ok


def uniform_vector(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def flat_matrix(n: int) -> np.ndarray:
    """The transition matrix with all entries 1/N; maps everything to uniform."""
    return np.full((n, n), 1.0 / n)


def apply_stochastic(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Markov step p' = T p."""
    t = validate_stochastic(t)
    p = validate_prob_vector(p)
    if t.shape[0] != p.size:
        raise DimensionError(f"matrix dim {t.shape[0]} vs vector dim {p.size}")
    return t @ p


def entropy_uniform(t: np.ndarray) -> float:
    """H(T) = (1/N) sum_ij eta(T_ij), the uniformly weighted column entropy."""
    return _h_uniform(validate_stochastic(t))


def _h_uniform(t: np.ndarray):
    """H(T) of a validated T, or of each of a stack."""
    # np.sum adds a matrix's entries in memory order; summing each member of
    # a stack over both axes keeps that order, and so the bits of its own call.
    return _float_or_stack(np.sum(eta(t, math.inf), axis=(-2, -1)) / t.shape[-1])


def invariant_state(t: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """The unique probability vector with T p = p.

    Raises :class:`NonUniqueInvariantError` when the eigenvalue 1 of T is
    degenerate within ``tol``.
    """
    t = validate_stochastic(t)
    n = t.shape[0]
    eigvals = np.linalg.eigvals(t)
    if int(np.sum(np.abs(eigvals - 1.0) < tol)) != 1:
        raise NonUniqueInvariantError(
            f"eigenvalue 1 has multiplicity {int(np.sum(np.abs(eigvals - 1.0) < tol))}"
        )
    # Null vector of (T - 1) from the SVD; real since T is real.
    _, _, vh = np.linalg.svd(t - np.eye(n))
    p = vh[-1].real
    s = p.sum()
    if abs(s) < 1e-12:
        raise NumericalError("invariant vector has vanishing total mass")
    p = p / s
    if p.min() < -1e-10:
        raise NumericalError(f"invariant vector entry {p.min():.3e} below clamp window")
    p = np.clip(p, 0.0, None)
    p /= p.sum()
    if np.abs(t @ p - p).max() > 1e-9:
        raise NumericalError("invariant vector residual above 1e-9")
    return p


def entropy_invariant(t: np.ndarray) -> float:
    """H_I(T): column entropies weighted by the invariant vector.

    When the invariant vector is degenerate but T is bistochastic, the
    uniform vector (always invariant for bistochastic T) is used; otherwise
    the degeneracy propagates as :class:`NonUniqueInvariantError`.
    """
    try:
        p_inv = invariant_state(t)
    except NonUniqueInvariantError:
        if not is_bistochastic(t, 1e-8):
            raise
        p_inv = uniform_vector(np.asarray(t).shape[0])
    return entropy_weighted(t, p_inv)


def entropy_weighted(t: np.ndarray, p: np.ndarray) -> float:
    """H_P(T) = sum_j p_j H(column j); P need not be stationary."""
    t, p = _validate_pair(t, p)
    return _h_weighted(t, p)


def _validate_pair(t: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validated T and P, of matching sizes (stacks of equal length)."""
    t = validate_stochastic(t)
    p = validate_prob_vector(p)
    if t.shape[:-1] != p.shape:
        raise DimensionError(f"matrix shape {t.shape} vs vector shape {p.shape}")
    return t, p


def _matvec(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """T @ P for a matrix and a vector, or member by member for stacks of both."""
    return (t @ p[..., None])[..., 0]


def _h_weighted(t: np.ndarray, p: np.ndarray):
    """H_P(T) of a validated T and a validated P of its size, or of stacks of both."""
    col_h = np.sum(eta(t, math.inf), axis=-2)
    # A (1, N) @ (N, 1) matmul takes the dot product that col_h @ p takes;
    # einsum would sum in another order.
    return _float_or_stack((col_h[..., None, :] @ p[..., :, None])[..., 0, 0])


class TransformBounds(NamedTuple):
    lower: float
    upper: float
    actual: float
    upper_weak: float


def slomczynski_bounds(t: np.ndarray, p: np.ndarray) -> TransformBounds:
    """Two-sided bounds on H(T p): H_P(T) <= H(T p) <= H_P(T) + H(P).

    ``upper_weak`` carries the weaker bound H_P(T) + 2 H(P) that also holds
    for quantum maps.
    """
    t, p = _validate_pair(t, p)
    hp_t = _h_weighted(t, p)
    h_p = shannon_entropy(p)
    actual = shannon_entropy(np.maximum(_matvec(t, p), 0.0))
    return TransformBounds(hp_t, hp_t + h_p, actual, hp_t + 2 * h_p)


class ProductBounds(NamedTuple):
    delta1: float
    delta2: float
    lower: float
    upper: float
    actual: float
    upper_weak: float


def product_bounds(t2: np.ndarray, t1: np.ndarray) -> ProductBounds:
    """Bounds on the entropy of a product of stochastic matrices.

    With P1 = T1 @ uniform:

    * delta1 = H(T2 P1) - H(P1), so  H(T1) + delta1 <= H(T2 T1);
    * delta2 = H_{P1}(T2) - H(T2), so H(T2 T1) <= H(T1) + H(T2) + delta2.

    Both corrections vanish when T1 and T2 are bistochastic.  ``upper_weak``
    is the looser bound H(T1) + H_{P1}(T2) + H(P1) obtained without strong
    subadditivity.
    """
    t1 = validate_stochastic(t1)
    t2 = validate_stochastic(t2)
    if t1.shape != t2.shape:
        raise DimensionError(f"shapes differ: {t1.shape} vs {t2.shape}")
    p_star = uniform_vector(t1.shape[-1])
    p1 = t1 @ p_star
    h_t1 = _h_uniform(t1)
    h_t2 = _h_uniform(t2)
    p1_clamped = validate_prob_vector(np.maximum(p1, 0.0))
    h_p1 = shannon_entropy(p1_clamped)
    hp1_t2 = _h_weighted(t2, p1_clamped)
    delta1 = shannon_entropy(np.maximum(_matvec(t2, p1), 0.0)) - h_p1
    delta2 = hp1_t2 - h_t2
    actual = entropy_uniform(t2 @ t1)
    return ProductBounds(
        delta1,
        delta2,
        h_t1 + delta1,
        h_t2 + h_t1 + delta2,
        actual,
        h_t1 + hp1_t2 + h_p1,
    )


def _require_bistochastic(*mats: np.ndarray) -> None:
    for t in mats:
        if not np.all(is_bistochastic(t, 1e-8)):
            raise BistochasticityError("matrix is not bistochastic within 1e-8")


class BistochasticSlacks(NamedTuple):
    subadditivity: float
    symmetric: float
    strong: float
    delta1: float
    delta2: float


def bistochastic_slacks(t1: np.ndarray, t2: np.ndarray, t3: np.ndarray) -> BistochasticSlacks:
    """Slacks of the three entropy bounds for bistochastic T1, T2, T3, and two vanishing corrections.

    * subadditivity: H(T2 T1) <= H(T1) + H(T2);
    * symmetric: max(H(T1), H(T2)) <= min(H(T1 T2), H(T2 T1));
    * strong: H(T3 T2 T1) + H(T2) <= H(T3 T2) + H(T2 T1).

    Each slack is the right side minus the left, so a bound holds iff its
    slack is nonnegative.  ``delta1`` and ``delta2`` are the corrections of
    ``product_bounds(T2, T1)``, which vanish for bistochastic T1 and T2.
    Raises :class:`BistochasticityError` unless all three inputs are
    bistochastic within 1e-8.
    """
    t1, t2, t3 = (np.asarray(t, dtype=float) for t in (t1, t2, t3))
    _require_bistochastic(t1, t2, t3)
    h1, h2 = _h_uniform(t1), _h_uniform(t2)
    h21 = _h_uniform(t2 @ t1)
    h12 = _h_uniform(t1 @ t2)
    # min(a, b) and max(a, b) as Python picks them: a unless b is smaller (larger).
    least = np.where(h21 < h12, h21, h12)
    most = np.where(h2 > h1, h2, h1)
    pb = product_bounds(t2, t1)
    return BistochasticSlacks(
        h1 + h2 - h21,
        _float_or_stack(least - most),
        _h_uniform(t3 @ t2) + h21 - _h_uniform(t3 @ t2 @ t1) - h2,
        pb.delta1,
        pb.delta2,
    )
