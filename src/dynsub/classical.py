"""Column-stochastic matrices, probability vectors and their entropies.

A transition matrix ``T`` is column-stochastic, ``sum_i T[i, j] = 1`` for
every column j, and acts on probability vectors as ``p' = T @ p``.  Three
entropy functionals are provided:

* ``entropy_uniform``   -- H(T), the average column entropy at uniform weights;
* ``entropy_invariant`` -- H_I(T), columns weighted by the invariant vector;
* ``entropy_weighted``  -- H_P(T), columns weighted by an arbitrary vector.

All three coincide with H(T) when T is bistochastic and range over
[0, ln N].
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
from .matcore import eta, shannon_entropy

STOCH_TOL = 1e-10


def validate_prob_vector(p: np.ndarray, tol: float = STOCH_TOL) -> np.ndarray:
    p = np.asarray(p, dtype=float).reshape(-1)
    if p.size == 0:
        raise DimensionError("empty probability vector")
    if p.min() < -tol:
        raise StochasticityError(f"negative entry {p.min():.3e}")
    if abs(p.sum() - 1.0) > tol:
        raise StochasticityError(f"entries sum to {p.sum()}, not 1")
    return p


def validate_stochastic(t: np.ndarray, tol: float = STOCH_TOL) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise DimensionError(f"expected square matrix, got shape {t.shape}")
    if t.min() < -tol:
        raise StochasticityError(f"negative entry {t.min():.3e}")
    col = t.sum(axis=0)
    if np.abs(col - 1.0).max() > tol:
        raise StochasticityError(f"column sums deviate from 1 by {np.abs(col - 1).max():.3e}")
    return t


def is_bistochastic(t: np.ndarray, tol: float = STOCH_TOL) -> bool:
    t = validate_stochastic(t, tol)
    return bool(np.abs(t.sum(axis=1) - 1.0).max() <= tol)


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


def _h_uniform(t: np.ndarray) -> float:
    """H(T) of a validated T."""
    return float(np.sum(eta(t, math.inf))) / t.shape[0]


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
    """Validated T and P, of matching sizes."""
    t = validate_stochastic(t)
    p = validate_prob_vector(p)
    if t.shape[0] != p.size:
        raise DimensionError(f"matrix dim {t.shape[0]} vs vector dim {p.size}")
    return t, p


def _h_weighted(t: np.ndarray, p: np.ndarray) -> float:
    """H_P(T) of a validated T and a validated P of its size."""
    col_h = np.sum(eta(t, math.inf), axis=0)
    return float(col_h @ p)


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
    actual = shannon_entropy(np.maximum(t @ p, 0.0))
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
    n = t1.shape[0]
    p_star = uniform_vector(n)
    p1 = t1 @ p_star
    h_t1 = _h_uniform(t1)
    h_t2 = _h_uniform(t2)
    p1_clamped = validate_prob_vector(np.maximum(p1, 0.0))
    h_p1 = shannon_entropy(p1_clamped)
    hp1_t2 = _h_weighted(t2, p1_clamped)
    delta1 = shannon_entropy(np.maximum(t2 @ p1, 0.0)) - h_p1
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
        if not is_bistochastic(t, 1e-8):
            raise BistochasticityError("matrix is not bistochastic within 1e-8")


def check_symmetric_bound(t1: np.ndarray, t2: np.ndarray, tol: float = 1e-9) -> bool:
    """max(H(T1), H(T2)) <= min(H(T1 T2), H(T2 T1)) for bistochastic inputs."""
    _require_bistochastic(t1, t2)
    lhs = max(entropy_uniform(t1), entropy_uniform(t2))
    rhs = min(entropy_uniform(t1 @ t2), entropy_uniform(t2 @ t1))
    return lhs <= rhs + tol


def check_strong_subadd(t1: np.ndarray, t2: np.ndarray, t3: np.ndarray, tol: float = 1e-9) -> bool:
    """H(T3 T2 T1) + H(T2) <= H(T3 T2) + H(T2 T1) for bistochastic inputs."""
    _require_bistochastic(t1, t2, t3)
    lhs = entropy_uniform(t3 @ t2 @ t1) + entropy_uniform(t2)
    rhs = entropy_uniform(t3 @ t2) + entropy_uniform(t2 @ t1)
    return lhs <= rhs + tol
