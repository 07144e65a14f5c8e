"""Independent recomputation of the quantities the benchmark checks.

Plain numpy, written from the definitions and sharing no code with
``dynsub``.  The numpy entry points are bound at import, so a trace that
replaces ``numpy.linalg.eigh`` and friends counts only the calls the
program makes, not these.

Conventions are the program's documented ones: row-major vectorization,
composite index ``first*N + second``, Choi matrix ``D`` with
``Phi(rho)[m, mu] = sum D[(m, n), (mu, nu)] rho[n, nu]``, entropies in nats.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import eigh as _eigh
from numpy.linalg import eigvalsh as _eigvalsh
from numpy.linalg import svd as _svd


class CheckFailure(Exception):
    """A recomputed quantity disagrees, or a required inequality fails."""


# Tolerances, each with its reason.
#   AGREE_TOL: the program and this module reach the same entropy through
#     different eigensolver inputs; round-off is ~1e-14, the program's own
#     eigenvalue clamp is 1e-9.
#   STRUCT_TOL: operator Sinkhorn stops at 1e-10 on one marginal, and the
#     program's structural flags use 1e-9.
#   INEQ_TOL: the paper's inequalities on this module's own numbers; the
#     smallest margin seen at the default sample counts is ~0.04.
AGREE_TOL = 1e-9
STRUCT_TOL = 1e-9
INEQ_TOL = 1e-9


def require_close(what: str, got: float, want: float, tol: float = AGREE_TOL) -> None:
    if not abs(got - want) <= tol:
        raise CheckFailure(f"{what}: {got!r} differs from {want!r} by more than {tol}")


def require_le(what: str, lhs: float, rhs: float, tol: float = INEQ_TOL) -> None:
    """Require ``lhs <= rhs`` up to ``tol``."""
    if not lhs <= rhs + tol:
        raise CheckFailure(f"{what}: {lhs!r} <= {rhs!r} fails by {lhs - rhs:.3e}")


def side(d: int) -> int:
    n = math.isqrt(d)
    if n * n != d:
        raise CheckFailure(f"dimension {d} is not a square")
    return n


# -- entropies ---------------------------------------------------------------


def eta(x: np.ndarray) -> np.ndarray:
    x = np.clip(np.asarray(x, dtype=float), 0.0, None)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = -x[pos] * np.log(x[pos])
    return out


def entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy of a density matrix."""
    return float(eta(_eigvalsh((rho + rho.conj().T) / 2)).sum())


def shannon(p: np.ndarray) -> float:
    return float(eta(p).sum())


def fermionic_entropy(q: np.ndarray) -> float:
    """Entropy of the quasi-free state with symbol ``q``: sum of eta(x) + eta(1-x)."""
    vals = _eigvalsh((q + q.conj().T) / 2)
    return float(eta(vals).sum() + eta(1.0 - vals).sum())


# -- channels in the Choi picture ----------------------------------------------


def reshuffle(x: np.ndarray) -> np.ndarray:
    """``out[(m, n), (mu, nu)] = x[(m, mu), (n, nu)]``: Choi <-> superoperator."""
    n = side(x.shape[0])
    return x.reshape(n, n, n, n).swapaxes(1, 2).reshape(n * n, n * n)


def apply(choi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Act with the channel through its superoperator on the row-major vec of rho."""
    n = rho.shape[0]
    return (reshuffle(choi) @ rho.reshape(-1)).reshape(n, n)


def compose(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """Choi matrix of ``later`` after ``earlier``: superoperators multiply."""
    return reshuffle(reshuffle(later) @ reshuffle(earlier))


def marginals(choi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Partial traces over the first factor (TP) and the second (unital)."""
    n = side(choi.shape[0])
    d4 = choi.reshape(n, n, n, n)
    return np.einsum("ajak->jk", d4), np.einsum("jaka->jk", d4)


def check_channel(what: str, choi: np.ndarray, unital: bool = False) -> None:
    """Require a Hermitian PSD Choi matrix, trace preservation and optionally unitality."""
    choi = np.asarray(choi)
    n = side(choi.shape[0])
    herm = np.abs(choi - choi.conj().T).max()
    if herm > STRUCT_TOL:
        raise CheckFailure(f"{what}: Choi matrix not Hermitian ({herm:.3e})")
    low = _eigvalsh((choi + choi.conj().T) / 2).min()
    if low < -STRUCT_TOL:
        raise CheckFailure(f"{what}: Choi matrix not PSD (eigenvalue {low:.3e})")
    tp, un = marginals(choi)
    eye = np.eye(n)
    if np.abs(tp - eye).max() > STRUCT_TOL:
        raise CheckFailure(f"{what}: not trace preserving ({np.abs(tp - eye).max():.3e})")
    if unital and np.abs(un - eye).max() > STRUCT_TOL:
        raise CheckFailure(f"{what}: not unital ({np.abs(un - eye).max():.3e})")


def check_density(what: str, rho: np.ndarray) -> None:
    if np.abs(rho - rho.conj().T).max() > STRUCT_TOL:
        raise CheckFailure(f"{what}: not Hermitian")
    if _eigvalsh((rho + rho.conj().T) / 2).min() < -STRUCT_TOL:
        raise CheckFailure(f"{what}: not PSD")
    require_close(f"{what}: trace", complex(np.trace(rho)).real, 1.0, STRUCT_TOL)


def map_entropy(choi: np.ndarray) -> float:
    """Entropy of the Jamiolkowski state Choi/N."""
    return entropy(choi / side(choi.shape[0]))


def psd_sqrt(x: np.ndarray) -> np.ndarray:
    vals, vecs = _eigh((x + x.conj().T) / 2)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def exchange_entropy(choi: np.ndarray, rho: np.ndarray) -> float:
    """Entropy exchange without Kraus operators.

    ``(1 (x) sqrt(rho)^T) D (1 (x) sqrt(rho)^T)`` is ``W W^dag`` for the
    columns ``w_a = vec(A_a sqrt(rho))``, whose Gram matrix is the transpose
    of ``sigma_hat[a, b] = tr(rho A_b^dag A_a)``: same nonzero spectrum.
    """
    n = rho.shape[0]
    left = np.kron(np.eye(n), psd_sqrt(rho).T)
    return entropy(left @ choi @ left.conj().T)


# -- classical stochastic matrices ---------------------------------------------


def check_stochastic(what: str, t: np.ndarray, bistochastic: bool = False) -> None:
    if t.min() < 0:
        raise CheckFailure(f"{what}: negative entry {t.min():.3e}")
    if np.abs(t.sum(axis=0) - 1).max() > STRUCT_TOL:
        raise CheckFailure(f"{what}: a column does not sum to 1")
    if bistochastic and np.abs(t.sum(axis=1) - 1).max() > STRUCT_TOL:
        raise CheckFailure(f"{what}: a row does not sum to 1")


def matrix_entropy(t: np.ndarray) -> float:
    """H(T): mean over columns of the column's Shannon entropy."""
    return float(eta(t).sum()) / t.shape[0]


def weighted_entropy(t: np.ndarray, p: np.ndarray) -> float:
    """H_P(T): column entropies weighted by p."""
    return float(eta(t).sum(axis=0) @ p)


def product_terms(t2: np.ndarray, t1: np.ndarray) -> dict:
    """The paper's classical product bounds, H(T1) + d1 <= H(T2 T1) <= H(T1) + H(T2) + d2."""
    n = t1.shape[0]
    p1 = t1 @ np.full(n, 1.0 / n)
    h1, h2 = matrix_entropy(t1), matrix_entropy(t2)
    d1 = shannon(t2 @ p1) - shannon(p1)
    d2 = weighted_entropy(t2, p1) - h2
    return {
        "delta1": d1,
        "delta2": d2,
        "lower": h1 + d1,
        "upper": h1 + h2 + d2,
        "actual": matrix_entropy(t2 @ t1),
    }


# -- quasi-free maps -------------------------------------------------------------


def check_qf_map(what: str, r: np.ndarray, z: np.ndarray, bistochastic: bool = False) -> None:
    """Require 0 <= Z <= 1 - R^dag R, and Z = (1 - R^dag R)/2 when bistochastic."""
    gap = np.eye(r.shape[0]) - r.conj().T @ r
    if _eigvalsh((z + z.conj().T) / 2).min() < -STRUCT_TOL:
        raise CheckFailure(f"{what}: Z is not PSD")
    if _eigvalsh((gap - z + (gap - z).conj().T) / 2).min() < -STRUCT_TOL:
        raise CheckFailure(f"{what}: Z exceeds 1 - R^dag R")
    if bistochastic and np.abs(z - gap / 2).max() > STRUCT_TOL:
        raise CheckFailure(f"{what}: Z is not (1 - R^dag R)/2")


def qf_symbol(r: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The 2N-mode symbol (1/2) [[1, R], [R^dag, R^dag R + 2Z]] of the map."""
    n = r.shape[0]
    top = np.hstack([np.eye(n), r])
    bottom = np.hstack([r.conj().T, r.conj().T @ r + 2 * z])
    return np.vstack([top, bottom]) / 2


def qf_bistochastic_closed_form(r: np.ndarray) -> float:
    """2 sum_j eta((1 + l_j)/2) + eta((1 - l_j)/2) over the singular values of R."""
    lam = np.clip(_svd(r, compute_uv=False), 0.0, 1.0)
    return float(2 * (eta((1 + lam) / 2).sum() + eta((1 - lam) / 2).sum()))


def qf_act(r: np.ndarray, z: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Symbol action Q -> R^dag Q R + Z."""
    return r.conj().T @ q @ r + z
