"""Dense complex linear algebra primitives.

Conventions used throughout the package:

* indices are 0-based and vectorization is row-major, so the matrix entry
  ``rho[m, mu]`` sits at vector position ``m*N + mu``;
* a matrix on a bipartite space carries composite indices
  ``(first*N + second)``;
* all entropies are in nats (natural logarithm).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    HermiticityError,
    PositivityError,
    TraceError,
)

CLAMP_TOL = 1e-9
HERMIT_TOL = 1e-10
_TINY = np.nextafter(0.0, 1.0)  # the smallest positive double


def _as_square(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {x.shape}")
    return x


def _square_side(x: np.ndarray) -> int:
    """Side length N of a matrix of dimension N**2."""
    d = _as_square(x).shape[0]
    n = math.isqrt(d)
    if n * n != d:
        raise DimensionError(f"dimension {d} is not a perfect square")
    return n


def reshuffle(x: np.ndarray) -> np.ndarray:
    """Reorder the entries of a matrix of dimension N**2.

    With composite indices, ``out[(m,n),(mu,nu)] = x[(m,mu),(n,nu)]``.
    The operation is an exact involution and exchanges the superoperator
    and Choi forms of a quantum map.
    """
    n = _square_side(x)
    d = n * n
    return np.ascontiguousarray(
        x.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(d, d)
    )


def partial_trace(x: np.ndarray, side: str, dims: tuple[int, int] | None = None) -> np.ndarray:
    """Trace out one factor of a bipartite matrix.

    ``side`` is ``"A"`` (first factor) or ``"B"`` (second factor).  By
    default the matrix dimension must be a perfect square N**2 and both
    factors have dimension N; unequal factor dimensions may be passed
    explicitly via ``dims=(dim_a, dim_b)``.
    """
    x = _as_square(x)
    if dims is None:
        n = _square_side(x)
        dims = (n, n)
    da, db = dims
    if da * db != x.shape[0]:
        raise DimensionError(f"dims {dims} do not factor dimension {x.shape[0]}")
    xr = x.reshape(da, db, da, db)
    if side == "A":
        return np.einsum("ijik->jk", xr)
    if side == "B":
        return np.einsum("ijkj->ik", xr)
    raise ValueError(f"side must be 'A' or 'B', got {side!r}")


def kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kronecker product with row-major composite indices."""
    return np.kron(np.asarray(x), np.asarray(y))


def max_entangled_projector(n: int) -> np.ndarray:
    """Projector onto the maximally entangled vector of two N-dim factors.

    Entries are ``(1/N) * delta_{mn} delta_{mu nu}``; its reshuffle is
    ``(1/N) * identity``.
    """
    v = np.eye(n, dtype=complex).reshape(-1)
    return np.outer(v, v) / n


def hermitian_part(x: np.ndarray) -> np.ndarray:
    """``(x + x^dag)/2`` of a matrix or a stack of them.

    The result is exactly Hermitian, so applying it twice changes no bit.
    """
    return (x + x.conj().swapaxes(-1, -2)) / 2


def hermiticity_defect(x: np.ndarray) -> float:
    """Max-norm distance from the Hermitian part, relative to max(1, |x|_max)."""
    x = _as_square(x)
    scale = max(1.0, float(np.abs(x).max()) if x.size else 1.0)
    return float(np.abs(x - x.conj().T).max()) / scale


def _checked_hermitian_part(x: np.ndarray, hermit_tol: float, what: str) -> np.ndarray:
    x = _as_square(x)
    if hermiticity_defect(x) > hermit_tol:
        raise HermiticityError(f"{what} deviates from Hermiticity by {hermiticity_defect(x):.3e}")
    return hermitian_part(x)


def hermitian_eigvals(x: np.ndarray, hermit_tol: float, what: str = "matrix") -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of ``x``; the package's spectral kernel.

    Raises :class:`HermiticityError` if ``hermiticity_defect(x) > hermit_tol``.
    """
    return np.linalg.eigvalsh(_checked_hermitian_part(x, hermit_tol, what))


def eig_hermitian(x: np.ndarray, hermit_tol: float = HERMIT_TOL):
    """Eigendecomposition of a Hermitian matrix, checked as in :func:`hermitian_eigvals`.

    Returns ``(values, vectors)`` with values ascending and eigenvectors in
    the columns of ``vectors``.
    """
    return np.linalg.eigh(_checked_hermitian_part(x, hermit_tol, "matrix"))


def check_spectrum(vals: np.ndarray, tol: float, upper=None, error=PositivityError, what="matrix"):
    """Return ``vals``; raise ``error`` if one lies below ``-tol`` or above ``upper + tol``."""
    if vals.min() < -tol:
        raise error(f"{what} eigenvalue {vals.min():.3e} below 0")
    if upper is not None and vals.max() > upper + tol:
        raise error(f"{what} eigenvalue {vals.max():.3e} above {upper:g}")
    return vals


def psd_sqrt(x: np.ndarray) -> np.ndarray:
    """Square root of a matrix PSD by construction; negative eigenvalues count as 0."""
    vals, vecs = np.linalg.eigh(hermitian_part(x))
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def psd_inv_sqrt(x: np.ndarray) -> np.ndarray:
    """Inverse square root of a matrix positive definite by construction, or of a stack of them.

    Eigenvalues are floored at 1e-300 (``np.maximum`` is what ``np.clip``
    with no upper bound calls, without its Python-level dispatch).
    """
    vals, vecs = np.linalg.eigh(hermitian_part(x))
    scale = 1.0 / np.sqrt(np.maximum(vals, 1e-300))
    return (vecs * scale[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def singular_values(x: np.ndarray) -> np.ndarray:
    """Singular values of a square matrix, in descending order."""
    return np.linalg.svd(_as_square(x), compute_uv=False)


def eta(x, clamp_tol: float = CLAMP_TOL):
    """The entropy kernel -x ln x, with eta(0) = 0.

    Accepts scalars or arrays.  Values within ``clamp_tol`` outside [0, 1]
    are clamped; values further out raise :class:`DomainError`.  With
    ``clamp_tol=math.inf`` every value is clamped and none is checked.
    """
    arr = np.asarray(x, dtype=float)
    if (
        clamp_tol < math.inf
        and arr.size
        and (arr.min() < -clamp_tol or arr.max() > 1 + clamp_tol)
    ):
        raise DomainError(
            f"argument outside [0,1] clamp window: min {arr.min()}, max {arr.max()}"
        )
    # Clamp with ufuncs rather than np.clip, whose Python-level dispatch
    # costs more than the arithmetic on small arrays: fmax sends NaN to 0 and
    # "+ 0.0" turns -0.0 into 0.0.  Zeros reach the log as the smallest
    # subnormal, so no floating-point error state is switched per call, and
    # (-0.0) * ln(5e-324) is exactly 0.0.
    arr = np.minimum(np.fmax(arr, 0.0), 1.0) + 0.0
    out = -arr * np.log(np.maximum(arr, _TINY))
    return float(out) if arr.ndim == 0 else out


def validate_density_matrix(x: np.ndarray, tol: float = CLAMP_TOL) -> np.ndarray:
    """Check that ``x`` is Hermitian, PSD and unit trace within ``tol``.

    Returns ``x`` unchanged on success.
    """
    x = _as_square(x)
    check_spectrum(hermitian_eigvals(x, tol, "density matrix"), tol, what="density matrix")
    tr = complex(np.trace(x))
    if abs(tr - 1.0) > tol:
        raise TraceError(f"trace {tr} deviates from 1")
    return x


def spectrum_entropy(vals: np.ndarray, tol: float = CLAMP_TOL) -> float:
    """Von Neumann entropy, in nats, of a density matrix given by its eigenvalues.

    Eigenvalues in ``[-tol, 0]`` are clamped to zero; an eigenvalue below
    ``-tol`` raises :class:`PositivityError`.
    """
    check_spectrum(vals, tol, what="density matrix")
    return float(np.sum(eta(vals, math.inf)))


def von_neumann_entropy(rho: np.ndarray, tol: float = CLAMP_TOL) -> float:
    """Von Neumann entropy -tr(rho ln rho), in nats; Hermiticity tolerance max(tol, 1e-10)."""
    return spectrum_entropy(hermitian_eigvals(rho, max(tol, HERMIT_TOL), "entropy argument"), tol)


def shannon_entropy(p: np.ndarray, tol: float = 1e-10) -> float:
    """Shannon entropy of a probability vector, in nats."""
    p = np.asarray(p, dtype=float).reshape(-1)
    if p.size == 0:
        raise DimensionError("empty probability vector")
    if p.min() < -tol:
        raise DomainError(f"negative probability {p.min():.3e}")
    if abs(p.sum() - 1.0) > max(tol, 1e-10):
        raise TraceError(f"probabilities sum to {p.sum()}")
    return float(np.sum(eta(p, math.inf)))
