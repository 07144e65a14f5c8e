"""Dense complex linear algebra primitives.

Conventions used throughout the package:

* indices are 0-based and vectorization is row-major, so the matrix entry
  ``rho[m, mu]`` sits at vector position ``m*N + mu``;
* a matrix on a bipartite space carries composite indices
  ``(first*N + second)``;
* all entropies are in nats (natural logarithm);
* the kernels that say so take a stack of matrices or vectors along
  leading axes and return one result per member; called on one matrix or
  vector, they return what they return for it alone, Python floats
  included, and a member of a stack gets exactly the bits of its own call.
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


def _as_square(x: np.ndarray, stack: bool = False) -> np.ndarray:
    """``x`` as an array; a square matrix, or with ``stack`` a stack of them."""
    x = np.asarray(x)
    if not (x.ndim == 2 or (stack and x.ndim > 2)) or x.shape[-1] != x.shape[-2]:
        what = "a square matrix or a stack of them" if stack else "a square matrix"
        raise DimensionError(f"expected {what}, got shape {x.shape}")
    return x


def _square_side(x: np.ndarray, stack: bool = False) -> int:
    """Side length N of a matrix of dimension N**2, or of each matrix of a stack."""
    d = _as_square(x, stack).shape[-1]
    n = math.isqrt(d)
    if n * n != d:
        raise DimensionError(f"dimension {d} is not a perfect square")
    return n


def _float_or_stack(x: np.ndarray):
    """A 0-d result as a Python float; a stack's results as they are."""
    return float(x) if x.ndim == 0 else x


def reshuffle(x: np.ndarray) -> np.ndarray:
    """Reorder the entries of a matrix of dimension N**2, or of each matrix of a stack.

    With composite indices, ``out[(m,n),(mu,nu)] = x[(m,mu),(n,nu)]``.
    The operation is an exact involution and exchanges the superoperator
    and Choi forms of a quantum map.
    """
    n = _square_side(x, stack=True)
    return np.ascontiguousarray(x.reshape(x.shape[:-2] + (n, n, n, n)).swapaxes(-3, -2).reshape(x.shape))


def partial_trace(x: np.ndarray, side: str, dims: tuple[int, int] | None = None) -> np.ndarray:
    """Trace out one factor of a bipartite matrix, or of each matrix of a stack.

    ``side`` is ``"A"`` (first factor) or ``"B"`` (second factor).  By
    default the matrix dimension must be a perfect square N**2 and both
    factors have dimension N; unequal factor dimensions may be passed
    explicitly via ``dims=(dim_a, dim_b)``.
    """
    x = _as_square(x, stack=True)
    if dims is None:
        n = _square_side(x, stack=True)
        dims = (n, n)
    da, db = dims
    if da * db != x.shape[-1]:
        raise DimensionError(f"dims {dims} do not factor dimension {x.shape[-1]}")
    xr = x.reshape(x.shape[:-2] + (da, db, da, db))
    if side == "A":
        return np.einsum("...ijik->...jk", xr)
    if side == "B":
        return np.einsum("...ijkj->...ik", xr)
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


def hermiticity_defect(x: np.ndarray):
    """Max-norm distance from the Hermitian part, relative to max(1, |x|_max).

    Takes a matrix or a stack of them; a float (a ``numpy.float64``) for
    one, an array for a stack.
    """
    x = _as_square(x, stack=True)
    scale = np.maximum(np.abs(x).max(axis=(-2, -1)), 1.0)
    return np.abs(x - x.conj().swapaxes(-1, -2)).max(axis=(-2, -1)) / scale


def _checked_hermitian_part(x: np.ndarray, hermit_tol: float, what: str, defect=None) -> np.ndarray:
    x = _as_square(x, stack=True)
    if defect is None:
        defect = hermiticity_defect(x).max(initial=0.0)
    if defect > hermit_tol:
        raise HermiticityError(f"{what} deviates from Hermiticity by {defect:.3e}")
    return hermitian_part(x)


def hermitian_eigvals(x: np.ndarray, hermit_tol: float, what: str = "matrix") -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of ``x``; the package's spectral kernel.

    Takes a matrix or a stack of them.  Raises :class:`HermiticityError` if
    ``hermiticity_defect`` exceeds ``hermit_tol`` for any of them.
    """
    return np.linalg.eigvalsh(_checked_hermitian_part(x, hermit_tol, what))


def eig_hermitian(x: np.ndarray, hermit_tol: float = HERMIT_TOL, defect=None):
    """Eigendecomposition of a Hermitian matrix, checked as in :func:`hermitian_eigvals`.

    Returns ``(values, vectors)`` with values ascending and eigenvectors in
    the columns of ``vectors``; a stack gets a stack of each.  A caller that
    has already measured ``hermiticity_defect(x)``, its largest member's for a
    stack, passes it as ``defect`` instead of having it measured again.
    """
    return np.linalg.eigh(_checked_hermitian_part(x, hermit_tol, "matrix", defect))


def check_spectrum(vals: np.ndarray, tol: float, upper=None, error=PositivityError, what="matrix"):
    """Return ``vals``; raise ``error`` if one lies below ``-tol`` or above ``upper + tol``.

    ``vals`` may hold the spectra of a stack; every value is checked.
    """
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
    return check_density(_as_square(x), hermitian_eigvals(x, tol, "density matrix"), tol)


def check_density(x: np.ndarray, vals: np.ndarray, tol: float = CLAMP_TOL) -> np.ndarray:
    """``x``, a matrix or a stack with spectra ``vals``, if each is PSD with unit trace within ``tol``."""
    check_spectrum(vals, tol, what="density matrix")
    dev = np.abs(np.trace(x, axis1=-2, axis2=-1) - 1.0).max()
    if dev > tol:
        raise TraceError(f"trace deviates from 1 by {dev:.3e}")
    return x


def spectrum_entropy(vals: np.ndarray, tol: float = CLAMP_TOL):
    """Von Neumann entropy, in nats, of a density matrix given by its eigenvalues.

    ``vals`` is one spectrum, giving a float, or a stack of them along
    leading axes, giving an array.  Eigenvalues in ``[-tol, 0]`` are clamped
    to zero; an eigenvalue below ``-tol`` raises :class:`PositivityError`.
    """
    check_spectrum(vals, tol, what="density matrix")
    return _float_or_stack(np.sum(eta(vals, math.inf), axis=-1))


def von_neumann_entropy(rho: np.ndarray, tol: float = CLAMP_TOL):
    """Von Neumann entropy -tr(rho ln rho), in nats; Hermiticity tolerance max(tol, 1e-10).

    Takes a matrix, giving a float, or a stack of them, giving an array.
    """
    return spectrum_entropy(hermitian_eigvals(rho, max(tol, HERMIT_TOL), "entropy argument"), tol)


def shannon_entropy(p: np.ndarray, tol: float = 1e-10):
    """Shannon entropy of a probability vector, in nats.

    ``p`` is one vector, giving a float, or a stack of them along leading
    axes, giving an array; a scalar counts as a vector of one entry.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.size == 0:
        raise DimensionError("empty probability vector")
    if p.min() < -tol:
        raise DomainError(f"negative probability {p.min():.3e}")
    total = p.sum(axis=-1)
    if np.abs(total - 1.0).max() > max(tol, 1e-10):
        raise TraceError(f"probabilities sum to {total}")
    return _float_or_stack(np.sum(eta(p, math.inf), axis=-1))
