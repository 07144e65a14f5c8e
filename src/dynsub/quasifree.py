"""Quasi-free fermionic states and maps at the level of one-particle symbols.

A quasi-free state on N fermionic modes is determined by its symbol, an
N-dimensional Hermitian matrix Q with 0 <= Q <= 1; it is pure iff Q is a
projector.  A quasi-free channel is a pair (R, Z) of N-dimensional matrices
with 0 <= Z <= 1 - R^dag R, acting on symbols as Q -> R^dag Q R + Z.  The
map is bistochastic iff Z = (1 - R^dag R)/2, fixing the tracial symbol 1/2.

The analogue of the Jamiolkowski state is the 2N-mode symbol

    1/2 [[1, R], [R^dag, R^dag R + 2 Z]]

whose entropy is the entropy of the map.  For a bistochastic map the symbol
is 1/2 [[1, R], [R^dag, 1]] with eigenvalues (1 +- s_j)/2 over the singular
values s_j of R, so its entropy has a closed form in them
(``qf_bistochastic_entropy``); a ``QFMap`` computes them once and keeps
them.  Two bistochastic maps compose to the bistochastic map of
R_earlier R_later, and the bistochastic map of R^dag (``qf_adjoint``)
shares R's singular values.  ``fock_density`` realizes a symbol as an
explicit 2**N-dimensional density matrix for small N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import (
    BlockFormError,
    ConstraintError,
    DimensionError,
    ModeLimitError,
    NormError,
    ProjectorError,
    SingularSymbolError,
)
from .matcore import (
    _as_square,
    check_spectrum,
    eig_hermitian,
    eta,
    hermitian_eigvals,
    hermitian_part,
    hermiticity_defect,
    psd_sqrt,
    singular_values,
)

SYMBOL_TOL = 1e-9


def _symbol_spectrum(q: np.ndarray, tol: float) -> np.ndarray:
    vals = hermitian_eigvals(q, tol, "symbol")
    return check_spectrum(vals, tol, upper=1.0, error=ConstraintError, what="symbol")


def validate_symbol(q: np.ndarray, tol: float = SYMBOL_TOL) -> np.ndarray:
    """Check 0 <= Q <= 1 and Hermiticity within ``tol``."""
    q = _as_square(np.asarray(q, dtype=complex))
    _symbol_spectrum(q, tol)
    return q


def _read_only(a: np.ndarray) -> np.ndarray:
    a = a.view()
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class QFMap:
    """A quasi-free channel, stored as the defining pair (R, Z).

    :attr:`sigma` computes R's singular values on first use, the way
    ``Channel`` computes its ``jam_spectrum``.  The constructors of this
    module that check R's norm fill it with the values of that check.
    """

    r: np.ndarray
    z: np.ndarray

    @cached_property
    def sigma(self) -> np.ndarray:
        """Singular values of R, descending; computed once, read-only."""
        return _read_only(singular_values(self.r))

    @property
    def modes(self) -> int:
        return self.r.shape[0]


def _with_sigma(m: QFMap, sigma: np.ndarray) -> QFMap:
    """``m`` with its cache filled by ``sigma``, R's singular values as computed here."""
    m.__dict__["sigma"] = _read_only(sigma)
    return m


def qf_validate(r: np.ndarray, z: np.ndarray, tol: float = SYMBOL_TOL) -> QFMap:
    """Validate the defining constraint 0 <= Z <= 1 - R^dag R."""
    r = _as_square(np.asarray(r, dtype=complex))
    z = _as_square(np.asarray(z, dtype=complex))
    if r.shape != z.shape:
        raise DimensionError(f"R and Z shapes differ: {r.shape} vs {z.shape}")
    check_spectrum(hermitian_eigvals(z, tol, "Z"), tol, error=ConstraintError, what="Z")
    # the gap is symmetrized first, so only Z's own Hermiticity is checked
    gap = hermitian_part(np.eye(r.shape[0]) - r.conj().T @ r - z)
    what = "1 - R^dag R - Z"
    check_spectrum(hermitian_eigvals(gap, tol, what), tol, error=ConstraintError, what=what)
    return QFMap(r, z)


def qf_apply(m: QFMap, q: np.ndarray) -> np.ndarray:
    """Symbol action Q -> R^dag Q R + Z."""
    q = _as_square(np.asarray(q, dtype=complex))
    if q.shape[0] != m.modes:
        raise DimensionError(f"symbol dim {q.shape[0]} does not match map modes {m.modes}")
    return m.r.conj().T @ q @ m.r + m.z


def qf_compose(later: QFMap, earlier: QFMap) -> QFMap:
    """Concatenation later after earlier.

    Defined by qf_apply(result, Q) == qf_apply(later, qf_apply(earlier, Q))
    for every symbol, which forces

        R = R_earlier R_later,
        Z = R_later^dag Z_earlier R_later + Z_later.
    """
    if later.modes != earlier.modes:
        raise DimensionError(f"modes differ: {later.modes} vs {earlier.modes}")
    r = earlier.r @ later.r
    z = hermitian_part(later.r.conj().T @ earlier.z @ later.r + later.z)
    return QFMap(r, z)


def _half_symbol(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """The 2N-mode symbol [[1, upper], [upper^dag, lower]]/2, filled in place."""
    n = upper.shape[0]
    sym = np.zeros((2 * n, 2 * n), dtype=complex)
    sym[:n, :n] = np.eye(n)
    sym[:n, n:] = upper
    sym[n:, :n] = upper.conj().T
    sym[n:, n:] = lower
    sym *= 0.5
    return sym


def qf_jam_symbol(m: QFMap) -> np.ndarray:
    """The 2N-mode symbol encoding the map, block form [[1, R], [R^dag, R^dag R + 2Z]]/2."""
    return _half_symbol(m.r, hermitian_part(m.r.conj().T @ m.r + 2 * m.z))


def _split_blocks(sym: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    sym = _as_square(np.asarray(sym, dtype=complex))
    d = sym.shape[0]
    if d % 2 != 0:
        raise BlockFormError(f"symbol dimension {d} is odd")
    n = d // 2
    if np.abs(sym[:n, :n] - 0.5 * np.eye(n)).max() > tol:
        raise BlockFormError("top-left block is not 1/2 identity")
    return 2 * sym[:n, n:], 2 * sym[n:, n:]


def qf_odot_symbol(later_sym: np.ndarray, earlier_sym: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Composition law on 2N-mode map symbols, later operand on the left.

    Matches qf_jam_symbol(qf_compose(later, earlier)); the law is affine in
    the earlier operand and quadratic in the later one.
    """
    l1, l2 = _split_blocks(later_sym, tol)
    e1, e2 = _split_blocks(earlier_sym, tol)
    if l1.shape != e1.shape:
        raise DimensionError(f"operand mode counts differ: {l1.shape[0]} vs {e1.shape[0]}")
    t2 = hermitian_part(l1.conj().T @ (e2 - np.eye(l1.shape[0])) @ l1 + l2)
    return _half_symbol(e1 @ l1, t2)


def qf_state_entropy(q: np.ndarray, tol: float = SYMBOL_TOL) -> float:
    """Entropy of a quasi-free state: sum over eigenvalues of eta(q) + eta(1-q)."""
    vals = np.clip(_symbol_spectrum(np.asarray(q, dtype=complex), tol), 0.0, 1.0)
    return float(np.sum(eta(vals)) + np.sum(eta(1.0 - vals)))


def qf_map_entropy(m: QFMap) -> float:
    """Entropy of the 2N-mode symbol encoding the map."""
    return qf_state_entropy(qf_jam_symbol(m))


def _require_contraction(sigma: np.ndarray, tol: float) -> None:
    if sigma.max() > 1 + tol:
        raise NormError("R has operator norm above 1")


def qf_bistochastic_entropy(r: np.ndarray | QFMap) -> float:
    """Closed form for bistochastic maps: 2 sum_j eta((1+l_j)/2) + eta((1-l_j)/2)
    over the singular values l_j of R.

    Takes R, or a map whose cached singular values it reads.  The symbol's
    eigenvalues (1 +- l_j)/2 lie in [0, 1] iff l_j <= 1, so an operator norm
    of R above 1 + SYMBOL_TOL raises :class:`NormError`.
    """
    lam = r.sigma if isinstance(r, QFMap) else singular_values(r)
    _require_contraction(lam, SYMBOL_TOL)
    lam = np.clip(lam, 0.0, 1.0)
    return float(2 * np.sum(eta((1 + lam) / 2) + eta((1 - lam) / 2)))


def qf_extreme_entropy(r: np.ndarray, p: np.ndarray) -> float:
    """Closed form for extreme maps via the N-dim symbol (1 + |R|^2 - 2|R| P |R|)/2."""
    r = _as_square(np.asarray(r, dtype=complex))
    abs_r = psd_sqrt(r.conj().T @ r)
    sym = hermitian_part(0.5 * (np.eye(r.shape[0]) + abs_r @ abs_r - 2 * abs_r @ p @ abs_r))
    return qf_state_entropy(sym, tol=1e-8)


def _bistochastic_z(r: np.ndarray) -> np.ndarray:
    return hermitian_part(np.eye(r.shape[0]) - r.conj().T @ r) / 2


def qf_bistochastic(r: np.ndarray, tol: float = SYMBOL_TOL) -> QFMap:
    """The bistochastic map with Z = (1 - R^dag R)/2; requires ||R|| <= 1."""
    r = _as_square(np.asarray(r, dtype=complex))
    sigma = singular_values(r)
    _require_contraction(sigma, tol)
    return _with_sigma(QFMap(r, _bistochastic_z(r)), sigma)


def qf_adjoint(m: QFMap) -> QFMap:
    """The bistochastic map of R^dag, for a bistochastic map ``m`` of R.

    On centered symbols X = Q - 1/2, ``m`` acts as X -> R^dag X R, and its
    Hilbert-Schmidt adjoint X -> R X R^dag is the bistochastic map of R^dag.
    R^dag has R's singular values, so the result shares ``m``'s cache, and
    the norm check reads it instead of a new SVD.  Only ``m``'s R and its
    singular values are read.
    """
    _require_contraction(m.sigma, SYMBOL_TOL)
    r = m.r.conj().T
    return _with_sigma(QFMap(r, _bistochastic_z(r)), m.sigma)


def qf_extreme(r: np.ndarray, p: np.ndarray, tol: float = SYMBOL_TOL) -> QFMap:
    """The extreme map with Z = sqrt(1 - R^dag R) P sqrt(1 - R^dag R)."""
    r = _as_square(np.asarray(r, dtype=complex))
    p = _as_square(np.asarray(p, dtype=complex))
    if p.shape != r.shape:
        raise DimensionError(f"P shape {p.shape} does not match R shape {r.shape}")
    sigma = singular_values(r)
    _require_contraction(sigma, tol)
    if hermiticity_defect(p) > tol or np.abs(p @ p - p).max() > 1e-8:
        raise ProjectorError("P is not an orthogonal projector within tolerance")
    w = psd_sqrt(np.eye(r.shape[0]) - r.conj().T @ r)
    return _with_sigma(QFMap(r, hermitian_part(w @ p @ w)), sigma)


# -- Fock-space realization --------------------------------------------------

MODE_LIMIT = 4


def _compound(m: np.ndarray, k: int) -> np.ndarray:
    """k-th compound matrix: minors det(m[rows, cols]) over k-subsets.

    Equals the restriction of the k-fold tensor power to the antisymmetric
    subspace, in the basis of lexicographically ordered Slater vectors.
    """
    n = m.shape[0]
    if k == 0:
        return np.ones((1, 1), dtype=m.dtype)
    subs = np.array(list(combinations(range(n), k)))
    # The C(n,k)**2 minors as one (C, C, k, k) stack, in one det call.
    return np.linalg.det(m[subs[:, None, :, None], subs[None, :, None, :]])


def fock_density(q: np.ndarray, tol: float = SYMBOL_TOL) -> np.ndarray:
    """Density matrix of the quasi-free state with symbol Q on Fock space.

    The 2**N-dimensional space is ordered by particle sectors k = 0..N,
    each sector in lexicographic Slater order.  For eigenvalues strictly
    below 1 the state is det(1-Q) times the direct sum of the compound
    matrices of Q/(1-Q); a projector symbol yields the corresponding pure
    Slater state.  Symbols with unit eigenvalues that are not projectors
    are refused.
    """
    q = np.asarray(q, dtype=complex)
    vals, vecs = eig_hermitian(q, hermit_tol=tol)
    check_spectrum(vals, tol, upper=1.0, error=ConstraintError, what="symbol")
    n = q.shape[0]
    if n > MODE_LIMIT:
        raise ModeLimitError(f"explicit Fock construction limited to {MODE_LIMIT} modes")
    vals = np.clip(vals, 0.0, 1.0)
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    if vals.max() < 1 - tol:
        ratio = (vecs * (vals / (1 - vals))) @ vecs.conj().T
        weight = float(np.prod(1 - vals))
        offset = 0
        for k in range(n + 1):
            block = weight * _compound(ratio, k)
            s = block.shape[0]
            out[offset : offset + s, offset : offset + s] = block
            offset += s
    elif np.abs(vals - np.round(vals)).max() <= tol:
        # projector symbol: pure Slater-type state in the rank-k sector
        k = int(np.round(vals.sum()))
        offset = sum(math.comb(n, j) for j in range(k))
        block = _compound((vecs * np.round(vals)) @ vecs.conj().T, k)
        out[offset : offset + block.shape[0], offset : offset + block.shape[0]] = block
    else:
        raise SingularSymbolError(
            "symbol has a unit eigenvalue but is not a projector; no finite density form"
        )
    return out
