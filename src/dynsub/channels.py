"""Quantum channels stored canonically as Choi matrices.

A linear map on N-dimensional matrices is held as its Choi (dynamical)
matrix ``D`` of dimension N**2, the reshuffle of the superoperator matrix.
Complete positivity, trace preservation and unitality are all read off D:

* CP      <=>  D is positive semidefinite (Choi's theorem);
* TP      <=>  partial trace of D over the first factor is the identity;
* unital  <=>  partial trace over the second factor is the identity.

The Jamiolkowski state is D/N; the entropy of a map is the von Neumann
entropy of that state, ranging from 0 (unitary) to 2 ln N (completely
depolarizing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import classical
from .errors import (
    DimensionError,
    NumericalError,
    PositivityError,
    TraceError,
    UnitarityError,
)
from .matcore import (
    _as_square,
    _square_side,
    eig_hermitian,
    hermitian_eigvals,
    hermiticity_defect,
    kron,
    max_entangled_projector,
    partial_trace,
    reshuffle,
    spectrum_entropy,
    validate_density_matrix,
    von_neumann_entropy,
)
from .statecomp import odot_raw

KRAUS_CUTOFF = 1e-10
FLAG_TOL = 1e-9


@dataclass
class KrausSet:
    """Canonical Kraus form: mutually orthogonal operators with weights.

    The weights are the eigenvalues of the Choi matrix and satisfy
    ``tr(A_a^dag A_b) = d_a delta_ab``; for a trace-preserving channel
    ``sum_a A_a^dag A_a = eye``.
    """

    operators: np.ndarray  # shape (M, N, N)
    weights: np.ndarray  # shape (M,), descending

    @property
    def dim(self) -> int:
        return self.operators.shape[1]

    def __len__(self) -> int:
        return self.operators.shape[0]


class Channel:
    """A quantum map with its Choi matrix as the canonical representation.

    The CP/TP/unitality flags and the spectrum of D/N, which gives ``is_cp``
    and :func:`map_entropy`, are computed from it on first use and cached;
    instances should be treated as immutable.  For concurrent use, call
    :meth:`revalidate` once before sharing across threads.
    """

    def __init__(self, choi: np.ndarray, tol: float = FLAG_TOL):
        choi = np.asarray(choi, dtype=complex)
        self._dim = _square_side(choi)
        self.choi = choi
        self.tol = tol
        self._is_cp: bool | None = None
        self._is_tp: bool | None = None
        self._is_unital: bool | None = None
        self._jam_spectrum: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self._dim

    @classmethod
    def from_superop(cls, m: np.ndarray, tol: float = FLAG_TOL) -> "Channel":
        """Build from the N**2-dimensional superoperator matrix."""
        return cls(reshuffle(np.asarray(m, dtype=complex)), tol=tol)

    @classmethod
    def from_kraus(cls, operators, tol: float = FLAG_TOL) -> "Channel":
        """Build from a nonempty list of equal-dimension Kraus operators."""
        ops = [np.asarray(a, dtype=complex) for a in operators]
        if not ops:
            raise DimensionError("empty Kraus operator list")
        n = _as_square(ops[0]).shape[0]
        if any(a.shape != (n, n) for a in ops):
            raise DimensionError("Kraus operators have mixed dimensions")
        d = sum(np.outer(a.reshape(-1), a.reshape(-1).conj()) for a in ops)
        return cls(d, tol=tol)

    @property
    def superop(self) -> np.ndarray:
        return reshuffle(self.choi)

    @property
    def jam_spectrum(self) -> np.ndarray:
        """Ascending eigenvalues of the Jamiolkowski matrix D/N, computed once; read-only."""
        if self._jam_spectrum is None:
            self._jam_spectrum = hermitian_eigvals(self.choi / self._dim, self.tol, "D/N")
            self._jam_spectrum.flags.writeable = False
        return self._jam_spectrum

    # -- structural predicates -------------------------------------------

    @property
    def is_cp(self) -> bool:
        """D is Hermitian within ``tol`` and N * min eig(D/N) >= -tol."""
        if self._is_cp is None:
            hermitian = hermiticity_defect(self.choi) <= self.tol
            self._is_cp = hermitian and bool(self._dim * self.jam_spectrum.min() >= -self.tol)
        return self._is_cp

    @property
    def is_tp(self) -> bool:
        if self._is_tp is None:
            dev = np.abs(partial_trace(self.choi, "A") - np.eye(self._dim)).max()
            self._is_tp = bool(dev <= self.tol)
        return self._is_tp

    @property
    def is_unital(self) -> bool:
        if self._is_unital is None:
            dev = np.abs(partial_trace(self.choi, "B") - np.eye(self._dim)).max()
            self._is_unital = bool(dev <= self.tol)
        return self._is_unital

    def revalidate(self) -> tuple[bool, bool, bool]:
        """Compute and cache all three flags; returns (cp, tp, unital)."""
        return (self.is_cp, self.is_tp, self.is_unital)

    # -- action and algebra ----------------------------------------------

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Act on an N-dimensional matrix."""
        rho = np.asarray(rho, dtype=complex)
        n = self._dim
        if rho.shape != (n, n):
            raise DimensionError(f"state shape {rho.shape} does not match dim {n}")
        d4 = self.choi.reshape(n, n, n, n)
        return np.einsum("mnuv,nv->mu", d4, rho)

    def compose(self, earlier: "Channel") -> "Channel":
        """Concatenation self after earlier; Choi matrices multiply reshuffled."""
        if earlier.dim != self._dim:
            raise DimensionError(f"dims differ: {self._dim} vs {earlier.dim}")
        return Channel(odot_raw(self.choi, earlier.choi), tol=self.tol)

    def adjoint(self) -> "Channel":
        """The conjugate map rho -> conj(Phi(conj(rho))); Choi is conjugated."""
        return Channel(self.choi.conj(), tol=self.tol)

    def power(self, n: int) -> "Channel":
        """n-fold self-concatenation."""
        if n < 1:
            raise ValueError("power requires n >= 1")
        out = self
        for _ in range(n - 1):
            out = out.compose(self)
        return out


def to_kraus(channel: Channel, cutoff: float = KRAUS_CUTOFF) -> KrausSet:
    """Canonical Kraus form from the Choi eigendecomposition.

    Eigenvalues below ``cutoff`` are dropped.  Operators are ordered by
    descending weight; each eigenvector's phase is fixed by making its
    first significant component real positive, so the output is
    deterministic for a given Choi matrix.
    """
    if not channel.is_cp:
        raise PositivityError("channel is not completely positive")
    n = channel.dim
    vals, vecs = eig_hermitian(channel.choi, hermit_tol=channel.tol)
    order = np.argsort(-vals, kind="stable")
    order = order[vals[order] > cutoff]
    if order.size == 0:
        return KrausSet(np.zeros((0, n, n), dtype=complex), np.zeros(0))
    weights = vals[order]
    cols = vecs[:, order]
    mags = np.abs(cols)
    first = np.argmax(mags > 1e-8 * mags.max(axis=0), axis=0)
    lead = cols[first, np.arange(cols.shape[1])]
    cols = cols * (lead.conj() / np.abs(lead))
    ops = (np.sqrt(weights) * cols).T.reshape(-1, n, n)
    return KrausSet(ops, weights)


def apply_kraus(operators, rho: np.ndarray) -> np.ndarray:
    """Evaluate sum_a A_a rho A_a^dag."""
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for a in operators:
        out += a @ rho @ a.conj().T
    return out


def _require_cptp(channel: Channel) -> None:
    if not channel.is_cp:
        raise PositivityError("channel is not completely positive")
    if not channel.is_tp:
        raise TraceError("channel is not trace preserving")


def jam_state(channel: Channel) -> np.ndarray:
    """The Jamiolkowski state Choi/N of a CP-TP channel."""
    _require_cptp(channel)
    return channel.choi / channel.dim


def map_entropy(channel: Channel) -> float:
    """Entropy of the Jamiolkowski state, in [0, 2 ln N], from the cached spectrum."""
    _require_cptp(channel)
    s = spectrum_entropy(channel.jam_spectrum)
    upper = 2 * np.log(channel.dim) + 1e-9
    if not -1e-12 <= s <= upper:
        raise NumericalError(f"map entropy {s} outside [0, 2 ln N]")
    return s


def sigma_hat(channel: Channel, rho: np.ndarray) -> np.ndarray:
    """Correlation matrix sigma[a, b] = tr(rho A_b^dag A_a).

    Indexed by the canonical Kraus labels, so its dimension equals the
    Kraus count (at most N**2).  It is PSD with unit trace for a TP
    channel; spectral quantities are independent of the Kraus labeling.
    """
    ks = to_kraus(channel)
    rho = np.asarray(rho, dtype=complex)
    t = ks.operators @ rho
    return np.einsum("aij,bij->ab", t, ks.operators.conj())


def entropy_exchange(channel: Channel, rho: np.ndarray) -> float:
    """Entropy of the correlation matrix sigma_hat."""
    return von_neumann_entropy(sigma_hat(channel, rho))


def purified_exchange_entropy(channel: Channel, rho: np.ndarray) -> float:
    """Exchange entropy via purification.

    Purifies rho over a reference copy (channel acting on the second leg,
    whose reduction is rho) and returns the entropy of the evolved joint
    state; equals ``entropy_exchange`` for any purification.
    """
    rho = validate_density_matrix(np.asarray(rho, dtype=complex))
    n = channel.dim
    if rho.shape != (n, n):
        raise DimensionError(f"state dim {rho.shape[0]} does not match channel dim {n}")
    p, v = eig_hermitian(rho)
    p = np.clip(p, 0.0, None)
    phi = np.zeros(n * n, dtype=complex)
    for i in range(n):
        phi += np.sqrt(p[i]) * kron(v[:, i], v[:, i])
    joint = np.outer(phi, phi.conj())
    ks = to_kraus(channel)
    evolved = apply_kraus([kron(np.eye(n), a) for a in ks.operators], joint)
    return von_neumann_entropy(evolved)


def lindblad_operator(channel: Channel, rho: np.ndarray) -> np.ndarray:
    """The coupling state omega = sum_ab A_a rho A_b^dag (x) |a><b|.

    Lives on the composite of the system (dim N) and the Kraus-label space
    (dim M).  Its partial traces are the channel output and sigma_hat, and
    its entropy equals that of rho (isometric image).
    """
    ks = to_kraus(channel)
    rho = np.asarray(rho, dtype=complex)
    n, m = channel.dim, len(ks)
    t = ks.operators @ rho
    blocks = np.einsum("aik,bjk->abij", t, ks.operators.conj())
    return blocks.transpose(2, 0, 3, 1).reshape(n * m, n * m)


class LindbladBounds(NamedTuple):
    lower: float
    upper: float
    actual: float


def lindblad_bounds(channel: Channel, rho: np.ndarray) -> LindbladBounds:
    """Two-sided bound |S(sigma) - S(rho)| <= S(rho') <= S(sigma) + S(rho)."""
    s_sigma = entropy_exchange(channel, rho)
    s_rho = von_neumann_entropy(rho)
    s_out = von_neumann_entropy(channel.apply(rho))
    return LindbladBounds(abs(s_sigma - s_rho), s_sigma + s_rho, s_out)


def coherent_information(channel: Channel, rho: np.ndarray) -> float:
    """S(Phi(rho)) - S(sigma_hat); monotone under concatenation."""
    return von_neumann_entropy(channel.apply(rho)) - entropy_exchange(channel, rho)


# -- named constructors ----------------------------------------------------


def identity_channel(n: int) -> Channel:
    return Channel.from_kraus([np.eye(n)])


def depolarizing_channel(n: int) -> Channel:
    """Sends every state to the maximally mixed one; Choi is eye/N."""
    return Channel(np.eye(n * n, dtype=complex) / n)


def coarse_graining_channel(n: int) -> Channel:
    """Strips off-diagonal entries; the diagonal channel of the identity matrix."""
    return diag_channel_from_stochastic(np.eye(n))


def contraction_channel(rho0: np.ndarray) -> Channel:
    """Sends every state to rho0; Choi is rho0 (x) eye."""
    rho0 = validate_density_matrix(np.asarray(rho0, dtype=complex))
    return Channel(kron(rho0, np.eye(rho0.shape[0])))


def unitary_channel(u: np.ndarray, tol: float = 1e-9) -> Channel:
    u = _as_square(np.asarray(u, dtype=complex))
    if np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() > tol:
        raise UnitarityError("matrix is not unitary within tolerance")
    return Channel.from_kraus([u])


# -- classical embedding ----------------------------------------------------


def stochastic_from_channel(channel: Channel) -> np.ndarray:
    """Read the transition matrix T[i, j] = D[(i,j), (i,j)] off the Choi diagonal."""
    n = channel.dim
    t = np.diag(channel.choi).real.reshape(n, n)
    return classical.validate_stochastic(t, tol=1e-8)


def diag_channel_from_stochastic(t: np.ndarray) -> Channel:
    """The channel with diagonal Choi matrix D[(a,b),(a,b)] = T[a, b].

    Acts on diagonal states exactly as the Markov step p' = T p and strips
    all off-diagonal entries.
    """
    t = classical.validate_stochastic(np.asarray(t, dtype=float))
    return Channel(np.diag(np.maximum(t, 0.0).reshape(-1)).astype(complex))


__all__ = [
    "Channel",
    "KrausSet",
    "LindbladBounds",
    "to_kraus",
    "apply_kraus",
    "jam_state",
    "map_entropy",
    "sigma_hat",
    "entropy_exchange",
    "purified_exchange_entropy",
    "lindblad_operator",
    "lindblad_bounds",
    "coherent_information",
    "identity_channel",
    "depolarizing_channel",
    "coarse_graining_channel",
    "contraction_channel",
    "unitary_channel",
    "stochastic_from_channel",
    "diag_channel_from_stochastic",
    "max_entangled_projector",
]
