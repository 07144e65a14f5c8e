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

A :class:`Channel` may also hold a stack of maps, a ``(B, N**2, N**2)``
stack of Choi matrices; its spectra, states, entropies, compositions and
outputs then come one per member, and each member gets exactly the bits of
its own single-map call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
    _float_or_stack,
    _square_side,
    check_density,
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

    One slot per eigenvalue of the Choi matrix, N**2 of them: the weights
    are the eigenvalues, with those at or below ``KRAUS_CUTOFF`` set to 0
    and their operators to exact zeros, and satisfy
    ``tr(A_a^dag A_b) = d_a delta_ab``; for a trace-preserving channel
    ``sum_a A_a^dag A_a = eye``.  ``len`` is N**2; the Kraus rank is
    ``np.count_nonzero(weights, axis=-1)``.
    """

    operators: np.ndarray  # shape (N**2, N, N), or (B, N**2, N, N) for a stack of channels
    weights: np.ndarray  # shape (N**2,) or (B, N**2), descending

    @property
    def dim(self) -> int:
        return self.operators.shape[-1]

    def __len__(self) -> int:
        return self.operators.shape[-3]


class Channel:
    """A quantum map, or a stack of them, with the Choi matrix as the canonical representation.

    ``choi`` is one Choi matrix D or a ``(B, N**2, N**2)`` stack of them.
    The CP/TP/unitality flags, the spectrum of D/N and the eigendecomposition
    of D are cached properties, computed on first use; instances should be
    treated as immutable.  A stack's flags say that every member has the
    property, within ``FLAG_TOL``.
    """

    def __init__(self, choi: np.ndarray):
        choi = np.asarray(choi, dtype=complex)
        self._dim = _square_side(choi, stack=True)
        if choi.ndim > 3:
            raise DimensionError(f"expected a Choi matrix or a stack of them, got shape {choi.shape}")
        self.choi = choi

    @property
    def dim(self) -> int:
        return self._dim

    @classmethod
    def from_superop(cls, m: np.ndarray) -> "Channel":
        """Build from the N**2-dimensional superoperator matrix."""
        return cls(reshuffle(np.asarray(m, dtype=complex)))

    @classmethod
    def from_kraus(cls, operators) -> "Channel":
        """Build from a nonempty list of equal-dimension Kraus operators."""
        ops = [np.asarray(a, dtype=complex) for a in operators]
        if not ops:
            raise DimensionError("empty Kraus operator list")
        n = _as_square(ops[0]).shape[0]
        if any(a.shape != (n, n) for a in ops):
            raise DimensionError("Kraus operators have mixed dimensions")
        d = sum(np.outer(a.reshape(-1), a.reshape(-1).conj()) for a in ops)
        return cls(d)

    @property
    def superop(self) -> np.ndarray:
        return reshuffle(self.choi)

    @cached_property
    def jam_spectrum(self) -> np.ndarray:
        """Ascending eigenvalues of the Jamiolkowski matrix D/N, computed once; read-only."""
        vals = hermitian_eigvals(self.choi / self._dim, FLAG_TOL, "D/N")
        vals.flags.writeable = False
        return vals

    @cached_property
    def choi_eig(self) -> tuple[np.ndarray, np.ndarray]:
        """``eig_hermitian(D, FLAG_TOL)``: ascending eigenvalues and eigenvector columns of D.

        Computed once; read-only.
        """
        vals, vecs = eig_hermitian(self.choi, FLAG_TOL, self._hermiticity_defect)
        vals.flags.writeable = vecs.flags.writeable = False
        return vals, vecs

    @cached_property
    def _hermiticity_defect(self) -> float:
        """``hermiticity_defect(D)``, the largest member's for a stack; computed once."""
        return hermiticity_defect(self.choi).max(initial=0.0)

    # -- structural predicates -------------------------------------------

    @cached_property
    def is_cp(self) -> bool:
        """D is Hermitian within ``FLAG_TOL`` and N * min eig(D/N) >= -FLAG_TOL."""
        hermitian = self._hermiticity_defect <= FLAG_TOL
        return bool(hermitian and self._dim * self.jam_spectrum.min() >= -FLAG_TOL)

    @cached_property
    def is_tp(self) -> bool:
        return bool(_tp_defect(self.choi).max() <= FLAG_TOL)

    @cached_property
    def is_unital(self) -> bool:
        return bool(np.abs(partial_trace(self.choi, "B") - np.eye(self._dim)).max() <= FLAG_TOL)

    # -- action and algebra ----------------------------------------------

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Act on an N-dimensional matrix; a stack acts on one matrix or on one per member."""
        rho = np.asarray(rho, dtype=complex)
        n = self._dim
        lead = self.choi.shape[:-2]
        if rho.shape != (n, n) and rho.shape != lead + (n, n):
            raise DimensionError(f"state shape {rho.shape} does not match dim {n}")
        d4 = self.choi.reshape(lead + (n, n, n, n))
        return np.einsum("...mnuv,...nv->...mu", d4, rho)

    def compose(self, earlier: "Channel") -> "Channel":
        """Concatenation self after earlier, member by member for stacks of one size.

        Choi matrices multiply reshuffled.
        """
        if earlier.dim != self._dim:
            raise DimensionError(f"dims differ: {self._dim} vs {earlier.dim}")
        return Channel(odot_raw(self.choi, earlier.choi))

    def adjoint(self) -> "Channel":
        """The conjugate map rho -> conj(Phi(conj(rho))); Choi is conjugated."""
        return Channel(self.choi.conj())

    def power(self, n: int) -> "Channel":
        """n-fold self-concatenation."""
        if n < 1:
            raise ValueError("power requires n >= 1")
        out = self
        for _ in range(n - 1):
            out = out.compose(self)
        return out


def to_kraus(channel: Channel) -> KrausSet:
    """Canonical Kraus form from the cached Choi eigendecomposition.

    One slot per eigenvalue of D, ordered by descending weight; weights at
    or below ``KRAUS_CUTOFF`` are 0 and their operators exact zeros.  Each
    eigenvector's phase is fixed by making its first significant component
    real positive, so the output is deterministic for a given Choi matrix.
    A stack of channels gets ``(B, N**2, N, N)`` operators and ``(B, N**2)``
    weights, and each member the bits of its own call.
    """
    if not channel.is_cp:
        raise PositivityError("channel is not completely positive")
    vals, vecs = channel.choi_eig
    order = np.argsort(-vals, axis=-1, kind="stable")
    # order, with index arrays for the leading axes, moves each eigenvector as a
    # whole row; take_along_axis would gather it entry by entry, 4x slower.
    pick = (*np.indices(order.shape[:-1] + (1,), sparse=True)[:-1], order)
    vals = vals[pick]
    return _kraus_set(np.where(vals > KRAUS_CUTOFF, vals, 0.0), vecs.swapaxes(-1, -2)[pick], channel.dim)


def _kraus_set(weights: np.ndarray, rows: np.ndarray, n: int) -> KrausSet:
    """Kraus operators from eigenvectors of D and their weights, over leading axes.

    ``rows`` holds one eigenvector per row and is scaled in place.
    """
    mags = np.abs(rows)
    first = np.argmax(mags > 1e-8 * mags.max(axis=-1, keepdims=True), axis=-1)
    lead = np.take_along_axis(rows, first[..., None], axis=-1)
    rows *= lead.conj() / np.abs(lead)
    rows *= np.sqrt(weights)[..., None]
    return KrausSet(rows.reshape(rows.shape[:-1] + (n, n)), weights)


def apply_kraus(operators, rho: np.ndarray) -> np.ndarray:
    """sum_a A_a rho A_a^dag, summed in order, for operators ``(..., M, N, N)`` and states ``(..., N, N)``."""
    ops, rho = np.asarray(operators), np.asarray(rho, dtype=complex)
    out = np.zeros(np.broadcast_shapes(ops.shape[:-3] + ops.shape[-2:], rho.shape), dtype=complex)
    for a in np.moveaxis(ops, -3, 0):
        out += a @ rho @ a.conj().swapaxes(-1, -2)
    return out


def _tp_defect(choi: np.ndarray):
    """Max-norm distance of the first partial trace of D from the identity, per matrix of a stack."""
    return np.abs(partial_trace(choi, "A") - np.eye(math.isqrt(choi.shape[-1]))).max(axis=(-2, -1))


def _require_cptp(channel: Channel) -> None:
    if not channel.is_cp:
        raise PositivityError("channel is not completely positive")
    if not channel.is_tp:
        raise TraceError("channel is not trace preserving")


def jam_state(channel: Channel) -> np.ndarray:
    """The Jamiolkowski state Choi/N of a CP-TP channel, or the stack of a stack's."""
    _require_cptp(channel)
    return channel.choi / channel.dim


def map_entropy(channel: Channel):
    """Entropy of the Jamiolkowski state, in [0, 2 ln N], from the cached spectrum.

    A float, or an array of one per member for a stack.
    """
    _require_cptp(channel)
    return _map_entropy_in_range(spectrum_entropy(channel.jam_spectrum), channel.dim)


def _map_entropy_in_range(s, n: int):
    """``s``; raise unless each map entropy in it lies in [0, 2 ln N] up to round-off."""
    if not (-1e-12 <= np.min(s) and np.max(s) <= 2 * np.log(n) + 1e-9):
        raise NumericalError(f"map entropy {s} outside [0, 2 ln N]")
    return s


def sigma_hat(channel: Channel, rho: np.ndarray) -> np.ndarray:
    """Correlation matrix sigma[a, b] = tr(rho A_b^dag A_a).

    Indexed by the N**2 canonical Kraus slots, so it is N**2 x N**2, with
    zero rows and columns for the zero-weight slots.  It is PSD with unit
    trace for a TP channel; spectral quantities are independent of the
    Kraus labeling.  A stack of channels takes one state or one per member
    and gets a ``(B, N**2, N**2)`` stack.
    """
    ops = to_kraus(channel).operators
    t = ops @ np.asarray(rho, dtype=complex)[..., None, :, :]
    return np.einsum("...aij,...bij->...ab", t, ops.conj())


def entropy_exchange(channel: Channel, rho: np.ndarray):
    """Entropy of the correlation matrix sigma_hat; one per member of a stack."""
    return von_neumann_entropy(sigma_hat(channel, rho))


def tracial_spectrum_defect(channel: Channel):
    """max |spec sigma_hat(1/N) - spec D/N|; one per member of a stack.

    At the tracial state sigma_hat has the spectrum of D/N, so this vanishes up to round-off.
    """
    n = channel.dim
    sigma = sigma_hat(channel, np.eye(n, dtype=complex) / n)
    jam = np.linalg.eigvalsh(jam_state(channel))
    return _float_or_stack(np.abs(np.linalg.eigvalsh(sigma) - jam).max(axis=-1))


def purified_exchange_entropy(channel: Channel, rho: np.ndarray):
    """Exchange entropy via purification; one per member of a stack, on one state or one per member.

    Purifies rho over a reference copy (channel acting on the second leg,
    whose reduction is rho) and returns the entropy of the evolved joint
    state; equals ``entropy_exchange`` for any purification.
    """
    rho = np.asarray(rho, dtype=complex)
    n = channel.dim
    if rho.shape != (n, n) and rho.shape != channel.choi.shape[:-2] + (n, n):
        raise DimensionError(f"state shape {rho.shape} does not match channel dim {n}")
    p, v = eig_hermitian(rho)
    check_density(rho, p)
    p = np.clip(p, 0.0, None)
    phi = np.zeros(rho.shape[:-2] + (n * n,), dtype=complex)
    for i in range(n):  # the Kronecker products v_i (x) v_i, summed in order
        phi += np.sqrt(p[..., i, None]) * (v[..., :, i, None] * v[..., None, :, i]).reshape(phi.shape)
    joint = phi[..., :, None] * phi.conj()[..., None, :]
    # apply_kraus's sum, each 1 (x) A_a built for its own term only: a stack's
    # dilated operators, held at once, would take megabytes.  The product is
    # np.kron(eye, a)'s, without its per-call overhead.
    evolved = np.zeros(np.broadcast_shapes(channel.choi.shape, joint.shape), dtype=complex)
    eye = np.eye(n)[:, None, :, None]
    for a in np.moveaxis(to_kraus(channel).operators, -3, 0):
        dilated = (eye * a[..., None, :, None, :]).reshape(evolved.shape)
        evolved += dilated @ joint @ dilated.conj().swapaxes(-1, -2)
    return von_neumann_entropy(evolved)


def lindblad_operator(channel: Channel, rho: np.ndarray) -> np.ndarray:
    """The coupling state omega = sum_ab A_a rho A_b^dag (x) |a><b|.

    Lives on the composite of the system (dim N) and the Kraus-label space
    (dim M = N**2).  Its partial traces are the channel output and sigma_hat, and
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
    exchange: float


def lindblad_bounds(channel: Channel, rho: np.ndarray) -> LindbladBounds:
    """Two-sided bound |S(sigma) - S(rho)| <= S(rho') <= S(sigma) + S(rho).

    ``exchange`` is S(sigma), the exchange entropy the bounds are built from.
    """
    s_sigma = entropy_exchange(channel, rho)
    s_rho = von_neumann_entropy(rho)
    s_out = von_neumann_entropy(channel.apply(rho))
    return LindbladBounds(np.abs(s_sigma - s_rho), s_sigma + s_rho, s_out, s_sigma)


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
    return classical.validate_stochastic(_choi_diagonal(channel.choi), tol=1e-8)


def _choi_diagonal(choi: np.ndarray) -> np.ndarray:
    """The diagonal of D as an N x N real matrix, or of each D of a stack."""
    n = _square_side(choi, stack=True)
    return np.diagonal(choi, axis1=-2, axis2=-1).real.reshape(*choi.shape[:-2], n, n)


def diag_channel_from_stochastic(t: np.ndarray) -> Channel:
    """The channel with diagonal Choi matrix D[(a,b),(a,b)] = T[a, b].

    Acts on diagonal states exactly as the Markov step p' = T p and strips
    all off-diagonal entries.
    """
    return Channel(_diag_choi(classical.validate_stochastic(np.asarray(t, dtype=float))))


def _diag_choi(t: np.ndarray) -> np.ndarray:
    """D(T), the diagonal Choi matrix of a validated T, or of each T of a stack."""
    d = t.shape[-1] ** 2
    out = np.zeros((*t.shape[:-2], d, d), dtype=complex)
    out[..., np.arange(d), np.arange(d)] = np.maximum(t, 0.0).reshape(*t.shape[:-2], d)
    return out


# Samples whose N**2 x N**2 Choi matrices embedding_defects holds at once:
# a whole batch of them would raise the peak memory of a run by megabytes.
EMBED_CHUNK = 8


class EmbeddingDefects(NamedTuple):
    entropy_identity: float
    composition_covariance: float
    exchange_identity: float


def embedding_defects(t1: np.ndarray, t2: np.ndarray, p: np.ndarray) -> EmbeddingDefects:
    """Deviations from three identities of the diagonal embedding T -> D(T).

    * entropy_identity: S(D(T1)) - H(T1) - ln N, with S the map entropy;
    * composition_covariance: max |T(D(T2) D(T1)) - T2 T1|, where T(D) is
      the transition matrix read off the diagonal of D;
    * exchange_identity: S_ex(D(T1), diag P) - H_P(T1) - H(P), with the
      exchange entropy taken by the Kraus route.

    All three vanish up to round-off.  Takes one (T1, T2, P), giving floats,
    or stacks of them along leading axes, giving arrays.  The map entropies
    get the CP, TP and range checks of :func:`map_entropy`.  Choi matrices
    are built, and the exchange entropies taken, ``EMBED_CHUNK`` members at
    a time.
    """
    t1 = classical.validate_stochastic(t1)
    t2 = classical.validate_stochastic(t2)
    p = classical.validate_prob_vector(p)
    if t1.shape != t2.shape or t1.shape[:-1] != p.shape:
        raise DimensionError(f"shapes {t1.shape}, {t2.shape} and {p.shape} do not match")
    lead, n = t1.shape[:-2], t1.shape[-1]
    t1, t2, p = t1.reshape(-1, n, n), t2.reshape(-1, n, n), p.reshape(-1, n)
    spectra = np.empty((len(t1), n * n))
    composed = np.empty_like(t1)
    s_ex = np.empty(len(t1))
    for lo in range(0, len(t1), EMBED_CHUNK):
        part = slice(lo, lo + EMBED_CHUNK)
        d1, d2 = _diag_choi(t1[part]), _diag_choi(t2[part])
        ch = Channel(d1)
        states = np.zeros((len(d1), n, n), dtype=complex)
        states[:, np.arange(n), np.arange(n)] = p[part]
        # to_kraus raises unless the channels are CP, which it checks on the
        # spectra of D/N, as map_entropy does; the map entropies read them.
        s_ex[part] = entropy_exchange(ch, states)
        spectra[part] = ch.jam_spectrum
        if not np.all(_tp_defect(d1) <= FLAG_TOL):
            raise TraceError("channel is not trace preserving")
        composed[part] = _choi_diagonal(odot_raw(d2, d1))
    s_map = _map_entropy_in_range(spectrum_entropy(spectra), n)
    identity = s_map - classical.entropy_uniform(t1) - math.log(n)
    composed = classical.validate_stochastic(composed, tol=1e-8)
    covariance = np.abs(composed - t2 @ t1).max(axis=(-2, -1))
    exchange = s_ex - classical.entropy_weighted(t1, p) - classical.shannon_entropy(p)
    return EmbeddingDefects(*(_float_or_stack(x.reshape(lead)) for x in (identity, covariance, exchange)))


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
    "tracial_spectrum_defect",
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
    "EmbeddingDefects",
    "embedding_defects",
    "max_entangled_projector",
]
