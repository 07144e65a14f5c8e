"""Seeded random generation of test objects.

Randomness is organized in counter-based streams: a stream is identified by
``(master_seed, stream_index)`` and its output is independent of how
samples are scheduled or batched, so a violating sample can always be
replayed from its index.

The quasi-free samplers are split in two.  A ``draw_*`` function takes all
of one sample's draws from its stream, none of which depends on a
linear-algebra result, and returns them as a tuple; a builder turns draws
into objects, on stacks of many samples' draws (:func:`stack_draws`) as on
one sample's, and gives each member the bits of its own build.  A batch
thus draws sample by sample, in each stream's order, and runs its linear
algebra once per stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import Channel
from .errors import ConvergenceError, DomainError
from .matcore import _dag, _square_side, hermitian_part, partial_trace, psd_inv_sqrt, psd_sqrt
from .quasifree import QFMap, qf_bistochastic


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream addressed by (master_seed, stream_index)."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if self.master_seed < 0 or self.stream_index < 0:
            raise DomainError(
                f"seed and index must be nonnegative, got {self.master_seed} and {self.stream_index}"
            )

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,))
        return np.random.default_rng(seq)


def _gen(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def ginibre(n: int, rng) -> np.ndarray:
    """Matrix with i.i.d. standard complex Gaussian entries."""
    g = _gen(rng)
    return (g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))) / np.sqrt(2)


def _haar(gm: np.ndarray) -> np.ndarray:
    """The Haar unitary of a Ginibre matrix, or of each matrix of a stack: Q of its QR, phases fixed by R."""
    q, r = np.linalg.qr(gm)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    return _haar(ginibre(n, rng))


def random_density(n: int, rng) -> np.ndarray:
    """Full-rank random density matrix G G^dag / tr."""
    g = ginibre(n, rng)
    w = g @ g.conj().T
    return w / np.trace(w).real


def wishart_choi(n: int, rng) -> np.ndarray:
    """Wishart matrix G G^dag of an N**2 x N**2 Ginibre G; the start of a Sinkhorn draw."""
    gm = ginibre(n * n, rng)
    return gm @ gm.conj().T


def tp_renormalize(w: np.ndarray) -> np.ndarray:
    """``(1 (x) S) W (1 (x) S)^dag`` with ``S = (tr_A W)^(-1/2)``, for one W or a stack of them.

    Turns a positive definite Choi matrix into that of a trace-preserving
    map.  ``1 (x) S`` is the block-diagonal matrix of N copies of S, so the
    congruence is two stacked products and a stack's members get the bits
    of their own calls.
    """
    n = _square_side(w, stack=True)
    s = psd_inv_sqrt(partial_trace(w, "A"))
    left = np.zeros(w.shape, dtype=complex)
    for k in range(0, n * n, n):
        left[..., k : k + n, k : k + n] = s
    return left @ w @ left.conj().swapaxes(-1, -2)


def random_channel(n: int, rng) -> Channel:
    """Random CP-TP channel: :func:`tp_renormalize` of a :func:`wishart_choi` draw."""
    return Channel(tp_renormalize(wishart_choi(n, rng)))


def operator_sinkhorn(w: np.ndarray, tol: float = 1e-10, max_iter: int = 1000) -> np.ndarray:
    """Scale a stack of positive definite Choi matrices to bistochastic ones.

    Maps ``(B, N**2, N**2)`` to ``(B, N**2, N**2)``: each matrix alternately
    has its two marginals renormalized until both are the identity within
    ``tol``.  A draw leaves the batch at the iteration where it converges,
    so its result is the same in any batch.  Raises
    :class:`ConvergenceError` if a draw is still unconverged at ``max_iter``.
    """
    w = np.asarray(w)
    size, d = w.shape[0], w.shape[-1]
    n = math.isqrt(d)
    out = np.empty_like(w)
    live = np.arange(size)
    d4 = w.reshape(size, n, n, n, n)
    eye = np.eye(n)
    # Scaling by (1 (x) S) or (S (x) 1) acts on single tensor legs, so the
    # congruences are leg-wise contractions; the marginal just normalized is
    # the identity up to rounding, leaving one marginal to monitor.
    ma = np.einsum("kiaib->kab", d4)
    for _ in range(max_iter):
        s = psd_inv_sqrt(ma)
        d4 = np.einsum("knb,kmbuc->kmnuc", s, d4)
        d4 = np.einsum("kmnuc,kcv->kmnuv", d4, s)
        mb = np.einsum("kaibi->kab", d4)
        s = psd_inv_sqrt(mb)
        d4 = np.einsum("kma,kancv->kmncv", s, d4)
        d4 = np.einsum("kmncv,kcu->kmnuv", d4, s)
        ma = np.einsum("kiaib->kab", d4)
        err = np.abs(ma - eye).max(axis=(1, 2))
        if err.min() <= tol:
            done = err <= tol
            out[live[done]] = d4[done].reshape(-1, d, d)
            if done.all():
                return out
            live, d4, ma = live[~done], d4[~done], ma[~done]
    raise ConvergenceError(f"operator Sinkhorn did not reach {tol} in {max_iter} iterations")


def random_bistochastic_channel(
    n: int,
    rng,
    method: str = "sinkhorn",
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> Channel:
    """Random CP-TP-unital channel.

    ``sinkhorn`` runs :func:`operator_sinkhorn` on a :func:`wishart_choi`
    draw; ``unitary_mixture`` mixes N**2 Haar unitaries with Dirichlet
    weights (structurally bistochastic, but covers less of the bistochastic
    set).
    """
    g = _gen(rng)
    if method == "unitary_mixture":
        k = n * n
        weights = g.dirichlet(np.ones(k))
        d = np.zeros((n * n, n * n), dtype=complex)
        for p in weights:
            v = haar_unitary(n, g).reshape(-1)
            d += p * np.outer(v, v.conj())
        return Channel(d)
    if method != "sinkhorn":
        raise ValueError(f"unknown method {method!r}")
    return Channel(operator_sinkhorn(wishart_choi(n, g)[None], tol, max_iter)[0])


def random_stochastic(n: int, rng) -> np.ndarray:
    """Column-stochastic matrix with Dirichlet(1, ..., 1) columns."""
    g = _gen(rng)
    return g.dirichlet(np.ones(n), size=n).T


def positive_matrix(n: int, rng) -> np.ndarray:
    """N x N matrix with entries uniform in [0.05, 1); the start of a matrix Sinkhorn draw."""
    return _gen(rng).uniform(0.05, 1.0, size=(n, n))


def matrix_sinkhorn(m: np.ndarray, tol: float = 1e-12, max_iter: int = 10000) -> np.ndarray:
    """Scale a stack of positive matrices to bistochastic ones.

    Maps ``(B, N, N)`` to ``(B, N, N)``: each matrix alternately has its
    columns and its rows normalized until all sums are 1 within ``tol``.  A
    matrix leaves the stack at the step where it converges, so its result
    is the same in any stack.  Raises :class:`ConvergenceError` if a matrix
    is still unconverged at ``max_iter``.
    """
    m = np.asarray(m, dtype=float)
    out = np.empty_like(m)
    live = np.arange(len(m))
    # The column sums checked at the end of a step divide the next one.
    col = m.sum(axis=1, keepdims=True)
    for _ in range(max_iter):
        m = m / col
        m = m / m.sum(axis=2, keepdims=True)
        col = m.sum(axis=1, keepdims=True)
        err = np.abs(col - 1.0).max(axis=(1, 2))
        if err.min() <= tol:
            done = (err <= tol) & (np.abs(m.sum(axis=2) - 1.0).max(axis=1) <= tol)
            out[live[done]] = m[done]
            if done.all():
                return out
            live, m, col = live[~done], m[~done], col[~done]
    raise ConvergenceError(f"Sinkhorn did not reach {tol} in {max_iter} iterations")


def random_bistochastic_matrix(n: int, rng, tol: float = 1e-12, max_iter: int = 10000) -> np.ndarray:
    """Bistochastic matrix: :func:`matrix_sinkhorn` of a :func:`positive_matrix` draw."""
    return matrix_sinkhorn(positive_matrix(n, rng)[None], tol, max_iter)[0]


def stack_draws(draws: list[tuple]) -> tuple:
    """The draws of several samples, one ``draw_*`` tuple each, stacked field by field."""
    return tuple(np.array(field) for field in zip(*draws))


def draw_symbol(n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """The draws of :func:`random_symbol`: a Ginibre matrix, then N eigenvalues uniform in (0, 1)."""
    g = _gen(rng)
    return ginibre(n, g), g.uniform(0.0, 1.0, n)


def symbols(gm: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The symbols V diag(weights) V^dag, V the Haar unitary of ``gm``; of one draw or of stacks."""
    v = _haar(gm)
    return hermitian_part((v * weights[..., None, :]) @ _dag(v))


def random_symbol(n: int, rng) -> np.ndarray:
    """Random quasi-free state symbol with eigenvalues uniform in (0, 1)."""
    return symbols(*draw_symbol(n, rng))


def draw_contraction(n: int, rng) -> tuple[np.ndarray, float]:
    """The draws of :func:`random_contraction`: a Ginibre matrix, then a norm uniform in [0, 1)."""
    g = _gen(rng)
    return ginibre(n, g), g.uniform(0.0, 1.0)


def contractions(gm: np.ndarray, norm) -> np.ndarray:
    """``gm`` rescaled to operator norm ``norm``; of one draw or of stacks."""
    top = np.linalg.svd(gm, compute_uv=False)[..., :1, None]
    return gm / top * np.asarray(norm)[..., None, None]


def random_contraction(n: int, rng) -> np.ndarray:
    """Ginibre matrix rescaled to operator norm uniform in [0, 1)."""
    return contractions(*draw_contraction(n, rng))


def draw_projector(n: int, rng, rank: int | None = None) -> tuple[np.ndarray, int]:
    """The draws of :func:`random_projector`: the rank unless given, then a Ginibre matrix.

    A rank-0 projector draws no matrix; zeros stand in for it.
    """
    g = _gen(rng)
    if rank is None:
        rank = int(g.integers(0, n + 1))
    return (ginibre(n, g) if rank else np.zeros((n, n), dtype=complex)), rank


def projectors(gm: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Projectors U_k U_k^dag on the first ``rank`` columns of the Haar unitaries of a ``(B, N, N)`` stack.

    ``rank`` holds the ``(B,)`` ranks; a member of rank 0 is the zero
    matrix.  Members are taken one rank at a time, so each product has the
    inner dimension of its own draw's.
    """
    out = np.zeros(gm.shape, dtype=complex)
    for k in set(rank.tolist()) - {0}:
        members = rank == k
        u = _haar(gm[members])[..., :k]
        out[members] = u @ _dag(u)
    return out


def random_projector(n: int, rng, rank: int | None = None) -> np.ndarray:
    """Haar-random orthogonal projector; rank uniform in 0..N when not given."""
    gm, rank = draw_projector(n, rng, rank)
    return projectors(gm[None], np.array([rank]))[0]


def draw_qf_map(n: int, rng) -> tuple:
    """The draws of a general :func:`random_qf_map`, the arguments of :func:`qf_maps`.

    R's :func:`draw_contraction`, then an even coin for an extreme map,
    then the :func:`draw_projector` of an extreme map (no weights: zeros
    stand in) or the :func:`draw_symbol` of an interior one (rank 0).
    """
    g = _gen(rng)
    gm, norm = draw_contraction(n, g)
    if g.uniform() < 0.5:
        x, rank = draw_projector(n, g)
        return gm, norm, True, x, rank, np.zeros(n)
    x, weights = draw_symbol(n, g)
    return gm, norm, False, x, 0, weights


def qf_maps(gm, norm, extreme, x, rank, weights) -> QFMap:
    """The general maps of a stack of :func:`draw_qf_map` draws, ``(B, ...)`` each.

    R is the contraction of ``(gm, norm)`` and Z = W C W with
    W = sqrt(1 - R^dag R): C is the member's projector where ``extreme``
    (the extreme map that ``quasifree.qf_extreme`` builds), else its symbol
    0 <= C <= 1 (an interior map).
    """
    r = contractions(gm, norm)
    c = projectors(x, rank)  # an interior member has rank 0: zeros until its symbol
    interior = ~extreme
    c[interior] = symbols(x[interior], weights[interior])
    w = psd_sqrt(np.eye(r.shape[-1]) - _dag(r) @ r)
    return QFMap(r, hermitian_part(w @ c @ w))


def random_qf_map(n: int, rng, bistochastic: bool = False) -> QFMap:
    """Random quasi-free channel.

    Bistochastic draws fix Z = (1 - R^dag R)/2.  Otherwise the draw is an
    extreme map (Haar projector of uniform rank) or an interior point with
    Z = sqrt(1 - R^dag R) C sqrt(1 - R^dag R) for a random contraction
    0 <= C <= 1, with even odds.
    """
    g = _gen(rng)
    if bistochastic:
        return qf_bistochastic(random_contraction(n, g))
    m = qf_maps(*stack_draws([draw_qf_map(n, g)]))
    return QFMap(m.r[0], m.z[0])
