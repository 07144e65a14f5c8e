"""Seeded random generation of test objects.

Randomness is organized in counter-based streams: a stream is identified by
``(master_seed, stream_index)`` and its output is independent of how
samples are scheduled or batched, so a violating sample can always be
replayed from its index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import Channel
from .errors import ConvergenceError
from .matcore import hermitian_part, kron, partial_trace, psd_inv_sqrt, psd_sqrt
from .quasifree import QFMap, qf_bistochastic, qf_extreme


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream addressed by (master_seed, stream_index)."""

    master_seed: int
    stream_index: int = 0

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


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    q, r = np.linalg.qr(ginibre(n, rng))
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_density(n: int, rng) -> np.ndarray:
    """Full-rank random density matrix G G^dag / tr."""
    g = ginibre(n, rng)
    w = g @ g.conj().T
    return w / np.trace(w).real


def wishart_choi(n: int, rng) -> np.ndarray:
    """Wishart matrix G G^dag of an N**2 x N**2 Ginibre G; the start of a Sinkhorn draw."""
    gm = ginibre(n * n, rng)
    return gm @ gm.conj().T


def random_channel(n: int, rng) -> Channel:
    """Random CP-TP channel: a Wishart Choi matrix renormalized on one marginal."""
    w = wishart_choi(n, rng)
    s = psd_inv_sqrt(partial_trace(w, "A"))
    left = kron(np.eye(n), s)
    return Channel(left @ w @ left.conj().T)


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


def random_symbol(n: int, rng) -> np.ndarray:
    """Random quasi-free state symbol with eigenvalues uniform in (0, 1)."""
    g = _gen(rng)
    v = haar_unitary(n, g)
    return hermitian_part((v * g.uniform(0.0, 1.0, n)) @ v.conj().T)


def random_contraction(n: int, rng) -> np.ndarray:
    """Ginibre matrix rescaled to operator norm uniform in (0, 1]."""
    g = _gen(rng)
    gm = ginibre(n, g)
    top = np.linalg.svd(gm, compute_uv=False)[0]
    return gm / top * g.uniform(0.0, 1.0)


def random_projector(n: int, rng, rank: int | None = None) -> np.ndarray:
    """Haar-random orthogonal projector; rank uniform in 0..N when not given."""
    g = _gen(rng)
    if rank is None:
        rank = int(g.integers(0, n + 1))
    if rank == 0:
        return np.zeros((n, n), dtype=complex)
    u = haar_unitary(n, g)[:, :rank]
    return u @ u.conj().T


def random_qf_map(n: int, rng, bistochastic: bool = False) -> QFMap:
    """Random quasi-free channel.

    Bistochastic draws fix Z = (1 - R^dag R)/2.  Otherwise the draw is an
    extreme map (Haar projector of uniform rank) or an interior point with
    Z = sqrt(1 - R^dag R) C sqrt(1 - R^dag R) for a random contraction
    0 <= C <= 1, with even odds.
    """
    g = _gen(rng)
    r = random_contraction(n, g)
    if bistochastic:
        return qf_bistochastic(r)
    if g.uniform() < 0.5:
        return qf_extreme(r, random_projector(n, g))
    c = random_symbol(n, g)
    w = psd_sqrt(np.eye(n) - r.conj().T @ r)
    return QFMap(r, hermitian_part(w @ c @ w))
