"""Seeded random generation of test objects.

Randomness is organized in counter-based streams: a stream is identified by
``(master_seed, stream_index)`` and its output is independent of thread
scheduling, so a violating sample can always be replayed from its index.
"""

from __future__ import annotations

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


def random_channel(n: int, rng) -> Channel:
    """Random CP-TP channel: a Wishart Choi matrix renormalized on one marginal."""
    g = _gen(rng)
    gm = ginibre(n * n, g)
    w = gm @ gm.conj().T
    s = psd_inv_sqrt(partial_trace(w, "A"))
    left = kron(np.eye(n), s)
    return Channel(left @ w @ left.conj().T)


def random_bistochastic_channel(
    n: int,
    rng,
    method: str = "sinkhorn",
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> Channel:
    """Random CP-TP-unital channel.

    ``sinkhorn`` alternately renormalizes the two marginals of a Wishart
    Choi matrix until both are the identity within ``tol``;
    ``unitary_mixture`` mixes N**2 Haar unitaries with Dirichlet weights
    (structurally bistochastic, but covers less of the bistochastic set).
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
    gm = ginibre(n * n, g)
    d4 = (gm @ gm.conj().T).reshape(n, n, n, n)
    eye = np.eye(n)
    # Scaling by (1 (x) S) or (S (x) 1) acts on single tensor legs, so the
    # congruences are leg-wise contractions; the marginal just normalized is
    # the identity up to rounding, leaving one marginal to monitor.
    ma = np.einsum("iaib->ab", d4)
    for _ in range(max_iter):
        s = psd_inv_sqrt(ma)
        d4 = np.einsum("nb,mbuc->mnuc", s, d4)
        d4 = np.einsum("mnuc,cv->mnuv", d4, s)
        mb = np.einsum("aibi->ab", d4)
        s = psd_inv_sqrt(mb)
        d4 = np.einsum("ma,ancv->mncv", s, d4)
        d4 = np.einsum("mncv,cu->mnuv", d4, s)
        ma = np.einsum("iaib->ab", d4)
        if np.abs(ma - eye).max() <= tol:
            return Channel(d4.reshape(n * n, n * n))
    raise ConvergenceError(f"operator Sinkhorn did not reach {tol} in {max_iter} iterations")


def random_stochastic(n: int, rng) -> np.ndarray:
    """Column-stochastic matrix with Dirichlet(1, ..., 1) columns."""
    g = _gen(rng)
    return g.dirichlet(np.ones(n), size=n).T


def random_bistochastic_matrix(n: int, rng, tol: float = 1e-12, max_iter: int = 10000) -> np.ndarray:
    """Bistochastic matrix from Sinkhorn normalization of a positive matrix."""
    g = _gen(rng)
    m = g.uniform(0.05, 1.0, size=(n, n))
    for _ in range(max_iter):
        m = m / m.sum(axis=0, keepdims=True)
        m = m / m.sum(axis=1, keepdims=True)
        if (
            np.abs(m.sum(axis=0) - 1.0).max() <= tol
            and np.abs(m.sum(axis=1) - 1.0).max() <= tol
        ):
            return m
    raise ConvergenceError(f"Sinkhorn did not reach {tol} in {max_iter} iterations")


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
