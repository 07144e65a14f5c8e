import math

import numpy as np
import pytest

from dynsub.channels import map_entropy, unitary_channel
from dynsub.classical import is_bistochastic, validate_stochastic
from dynsub.errors import ConvergenceError
from dynsub.matcore import partial_trace, psd_inv_sqrt, singular_values, validate_density_matrix
from dynsub.quasifree import qf_apply, qf_validate
from dynsub.randgen import (
    RngStream,
    ginibre,
    haar_unitary,
    matrix_sinkhorn,
    operator_sinkhorn,
    positive_matrix,
    random_bistochastic_channel,
    random_bistochastic_matrix,
    random_channel,
    random_contraction,
    random_density,
    random_projector,
    random_qf_map,
    random_stochastic,
    random_symbol,
    wishart_choi,
)


def test_streams_reproduce_and_differ():
    a = ginibre(3, RngStream(42, 0))
    b = ginibre(3, RngStream(42, 0))
    c = ginibre(3, RngStream(42, 1))
    d = ginibre(3, RngStream(43, 0))
    assert np.array_equal(a, b)
    assert np.abs(a - c).max() > 1e-3
    assert np.abs(a - d).max() > 1e-3


def test_ginibre_mean_is_centered():
    # CLT check on entry (0,0) over many draws
    samples = np.array([ginibre(2, RngStream(7, i))[0, 0] for i in range(10000)])
    sigma_mean = 1 / np.sqrt(len(samples))
    assert abs(samples.mean()) < 5 * sigma_mean


def test_haar_unitary_properties():
    u = haar_unitary(5, RngStream(1, 0))
    assert np.abs(u.conj().T @ u - np.eye(5)).max() < 1e-12
    assert np.abs(singular_values(u) - 1).max() < 1e-12
    assert map_entropy(unitary_channel(u)) < 1e-12


def test_random_density_properties():
    rho = random_density(4, RngStream(2, 0))
    validate_density_matrix(rho)
    assert np.linalg.eigvalsh(rho).min() > 0  # full rank almost surely


def test_random_channel_is_cptp_not_unital():
    ch = random_channel(3, RngStream(3, 0))
    assert ch.is_cp and ch.is_tp
    assert np.abs(partial_trace(ch.choi, "A") - np.eye(3)).max() < 1e-9
    assert not ch.is_unital  # generic draws are not unital


@pytest.mark.parametrize("method", ["sinkhorn", "unitary_mixture"])
def test_random_bistochastic_channel(method):
    ch = random_bistochastic_channel(3, RngStream(4, 0), method=method)
    assert ch.is_cp and ch.is_tp and ch.is_unital
    for side in "AB":
        assert np.abs(partial_trace(ch.choi, side) - np.eye(3)).max() < 1e-9


def _sinkhorn_loop(w, tol=1e-10):
    """Reference for operator_sinkhorn: one draw, 2-D contractions; returns (choi, iterations)."""
    n = math.isqrt(w.shape[0])
    d4 = w.reshape(n, n, n, n)
    ma = np.einsum("iaib->ab", d4)
    for iteration in range(1, 1001):
        s = psd_inv_sqrt(ma)
        d4 = np.einsum("nb,mbuc->mnuc", s, d4)
        d4 = np.einsum("mnuc,cv->mnuv", d4, s)
        s = psd_inv_sqrt(np.einsum("aibi->ab", d4))
        d4 = np.einsum("ma,ancv->mncv", s, d4)
        d4 = np.einsum("mncv,cu->mnuv", d4, s)
        ma = np.einsum("iaib->ab", d4)
        if np.abs(ma - np.eye(n)).max() <= tol:
            return d4.reshape(n * n, n * n), iteration
    raise AssertionError("reference loop did not converge")


@pytest.mark.parametrize("n", [2, 3])
def test_operator_sinkhorn_batch_of_one_is_bitwise_the_batch(n):
    w = np.stack([wishart_choi(n, RngStream(21, i)) for i in range(12)])
    batch = operator_sinkhorn(w)
    reference = [_sinkhorn_loop(wi) for wi in w]
    assert len({iterations for _, iterations in reference}) > 1  # draws leave at different rounds
    for i, (choi, _) in enumerate(reference):
        assert np.array_equal(batch[i], choi)
        assert np.array_equal(operator_sinkhorn(w[i : i + 1])[0], batch[i])
        assert np.array_equal(random_bistochastic_channel(n, RngStream(21, i)).choi, batch[i])


def test_operator_sinkhorn_raises_on_unconverged_draws():
    n = 2
    w = wishart_choi(n, RngStream(22, 0))
    fixed = np.eye(n * n, dtype=complex) / n  # Choi matrix of the depolarizing channel
    assert np.array_equal(operator_sinkhorn(fixed[None]), fixed[None])
    with pytest.raises(ConvergenceError):
        operator_sinkhorn(w[None], max_iter=1)
    with pytest.raises(ConvergenceError):  # the converged fixed point is not returned alone
        operator_sinkhorn(np.stack([fixed, w]), max_iter=1)
    with pytest.raises(ConvergenceError):
        random_bistochastic_channel(n, RngStream(22, 0), max_iter=1)


def test_unitary_mixture_single_term_has_zero_entropy():
    g = RngStream(5, 0).generator()
    u = haar_unitary(2, g)
    assert map_entropy(unitary_channel(u)) < 1e-12


def test_random_stochastic_matrices():
    t = random_stochastic(5, RngStream(6, 0))
    validate_stochastic(t)
    b = random_bistochastic_matrix(5, RngStream(6, 1))
    assert is_bistochastic(b, 1e-10)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_matrix_sinkhorn_stack_is_bitwise_the_single_draws(n):
    starts = np.stack([positive_matrix(n, RngStream(23, i)) for i in range(12)])
    stack = matrix_sinkhorn(starts)
    assert stack.shape == (12, n, n)
    for i in range(12):
        assert np.array_equal(matrix_sinkhorn(starts[i : i + 1])[0], stack[i])
        assert np.array_equal(random_bistochastic_matrix(n, RngStream(23, i)), stack[i])
        assert is_bistochastic(stack[i], 1e-12)
    with pytest.raises(ConvergenceError):
        matrix_sinkhorn(np.stack([positive_matrix(3, RngStream(23, i)) for i in range(2)]), max_iter=1)


def test_flat_matrix_is_sinkhorn_fixed_point():
    m = np.full((4, 4), 0.25)
    m2 = m / m.sum(axis=0, keepdims=True)
    m2 = m2 / m2.sum(axis=1, keepdims=True)
    assert np.abs(m2 - m).max() < 1e-15


def test_random_qf_map_valid():
    for seed in range(20):
        m = random_qf_map(3, RngStream(8, seed))
        qf_validate(m.r, m.z)


def test_random_qf_map_bistochastic_fixes_tracial():
    m = random_qf_map(4, RngStream(9, 0), bistochastic=True)
    half = np.eye(4) / 2
    assert np.abs(qf_apply(m, half) - half).max() < 1e-12


def test_random_projector_and_contraction():
    p = random_projector(4, RngStream(10, 0), rank=2)
    assert np.abs(p @ p - p).max() < 1e-12
    assert abs(np.trace(p).real - 2) < 1e-12
    r = random_contraction(4, RngStream(10, 1))
    assert singular_values(r).max() <= 1 + 1e-12


def test_random_symbol_bounds():
    q = random_symbol(5, RngStream(11, 0))
    vals = np.linalg.eigvalsh(q)
    assert vals.min() > -1e-12 and vals.max() < 1 + 1e-12


def test_sampler_validation_sweep():
    # every sampler stays valid across 10^4 draws at N = 2
    eye = np.eye(2)
    for i in range(10000):
        g = RngStream(12, i).generator()
        u = haar_unitary(2, g)
        assert np.abs(u.conj().T @ u - eye).max() < 1e-12
        validate_density_matrix(random_density(2, g))
        validate_stochastic(random_stochastic(2, g))
        assert is_bistochastic(random_bistochastic_matrix(2, g), 1e-10)
        ch = random_channel(2, g)
        assert ch.is_cp and ch.is_tp
        bs = random_bistochastic_channel(2, g)
        assert bs.is_cp and bs.is_tp and bs.is_unital
        m = random_qf_map(2, g)
        qf_validate(m.r, m.z)
        q = random_symbol(2, g)
        vals = np.linalg.eigvalsh(q)
        assert vals.min() > -1e-12 and vals.max() < 1 + 1e-12
