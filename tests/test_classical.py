import numpy as np
import pytest

from dynsub.channels import diag_channel_from_stochastic, entropy_exchange
from dynsub.classical import (
    apply_stochastic,
    bistochastic_slacks,
    entropy_invariant,
    entropy_uniform,
    entropy_weighted,
    flat_matrix,
    invariant_state,
    is_bistochastic,
    product_bounds,
    slomczynski_bounds,
    uniform_vector,
    validate_prob_vector,
    validate_stochastic,
)
from dynsub.errors import (
    BistochasticityError,
    NonUniqueInvariantError,
    StochasticityError,
)
from dynsub.randgen import random_bistochastic_matrix, random_stochastic

ABSORBING = np.array([[1.0, 0.5], [0.0, 0.5]])


def rand_prob(n, seed):
    return np.random.default_rng(seed).dirichlet(np.ones(n))


def test_validators():
    validate_stochastic(flat_matrix(4))
    with pytest.raises(StochasticityError):
        validate_stochastic(np.array([[0.9, 0.2], [0.2, 0.8]]))
    with pytest.raises(StochasticityError):
        validate_prob_vector([0.5, 0.6])
    assert is_bistochastic(flat_matrix(3))
    assert not is_bistochastic(ABSORBING)


def test_apply_basics():
    p = rand_prob(4, 0)
    assert np.abs(apply_stochastic(np.eye(4), p) - p).max() == 0
    assert np.abs(apply_stochastic(flat_matrix(4), p) - uniform_vector(4)).max() < 1e-12
    t = random_bistochastic_matrix(4, 1)
    assert np.abs(apply_stochastic(t, uniform_vector(4)) - uniform_vector(4)).max() < 1e-10


def test_entropy_uniform_closed_values():
    assert entropy_uniform(np.eye(5)) == 0.0
    assert abs(entropy_uniform(flat_matrix(3)) - np.log(3)) < 1e-12
    t = np.array([[0.7, 0.4], [0.3, 0.6]])
    assert abs(entropy_uniform(t) - 0.641937984532075) < 1e-12


def test_invariant_state():
    t = random_bistochastic_matrix(4, 2)
    assert np.abs(invariant_state(t) - uniform_vector(4)).max() < 1e-8
    assert np.abs(invariant_state(ABSORBING) - [1.0, 0.0]).max() < 1e-10
    two_cycles = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    with pytest.raises(NonUniqueInvariantError):
        invariant_state(two_cycles)


def test_entropy_invariant():
    t = random_bistochastic_matrix(5, 3)
    assert abs(entropy_invariant(t) - entropy_uniform(t)) < 1e-10
    assert entropy_invariant(np.eye(3)) == 0.0
    # the invariant weight sits entirely on the deterministic first column
    assert abs(entropy_invariant(ABSORBING)) < 1e-12


def test_entropy_weighted():
    t = random_stochastic(4, 4)
    assert abs(entropy_weighted(t, uniform_vector(4)) - entropy_uniform(t)) < 1e-14
    e2 = np.zeros(4)
    e2[2] = 1.0
    col_h = -np.sum(t[:, 2] * np.log(t[:, 2]))
    assert abs(entropy_weighted(t, e2) - col_h) < 1e-12


def test_entropy_range():
    for seed in range(10):
        t = random_stochastic(5, seed)
        for h in (entropy_uniform(t), entropy_weighted(t, rand_prob(5, seed))):
            assert -1e-12 <= h <= np.log(5) + 1e-12


def test_slomczynski_bounds_closed_cases():
    p = rand_prob(4, 5)
    b = slomczynski_bounds(np.eye(4), p)
    assert b.lower == 0.0
    assert abs(b.actual - b.upper) < 1e-12  # identity keeps H(P), bound is tight
    bf = slomczynski_bounds(flat_matrix(4), p)
    assert abs(bf.lower - np.log(4)) < 1e-12
    assert abs(bf.actual - np.log(4)) < 1e-12


def test_slomczynski_bounds_randomized():
    for seed in range(200):
        n = 2 + seed % 5
        t = random_stochastic(n, 1000 + seed)
        p = rand_prob(n, 2000 + seed)
        b = slomczynski_bounds(t, p)
        assert b.lower - 1e-10 <= b.actual <= b.upper + 1e-10
        assert b.actual <= b.upper_weak + 1e-10


def test_product_bounds_identity_pair():
    b = product_bounds(np.eye(3), np.eye(3))
    assert b.delta1 == 0.0 and b.delta2 == 0.0 and b.actual == 0.0


def test_product_bounds_bistochastic_recovers_plain_subadditivity():
    for seed in range(50):
        t1 = random_bistochastic_matrix(3, 3000 + seed)
        t2 = random_bistochastic_matrix(3, 4000 + seed)
        b = product_bounds(t2, t1)
        assert abs(b.delta1) < 1e-9 and abs(b.delta2) < 1e-9
        assert entropy_uniform(t1) - 1e-10 <= b.actual
        assert b.actual <= entropy_uniform(t1) + entropy_uniform(t2) + 1e-10


def test_product_bounds_randomized():
    for seed in range(200):
        n = 2 + seed % 5
        t1 = random_stochastic(n, 5000 + seed)
        t2 = random_stochastic(n, 6000 + seed)
        b = product_bounds(t2, t1)
        assert b.lower - 1e-10 <= b.actual <= b.upper + 1e-10
        assert b.actual <= b.upper_weak + 1e-10


def test_symmetric_bound():
    # the third matrix enters only the strong bound
    perm = np.eye(3)[:, [1, 2, 0]]
    assert bistochastic_slacks(perm, perm, np.eye(3)).symmetric >= -1e-9
    t = random_bistochastic_matrix(3, 7)
    assert bistochastic_slacks(t, flat_matrix(3), np.eye(3)).symmetric >= -1e-9
    for seed in range(100):
        t1 = random_bistochastic_matrix(4, 7000 + seed)
        t2 = random_bistochastic_matrix(4, 8000 + seed)
        assert bistochastic_slacks(t1, t2, np.eye(4)).symmetric >= -1e-9
    with pytest.raises(BistochasticityError):
        bistochastic_slacks(ABSORBING, flat_matrix(2), np.eye(2))


def test_strong_subadditivity():
    # t2 = identity reduces the bound to plain subadditivity
    for seed in range(50):
        t1 = random_bistochastic_matrix(3, 9000 + seed)
        t3 = random_bistochastic_matrix(3, 9500 + seed)
        assert bistochastic_slacks(t1, np.eye(3), t3).strong >= -1e-9
    perm = np.eye(4)[:, [3, 0, 1, 2]]
    assert bistochastic_slacks(perm, perm, perm).strong >= -1e-9
    for seed in range(100):
        mats = [random_bistochastic_matrix(3, 10000 + 3 * seed + k) for k in range(3)]
        slacks = bistochastic_slacks(*mats)
        assert min(slacks) >= -1e-9, slacks


def test_bistochastic_slacks_are_the_entropy_differences():
    t1, t2, t3 = (random_bistochastic_matrix(3, 10500 + k) for k in range(3))
    h = entropy_uniform
    slacks = bistochastic_slacks(t1, t2, t3)
    assert slacks.subadditivity == h(t1) + h(t2) - h(t2 @ t1)
    assert slacks.symmetric == min(h(t1 @ t2), h(t2 @ t1)) - max(h(t1), h(t2))
    assert slacks.strong == h(t3 @ t2) + h(t2 @ t1) - h(t3 @ t2 @ t1) - h(t2)


def test_embedding_identity():
    for seed in range(30):
        n = 2 + seed % 4
        t = random_stochastic(n, 11000 + seed)
        ch = diag_channel_from_stochastic(t)
        from dynsub.channels import map_entropy

        assert abs(map_entropy(ch) - entropy_uniform(t) - np.log(n)) < 1e-9


def test_classical_exchange_identity():
    # entropy of the correlation matrix of a diagonal channel at a diagonal
    # state splits into weighted column entropy plus source entropy
    from dynsub.matcore import shannon_entropy

    for seed in range(30):
        n = 2 + seed % 4
        t = random_stochastic(n, 12000 + seed)
        p = rand_prob(n, 13000 + seed)
        s = entropy_exchange(diag_channel_from_stochastic(t), np.diag(p).astype(complex))
        assert abs(s - entropy_weighted(t, p) - shannon_entropy(p)) < 1e-9
