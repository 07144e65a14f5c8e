"""Stack-polymorphic kernels: a stack gives each member the bits of its own call.

Each kernel is called on stacks of 1, 7 and 256 members at N = 1..6 (the
channel kernels at N = 1..4, the quasi-free ones at N = 1..4 and 8) and
compared, bit for bit, with its calls on the members one at a time, which
return Python floats where a stack returns arrays.  A validator given a stack with exactly one bad member raises what
it raises for that member.
"""

import numpy as np
import pytest

from dynsub import channels, classical, harness, matcore, statecomp
from dynsub import quasifree as qf
from dynsub.channels import Channel
from dynsub.errors import (
    BistochasticityError,
    ClassError,
    ConstraintError,
    DomainError,
    DynsubError,
    HermiticityError,
    NormError,
    PositivityError,
    ProjectorError,
    SingularSymbolError,
    StochasticityError,
    TraceError,
)
from dynsub.randgen import (
    RngStream,
    _haar,
    contractions,
    draw_contraction,
    draw_projector,
    draw_qf_map,
    draw_symbol,
    projectors,
    qf_maps,
    random_bistochastic_matrix,
    random_contraction,
    random_density,
    random_projector,
    random_qf_map,
    random_stochastic,
    random_symbol,
    stack_draws,
    symbols,
    tp_renormalize,
    wishart_choi,
)

SIZES = (1, 7, 256)
DIMS = (1, 2, 3, 4, 5, 6)
CHANNEL_DIMS = (1, 2, 3, 4)
QF_MODES = (1, 2, 3, 4, 8)


def bits(x):
    """The raw bytes of a float or an array of floats or complex numbers."""
    return np.asarray(x).tobytes()


def assert_members(stacked, singles):
    """``stacked`` holds, bit for bit, the per-member results ``singles``."""
    for single in singles:
        assert isinstance(single, float), type(single)
    assert stacked.shape == (len(singles),)
    assert bits(stacked) == bits(np.array(singles))


def assert_member_arrays(stacked, singles):
    assert bits(stacked) == bits(np.stack(singles))


def densities(size, n, seed):
    g = np.random.default_rng(seed)
    return np.stack([random_density(n, g) for _ in range(size)])


def general(size, d, seed):
    g = np.random.default_rng(seed)
    return g.normal(size=(size, d, d)) + 1j * g.normal(size=(size, d, d))


def stochastic(size, n, seed):
    g = np.random.default_rng(seed)
    return np.stack([random_stochastic(n, g) for _ in range(size)])


def bistochastic(size, n, seed):
    g = np.random.default_rng(seed)
    return np.stack([random_bistochastic_matrix(n, g) for _ in range(size)])


def prob_vectors(size, n, seed):
    return np.random.default_rng(seed).dirichlet(np.ones(n), size=size)


# -- matcore and statecomp ----------------------------------------------------------


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("n", DIMS)
def test_entropy_kernels_are_stack_polymorphic(n, size):
    rho = densities(size, n, 10 * n + size)
    assert_members(matcore.hermiticity_defect(rho), [matcore.hermiticity_defect(r) for r in rho])
    vals = matcore.hermitian_eigvals(rho, 1e-9)
    assert_member_arrays(vals, [matcore.hermitian_eigvals(r, 1e-9) for r in rho])
    w, v = matcore.eig_hermitian(rho, 1e-9)
    singles = [matcore.eig_hermitian(r, 1e-9) for r in rho]
    assert_member_arrays(w, [s[0] for s in singles])
    assert_member_arrays(v, [s[1] for s in singles])
    assert_members(matcore.spectrum_entropy(vals), [matcore.spectrum_entropy(x) for x in vals])
    assert_members(matcore.von_neumann_entropy(rho), [matcore.von_neumann_entropy(r) for r in rho])
    p = prob_vectors(size, n, n + size)
    assert_members(matcore.shannon_entropy(p), [matcore.shannon_entropy(q) for q in p])


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("n", DIMS)
def test_composition_kernels_are_stack_polymorphic(n, size):
    x, y = general(size, n * n, n + size), general(size, n * n, 100 + n + size)
    assert_member_arrays(matcore.reshuffle(x), [matcore.reshuffle(a) for a in x])
    for side in ("A", "B"):
        assert_member_arrays(matcore.partial_trace(x, side), [matcore.partial_trace(a, side) for a in x])
    assert_member_arrays(statecomp.odot_raw(x, y), [statecomp.odot_raw(a, b) for a, b in zip(x, y)])
    assert_members(statecomp.not_square_witness(x), [statecomp.not_square_witness(a) for a in x])


def test_hermiticity_check_sees_one_bad_member():
    rho = densities(7, 3, 0)
    rho[4, 0, 1] += 1e-6
    with pytest.raises(HermiticityError):
        matcore.hermitian_eigvals(rho[4], 1e-9)
    with pytest.raises(HermiticityError):
        matcore.hermitian_eigvals(rho, 1e-9)


# -- classical -----------------------------------------------------------------------


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("n", DIMS)
def test_classical_entropies_are_stack_polymorphic(n, size):
    t1, t2 = stochastic(size, n, n + size), stochastic(size, n, 50 + n + size)
    p = prob_vectors(size, n, 90 + n + size)
    assert_member_arrays(classical.validate_stochastic(t1), list(t1))
    assert_member_arrays(classical.validate_prob_vector(p), list(p))
    assert_members(classical.entropy_uniform(t1), [classical.entropy_uniform(t) for t in t1])
    assert_members(
        classical.entropy_weighted(t1, p), [classical.entropy_weighted(t, q) for t, q in zip(t1, p)]
    )
    stacked = classical.product_bounds(t2, t1)
    singles = [classical.product_bounds(b, a) for a, b in zip(t1, t2)]
    for field in classical.ProductBounds._fields:
        assert_members(getattr(stacked, field), [getattr(s, field) for s in singles])
    stacked = classical.slomczynski_bounds(t1, p)
    singles = [classical.slomczynski_bounds(t, q) for t, q in zip(t1, p)]
    for field in classical.TransformBounds._fields:
        assert_members(getattr(stacked, field), [getattr(s, field) for s in singles])


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("n", DIMS)
def test_bistochastic_slacks_are_stack_polymorphic(n, size):
    b1, b2, b3 = (bistochastic(size, n, k * 1000 + n + size) for k in range(3))
    stacked = classical.bistochastic_slacks(b1, b2, b3)
    singles = [classical.bistochastic_slacks(*mats) for mats in zip(b1, b2, b3)]
    for field in classical.BistochasticSlacks._fields:
        assert_members(getattr(stacked, field), [getattr(s, field) for s in singles])
    assert list(classical.is_bistochastic(b1)) == [classical.is_bistochastic(b) for b in b1]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("n", DIMS)
def test_embedding_defects_are_stack_polymorphic(n, size):
    t1, t2 = stochastic(size, n, 7 * n + size), stochastic(size, n, 70 + n + size)
    p = prob_vectors(size, n, 700 + n + size)
    stacked = channels.embedding_defects(t1, t2, p)
    singles = [channels.embedding_defects(*args) for args in zip(t1, t2, p)]
    for field in channels.EmbeddingDefects._fields:
        assert_members(getattr(stacked, field), [getattr(s, field) for s in singles])


def test_embedding_defects_are_the_per_channel_expressions():
    t1, t2 = stochastic(9, 3, 1), stochastic(9, 3, 2)
    p = prob_vectors(9, 3, 3)
    d = channels.embedding_defects(t1, t2, p)
    for i in range(9):
        ch1 = channels.diag_channel_from_stochastic(t1[i])
        ch2 = channels.diag_channel_from_stochastic(t2[i])
        identity = channels.map_entropy(ch1) - classical.entropy_uniform(t1[i]) - np.log(3)
        covariance = np.abs(channels.stochastic_from_channel(ch2.compose(ch1)) - t2[i] @ t1[i]).max()
        s_ex = channels.entropy_exchange(ch1, np.diag(p[i]).astype(complex))
        exchange = s_ex - classical.entropy_weighted(t1[i], p[i]) - matcore.shannon_entropy(p[i])
        assert d.entropy_identity[i] == identity
        assert d.composition_covariance[i] == covariance
        assert d.exchange_identity[i] == exchange


# -- one bad member ------------------------------------------------------------------


def negative_entry(t):
    t = t.copy()
    shift = t[0, 0] + 1e-3  # moved to the row below, so the column still sums to 1
    t[0, 0] -= shift
    t[1, 0] += shift
    return t


def column_sum_off(t):
    t = t.copy()
    t[0, 0] += 1e-9
    return t


def with_bad_member(stack, index, bad):
    stack = stack.copy()
    stack[index] = bad
    return stack


STOCHASTIC_CONSUMERS = {
    "validate_stochastic": lambda t, t2, p: classical.validate_stochastic(t),
    "entropy_uniform": lambda t, t2, p: classical.entropy_uniform(t),
    "entropy_weighted": lambda t, t2, p: classical.entropy_weighted(t, p),
    "slomczynski_bounds": lambda t, t2, p: classical.slomczynski_bounds(t, p),
    "product_bounds": lambda t, t2, p: classical.product_bounds(t2, t),
    "embedding_defects": lambda t, t2, p: channels.embedding_defects(t, t2, p),
}


@pytest.mark.parametrize(
    "defect, message", [(negative_entry, "negative entry"), (column_sum_off, "column sums")]
)
@pytest.mark.parametrize("name", sorted(STOCHASTIC_CONSUMERS))
def test_one_bad_stochastic_member_raises(name, defect, message):
    f = STOCHASTIC_CONSUMERS[name]
    t, t2, p = stochastic(7, 3, 5), stochastic(7, 3, 6), prob_vectors(7, 3, 7)
    bad = defect(t[3])
    with pytest.raises(StochasticityError, match=message):
        f(bad, t2[3], p[3])
    with pytest.raises(StochasticityError, match=message):
        f(with_bad_member(t, 3, bad), t2, p)


@pytest.mark.parametrize(
    "f, defect, error",
    [
        (classical.validate_prob_vector, "negative", StochasticityError),
        (classical.validate_prob_vector, "sum", StochasticityError),
        (matcore.shannon_entropy, "negative", DomainError),
        (matcore.shannon_entropy, "sum", TraceError),
    ],
    ids=["validate-negative", "validate-sum", "shannon-negative", "shannon-sum"],
)
def test_one_bad_probability_vector_raises(f, defect, error):
    p = prob_vectors(7, 4, 8)
    bad = p[2].copy()
    if defect == "negative":
        bad[0], bad[1] = -1e-3, bad[1] + bad[0] + 1e-3
    else:
        bad[0] += 1e-9
    with pytest.raises(error):
        f(bad)
    with pytest.raises(error):
        f(with_bad_member(p, 2, bad))


def test_one_member_not_bistochastic_raises():
    b1, b2, b3 = (bistochastic(7, 3, 20 + k) for k in range(3))
    bad = stochastic(1, 3, 9)[0]
    assert not classical.is_bistochastic(bad, 1e-8)
    with pytest.raises(BistochasticityError):
        classical.bistochastic_slacks(bad, b2[5], b3[5])
    with pytest.raises(BistochasticityError):
        classical.bistochastic_slacks(with_bad_member(b1, 5, bad), b2, b3)
    assert list(classical.is_bistochastic(with_bad_member(b1, 5, bad), 1e-8)) == [True] * 5 + [False, True]


# -- channels ------------------------------------------------------------------------


def wisharts(size, n, seed):
    g = np.random.default_rng(seed)
    return np.stack([wishart_choi(n, g) for _ in range(size)])


def cptp_chois(size, n, seed):
    return tp_renormalize(wisharts(size, n, seed))


def assert_kraus_members(stacked, singles):
    assert_member_arrays(stacked.operators, [k.operators for k in singles])
    assert_member_arrays(stacked.weights, [k.weights for k in singles])


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("n", CHANNEL_DIMS)
def test_renormalization_is_stack_polymorphic(n, size):
    w = wisharts(size, n, 3 * n + size)
    assert_member_arrays(tp_renormalize(w), [tp_renormalize(x) for x in w])


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("n", CHANNEL_DIMS)
def test_channel_kernels_are_stack_polymorphic(n, size):
    d1, d2 = cptp_chois(size, n, 5 * n + size), cptp_chois(size, n, 500 + n + size)
    rho = densities(size, n, 50 + n + size)
    stack1, stack2 = Channel(d1), Channel(d2)
    singles1, singles2 = [Channel(d) for d in d1], [Channel(d) for d in d2]
    assert stack1.is_cp and stack1.is_tp
    assert_member_arrays(stack1.jam_spectrum, [c.jam_spectrum for c in singles1])
    assert_members(channels.map_entropy(stack1), [channels.map_entropy(c) for c in singles1])
    assert_member_arrays(channels.jam_state(stack1), [channels.jam_state(c) for c in singles1])
    composed = stack2.compose(stack1)
    assert_member_arrays(composed.choi, [b.compose(a).choi for a, b in zip(singles1, singles2)])
    assert_members(
        channels.map_entropy(composed),
        [channels.map_entropy(b.compose(a)) for a, b in zip(singles1, singles2)],
    )
    assert_member_arrays(stack1.apply(rho), [c.apply(r) for c, r in zip(singles1, rho)])
    assert_member_arrays(stack1.apply(rho[0]), [c.apply(rho[0]) for c in singles1])
    s1, s2 = channels.jam_state(stack1), channels.jam_state(stack2)
    assert_member_arrays(
        statecomp.odot_state(s2, s1), [statecomp.odot_state(b, a) for a, b in zip(s1, s2)]
    )
    assert_kraus_members(channels.to_kraus(stack1), [channels.to_kraus(c) for c in singles1])
    assert_member_arrays(
        channels.sigma_hat(stack1, rho), [channels.sigma_hat(c, r) for c, r in zip(singles1, rho)]
    )
    assert_members(
        channels.entropy_exchange(stack1, rho),
        [channels.entropy_exchange(c, r) for c, r in zip(singles1, rho)],
    )
    assert_members(
        channels.entropy_exchange(stack1, rho[0]),
        [channels.entropy_exchange(c, rho[0]) for c in singles1],
    )
    assert_members(
        channels.coherent_information(composed, rho),
        [channels.coherent_information(b.compose(a), r) for a, b, r in zip(singles1, singles2, rho)],
    )
    assert_member_arrays(
        channels.apply_kraus(channels.to_kraus(stack1).operators, rho),
        [channels.apply_kraus(channels.to_kraus(c).operators, r) for c, r in zip(singles1, rho)],
    )
    assert_members(
        channels.purified_exchange_entropy(stack1, rho),
        [channels.purified_exchange_entropy(c, r) for c, r in zip(singles1, rho)],
    )
    assert_members(
        channels.purified_exchange_entropy(stack1, rho[0]),
        [channels.purified_exchange_entropy(c, rho[0]) for c in singles1],
    )
    assert_members(
        channels.tracial_spectrum_defect(stack1), [channels.tracial_spectrum_defect(c) for c in singles1]
    )


def rank_k_chois(ranks, n, seed):
    """CP-TP Choi matrices of Kraus rank ``ranks[i]``: renormalized G G^dag with G of N**2 x k."""
    g = np.random.default_rng(seed)
    ws = []
    for k in ranks:
        gm = g.standard_normal((n * n, k)) + 1j * g.standard_normal((n * n, k))
        ws.append(gm @ gm.conj().T)
    return tp_renormalize(np.stack(ws))


def trimmed_exchange(ks, ch, rho):
    """The exchange quantities on the Kraus operators of nonzero weight only.

    The route of variable-length Kraus sets: sigma_hat is k x k for Kraus rank
    k, and its tracial spectrum is zero-padded to N**2 before it is compared.
    Returns (entropy_exchange, purified_exchange_entropy, tracial_spectrum_defect).
    """
    n = ch.dim
    ops = ks.operators[ks.weights > 0]

    def sigma(r):
        return np.einsum("aij,bij->ab", ops @ r, ops.conj())

    p, v = np.linalg.eigh(rho)
    phi = sum(np.sqrt(max(p[i], 0.0)) * np.kron(v[:, i], v[:, i]) for i in range(n))
    joint = np.outer(phi, phi.conj())
    purified = matcore.von_neumann_entropy(channels.apply_kraus(np.kron(np.eye(n), ops), joint))
    padded = np.zeros(n * n)
    padded[n * n - len(ops) :] = np.linalg.eigvalsh(sigma(np.eye(n) / n))
    tracial = np.abs(padded - np.linalg.eigvalsh(channels.jam_state(ch))).max()
    return matcore.von_neumann_entropy(sigma(rho)), purified, tracial


@pytest.mark.parametrize("n", (2, 3))
def test_kraus_sets_of_every_rank_share_one_shape(n):
    ranks = [*range(1, n * n + 1), *range(n * n, 0, -1)]
    chois = rank_k_chois(ranks, n, 40 + n)
    rho = densities(len(ranks), n, 42 + n)
    stack, singles = Channel(chois), [Channel(d) for d in chois]
    kraus = channels.to_kraus(stack)
    assert kraus.operators.shape == (len(ranks), n * n, n, n) and kraus.weights.shape == (len(ranks), n * n)
    assert np.count_nonzero(kraus.weights, axis=-1).tolist() == ranks
    assert not kraus.operators[kraus.weights == 0].any()
    for i, c in enumerate(singles):
        for own in (channels.to_kraus(c), channels.to_kraus(Channel(chois[i : i + 1]))):
            assert bits(kraus.operators[i]) == bits(own.operators.reshape(n * n, n, n))
            assert bits(kraus.weights[i]) == bits(own.weights.reshape(n * n))
    assert_member_arrays(channels.sigma_hat(stack, rho), [channels.sigma_hat(c, r) for c, r in zip(singles, rho)])
    exchange = channels.entropy_exchange(stack, rho)
    purified = channels.purified_exchange_entropy(stack, rho)
    tracial = channels.tracial_spectrum_defect(stack)
    assert_members(exchange, [channels.entropy_exchange(c, r) for c, r in zip(singles, rho)])
    assert_members(purified, [channels.purified_exchange_entropy(c, r) for c, r in zip(singles, rho)])
    assert_members(
        channels.purified_exchange_entropy(stack, rho[0]),
        [channels.purified_exchange_entropy(c, rho[0]) for c in singles],
    )
    assert_members(tracial, [channels.tracial_spectrum_defect(c) for c in singles])
    for i, c in enumerate(singles):
        oracle = trimmed_exchange(channels.to_kraus(c), c, rho[i])
        assert np.abs(np.array([exchange[i], purified[i], tracial[i]]) - oracle).max() < 1e-12


def non_cp(d):
    return d - 2 * np.abs(np.linalg.eigvalsh(d)).max() * np.eye(len(d))


def non_tp(d):
    return 1.1 * d


def non_hermitian(d):
    d = d.copy()
    d[0, 1] += 1e-6
    return d


CHANNEL_CONSUMERS = {
    "map_entropy": channels.map_entropy,
    "jam_state": channels.jam_state,
    "to_kraus": channels.to_kraus,
    "entropy_exchange": lambda ch: channels.entropy_exchange(ch, np.eye(ch.dim) / ch.dim),
}


def raised(f, *args):
    """The type of the DynsubError that ``f(*args)`` raises, or None."""
    try:
        f(*args)
    except DynsubError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("defect", [non_cp, non_tp, non_hermitian])
@pytest.mark.parametrize("name", sorted(CHANNEL_CONSUMERS))
def test_one_bad_channel_member_raises(name, defect):
    f = CHANNEL_CONSUMERS[name]
    chois = cptp_chois(7, 2, 60)
    bad = defect(chois[3])
    single = raised(f, Channel(bad))
    # The Kraus route needs complete positivity only.
    expected = {non_cp: PositivityError, non_hermitian: PositivityError}.get(
        defect, None if name in ("to_kraus", "entropy_exchange") else TraceError
    )
    assert single is expected
    assert raised(f, Channel(with_bad_member(chois, 3, bad))) is single


def test_a_stack_sees_one_non_hermitian_choi_matrix():
    chois = cptp_chois(7, 2, 61)
    bad = non_hermitian(chois[2])
    with pytest.raises(HermiticityError):
        Channel(bad).choi_eig
    with pytest.raises(HermiticityError):
        Channel(with_bad_member(chois, 2, bad)).choi_eig


def test_one_state_outside_d_i_raises():
    states = channels.jam_state(Channel(cptp_chois(7, 2, 62)))
    bad = densities(1, 4, 63)[0]
    assert statecomp.membership(bad) is statecomp.StateClass.GENERAL
    for first, second in ((bad, states[5]), (states[5], bad)):
        with pytest.raises(ClassError):
            statecomp.odot_state(first, second)
    stack = with_bad_member(states, 5, bad)
    assert statecomp.membership(stack) == [statecomp.membership(s) for s in stack]
    assert statecomp.membership(stack)[5] is statecomp.StateClass.GENERAL
    for first, second in ((stack, states), (states, stack)):
        with pytest.raises(ClassError):
            statecomp.odot_state(first, second)


# -- quasi-free ------------------------------------------------------------------------


def streams(size, n, seed):
    return [RngStream(seed, 100 * n + i) for i in range(size)]


def own_projector(gm, k):
    """The projector of one draw as one product of inner dimension ``k``, U_k U_k^dag."""
    if k == 0:
        return np.zeros(gm.shape, dtype=complex)
    u = _haar(gm)[:, :k]
    return u @ u.conj().T


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("n", QF_MODES)
def test_quasifree_samplers_are_stack_polymorphic(n, size):
    # Each builder's stack against the single-draw samplers on the same streams.
    ss = streams(size, n, 70)
    draws = [draw_contraction(n, s) for s in ss]
    assert_member_arrays(contractions(*stack_draws(draws)), [random_contraction(n, s) for s in ss])
    draws = [draw_symbol(n, s) for s in ss]
    assert_member_arrays(symbols(*stack_draws(draws)), [random_symbol(n, s) for s in ss])
    # every rank from 0 to N, a projector's own inner dimension
    ranks = [i % (n + 1) for i in range(size)]
    draws = [draw_projector(n, s, k) for s, k in zip(ss, ranks)]
    stacked = projectors(*stack_draws(draws))
    assert_member_arrays(stacked, [random_projector(n, s, k) for s, k in zip(ss, ranks)])
    assert_member_arrays(stacked, [own_projector(gm, k) for gm, k in draws])
    draws = stack_draws([draw_qf_map(n, s) for s in ss])
    if size > 1:
        assert 0 < draws[2].sum() < size  # extreme and interior members
    stacked = qf_maps(*draws)
    singles = [random_qf_map(n, s) for s in ss]
    assert_member_arrays(stacked.r, [m.r for m in singles])
    assert_member_arrays(stacked.z, [m.z for m in singles])


def bistochastic_maps(size, n, seed):
    g = np.random.default_rng(seed)
    return qf.qf_bistochastic(contractions(*stack_draws([draw_contraction(n, g) for _ in range(size)])))


def general_maps(size, n, seed):
    g = np.random.default_rng(seed)
    return qf_maps(*stack_draws([draw_qf_map(n, g) for _ in range(size)]))


def qf_symbols(size, n, seed):
    g = np.random.default_rng(seed)
    return symbols(*stack_draws([draw_symbol(n, g) for _ in range(size)]))


def members(m):
    return [qf.QFMap(r, z) for r, z in zip(m.r, m.z)]


def assert_map_members(stacked, singles):
    assert_member_arrays(stacked.r, [m.r for m in singles])
    assert_member_arrays(stacked.z, [m.z for m in singles])
    assert_member_arrays(stacked.sigma, [m.sigma for m in singles])


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("n", QF_MODES)
def test_quasifree_kernels_are_stack_polymorphic(n, size):
    b = bistochastic_maps(size, n, n + size)
    bs = [qf.qf_bistochastic(r) for r in b.r]
    assert_map_members(b, bs)
    assert_map_members(qf.qf_adjoint(b), [qf.qf_adjoint(m) for m in bs])
    assert_members(qf.qf_map_entropy(b), [qf.qf_map_entropy(m) for m in bs])
    assert_members(qf.qf_bistochastic_entropy(b), [qf.qf_bistochastic_entropy(m) for m in bs])
    assert_members(qf.qf_bistochastic_entropy(b.r), [qf.qf_bistochastic_entropy(r) for r in b.r])
    assert_member_arrays(matcore.singular_values(b.r), [matcore.singular_values(r) for r in b.r])

    m1, m2 = general_maps(size, n, 10 + n + size), general_maps(size, n, 20 + n + size)
    q = qf_symbols(size, n, 30 + n + size)
    s1, s2 = members(m1), members(m2)
    assert_map_members(qf.qf_compose(m2, m1), [qf.qf_compose(b, a) for a, b in zip(s1, s2)])
    assert_member_arrays(qf.qf_apply(m1, q), [qf.qf_apply(m, x) for m, x in zip(s1, q)])
    j1, j2 = qf.qf_jam_symbol(m1), qf.qf_jam_symbol(m2)
    assert_member_arrays(j1, [qf.qf_jam_symbol(m) for m in s1])
    assert_member_arrays(qf.qf_odot_symbol(j2, j1), [qf.qf_odot_symbol(b, a) for a, b in zip(j1, j2)])
    assert_members(qf.qf_state_entropy(q), [qf.qf_state_entropy(x) for x in q])
    assert_members(qf.qf_map_entropy(m1), [qf.qf_map_entropy(m) for m in s1])

    # projectors of every rank from 0 to N, the extreme maps' branch
    g = np.random.default_rng(40 + n + size)
    p = projectors(*stack_draws([draw_projector(n, g, i % (n + 1)) for i in range(size)]))
    assert_map_members(qf.qf_extreme(b.r, p), [qf.qf_extreme(r, x) for r, x in zip(b.r, p)])
    assert_member_arrays(matcore.psd_sqrt(q), [matcore.psd_sqrt(x) for x in q])
    if n <= qf.MODE_LIMIT:
        # interior symbols and projectors, the two branches of the Fock realization
        mixed = np.concatenate([q, p])
        assert_member_arrays(qf.fock_density(mixed), [qf.fock_density(x) for x in mixed])


def not_a_projector(p):
    return p + 1e-3 * np.eye(len(p))


QF_VALIDATORS = {
    # name: (call on one member or a stack, a bad member, the error)
    "qf_state_entropy": (qf.qf_state_entropy, lambda q: 1.5 * q, ConstraintError),
    "fock_density": (qf.fock_density, lambda q: np.diag([1.0] + [0.5] * (len(q) - 1)), SingularSymbolError),
    "qf_bistochastic": (qf.qf_bistochastic, lambda q: 2 * np.eye(len(q)), NormError),
    "qf_extreme": (lambda p: qf.qf_extreme(np.zeros(p.shape), p), not_a_projector, ProjectorError),
}


@pytest.mark.parametrize("name", sorted(QF_VALIDATORS))
def test_one_bad_quasifree_member_raises(name):
    f, defect, error = QF_VALIDATORS[name]
    good = qf_symbols(7, 3, 64) if name != "qf_extreme" else random_projector(3, 65)[None].repeat(7, axis=0)
    f(good)
    bad = defect(good[4])
    with pytest.raises(error):
        f(bad)
    with pytest.raises(error):
        f(with_bad_member(good, 4, bad))


# -- suites --------------------------------------------------------------------------


def _count_calls(monkeypatch, modules, name):
    calls = []
    for module in modules:
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, f=original, **k: calls.append(None) or f(*a, **k)
        )
    return calls


@pytest.mark.parametrize("suite", ["dynsub_general", "dynsub_bistochastic"])
def test_channel_suite_spectra_do_not_grow_with_the_batch(suite, monkeypatch):
    calls = _count_calls(monkeypatch, [matcore, channels], "hermitian_eigvals")
    per_batch = {}
    for size in (8, 64):
        calls.clear()
        harness.evaluate_samples(suite, 2, 5, range(size))
        per_batch[size] = len(calls)
    assert per_batch[8] == per_batch[64]
