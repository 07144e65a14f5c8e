import numpy as np
import pytest

from dynsub import channels, matcore
from dynsub.channels import (
    FLAG_TOL,
    Channel,
    apply_kraus,
    coarse_graining_channel,
    coherent_information,
    contraction_channel,
    depolarizing_channel,
    diag_channel_from_stochastic,
    entropy_exchange,
    identity_channel,
    jam_state,
    lindblad_bounds,
    lindblad_operator,
    map_entropy,
    purified_exchange_entropy,
    sigma_hat,
    stochastic_from_channel,
    to_kraus,
    unitary_channel,
)
from dynsub.classical import entropy_uniform, flat_matrix
from dynsub.errors import DimensionError, HermiticityError, PositivityError, TraceError, UnitarityError
from dynsub.matcore import (
    eig_hermitian,
    kron,
    max_entangled_projector,
    partial_trace,
    von_neumann_entropy,
)
from dynsub.randgen import (
    haar_unitary,
    random_bistochastic_channel,
    random_channel,
    random_density,
    random_stochastic,
)

SZ = np.diag([1.0, -1.0]).astype(complex)


def dephasing():
    return Channel.from_kraus([np.eye(2) / np.sqrt(2), SZ / np.sqrt(2)])


# -- representations -----------------------------------------------------------


def test_identity_channel_choi_and_flags():
    ch = Channel.from_superop(np.eye(9))
    assert np.abs(ch.choi - 3 * max_entangled_projector(3)).max() < 1e-14
    assert (ch.is_cp, ch.is_tp, ch.is_unital) == (True, True, True)


def test_superop_round_trip():
    m = np.random.default_rng(0).normal(size=(16, 16))
    assert np.array_equal(Channel.from_superop(m).superop, m)


def test_from_kraus_dephasing_choi():
    assert np.abs(dephasing().choi - np.diag([1.0, 0, 0, 1.0])).max() < 1e-15
    assert dephasing().is_tp and dephasing().is_unital


def test_from_kraus_rejects_mixed_dims():
    with pytest.raises(DimensionError):
        Channel.from_kraus([np.eye(2), np.eye(3)])


def test_to_kraus_identity():
    ks = to_kraus(identity_channel(3))
    assert len(ks) == 9 and np.count_nonzero(ks.weights) == 1
    assert abs(ks.weights[0] - 3) < 1e-12
    assert np.abs(ks.operators[0] - np.eye(3)).max() < 1e-12
    assert not ks.operators[1:].any()  # the zero-weight slots hold exact zeros


def test_to_kraus_depolarizing():
    ks = to_kraus(depolarizing_channel(3))
    assert len(ks) == 9
    assert np.abs(ks.weights - 1 / 3).max() < 1e-12


def test_to_kraus_round_trip():
    ch = random_channel(3, 1)
    ks = to_kraus(ch)
    rebuilt = Channel.from_kraus(list(ks.operators))
    assert np.abs(rebuilt.choi - ch.choi).max() < 1e-9


def test_to_kraus_canonical_invariants():
    ch = random_channel(3, 2)
    ks = to_kraus(ch)
    gram = np.array(
        [[np.trace(a.conj().T @ b) for b in ks.operators] for a in ks.operators]
    )
    assert np.abs(gram - np.diag(ks.weights)).max() < 1e-8
    total = sum(a.conj().T @ a for a in ks.operators)
    assert np.abs(total - np.eye(3)).max() < 1e-8
    # weights are the Choi eigenvalues
    spec = np.sort(np.linalg.eigvalsh(ch.choi))[::-1][: len(ks)]
    assert np.abs(np.sort(ks.weights)[::-1] - spec).max() < 1e-9


def test_to_kraus_requires_cp():
    swap = Channel(np.eye(4)[:, [0, 2, 1, 3]].astype(complex))
    with pytest.raises(PositivityError):
        to_kraus(swap)


def test_a_channel_checks_the_hermiticity_of_d_once(monkeypatch):
    # is_cp and choi_eig share one measurement of D's defect; the spectrum of
    # D/N behind is_cp checks D/N.  Both measurements go through
    # matcore._defect, which the spectral kernel calls with the conjugate
    # transpose it also symmetrizes with.
    calls = []
    original = matcore._defect
    monkeypatch.setattr(matcore, "_defect", lambda x, x_dag: calls.append(x.shape) or original(x, x_dag))
    ch = random_channel(2, 3)
    calls.clear()
    to_kraus(ch)
    assert calls == [(4, 4), (4, 4)]


def test_kraus_rank_matches_choi_rank():
    ch = dephasing()
    assert np.count_nonzero(to_kraus(ch).weights) == 2


# -- action, composition, adjoint ----------------------------------------------


def test_apply_identity_and_contraction():
    rho = random_density(3, 3)
    assert np.abs(identity_channel(3).apply(rho) - rho).max() < 1e-14
    rho0 = random_density(3, 4)
    ch = contraction_channel(rho0)
    assert np.abs(ch.apply(rho) - rho0).max() < 1e-12


def test_apply_agrees_with_kraus_evaluation():
    ch = random_channel(3, 5)
    rho = random_density(3, 6)
    ks = to_kraus(ch)
    assert np.abs(ch.apply(rho) - apply_kraus(ks.operators, rho)).max() < 1e-10


def test_apply_agrees_with_superop_action():
    ch = random_channel(2, 7)
    rho = random_density(2, 8)
    out = (ch.superop @ rho.reshape(-1)).reshape(2, 2)
    assert np.abs(ch.apply(rho) - out).max() < 1e-12


def test_compose_identity_is_exact():
    ch = random_channel(3, 9)
    assert np.abs(ch.compose(identity_channel(3)).choi - ch.choi).max() < 1e-12


def test_compose_apply_oracle():
    c1 = random_channel(3, 10)
    c2 = random_channel(3, 11)
    rho = random_density(3, 12)
    lhs = c2.compose(c1).apply(rho)
    assert np.abs(lhs - c2.apply(c1.apply(rho))).max() < 1e-10


def test_compose_contraction_absorbs():
    rho0 = random_density(2, 13)
    target = contraction_channel(rho0)
    other = random_channel(2, 14)
    rho = random_density(2, 15)
    assert np.abs(target.compose(other).apply(rho) - rho0).max() < 1e-10


def test_compose_associative():
    chs = [random_channel(2, 16 + k) for k in range(3)]
    lhs = chs[0].compose(chs[1]).compose(chs[2]).choi
    rhs = chs[0].compose(chs[1].compose(chs[2])).choi
    assert np.abs(lhs - rhs).max() < 1e-10


def test_compose_preserves_tp_and_unitality():
    b1 = random_bistochastic_channel(2, 17)
    b2 = random_bistochastic_channel(2, 18)
    out = b2.compose(b1)
    assert out.is_tp and out.is_unital


def test_adjoint_is_conjugate_map():
    ch = random_channel(2, 19)
    rho = random_density(2, 20)
    lhs = ch.adjoint().apply(rho)
    rhs = ch.apply(rho.conj()).conj()
    assert np.abs(lhs - rhs).max() < 1e-12


def test_adjoint_involution_and_unitary():
    ch = random_channel(3, 21)
    assert np.array_equal(ch.adjoint().adjoint().choi, ch.choi)
    u = haar_unitary(2, 22)
    adj = unitary_channel(u).adjoint()
    conj_ch = unitary_channel(u.conj())
    assert np.abs(adj.choi - conj_ch.choi).max() < 1e-12


def test_adjoint_intertwines_composition():
    c1 = random_channel(2, 23)
    c2 = random_channel(2, 24)
    lhs = c2.compose(c1).adjoint().choi
    rhs = c2.adjoint().compose(c1.adjoint()).choi
    assert np.abs(lhs - rhs).max() < 1e-10


# -- predicates ------------------------------------------------------------------


def test_flags_identity():
    ch = Channel(identity_channel(2).choi)
    assert (ch.is_cp, ch.is_tp, ch.is_unital) == (True, True, True)
    named = (
        identity_channel(3),
        depolarizing_channel(3),
        coarse_graining_channel(3),
        unitary_channel(haar_unitary(3, 51)),
        random_bistochastic_channel(3, 52, method="unitary_mixture"),
    )
    for ch in named:
        assert (ch.is_cp, ch.is_tp, ch.is_unital) == (True, True, True)


def test_flags_contraction_not_unital():
    rho0 = random_density(2, 25)
    ch = Channel(contraction_channel(rho0).choi)
    assert (ch.is_cp, ch.is_tp, ch.is_unital) == (True, True, False)
    for ch in (contraction_channel(rho0), diag_channel_from_stochastic(random_stochastic(3, 53))):
        assert (ch.is_cp, ch.is_tp, ch.is_unital) == (True, True, False)


def test_flags_transpose_map_not_cp():
    # the transpose map's Choi matrix is the swap, with eigenvalue -1
    swap = np.zeros((4, 4))
    for m in range(2):
        for n in range(2):
            swap[m * 2 + n, n * 2 + m] = 1.0
    ch = Channel(swap.astype(complex))
    assert not ch.is_cp
    assert np.linalg.eigvalsh(swap).min() < -0.99
    assert ch.is_tp and ch.is_unital
    # a non-Hermitian Choi matrix is not CP; only its spectrum is refused
    skew = Channel(np.eye(4, dtype=complex) + 0.1 * np.triu(np.ones((4, 4)), 1))
    assert not skew.is_cp
    with pytest.raises(HermiticityError):
        skew.jam_spectrum
    # CP means N * min eig(D/N) >= -tol
    tol = FLAG_TOL
    assert Channel(np.diag([1.0, 1.0, 1.0, -tol / 2]).astype(complex)).is_cp
    assert not Channel(np.diag([1.0, 1.0, 1.0, -2 * tol]).astype(complex)).is_cp


# -- Jamiolkowski state and entropies --------------------------------------------


def test_jam_state_identity_is_entangled_projector():
    assert np.abs(jam_state(identity_channel(3)) - max_entangled_projector(3)).max() < 1e-14


def test_jam_state_depolarizing_is_maximally_mixed():
    assert np.abs(jam_state(depolarizing_channel(3)) - np.eye(9) / 9).max() < 1e-14


def test_jam_state_kraus_oracle():
    # the channel acting on the first tensor leg of the entangled projector
    ch = random_channel(3, 26)
    ks = to_kraus(ch)
    evolved = apply_kraus([kron(a, np.eye(3)) for a in ks.operators], max_entangled_projector(3))
    assert np.abs(evolved - jam_state(ch)).max() < 1e-10


def test_map_entropy_closed_values():
    for n in (2, 3, 4):
        assert map_entropy(unitary_channel(haar_unitary(n, 27 + n))) < 1e-12
        assert abs(map_entropy(depolarizing_channel(n)) - 2 * np.log(n)) < 1e-10
        assert abs(map_entropy(coarse_graining_channel(n)) - np.log(n)) < 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_map_entropy_takes_one_spectrum(monkeypatch, n):
    composed = random_channel(n, 60 + n).compose(random_bistochastic_channel(n, 70 + n))
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda x: calls.append(1) or eigvalsh(x))
    s = map_entropy(composed)
    assert len(calls) == 1
    assert map_entropy(composed) == s and len(calls) == 1
    monkeypatch.undo()
    # bitwise the value of the uncached route
    fresh = Channel(composed.choi)
    assert s == von_neumann_entropy(jam_state(fresh))


@pytest.mark.parametrize("n", [2, 3])
def test_kraus_form_takes_one_eigendecomposition(monkeypatch, n):
    ch = random_channel(n, 80 + n)
    rho = random_density(n, 90 + n)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda x: calls.append(1) or eigh(x))
    ks = to_kraus(ch)
    s = entropy_exchange(ch, rho)
    assert len(calls) == 1
    to_kraus(ch)
    assert entropy_exchange(ch, rho) == s and len(calls) == 1
    with pytest.raises(ValueError):
        ch.choi_eig[1][0, 0] = 0.0  # the cache is read-only
    monkeypatch.undo()
    # bitwise the values of the uncached route
    fresh = Channel(ch.choi)
    vals, vecs = eig_hermitian(fresh.choi, FLAG_TOL)
    assert np.array_equal(ch.choi_eig[0], vals) and np.array_equal(ch.choi_eig[1], vecs)
    assert np.array_equal(to_kraus(fresh).operators, ks.operators)
    assert entropy_exchange(fresh, rho) == s


def test_sigma_hat_tracial_matches_jam_spectrum():
    ch = random_channel(3, 28)
    sh = sigma_hat(ch, np.eye(3) / 3)
    spec = np.sort(np.linalg.eigvalsh(sh))
    jam_spec = np.sort(np.linalg.eigvalsh(jam_state(ch)))[-spec.size :]
    assert np.abs(spec - jam_spec).max() < 1e-9
    assert abs(np.trace(sh) - 1) < 1e-10


def test_sigma_hat_unitary_is_trivial():
    ch = unitary_channel(haar_unitary(2, 29))
    sh = sigma_hat(ch, random_density(2, 30))
    assert sh.shape == (4, 4)
    assert abs(sh[0, 0] - 1) < 1e-12
    sh[0, 0] = 0.0
    assert not sh.any()  # every other entry is exactly 0


def test_entropy_exchange_at_tracial_state_equals_map_entropy():
    ch = random_channel(2, 31)
    assert abs(entropy_exchange(ch, np.eye(2) / 2) - map_entropy(ch)) < 1e-9


def test_entropy_exchange_matches_purification():
    for seed in range(10):
        ch = random_channel(2, 32 + seed)
        rho = random_density(2, 64 + seed)
        assert abs(entropy_exchange(ch, rho) - purified_exchange_entropy(ch, rho)) < 1e-9


def test_purification_diagonalizes_rho_once(monkeypatch):
    # rho is validated on the eigenvalues of the eigh that purifies it
    shapes = {"eigh": [], "eigvalsh": []}
    for name, calls in shapes.items():

        def counted(a, *args, f=getattr(np.linalg, name), calls=calls):
            calls.append(a.shape)
            return f(a, *args)

        monkeypatch.setattr(np.linalg, name, counted)
    ch, rho = random_channel(3, 35), random_density(3, 36)
    to_kraus(ch)  # D's eigendecomposition and the spectrum of D/N
    for calls in shapes.values():
        calls.clear()
    purified_exchange_entropy(ch, rho)
    assert shapes == {"eigh": [(3, 3)], "eigvalsh": [(9, 9)]}  # rho, then the evolved joint state


def test_purification_checks_rho():
    ch = random_channel(2, 37)
    with pytest.raises(PositivityError):
        purified_exchange_entropy(ch, np.diag([1.5, -0.5]))
    with pytest.raises(TraceError):
        purified_exchange_entropy(ch, np.eye(2))
    with pytest.raises(HermiticityError):
        purified_exchange_entropy(ch, np.array([[0.5, 0.1], [0.3, 0.5]]))
    with pytest.raises(DimensionError):
        purified_exchange_entropy(ch, np.eye(3) / 3)


def test_purified_exchange_on_pure_state_is_output_entropy():
    v = haar_unitary(3, 33)[:, 0]
    rho = np.outer(v, v.conj())
    ch = random_channel(3, 34)
    assert abs(purified_exchange_entropy(ch, rho) - von_neumann_entropy(ch.apply(rho))) < 1e-9


def test_dephasing_exchange_two_ways():
    plus = np.full((2, 2), 0.5, dtype=complex)
    ch = dephasing()
    assert abs(entropy_exchange(ch, plus) - purified_exchange_entropy(ch, plus)) < 1e-9


# -- Lindblad operator and bounds ------------------------------------------------


def test_lindblad_operator_partial_traces():
    ch = random_channel(2, 35)
    rho = random_density(2, 36)
    omega = lindblad_operator(ch, rho)
    m = len(to_kraus(ch))
    assert np.abs(partial_trace(omega, "B", dims=(2, m)) - ch.apply(rho)).max() < 1e-9
    assert np.abs(partial_trace(omega, "A", dims=(2, m)) - sigma_hat(ch, rho)).max() < 1e-9


def test_lindblad_operator_preserves_entropy():
    ch = random_channel(2, 37)
    rho = random_density(2, 38)
    assert abs(von_neumann_entropy(lindblad_operator(ch, rho)) - von_neumann_entropy(rho)) < 1e-9


def test_lindblad_operator_pure_stays_pure():
    v = haar_unitary(2, 39)[:, 0]
    rho = np.outer(v, v.conj())
    omega = lindblad_operator(random_channel(2, 40), rho)
    vals = np.linalg.eigvalsh(omega)
    assert vals.max() > 1 - 1e-9 and abs(np.sum(vals) - 1) < 1e-9


def test_lindblad_bounds_unitary():
    ch = unitary_channel(haar_unitary(2, 41))
    rho = random_density(2, 42)
    b = lindblad_bounds(ch, rho)
    s = von_neumann_entropy(rho)
    assert abs(b.lower - s) < 1e-9 and abs(b.upper - s) < 1e-9 and abs(b.actual - s) < 1e-9


def test_lindblad_bounds_pure_input_saturates():
    v = haar_unitary(2, 43)[:, 1]
    rho = np.outer(v, v.conj())
    ch = random_channel(2, 44)
    b = lindblad_bounds(ch, rho)
    assert abs(b.actual - entropy_exchange(ch, rho)) < 1e-9


def test_lindblad_bounds_randomized():
    for seed in range(60):
        n = 2 + seed % 2
        ch = random_channel(n, 200 + seed)
        rho = random_density(n, 300 + seed)
        b = lindblad_bounds(ch, rho)
        assert b.lower - 1e-8 <= b.actual <= b.upper + 1e-8


# -- coherent information ----------------------------------------------------------


def test_coherent_information_identity():
    rho = random_density(3, 45)
    assert abs(coherent_information(identity_channel(3), rho) - von_neumann_entropy(rho)) < 1e-9


def test_coherent_information_depolarizing_tracial():
    n = 3
    assert abs(coherent_information(depolarizing_channel(n), np.eye(n) / n) + np.log(n)) < 1e-9


def test_data_processing_inequality():
    for seed in range(30):
        c1 = random_channel(2, 400 + seed)
        c2 = random_channel(2, 500 + seed)
        rho = random_density(2, 600 + seed)
        i1 = coherent_information(c1, rho)
        i21 = coherent_information(c2.compose(c1), rho)
        assert i21 <= i1 + 1e-8


# -- named constructors and the classical embedding ---------------------------------


def test_unitary_channel_rejects_non_unitary():
    with pytest.raises(UnitarityError):
        unitary_channel(np.ones((2, 2)))


def test_contraction_channel_choi():
    rho0 = random_density(3, 46)
    assert np.abs(contraction_channel(rho0).choi - kron(rho0, np.eye(3))).max() < 1e-14


def test_stochastic_from_named_channels():
    assert np.abs(stochastic_from_channel(coarse_graining_channel(3)) - np.eye(3)).max() < 1e-14
    assert np.abs(stochastic_from_channel(depolarizing_channel(3)) - flat_matrix(3)).max() < 1e-14


def test_diag_channel_round_trip():
    t = random_stochastic(4, 47)
    assert np.abs(stochastic_from_channel(diag_channel_from_stochastic(t)) - t).max() < 1e-14


def test_diag_channel_from_flat_is_depolarizing_choi():
    assert (
        np.abs(diag_channel_from_stochastic(flat_matrix(3)).choi - depolarizing_channel(3).choi).max()
        < 1e-14
    )


def test_diag_channel_composition_covariance():
    t1 = random_stochastic(3, 48)
    t2 = random_stochastic(3, 49)
    composed = diag_channel_from_stochastic(t2).compose(diag_channel_from_stochastic(t1))
    assert np.abs(stochastic_from_channel(composed) - t2 @ t1).max() < 1e-12


def test_map_entropy_of_diag_channel_is_classical_entropy_plus_log():
    t = random_stochastic(4, 50)
    ch = diag_channel_from_stochastic(t)
    assert abs(map_entropy(ch) - entropy_uniform(t) - np.log(4)) < 1e-9


def test_power_subadditivity_corollary():
    for seed in range(5):
        ch = random_bistochastic_channel(2, 700 + seed)
        s = map_entropy(ch)
        for n in range(2, 6):
            assert map_entropy(ch.power(n)) <= n * s + 1e-8
