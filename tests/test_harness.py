import json
import math

import numpy as np
import pytest

from dynsub import channels, classical, harness, matcore
from dynsub import quasifree as qf
from dynsub.errors import DomainError
from dynsub.harness import SUITES, evaluate_sample, evaluate_samples, run_all, run_suite


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_suite_passes_small(suite):
    dim = 4 if suite == "quasifree" else 2
    report = run_suite(suite, dim, samples=20, seed=11)
    assert report.passed, (report.worst_check, report.worst_violation)
    assert report.worst_violation >= -report.tolerance
    assert report.replay_ok


def test_suite_report_is_deterministic():
    r1 = run_suite("dynsub_bistochastic", 2, samples=30, seed=5)
    r2 = run_suite("dynsub_bistochastic", 2, samples=30, seed=5)
    assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(r2.to_dict(), sort_keys=True)


def test_different_seeds_differ():
    r1 = run_suite("lindblad", 2, samples=10, seed=1)
    r2 = run_suite("lindblad", 2, samples=10, seed=2)
    assert r1.worst_violation != r2.worst_violation


def test_worst_case_replay_matches():
    report = run_suite("strong_dynsub", 2, samples=25, seed=7)
    checks = evaluate_sample("strong_dynsub", 2, 7, report.worst_index)
    match = [c for c in checks if c.name == report.worst_check]
    assert match and match[0].slack == report.worst_violation


@pytest.mark.parametrize(
    "suite, dim",
    [pytest.param(suite, 2, id=suite) for suite in sorted(SUITES)]
    + [pytest.param("classical", 1, id="classical-dim1")],
)
def test_batch_slacks_equal_replay(suite, dim, monkeypatch):
    # With 3-sample Choi chunks the classical batch of 8 crosses two chunk boundaries.
    monkeypatch.setattr(channels, "EMBED_CHUNK", 3)
    batch = evaluate_samples(suite, dim, 17, range(8))
    singles = [evaluate_sample(suite, dim, 17, i) for i in range(8)]
    assert batch == singles  # every slack bitwise equal, sample by sample
    expected = {}
    for checks in singles:
        for c in checks:
            expected[c.name] = min(c.slack, expected.get(c.name, c.slack))
    monkeypatch.setattr(harness, "BATCH", 3)  # run_suite splits the 8 samples into 3 batches
    assert run_suite(suite, dim, samples=8, seed=17).checks == expected


def _count_calls(monkeypatch, modules, name):
    calls = []
    for module in modules:
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, f=original, **k: calls.append(None) or f(*a, **k)
        )
    return calls


def test_classical_eta_calls_do_not_grow_with_the_batch(monkeypatch):
    # Only the exchange entropy, taken on the Kraus route once per chunk of
    # EMBED_CHUNK samples, adds one eta call per chunk; the other stacked
    # kernels make the same calls for any B.
    eta = _count_calls(monkeypatch, [matcore, classical], "eta")
    exchange = _count_calls(monkeypatch, [channels], "entropy_exchange")
    stacked = {}
    for size in (8, 64):
        eta.clear()
        exchange.clear()
        evaluate_samples("classical", 3, 5, range(size))
        assert len(exchange) == math.ceil(size / channels.EMBED_CHUNK)
        stacked[size] = len(eta) - len(exchange)
    assert stacked[8] == stacked[64] < 26  # 26 eta calls per sample before stacking


def test_lindblad_sample_builds_two_sigma_hats(monkeypatch):
    # lindblad_bounds carries S(sigma_hat) for exchange.purification; the
    # other sigma_hat is the tracial-spectrum check's.  A batch builds the
    # same two, on stacks.
    calls = _count_calls(monkeypatch, [channels], "sigma_hat")
    evaluate_sample("lindblad", 2, 42, 0)
    assert len(calls) == 2
    calls.clear()
    evaluate_samples("lindblad", 2, 42, range(8))
    assert len(calls) == 2


def test_a_lindblad_batch_calls_each_kernel_once(monkeypatch):
    # One call of 8 rows per kernel; one lindblad_bounds call per sample before stacking.
    calls = []
    for name in ("tp_renormalize", "lindblad_bounds", "purified_exchange_entropy", "tracial_spectrum_defect"):
        original = getattr(harness, name)
        monkeypatch.setattr(
            harness, name,
            lambda x, *a, name=name, f=original: calls.append((name, len(getattr(x, "choi", x)))) or f(x, *a),
        )
    evaluate_samples("lindblad", 3, 42, range(8))
    assert calls == [
        ("tp_renormalize", 8),
        ("lindblad_bounds", 8),
        ("purified_exchange_entropy", 8),
        ("tracial_spectrum_defect", 8),
    ]


def test_a_lindblad_batch_takes_a_rank_deficient_channel(monkeypatch):
    # Sample 3's channel has Kraus rank 1 (a unitary channel), the others N**2;
    # every Kraus set keeps N**2 slots, three of sample 3's with zero weight.
    index_of = {}

    class TaggedStream(harness.RngStream):
        def generator(self):
            g = super().generator()
            index_of[id(g)] = self.stream_index
            return g

    def draw(dim, g, f=harness.wishart_choi):
        w = f(dim, g)
        if index_of[id(g)] == 3:
            vals, vecs = np.linalg.eigh(w)
            w = vals[-1] * np.outer(vecs[:, -1], vecs[:, -1].conj())
        return w

    monkeypatch.setattr(harness, "RngStream", TaggedStream)
    monkeypatch.setattr(harness, "wishart_choi", draw)
    sets = []
    monkeypatch.setattr(channels, "to_kraus", lambda ch, f=channels.to_kraus: sets.append(f(ch)) or sets[-1])
    batch = evaluate_samples("lindblad", 2, 17, range(8))
    assert len(sets) == 3  # lindblad_bounds, the purification and the tracial spectrum
    for ks in sets:
        assert np.count_nonzero(ks.weights, axis=-1).tolist() == [4, 4, 4, 1, 4, 4, 4, 4]
    singles = [evaluate_sample("lindblad", 2, 17, i) for i in range(8)]
    assert batch == singles  # every slack bitwise equal, sample by sample
    assert all(c.passed for checks in batch for c in checks)


# SVDs per 64-mode quasifree sample at seed 42: one in each of the four
# random contractions, one per bistochastic map's norm check, one for
# S(Phi_2 Phi_1) on R_1 R_2, and one per extreme map among the two general
# draws (an interior draw needs none).  Samples 0, 3 and 5 draw no extreme
# map, 1 draws one and 2 and 4 draw two.
QF64_SVDS = {0: 7, 1: 8, 2: 9, 3: 7, 4: 9, 5: 7}


def test_quasifree_64_lapack_budget(monkeypatch):
    # S(Phi_1), the adjoint's entropy and qf.jam_validity diagonalize a
    # 128x128 symbol; S(Phi_2) and S(Phi_2 Phi_1) come from singular values.
    shapes = {"eigvalsh": [], "svd": [], "block": []}
    for module, name in ((np.linalg, "eigvalsh"), (np.linalg, "svd"), (np, "block")):

        def counted(a, *args, f=getattr(module, name), calls=shapes[name], **kwargs):
            calls.append(getattr(a, "shape", None))
            return f(a, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    for index, svds in QF64_SVDS.items():
        for calls in shapes.values():
            calls.clear()
        evaluate_sample("quasifree", 64, 42, index)
        assert shapes["eigvalsh"] == [(128, 128)] * 3, index
        assert shapes["svd"] == [(64, 64)] * svds, index
        assert shapes["block"] == [], index


@pytest.mark.parametrize(
    "suite, scaler, rows",
    [
        ("dynsub_bistochastic", "operator_sinkhorn", 24),
        ("strong_dynsub", "operator_sinkhorn", 24),
        ("dynsub_general", "operator_sinkhorn", 16),
        ("statecomp_algebra", "operator_sinkhorn", 16),
        ("power_subadd", "operator_sinkhorn", 8),
        ("classical", "matrix_sinkhorn", 24),
        ("lindblad", None, 0),
        ("data_processing", None, 0),
        ("quasifree", None, 0),
    ],
)
def test_a_batch_makes_one_sinkhorn_call(suite, scaler, rows, monkeypatch):
    # 8 samples; a suite with Sinkhorn draws scales all of them in one call
    calls = []
    for name in ("operator_sinkhorn", "matrix_sinkhorn"):
        original = getattr(harness, name)
        monkeypatch.setattr(
            harness, name, lambda w, name=name, f=original: calls.append((name, len(w))) or f(w)
        )
    evaluate_samples(suite, 2, 17, range(8))
    assert calls == ([(scaler, rows)] if scaler else [])


def test_statecomp_algebra_refuses_dim_1():
    # 1x1 operators commute, so the noncommutativity witness cannot hold
    with pytest.raises(DomainError):
        run_suite("statecomp_algebra", 1, samples=2, seed=0)


def test_report_dict_shape():
    report = run_suite("classical", 3, samples=10, seed=3)
    d = report.to_dict()
    assert d["suite"] == "classical" and d["dim"] == 3 and d["samples"] == 10
    assert set(d) == {
        "suite",
        "dim",
        "samples",
        "seed",
        "worst_violation",
        "worst_check",
        "worst_index",
        "tolerance",
        "pass",
        "replay_ok",
        "checks",
    }
    assert "wall_time" not in d  # timing stays out of the canonical report
    json.dumps(d)


def test_run_all_with_overrides():
    reports = run_all(seed=9, samples=5, suites=["lindblad", "power_subadd"], dims=[2])
    assert [r.suite for r in reports] == ["lindblad", "power_subadd"]
    assert all(r.passed for r in reports)


def test_run_all_rejects_zero_samples():
    # zero is not "use the default count"
    with pytest.raises(DomainError):
        run_all(seed=0, samples=0, suites=["lindblad"], dims=[2])


def test_threaded_run_matches_serial(monkeypatch):
    serial = run_suite("data_processing", 2, samples=16, seed=13)
    monkeypatch.setenv("DYNSUB_THREADS", "4")
    threaded = run_suite("data_processing", 2, samples=16, seed=13)
    assert serial.to_dict() == threaded.to_dict()


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("nope", 2, 1, 0)


# Four samples at seed 42 and each suite's smallest default dim, recorded
# before the suites were split into a draw phase and a check phase.  A
# reordered stream draw moves the worst case or an inequality's margin.
# Equality residuals are round-off that depends on the BLAS build, so only
# the inequalities' minimum slacks are pinned.
DRAW_ORDER_PINS = {
    "dynsub_bistochastic": (2, 0, "symmetric.lower", {
        "subadditivity.upper": 0.6077839770531879,
        "symmetric.lower": 0.2607634596755104,
        "triangle.lower": 0.2607634596755104,
        "triangle.upper": 0.543398845055225,
    }),
    "strong_dynsub": (2, 2, "strong_subadditivity", {
        "strong_subadditivity": 0.16946165602433716,
        "strong_subadditivity.states": 0.16946165602433716,
    }),
    "dynsub_general": (2, 1, "general.delta2_vanishes", {
        "exchange.strong_subadditivity": 0.14077271962398408,
        "general.lower": 0.21801921718879713,
        "general.upper": 0.6019022146684163,
    }),
    "lindblad": (2, 3, "exchange.purification", {
        "lindblad.lower": 0.09640620195712457,
        "lindblad.upper": 0.38400377452646994,
    }),
    "data_processing": (2, 2, "data_processing", {
        "data_processing": 0.025014765685019813,
    }),
    "classical": (2, 0, "embedding.composition_covariance", {
        "bistochastic.strong": 0.012937111773514087,
        "bistochastic.subadditivity": 0.2993937822252074,
        "bistochastic.symmetric": 0.0011316666772331896,
        "product.lower": 0.0032750764489468676,
        "product.upper": 0.3506427794475834,
        "product.upper_weak": 0.9243306024217325,
        "transform.lower": 0.0007584818795290937,
        "transform.upper": 0.14965207444925466,
        "transform.upper_weak": 0.3047747601994856,
    }),
    "statecomp_algebra": (2, 2, "algebra.hermiticity_closure", {
        "algebra.noncommutativity_witness": 0.0660824666744156,
        "algebra.positivity_closure": 0.036890510624982935,
        "states.not_square_witness": 0.07698028211745492,
    }),
    # qf.jam_validity sits at its boundary (extreme maps have symbol
    # eigenvalues 0 and 1), so its slack is round-off: hence the abs bound.
    "quasifree": (4, 3, "qf.compose_oracle", {
        "qf.jam_validity": -1.9984014443252818e-15,
        "qf.subadditivity.lower": 0.00723630176484491,
        "qf.subadditivity.upper": 2.5969467695157924,
    }),
    "power_subadd": (2, 0, "power.subadditivity", {
        "power.subadditivity": 0.5035150771633536,
    }),
}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_draw_order_is_pinned(suite):
    dim, worst_index, worst_check, slacks = DRAW_ORDER_PINS[suite]
    assert dim == min(SUITES[suite][1])
    report = run_suite(suite, dim, samples=4, seed=42)
    assert (report.worst_index, report.worst_check) == (worst_index, worst_check)
    for name, slack in slacks.items():
        assert report.checks[name] == pytest.approx(slack, rel=1e-9, abs=1e-12), name


# Traces of the Sinkhorn starts that sample 0 at seed 42 hands to the
# scaler, in order, recorded alongside DRAW_ORDER_PINS.  Some draws feed only
# equality residuals (statecomp_algebra's channels), so the slacks above
# cannot see where a start sits among them; the starts' traces can.
START_TRACE_PINS = {
    "dynsub_bistochastic": [17.54883040072032, 18.049450442457267, 12.863321665081738],
    "strong_dynsub": [17.54883040072032, 12.13865549652581, 18.049450442457267],
    "dynsub_general": [18.049450442457267, 12.863321665081738],
    "lindblad": [],
    "data_processing": [],
    "classical": [0.4133681188190319, 1.4652961021405282, 1.0618541636941357],
    "statecomp_algebra": [15.689028308738033, 14.56672051470707],
    "quasifree": [],
    "power_subadd": [17.54883040072032],
}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_sinkhorn_starts_keep_their_draw_order(suite, monkeypatch):
    traces = []
    for name in ("operator_sinkhorn", "matrix_sinkhorn"):
        original = getattr(harness, name)
        monkeypatch.setattr(
            harness, name, lambda w, f=original: traces.extend(np.trace(x).real for x in w) or f(w)
        )
    evaluate_sample(suite, DRAW_ORDER_PINS[suite][0], 42, 0)
    assert traces == pytest.approx(START_TRACE_PINS[suite], rel=1e-9)


# Negative controls: each quasifree check that compares two routes fails when
# one route is off by 1e-6.  The subadditivity bounds have margins far above
# 1e-6 on random draws, so their controls run at the equality case Phi_2 = id,
# where S(Phi_2) = 0 and S(Phi_2 Phi_1) = S(Phi_1).


def _record_qf_draws(monkeypatch, phi2_identity):
    """The maps the quasifree suite draws, recorded as drawn."""
    drawn, bistochastic_draws = [], []
    original = harness.random_qf_map

    def draw(modes, g, bistochastic=False):
        m = original(modes, g, bistochastic)
        if bistochastic:
            bistochastic_draws.append(m)
            if phi2_identity and len(bistochastic_draws) % 2 == 0:
                m = qf.qf_bistochastic(np.eye(modes))
        drawn.append(m)
        return m

    monkeypatch.setattr(harness, "random_qf_map", draw)
    return drawn


@pytest.mark.parametrize(
    "check, route, shift, on_drawn, phi2_identity",
    [
        # S(Phi_1) from the symbol spectrum vs the closed form on sigma(R_1)
        ("qf.closed_form", "qf_bistochastic_entropy", 1e-6, True, False),
        # S(Phi_1) vs the symbol spectrum of the adjoint map R_1^dag
        ("qf.adjoint_symmetry", "qf_map_entropy", 1e-6, False, False),
        # S(Phi_1) + S(Phi_2) from two routes vs the closed form on sigma(R_1 R_2)
        ("qf.subadditivity.upper", "qf_bistochastic_entropy", 1e-6, False, True),
        ("qf.subadditivity.lower", "qf_bistochastic_entropy", -1e-6, False, True),
    ],
)
def test_quasifree_check_fails_when_one_route_is_off(
    check, route, shift, on_drawn, phi2_identity, monkeypatch
):
    drawn = _record_qf_draws(monkeypatch, phi2_identity)
    control = run_suite("quasifree", 4, 8, 42)
    assert control.passed
    if phi2_identity:
        assert abs(control.checks[check]) < 1e-12  # the bound holds with equality

    # Shift the route on the drawn maps only, or on the maps derived from them only.
    original = getattr(qf, route)
    monkeypatch.setattr(
        qf, route,
        lambda m, *a: original(m, *a) + (shift if any(m is d for d in drawn) == on_drawn else 0.0),
    )
    report = run_suite("quasifree", 4, 8, 42)
    failed = {name for name, slack in report.checks.items()
              if slack < -harness.TOLERANCES.get(name, harness.INEQ_TOL)}
    assert not report.passed and failed == {check}


# Negative controls for lindblad: each check fails when one route is off by
# 1e-6, and no other check does.  Lindblad's bounds have margins far above
# 1e-6 on full-rank states, so their controls run at the equality case of a
# pure rho, where S(rho) = 0 and S(Phi(rho)) = S(sigma_hat) = both bounds.


def _shift_purification(monkeypatch, shift):
    original = harness.purified_exchange_entropy
    monkeypatch.setattr(harness, "purified_exchange_entropy", lambda ch, rho: original(ch, rho) + shift)


def _shift_tracial_sigma_spectrum(monkeypatch, shift):
    # Only the tracial-spectrum check takes sigma_hat at rho = 1/N; lindblad_bounds
    # takes it at the drawn states.
    original = channels.sigma_hat

    def shifted(ch, rho):
        sigma = original(ch, rho)
        if np.array_equal(rho, np.eye(ch.dim) / ch.dim):
            sigma = sigma + shift * np.eye(sigma.shape[-1])
        return sigma

    monkeypatch.setattr(channels, "sigma_hat", shifted)


def _shift_output_entropy(monkeypatch, shift):
    original = harness.lindblad_bounds

    def shifted(ch, rho):
        lb = original(ch, rho)
        return lb._replace(actual=lb.actual + shift)

    monkeypatch.setattr(harness, "lindblad_bounds", shifted)


def _pure_states(monkeypatch):
    """Replace each drawn rho by the projector on its top eigenvector; the stream is unchanged."""
    original = harness.random_density

    def draw(n, g):
        v = np.linalg.eigh(original(n, g))[1][:, -1]
        return np.outer(v, v.conj())

    monkeypatch.setattr(harness, "random_density", draw)


@pytest.mark.parametrize(
    "check, shift_route, shift, pure",
    [
        # S(sigma_hat) on the Kraus route vs the purified joint state's entropy
        ("exchange.purification", _shift_purification, 1e-6, False),
        # spec sigma_hat(1/N) vs spec D/N
        ("exchange.tracial_spectrum", _shift_tracial_sigma_spectrum, 1e-6, False),
        # S(Phi(rho)) from the output state vs the bounds from S(sigma_hat) and S(rho)
        ("lindblad.lower", _shift_output_entropy, -1e-6, True),
        ("lindblad.upper", _shift_output_entropy, 1e-6, True),
    ],
)
def test_lindblad_check_fails_when_one_route_is_off(check, shift_route, shift, pure, monkeypatch):
    if pure:
        _pure_states(monkeypatch)
    control = run_suite("lindblad", 2, 8, 42)
    assert control.passed
    if pure:
        assert abs(control.checks[check]) < 1e-12  # the bound holds with equality

    shift_route(monkeypatch, shift)
    report = run_suite("lindblad", 2, 8, 42)
    failed = {name for name, slack in report.checks.items()
              if slack < -harness.TOLERANCES.get(name, harness.INEQ_TOL)}
    assert not report.passed and failed == {check}
