import json
import math
import multiprocessing
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dynsub
from dynsub import channels, classical, harness, matcore
from dynsub import quasifree as qf
from dynsub.errors import DomainError, NormError
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


# SVDs per 64-mode quasifree chunk of one sample: one in each of the four
# random contractions, one per bistochastic map's norm check and one for
# S(Phi_2 Phi_1) on R_1 R_2.  The general maps' Z take none, extreme or
# interior; at seed 42 samples 0, 3 and 5 draw no extreme map, 1 draws one
# and 2 and 4 draw two.
QF64_SVDS = 7


def test_quasifree_64_lapack_budget(monkeypatch):
    # S(Phi_1), the adjoint's entropy and qf.jam_validity diagonalize a
    # 128x128 symbol; S(Phi_2) and S(Phi_2 Phi_1) come from singular values.
    shapes = {"eigvalsh": [], "svd": [], "block": []}
    for module, name in ((np.linalg, "eigvalsh"), (np.linalg, "svd"), (np, "block")):

        def counted(a, *args, f=getattr(module, name), calls=shapes[name], **kwargs):
            calls.append(getattr(a, "shape", None))
            return f(a, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    chunks = []

    def chunk(*args, f=harness._quasifree_chunk):
        for calls in shapes.values():
            calls.clear()
        checks = f(*args)
        chunks.append({name: list(calls) for name, calls in shapes.items()})
        return checks

    monkeypatch.setattr(harness, "_quasifree_chunk", chunk)
    _cores(monkeypatch, 1)  # serial: every chunk runs in this process
    evaluate_samples("quasifree", 64, 42, range(6))
    assert len(chunks) == 6  # a 64-mode chunk holds one sample
    for calls in chunks:
        assert calls["eigvalsh"] == [(1, 128, 128)] * 3
        assert calls["svd"] == [(1, 64, 64)] * QF64_SVDS
        assert calls["block"] == []


def test_quasifree_4_mode_calls_do_not_grow_with_the_batch(monkeypatch):
    # A 4-mode batch is one chunk, its kernels run once per stack.  At seed 5
    # each batch draws extreme and interior maps in both general roles.
    counts = {name: _count_calls(monkeypatch, [np.linalg], name) for name in ("eigvalsh", "svd")}
    counts["eta"] = _count_calls(monkeypatch, [matcore, qf], "eta")
    per_batch = {}
    for size in (8, 64):
        for calls in counts.values():
            calls.clear()
        evaluate_samples("quasifree", 4, 5, range(size))
        per_batch[size] = {name: len(calls) for name, calls in counts.items()}
    assert per_batch[8] == per_batch[64]
    assert per_batch[8]["svd"] == 7  # four contractions, both norm checks and R_1 R_2


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


def _cores(monkeypatch, count, blas_threads=1):
    """Make the harness see ``count`` usable cores and BLAS run ``blas_threads``.

    ``None`` leaves BLAS's thread count unset, so the harness takes it as one
    per core.  Only the harness's view changes; BLAS keeps the threads it
    started with.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    if blas_threads is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(blas_threads))


def _slack_bytes(batch):
    return [[(c.name, struct.pack("<d", c.slack)) for c in checks] for checks in batch]


def test_forked_quasifree_batch_matches_serial(monkeypatch):
    # 6 samples over 3 workers: the parent evaluates 0-1, two children 2-3 and 4-5.
    splits = _count_calls(monkeypatch, [harness], "_in_forked_workers")
    _cores(monkeypatch, 3)
    forked = run_suite("quasifree", 64, samples=6, seed=13)
    forked_batch = evaluate_samples("quasifree", 64, 13, range(6))
    assert len(splits) == 2  # the replay of the worst sample is a serial batch of one
    _cores(monkeypatch, 1)
    serial = run_suite("quasifree", 64, samples=6, seed=13)
    serial_batch = evaluate_samples("quasifree", 64, 13, range(6))
    assert len(splits) == 2
    assert forked.to_dict() == serial.to_dict()
    assert _slack_bytes(forked_batch) == _slack_bytes(serial_batch)  # bitwise, sample by sample
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("side", ["parent", "child"])
def test_a_failed_quasifree_split_reaps_its_child(side, monkeypatch):
    # 4 samples over 2 workers: the parent evaluates 0-1, the child 2-3.  The
    # adjoint route raises in the first sample of one side's slice.
    parent = os.getpid()
    original = qf.qf_adjoint

    def failing(m):
        if (os.getpid() == parent) == (side == "parent"):
            raise NormError("injected failure")
        return original(m)

    monkeypatch.setattr(qf, "qf_adjoint", failing)
    _cores(monkeypatch, 2)
    with pytest.raises(NormError, match="injected failure"):
        run_suite("quasifree", 64, samples=4, seed=42)
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no child left, not even an unreaped one


def _refuse(*args, **kwargs):
    raise AssertionError("a batch that should stay serial reached multiprocessing")


@pytest.mark.parametrize(
    "modes, cores, blas_threads",
    [(4, 4, 1), (64, 1, 1), (64, 2, None), (64, 3, 2)],
)
def test_a_serial_quasifree_batch_stays_in_process(modes, cores, blas_threads, monkeypatch):
    # 4-mode batches stay serial whatever the core count, and so does a 64-mode
    # batch when BLAS's threads leave fewer than two workers' worth of cores.
    monkeypatch.setattr(multiprocessing, "get_context", _refuse)
    _cores(monkeypatch, cores, blas_threads)
    assert run_suite("quasifree", modes, samples=3, seed=42).passed


def test_one_quasifree_sample_does_not_import_multiprocessing():
    # The benchmark's set-up call, in a fresh interpreter.
    src = Path(dynsub.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from dynsub.cli import main\n"
        "code = main(['verify', '--suite', 'quasifree', '--dim', '4', '--samples', '1', '--seed', '42'])\n"
        "assert code == 0, code\n"
        "assert 'multiprocessing' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


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


# Traces of what sample i at seed 42 draws at 4 modes, in draw order: the Z
# of Phi_1, Phi_2 and the two general maps, then the oracle's and the Fock
# check's symbols.  Recorded when the suite drew sample by sample.  The
# slacks in DRAW_ORDER_PINS see the general maps only through round-off
# residuals, so these traces pin their draws: R, the extreme/interior coin,
# the projector's rank and matrix, or the symbol's.  Sample 0's second
# general map is a projector of rank N; sample 23's first is one of rank 0,
# which draws no matrix, so the draws after it pin that too.
QF_DRAW_PINS = {
    0: [1.535902176880248, 1.9950430475912684, 2.2117512676017217, 3.7255338068802475, 1.7884263277275532, 2.34958858120711],
    1: [1.1177856228862497, 1.2728094037104527, 2.493037001327879, 1.9311612713547752, 3.1581325062110803, 2.3686942309127743],
    2: [1.3893487447726618, 1.9770449414178242, 1.1311652709924849, 1.8819253500899467, 2.241608837266974, 1.2215883448481477],
    3: [1.9212460164645941, 1.9790816223188208, 2.0378700170786566, 2.1136975230953725, 2.540061568694496, 1.3578904534208085],
    23: [1.99339637217592, 1.70489258495725, 0.0, 1.1985622429627134, 2.023244320628948, 2.243625130047088],
}


def test_quasifree_draws_keep_their_order(monkeypatch):
    built = []
    for module, name in ((qf, "qf_bistochastic"), (harness, "qf_maps"), (harness, "symbols")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, f=original: built.append(f(*a)) or built[-1])
    indices = list(QF_DRAW_PINS)
    evaluate_samples("quasifree", 4, 42, indices)
    traces = [np.trace(getattr(x, "z", x), axis1=-2, axis2=-1).real for x in built]
    for k, index in enumerate(indices):
        assert [t[k] for t in traces] == pytest.approx(QF_DRAW_PINS[index], rel=1e-9), index


# Negative controls: each quasifree check that compares two routes fails when
# one route is off by 1e-6.  The subadditivity bounds have margins far above
# 1e-6 on random draws, so their controls run at the equality case Phi_2 = id,
# where S(Phi_2) = 0 and S(Phi_2 Phi_1) = S(Phi_1).


def _record_qf_draws(monkeypatch, phi2_identity):
    """The bistochastic maps the quasifree suite draws, Phi_1 and Phi_2 of each chunk, recorded as built."""
    drawn = []
    original = qf.qf_bistochastic

    def build(r, *args):
        m = original(r, *args)
        if phi2_identity and len(drawn) % 2 == 1:
            m = original(np.broadcast_to(np.eye(r.shape[-1]), r.shape))
        drawn.append(m)
        return m

    monkeypatch.setattr(qf, "qf_bistochastic", build)
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
