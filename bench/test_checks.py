"""Each correctness check of the benchmark can fail.

Run with ``python -m pytest bench``.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
from dynsub import channels, classical, cli, harness, quasifree, randgen

import checks
import oracle
import passes
import tracer
import workloads
from oracle import CheckFailure

SEED = 42


def _bistochastic(n, seed):
    g = np.random.default_rng(seed)
    return randgen.random_bistochastic_channel(n, g).choi


def test_checks_pass_on_the_program():
    checks.check_library(SEED)


@pytest.mark.parametrize(
    "perturb, message",
    [
        (lambda d: d + 1e-6 * np.eye(d.shape[0]), "trace preserving"),
        (lambda d: d + 1e-6 * np.triu(np.ones_like(d), 1), "Hermitian"),
        (lambda d: d - (np.linalg.eigvalsh(d).min() + 1e-6) * np.eye(d.shape[0]), "PSD"),
    ],
)
def test_perturbed_choi_is_rejected(perturb, message):
    choi = _bistochastic(2, 1)
    oracle.check_channel("draw", choi, unital=True)
    with pytest.raises(CheckFailure, match=message):
        oracle.check_channel("draw", perturb(choi), unital=True)


def test_non_unital_draw_is_rejected(monkeypatch):
    monkeypatch.setattr(randgen, "random_bistochastic_channel", lambda n, g: randgen.random_channel(n, g))
    with pytest.raises(CheckFailure, match="unital"):
        checks.check_library(SEED)


@pytest.mark.parametrize(
    "module, name",
    [
        (channels, "map_entropy"),
        (channels, "entropy_exchange"),
        (classical, "entropy_uniform"),
        (quasifree, "qf_map_entropy"),
        (quasifree, "qf_bistochastic_entropy"),
        (quasifree, "qf_state_entropy"),
    ],
)
def test_wrong_entropy_is_rejected(monkeypatch, module, name):
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: real(*args) + 1e-7)
    with pytest.raises(CheckFailure):
        checks.check_library(SEED)


def test_wrong_closed_form_is_rejected(monkeypatch):
    monkeypatch.setattr(channels, "depolarizing_channel", channels.coarse_graining_channel)
    with pytest.raises(CheckFailure, match="depolarizing"):
        checks.check_library(SEED)


def test_swapped_inequality_side_is_rejected(monkeypatch):
    d1, d2 = _bistochastic(3, 2), _bistochastic(3, 3)
    s1, s2 = oracle.map_entropy(d1), oracle.map_entropy(d2)
    s12 = oracle.map_entropy(oracle.compose(d1, d2))
    s21 = oracle.map_entropy(oracle.compose(d2, d1))
    oracle.require_le("symmetric", max(s1, s2), min(s12, s21))
    with pytest.raises(CheckFailure, match="symmetric"):
        oracle.require_le("symmetric", min(s12, s21), max(s1, s2))

    # Every inequality of the check phase, with its sides swapped.
    def swapped(what, lhs, rhs, tol=oracle.INEQ_TOL):
        oracle.require_le(what, rhs, lhs, tol)

    monkeypatch.setattr(checks, "require_le", swapped)
    with pytest.raises(CheckFailure):
        checks.check_library(SEED)


def _report(samples=3):
    code, text = passes.verify("lindblad", 2, samples, SEED)
    checks.check_report(code, text, "lindblad", 2, samples, SEED)
    return code, text


def _edit(text, **changes):
    payload = json.loads(text)
    payload["reports"][0].update(changes)
    return json.dumps(payload)


def test_report_of_other_samples_is_rejected():
    code, text = _report()
    with pytest.raises(CheckFailure, match="samples"):
        checks.check_report(code, text, "lindblad", 2, 4, SEED)
    with pytest.raises(CheckFailure, match="samples"):
        checks.check_report(code, _edit(text, samples=5), "lindblad", 2, 3, SEED)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"suite": "classical"}, "suite"),
        ({"dim": 3}, "dim"),
        ({"seed": SEED + 1}, "seed"),
        ({"pass": False}, "pass"),
        ({"replay_ok": False}, "replay_ok"),
    ],
)
def test_wrong_report_field_is_rejected(changes, message):
    code, text = _report()
    with pytest.raises(CheckFailure, match=message):
        checks.check_report(code, _edit(text, **changes), "lindblad", 2, 3, SEED)


def test_exit_code_and_changed_bytes_are_rejected():
    code, text = _report()
    with pytest.raises(CheckFailure, match="exited"):
        checks.check_report(1, text, "lindblad", 2, 3, SEED)
    with pytest.raises(CheckFailure, match="JSON"):
        checks.check_report(code, "", "lindblad", 2, 3, SEED)
    with pytest.raises(CheckFailure, match="byte|differs"):
        checks.check_same_bytes("lindblad", text.replace("0", "1", 1), text)


@pytest.fixture
def tiny(monkeypatch):
    # lindblad at 2, 3 and data_processing at 2, 3: two samples per call.
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", (Fraction(1, 250), ("lindblad", "data_processing")))
    return "tiny"


def test_failed_calls_count_their_samples(monkeypatch, tiny):
    assert workloads.samples_per_pass(tiny) == 8
    assert passes.run_pass(tiny, SEED, {}) == 0
    monkeypatch.setattr(cli, "main", lambda argv: 1)
    assert passes.run_pass(tiny, SEED, {}) == 8


def test_changed_bytes_between_passes_count_as_failed(tiny):
    reference = {("lindblad", 2): "{}"}
    assert passes.run_pass(tiny, SEED, reference) == 2


def test_workloads_cover_verify_all():
    covered = [(suite, dim) for name in workloads.WORKLOADS for suite, dim, _ in workloads.calls(name)]
    everything = [(suite, dim) for suite, (_, dims, _) in harness.SUITES.items() for dim in dims]
    assert sorted(covered) == sorted(everything)


def test_a_fraction_that_leaves_no_whole_count_is_refused(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "odd", (Fraction(1, 3), ("lindblad",)))
    with pytest.raises(ValueError, match="whole count"):
        workloads.calls("odd")


def test_trace_counts_repeat_and_originals_come_back(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", (Fraction(3, 100), ("power_subadd",)))
    eigh, map_entropy = np.linalg.eigh, harness.map_entropy
    counts = []
    for _ in range(2):
        with tracer.Tracer() as tr:
            assert passes.run_pass("tiny", SEED, {}) == 0
        metrics = tracer.layer_metrics(tr.spans)
        assert set(metrics) | {"trace.overhead_s"} == set(tracer.METRICS)
        counts.append({k: v for k, v in metrics.items() if tracer.METRICS[k] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["harness.samples"] == 6  # 3 samples at each of dims 2, 3
    assert counts[0]["randgen.sinkhorn_draws"] == 8  # each call's replayed sample draws again
    assert counts[0]["randgen.sinkhorn_iters"] > 0
    assert np.linalg.eigh is eigh and harness.map_entropy is map_entropy
