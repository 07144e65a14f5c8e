import json

import pytest

from dynsub import harness
from dynsub.errors import DomainError
from dynsub.harness import SUITES, evaluate_sample, evaluate_samples, run_all, run_suite

SINKHORN_SUITES = [
    "dynsub_bistochastic",
    "strong_dynsub",
    "dynsub_general",
    "statecomp_algebra",
    "power_subadd",
    "classical",
]


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


@pytest.mark.parametrize("suite", SINKHORN_SUITES)
def test_batch_slacks_equal_replay(suite, monkeypatch):
    batch = evaluate_samples(suite, 2, 17, range(8))
    singles = [evaluate_sample(suite, 2, 17, i) for i in range(8)]
    assert batch == singles  # every slack bitwise equal, sample by sample
    expected = {}
    for checks in singles:
        for c in checks:
            expected[c.name] = min(c.slack, expected.get(c.name, c.slack))
    monkeypatch.setattr(harness, "BATCH", 3)  # run_suite splits the 8 samples into 3 batches
    assert run_suite(suite, 2, samples=8, seed=17).checks == expected


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
