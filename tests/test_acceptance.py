"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
sample counts, and prints a single pass line (visible with ``pytest -s``).
Criteria with runtime budgets assert those too.
"""

import json
import time

import numpy as np

from dynsub.channels import (
    coarse_graining_channel,
    depolarizing_channel,
    diag_channel_from_stochastic,
    identity_channel,
    map_entropy,
)
from dynsub.classical import entropy_uniform
from dynsub.harness import run_suite
from dynsub.matcore import max_entangled_projector, von_neumann_entropy
from dynsub.quasifree import fock_density, qf_state_entropy
from dynsub.randgen import RngStream, random_stochastic, random_symbol
from dynsub.statecomp import not_square_witness


def _report(idx, label, elapsed, budget):
    print(f"criterion {idx:2d}: PASS  {label}  ({elapsed:.2f}s < {budget:.0f}s)")


def _run(suite, dims, samples, seed):
    reports = [run_suite(suite, d, samples, seed) for d in dims]
    for r in reports:
        assert r.passed, (r.suite, r.dim, r.worst_check, r.worst_violation)
        assert r.replay_ok
    return reports


def test_criterion_01_closed_map_entropies():
    t0 = time.perf_counter()
    for n in range(2, 6):
        assert map_entropy(identity_channel(n)) <= 1e-12
        assert abs(map_entropy(depolarizing_channel(n)) - 2 * np.log(n)) <= 1e-10
        assert abs(map_entropy(coarse_graining_channel(n)) - np.log(n)) <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, "closed map entropies, N = 2..5", elapsed, 1)


def test_criterion_02_embedding_identity():
    t0 = time.perf_counter()
    for n in range(2, 6):
        for i in range(200):
            t = random_stochastic(n, RngStream(1000 + n, i))
            gap = map_entropy(diag_channel_from_stochastic(t)) - entropy_uniform(t) - np.log(n)
            assert abs(gap) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(2, "diagonal-channel embedding identity, 200 draws at N = 2..5", elapsed, 5)


def test_criterion_03_dynamical_subadditivity_suite():
    t0 = time.perf_counter()
    _run("dynsub_bistochastic", (2, 3), 1000, seed=42)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(3, "subadditivity + symmetric and triangle bounds, 1000 pairs at N = 2, 3", elapsed, 30)


def test_criterion_04_strong_dynamical_subadditivity():
    t0 = time.perf_counter()
    _run("strong_dynsub", (2, 3), 500, seed=42)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(4, "strong dynamical subadditivity, 500 triples at N = 2, 3", elapsed, 30)


def test_criterion_05_general_stochastic_bounds():
    t0 = time.perf_counter()
    _run("dynsub_general", (2, 3), 1000, seed=42)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(5, "general-map bounds with correction terms, 1000 pairs at N = 2, 3", elapsed, 30)


def test_criterion_06_lindblad_exchange_and_data_processing():
    t0 = time.perf_counter()
    _run("lindblad", (2, 3), 500, seed=42)
    _run("data_processing", (2, 3), 500, seed=42)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(6, "Lindblad bounds, purification identity, data processing, 500 draws", elapsed, 60)


def test_criterion_07_classical_suite():
    t0 = time.perf_counter()
    _run("classical", (2, 3, 4, 5, 6), 1000, seed=42)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(7, "classical product/transform bounds and identities, 1000 draws at N = 2..6", elapsed, 10)


def test_criterion_08_composition_algebra():
    t0 = time.perf_counter()
    _run("statecomp_algebra", (2, 3), 500, seed=42)
    # one explicit witness that self-composition differs from the square
    sigma = max_entangled_projector(2)
    assert not_square_witness(sigma) > 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(8, "composition algebra closures and witnesses, 500 draws at N = 2, 3", elapsed, 10)


def test_criterion_09_quasifree_suite():
    t0 = time.perf_counter()
    _run("quasifree", (4, 64), 1000, seed=42)
    for n in range(1, 5):
        for i in range(100):
            q = random_symbol(n, RngStream(9000 + n, i))
            assert abs(von_neumann_entropy(fock_density(q)) - qf_state_entropy(q)) <= 1e-8
    # maximally entangled symbol: a projector with maximally mixed marginals
    n = 4
    sym = 0.5 * np.block([[np.eye(n), np.eye(n)], [np.eye(n), np.eye(n)]])
    assert np.abs(sym @ sym - sym).max() <= 1e-12
    assert np.abs(sym[:n, :n] - np.eye(n) / 2).max() <= 1e-12
    assert np.abs(sym[n:, n:] - np.eye(n) / 2).max() <= 1e-12
    assert qf_state_entropy(sym) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(9, "quasi-free oracles, subadditivity at 4 and 64 modes, Fock cross-checks", elapsed, 60)


def test_criterion_10_power_subadditivity():
    t0 = time.perf_counter()
    _run("power_subadd", (2, 3), 100, seed=42)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(10, "iterated-map entropy bound, 100 draws at N = 2, 3, n <= 5", elapsed, 10)


def test_criterion_11_deterministic_reports(tmp_path, capsys):
    from dynsub.cli import main

    outputs = []
    for run in range(2):
        path = tmp_path / f"report{run}.json"
        code = main(["verify", "--all", "--seed", "42", "--json", str(path)])
        assert code == 0
        capsys.readouterr()
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["pass"] is True
    with capsys.disabled():
        print("criterion 11: PASS  verify --all --seed 42 is byte-identical across runs")
