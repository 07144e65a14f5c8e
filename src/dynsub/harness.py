"""Randomized verification suites for the entropy inequalities.

Each suite draws its sample objects from per-sample random streams
(master seed, sample index), evaluates a fixed list of named checks and
aggregates the signed slacks.  A slack is the margin by which a check
holds: for an inequality ``lhs <= rhs`` it is ``rhs - lhs``; for an
equality cross-check ``a == b`` it is ``-|a - b|``.  A check passes when
its slack is at least minus its tolerance.

Because any sample is a pure function of (seed, index), the worst case of
a suite can be replayed exactly from the report.

Samples are evaluated in lockstep batches.  A suite that draws
bistochastic channels or matrices is written as a generator: for each
draw it yields a request, a Sinkhorn scaler and the start it drew from its
own stream (``ch = yield _bistochastic_channel(dim, g)``), and is sent
back the scaled draw.  :func:`evaluate_samples` steps a batch of sample
generators together (:func:`run_suite` passes up to ``BATCH`` indices at a
time); each round stacks the pending starts of each scaler and calls it
once on the stack (:func:`operator_sinkhorn` for channels,
:func:`matrix_sinkhorn` for matrices).  Each sample keeps its own random
stream and a Sinkhorn draw's result does not depend on its stack, so
replay, :func:`evaluate_sample`, runs the same code on a batch of one and
reproduces every bit of the batched run.  Evaluation is serial and
ignores the ``DYNSUB_THREADS`` environment variable.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Generator
from dataclasses import dataclass, field

import numpy as np

from . import classical as cl
from . import quasifree as qf
from .channels import (
    Channel,
    coherent_information,
    diag_channel_from_stochastic,
    entropy_exchange,
    jam_state,
    lindblad_bounds,
    map_entropy,
    purified_exchange_entropy,
    sigma_hat,
    stochastic_from_channel,
)
from .errors import DomainError
from .matcore import max_entangled_projector, partial_trace, von_neumann_entropy
from .randgen import (
    RngStream,
    matrix_sinkhorn,
    operator_sinkhorn,
    positive_matrix,
    random_channel,
    random_density,
    random_qf_map,
    random_stochastic,
    random_symbol,
    wishart_choi,
)
from .statecomp import not_square_witness, odot_raw, odot_state

INEQ_TOL = 1e-8
# Samples stepped together by run_suite.  Live sample generators hold their
# channels, so a batch costs memory in proportion to its size; past a few
# hundred draws a stacked Sinkhorn round gets no cheaper per draw.
BATCH = 256


@dataclass(frozen=True)
class Check:
    name: str
    slack: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.slack >= -self.tol


@dataclass
class SuiteReport:
    """Aggregated result of one suite run.

    ``worst_violation`` is the slack of the worst check (smallest margin
    relative to its tolerance); the suite passes iff
    ``worst_violation >= -tolerance``.  ``wall_time`` is informational and
    excluded from the canonical JSON form so reports are byte-identical
    for a fixed seed.
    """

    suite: str
    dim: int
    samples: int
    seed: int
    worst_violation: float
    worst_check: str
    worst_index: int
    tolerance: float
    passed: bool
    checks: dict = field(default_factory=dict)
    wall_time: float = 0.0
    replay_ok: bool = True

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "dim": self.dim,
            "samples": self.samples,
            "seed": self.seed,
            "worst_violation": self.worst_violation,
            "worst_check": self.worst_check,
            "worst_index": self.worst_index,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "replay_ok": self.replay_ok,
            "checks": dict(sorted(self.checks.items())),
        }


def _ineq(name: str, slack: float, tol: float) -> Check:
    return Check(name, float(slack), tol)


def _eq(name: str, deviation: float, tol: float) -> Check:
    return Check(name, -abs(float(deviation)), tol)


# -- per-sample check evaluation ---------------------------------------------

# A sample that draws bistochastic channels or matrices yields one request,
# (scaler, start), per draw, is sent the scaled draw and returns its checks.
# A scaler maps a stack of starts to the sequence of their draws.
Request = tuple[Callable[[np.ndarray], object], np.ndarray]
SinkhornSample = Generator[Request, object, list[Check]]


def _sinkhorn_channels(w: np.ndarray) -> list[Channel]:
    return [Channel(choi) for choi in operator_sinkhorn(w)]


def _bistochastic_channel(dim: int, g: np.random.Generator) -> Request:
    return _sinkhorn_channels, wishart_choi(dim, g)


def _bistochastic_matrix(dim: int, g: np.random.Generator) -> Request:
    return matrix_sinkhorn, positive_matrix(dim, g)


def _sample_dynsub_bistochastic(dim: int, g: np.random.Generator, tol: float) -> SinkhornSample:
    phi1 = yield _bistochastic_channel(dim, g)
    phi2 = random_channel(dim, g)
    s1, s2 = map_entropy(phi1), map_entropy(phi2)
    s21 = map_entropy(phi2.compose(phi1))
    checks = [_ineq("subadditivity.upper", s1 + s2 - s21, tol)]

    b1 = yield _bistochastic_channel(dim, g)
    b2 = yield _bistochastic_channel(dim, g)
    t1, t2 = map_entropy(b1), map_entropy(b2)
    t12 = map_entropy(b1.compose(b2))
    t21 = map_entropy(b2.compose(b1))
    checks.append(_ineq("symmetric.lower", min(t12, t21) - max(t1, t2), tol))

    sig1, sig2 = jam_state(b1), jam_state(b2)
    u21 = von_neumann_entropy(odot_state(sig2, sig1))
    u12 = von_neumann_entropy(odot_state(sig1, sig2))
    checks.append(_ineq("triangle.lower", min(u21, u12) - max(t1, t2), tol))
    checks.append(_ineq("triangle.upper", t1 + t2 - max(u21, u12), tol))
    return checks


def _sample_strong_dynsub(dim: int, g: np.random.Generator, tol: float) -> SinkhornSample:
    b1 = yield _bistochastic_channel(dim, g)
    b2 = yield _bistochastic_channel(dim, g)
    b3 = yield _bistochastic_channel(dim, g)
    s321 = map_entropy(b3.compose(b2).compose(b1))
    s2 = map_entropy(b2)
    s32 = map_entropy(b3.compose(b2))
    s21 = map_entropy(b2.compose(b1))
    checks = [_ineq("strong_subadditivity", s32 + s21 - s321 - s2, tol)]

    g1, g2, g3 = jam_state(b1), jam_state(b2), jam_state(b3)
    v321 = von_neumann_entropy(odot_state(odot_state(g3, g2), g1))
    v32 = von_neumann_entropy(odot_state(g3, g2))
    v21 = von_neumann_entropy(odot_state(g2, g1))
    checks.append(
        _ineq("strong_subadditivity.states", v32 + v21 - v321 - von_neumann_entropy(g2), tol)
    )
    return checks


def _sample_dynsub_general(dim: int, g: np.random.Generator, tol: float) -> SinkhornSample:
    rho_star = np.eye(dim, dtype=complex) / dim
    phi1 = random_channel(dim, g)
    phi2 = random_channel(dim, g)
    out1 = phi1.apply(rho_star)
    delta1 = von_neumann_entropy(phi2.apply(out1)) - von_neumann_entropy(out1)
    delta2 = entropy_exchange(phi2, out1) - map_entropy(phi2)
    s1, s2 = map_entropy(phi1), map_entropy(phi2)
    s21 = map_entropy(phi2.compose(phi1))
    checks = [
        _ineq("general.lower", s21 - (s1 + delta1), tol),
        _ineq("general.upper", s1 + s2 + delta2 - s21, tol),
    ]

    bb1 = yield _bistochastic_channel(dim, g)
    bb2 = yield _bistochastic_channel(dim, g)
    bout1 = bb1.apply(rho_star)
    d1 = von_neumann_entropy(bb2.apply(bout1)) - von_neumann_entropy(bout1)
    d2 = entropy_exchange(bb2, bout1) - map_entropy(bb2)
    checks.append(_eq("general.delta1_vanishes", d1, 1e-9))
    checks.append(_eq("general.delta2_vanishes", d2, 1e-9))

    phi3 = random_channel(dim, g)
    comp21 = phi2.compose(phi1)
    lhs = entropy_exchange(phi3.compose(comp21), rho_star) + entropy_exchange(phi2, out1)
    rhs = entropy_exchange(comp21, rho_star) + entropy_exchange(phi3.compose(phi2), out1)
    checks.append(_ineq("exchange.strong_subadditivity", rhs - lhs, tol))
    return checks


def _sample_lindblad(dim: int, g: np.random.Generator, tol: float) -> list[Check]:
    ch = random_channel(dim, g)
    rho = random_density(dim, g)
    lb = lindblad_bounds(ch, rho)
    checks = [
        _ineq("lindblad.lower", lb.actual - lb.lower, tol),
        _ineq("lindblad.upper", lb.upper - lb.actual, tol),
        _eq(
            "exchange.purification",
            entropy_exchange(ch, rho) - purified_exchange_entropy(ch, rho),
            1e-9,
        ),
    ]
    rho_star = np.eye(dim, dtype=complex) / dim
    spec_sigma = np.sort(np.linalg.eigvalsh(sigma_hat(ch, rho_star)))
    spec_jam = np.sort(np.linalg.eigvalsh(jam_state(ch)))
    padded = np.zeros(spec_jam.size)
    padded[-spec_sigma.size :] = spec_sigma
    checks.append(_eq("exchange.tracial_spectrum", np.abs(padded - spec_jam).max(), 1e-9))
    return checks


def _sample_data_processing(dim: int, g: np.random.Generator, tol: float) -> list[Check]:
    ch1 = random_channel(dim, g)
    ch2 = random_channel(dim, g)
    rho = random_density(dim, g)
    i1 = coherent_information(ch1, rho)
    i21 = coherent_information(ch2.compose(ch1), rho)
    return [_ineq("data_processing", i1 - i21, tol)]


def _sample_classical(dim: int, g: np.random.Generator, tol: float) -> SinkhornSample:
    tol_thm = 1e-10 if tol == INEQ_TOL else tol
    t1 = random_stochastic(dim, g)
    t2 = random_stochastic(dim, g)
    pb = cl.product_bounds(t2, t1)
    checks = [
        _ineq("product.lower", pb.actual - pb.lower, tol_thm),
        _ineq("product.upper", pb.upper - pb.actual, tol_thm),
        _ineq("product.upper_weak", pb.upper_weak - pb.actual, tol_thm),
    ]

    p = g.dirichlet(np.ones(dim))
    sb = cl.slomczynski_bounds(t1, p)
    checks.append(_ineq("transform.lower", sb.actual - sb.lower, tol_thm))
    checks.append(_ineq("transform.upper", sb.upper - sb.actual, tol_thm))
    checks.append(_ineq("transform.upper_weak", sb.upper_weak - sb.actual, tol_thm))

    b1 = yield _bistochastic_matrix(dim, g)
    b2 = yield _bistochastic_matrix(dim, g)
    b3 = yield _bistochastic_matrix(dim, g)
    h1, h2 = cl.entropy_uniform(b1), cl.entropy_uniform(b2)
    h21 = cl.entropy_uniform(b2 @ b1)
    h12 = cl.entropy_uniform(b1 @ b2)
    checks.append(_ineq("bistochastic.subadditivity", h1 + h2 - h21, 1e-9))
    checks.append(_ineq("bistochastic.symmetric", min(h12, h21) - max(h1, h2), 1e-9))
    checks.append(
        _ineq(
            "bistochastic.strong",
            cl.entropy_uniform(b3 @ b2) + h21 - cl.entropy_uniform(b3 @ b2 @ b1) - h2,
            1e-9,
        )
    )
    pbb = cl.product_bounds(b2, b1)
    checks.append(_eq("bistochastic.delta1_vanishes", pbb.delta1, 1e-9))
    checks.append(_eq("bistochastic.delta2_vanishes", pbb.delta2, 1e-9))

    dch = diag_channel_from_stochastic(t1)
    checks.append(
        _eq(
            "embedding.entropy_identity",
            map_entropy(dch) - cl.entropy_uniform(t1) - math.log(dim),
            1e-9,
        )
    )
    dch2 = diag_channel_from_stochastic(t2)
    covariance = np.abs(stochastic_from_channel(dch2.compose(dch)) - t2 @ t1).max()
    checks.append(_eq("embedding.composition_covariance", covariance, 1e-12))

    s_class = entropy_exchange(dch, np.diag(p).astype(complex))
    checks.append(
        _eq(
            "exchange.classical_identity",
            s_class - cl.entropy_weighted(t1, p) - cl.shannon_entropy(p),
            1e-9,
        )
    )
    return checks


def _sample_statecomp(dim: int, g: np.random.Generator, tol: float) -> SinkhornSample:
    d2 = dim * dim
    x = random_density(d2, g)
    y = random_density(d2, g)
    z = random_density(d2, g)
    assoc = np.abs(odot_raw(odot_raw(x, y), z) - odot_raw(x, odot_raw(y, z))).max()
    checks = [_eq("algebra.associativity", assoc, 1e-10)]

    h1 = x - z  # indefinite Hermitian operators
    h2 = y - random_density(d2, g)
    h12 = odot_raw(h1, h2)
    checks.append(_eq("algebra.hermiticity_closure", np.abs(h12 - h12.conj().T).max(), 1e-12))
    xy = odot_raw(x, y)
    checks.append(_ineq("algebra.positivity_closure", np.linalg.eigvalsh(xy).min(), 1e-9))
    checks.append(
        _ineq("algebra.noncommutativity_witness", np.abs(xy - odot_raw(y, x)).max() - 1e-6, tol)
    )

    neutral = dim * max_entangled_projector(dim)
    dev = max(
        np.abs(odot_raw(x, neutral) - x).max(),
        np.abs(odot_raw(neutral, x) - x).max(),
    )
    checks.append(_eq("algebra.neutral_element", dev, 1e-12))

    sigma = np.kron(random_density(dim, g), np.eye(dim) / dim)
    checks.append(_eq("states.idempotent", np.abs(odot_state(sigma, sigma) - sigma).max(), 1e-10))
    checks.append(_ineq("states.not_square_witness", not_square_witness(x) - 1e-6, tol))

    j1 = jam_state(random_channel(dim, g))
    j2 = jam_state(random_channel(dim, g))
    comp = odot_state(j2, j1)
    flat = np.eye(dim) / dim
    checks.append(_eq("states.d1_closure", np.abs(partial_trace(comp, "A") - flat).max(), 1e-8))
    checks.append(_eq("states.d1_trace", abs(np.trace(comp) - 1.0), 1e-9))

    k1 = yield _bistochastic_channel(dim, g)
    k2 = yield _bistochastic_channel(dim, g)
    compb = odot_state(jam_state(k2), jam_state(k1))
    dev2 = max(
        np.abs(partial_trace(compb, "A") - flat).max(),
        np.abs(partial_trace(compb, "B") - flat).max(),
    )
    checks.append(_eq("states.d2_closure", dev2, 1e-8))
    return checks


def _sample_quasifree(modes: int, g: np.random.Generator, tol: float) -> list[Check]:
    b1 = random_qf_map(modes, g, bistochastic=True)
    b2 = random_qf_map(modes, g, bistochastic=True)
    s1, s2 = qf.qf_map_entropy(b1), qf.qf_map_entropy(b2)
    s21 = qf.qf_map_entropy(qf.qf_compose(b2, b1))
    checks = [
        _ineq("qf.subadditivity.upper", s1 + s2 - s21, tol),
        _ineq("qf.subadditivity.lower", s21 - max(s1, s2), tol),
        _eq("qf.closed_form", s1 - qf.qf_bistochastic_entropy(b1.r), 1e-10),
        _eq(
            "qf.adjoint_symmetry",
            s1 - qf.qf_map_entropy(qf.qf_bistochastic(b1.r.conj().T)),
            1e-10,
        ),
    ]

    m1 = random_qf_map(modes, g)
    m2 = random_qf_map(modes, g)
    m21 = qf.qf_compose(m2, m1)
    q = random_symbol(modes, g)
    oracle = np.abs(qf.qf_apply(m21, q) - qf.qf_apply(m2, qf.qf_apply(m1, q))).max()
    checks.append(_eq("qf.compose_oracle", oracle, 1e-12))
    odot_dev = np.abs(
        qf.qf_odot_symbol(qf.qf_jam_symbol(m2), qf.qf_jam_symbol(m1)) - qf.qf_jam_symbol(m21)
    ).max()
    checks.append(_eq("qf.odot_oracle", odot_dev, 1e-12))

    jam_vals = np.linalg.eigvalsh(qf.qf_jam_symbol(m1))
    checks.append(
        _ineq("qf.jam_validity", min(jam_vals.min(), 1.0 - jam_vals.max()), 1e-9)
    )

    ent = qf.qf_jam_symbol(qf.QFMap(np.eye(modes, dtype=complex), np.zeros((modes, modes))))
    proj_dev = np.abs(ent @ ent - ent).max()
    half = np.eye(modes) / 2
    marg_dev = max(
        np.abs(ent[:modes, :modes] - half).max(), np.abs(ent[modes:, modes:] - half).max()
    )
    checks.append(_eq("qf.entangled_projector", max(proj_dev, marg_dev), 1e-12))

    if modes <= qf.MODE_LIMIT:
        qs = random_symbol(modes, g)
        fock_dev = von_neumann_entropy(qf.fock_density(qs)) - qf.qf_state_entropy(qs)
        checks.append(_eq("qf.fock_entropy", fock_dev, 1e-8))
    return checks


def _sample_power_subadd(dim: int, g: np.random.Generator, tol: float) -> SinkhornSample:
    ch = yield _bistochastic_channel(dim, g)
    s = map_entropy(ch)
    worst = math.inf
    power = ch
    for n in range(2, 6):
        power = power.compose(ch)
        worst = min(worst, n * s - map_entropy(power))
    return [_ineq("power.subadditivity", worst, tol)]


SUITES = {
    "dynsub_bistochastic": (_sample_dynsub_bistochastic, (2, 3), 1000),
    "strong_dynsub": (_sample_strong_dynsub, (2, 3), 500),
    "dynsub_general": (_sample_dynsub_general, (2, 3), 1000),
    "lindblad": (_sample_lindblad, (2, 3), 500),
    "data_processing": (_sample_data_processing, (2, 3), 500),
    "classical": (_sample_classical, (2, 3, 4, 5, 6), 1000),
    "statecomp_algebra": (_sample_statecomp, (2, 3), 500),
    "quasifree": (_sample_quasifree, (4, 64), 1000),
    "power_subadd": (_sample_power_subadd, (2, 3), 100),
}

# Suites whose checks cannot hold at small dims: 1x1 operators commute, so
# ``algebra.noncommutativity_witness`` fails at dim 1.
MIN_DIM = {"statecomp_algebra": 2}


def evaluate_samples(
    suite: str, dim: int, seed: int, indices, tol: float = INEQ_TOL
) -> list[list[Check]]:
    """Evaluate the checks of the samples ``indices`` in lockstep, in their order.

    Each sample draws from its own ``RngStream(seed, index)``.  The
    generators of a Sinkhorn suite advance in rounds: one round collects
    the request each live sample yields and sends back the draws of one
    call of each scaler on the stack of its starts.
    """
    fn = SUITES[suite][0]
    results: list = [None] * len(indices)
    live = []  # (position in indices, sample generator)
    for pos, index in enumerate(indices):
        out = fn(dim, RngStream(seed, index).generator(), tol)
        if isinstance(out, list):
            results[pos] = out
        else:
            live.append((pos, out))
    sent = [None] * len(live)
    while live:
        waiting, requests = [], []
        for (pos, sample), draw in zip(live, sent):
            try:
                requests.append(sample.send(draw))
                waiting.append((pos, sample))
            except StopIteration as stop:
                results[pos] = stop.value
        live = waiting
        sent = [None] * len(requests)
        by_scaler: dict = {}
        for i, (scale, _) in enumerate(requests):
            by_scaler.setdefault(scale, []).append(i)
        for scale, members in by_scaler.items():
            draws = scale(np.stack([requests[i][1] for i in members]))
            for i, draw in zip(members, draws):
                sent[i] = draw
    return results


def evaluate_sample(suite: str, dim: int, seed: int, index: int, tol: float = INEQ_TOL) -> list[Check]:
    """Evaluate all checks of one sample, as a batch of one; the replay unit."""
    return evaluate_samples(suite, dim, seed, [index], tol)[0]


def run_suite(
    suite: str,
    dim: int,
    samples: int,
    seed: int,
    tol: float = INEQ_TOL,
    replay_worst: bool = True,
) -> SuiteReport:
    """Run one suite at one dimension and aggregate the worst slacks."""
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}")
    min_dim = MIN_DIM.get(suite, 1)
    if dim < min_dim or samples < 1:
        raise DomainError(
            f"{suite} needs dim at least {min_dim} and samples at least 1, got {dim} and {samples}"
        )
    start = time.perf_counter()
    results = [
        checks
        for start in range(0, samples, BATCH)
        for checks in evaluate_samples(suite, dim, seed, range(start, min(start + BATCH, samples)), tol)
    ]

    check_min: dict[str, float] = {}
    worst = (math.inf, 0, "")  # (margin, index, name)
    worst_check: Check | None = None
    for index, checks in enumerate(results):
        for c in checks:
            if c.name not in check_min or c.slack < check_min[c.name]:
                check_min[c.name] = c.slack
            key = (c.slack + c.tol, index, c.name)
            if key < worst:
                worst = key
                worst_check = c

    report = SuiteReport(
        suite=suite,
        dim=dim,
        samples=samples,
        seed=seed,
        worst_violation=float(worst_check.slack),
        worst_check=worst_check.name,
        worst_index=worst[1],
        tolerance=worst_check.tol,
        passed=all(c.passed for checks in results for c in checks),
        checks={k: float(v) for k, v in check_min.items()},
        wall_time=time.perf_counter() - start,
    )
    if replay_worst:
        replayed = evaluate_sample(suite, dim, seed, report.worst_index, tol)
        match = [c for c in replayed if c.name == report.worst_check]
        report.replay_ok = bool(match and match[0].slack == report.worst_violation)
        if not report.replay_ok:
            report.passed = False
    return report


def run_all(
    seed: int,
    samples: int | None = None,
    tol: float = INEQ_TOL,
    suites: list[str] | None = None,
    dims: list[int] | None = None,
) -> list[SuiteReport]:
    """Run the configured (suite, dim) grid; None keeps per-suite defaults."""
    reports = []
    for name in list(SUITES) if suites is None else suites:
        _, default_dims, default_samples = SUITES[name]
        for dim in default_dims if dims is None else dims:
            count = default_samples if samples is None else samples
            reports.append(run_suite(name, dim, count, seed, tol))
    return reports
