"""Randomized verification suites for the entropy inequalities.

Each suite draws its sample objects from per-sample random streams
(master seed, sample index), evaluates a fixed list of named checks and
aggregates the signed slacks.  A slack is the margin by which a check
holds: for an inequality ``lhs <= rhs`` it is ``rhs - lhs``; for an
equality cross-check ``a == b`` it is ``-|a - b|``.  A check passes when
its slack is at least minus its tolerance (see ``TOLERANCES``).

Because any sample is a pure function of (seed, index), the worst case of
a suite can be replayed exactly from the report, and a batch can be split
over processes without changing a bit.

A suite evaluates a batch of samples at once (:func:`run_suite` passes up
to ``BATCH`` indices at a time).  Its sample function makes every sample's
draws from that sample's own stream, in a fixed order, then computes the
checks of the whole batch.  Every suite evaluates its checks on stacks:
``classical`` on ``(B, N, N)`` matrices and ``(B, N)`` vectors, seven
suites on one :class:`Channel` per role over a ``(B, N**2, N**2)`` stack of
Choi matrices, each library kernel running once per batch, and
``quasifree`` on one stacked :class:`~dynsub.quasifree.QFMap` per role,
extreme and interior maps side by side under a mask, each kernel running
once per chunk of at most ``QF_CHUNK_BYTES`` of ``(B, 2N, 2N)`` map
symbols: the whole batch at 4 modes, one sample at 64.
The six suites with Sinkhorn draws (Wishart Choi matrices, or positive
matrices in ``classical``) scale all of the batch's starts in one call
(:func:`operator_sinkhorn`, or :func:`matrix_sinkhorn` in ``classical``);
Wishart channels are trace-normalized (:func:`tp_renormalize`) once per
batch.  A Sinkhorn draw's result does not depend on its stack, and a stacked
kernel gives each member the bits of its own call, so replay,
:func:`evaluate_sample`, runs the same code on a batch of one and
reproduces every bit of the batched run.

A ``quasifree`` batch of at least ``QF_SPLIT_MIN_MODES`` modes is split
into contiguous slices of its index range, one per worker: the cores in the
process's affinity mask divided by OpenBLAS's threads, at most one per
sample.  The process evaluates the first slice and forked workers the others
(:func:`_in_forked_workers`), each slice in its own chunks; the results are
joined in index order, so the report is the serial run's, byte for byte.
Every other batch, and every batch with fewer than two workers, runs
serially in the process; ``multiprocessing`` is imported only when a batch
is split.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import classical as cl
from . import quasifree as qf
from .channels import (
    Channel,
    coherent_information,
    embedding_defects,
    entropy_exchange,
    jam_state,
    lindblad_bounds,
    map_entropy,
    purified_exchange_entropy,
    tracial_spectrum_defect,
)
from .errors import DomainError
from .matcore import max_entangled_projector, partial_trace, von_neumann_entropy
from .randgen import (
    RngStream,
    contractions,
    draw_contraction,
    draw_qf_map,
    draw_symbol,
    matrix_sinkhorn,
    operator_sinkhorn,
    positive_matrix,
    qf_maps,
    random_density,
    random_stochastic,
    stack_draws,
    symbols,
    tp_renormalize,
    wishart_choi,
)
from .statecomp import not_square_witness, odot_raw, odot_state

# Samples evaluated together by run_suite.  A batch holds the draws of all
# its samples while their checks run, so it costs memory in proportion to
# its size; past a few hundred draws a stacked Sinkhorn call gets no cheaper
# per draw.
BATCH = 256

# -- tolerances --------------------------------------------------------------
#
# An inequality not named in TOLERANCES takes the run's tolerance ``tol``:
# ``--tol`` when given, else INEQ_TOL.  The exception is the classical
# theorems' inequalities (product.* and transform.*), closed forms on small
# matrices with round-off near 1e-15, which take THEOREM_TOL while ``tol`` is
# INEQ_TOL and ``tol`` otherwise.  Every equality cross-check, and the few
# inequalities named below, keep their TOLERANCES value whatever ``--tol`` is.
INEQ_TOL = 1e-8
THEOREM_TOL = 1e-10
# The two witness checks must show a gap this wide, not merely a nonzero one.
WITNESS_GAP = 1e-6

TOLERANCES = {
    # Entropies from eigenvalues, each clamped to 0 within CLAMP_TOL = 1e-9.
    "general.delta1_vanishes": 1e-9,  # two von Neumann entropies of N-dim states
    "general.delta2_vanishes": 1e-9,  # exchange entropy (Kraus route) vs map entropy
    "exchange.purification": 1e-9,  # Kraus-correlation vs purification route to one entropy
    "exchange.tracial_spectrum": 1e-9,  # sigma_hat vs D/N eigenvalues, Kraus weights cut at 1e-10
    "exchange.classical_identity": 1e-9,  # quantum exchange entropy vs H_P(T) + H(P)
    "embedding.entropy_identity": 1e-9,  # map entropy vs H(T) + ln N
    # Classical bistochastic bounds on Sinkhorn draws (row and column sums
    # within 1e-12); kept at the clamp window whatever --tol is.
    "bistochastic.subadditivity": 1e-9,  # H(T1) + H(T2) - H(T2 T1)
    "bistochastic.symmetric": 1e-9,  # min H of the products - max H of the factors
    "bistochastic.strong": 1e-9,  # three-matrix strong subadditivity
    "bistochastic.delta1_vanishes": 1e-9,  # Shannon entropies of T2 P1 and P1 = uniform
    "bistochastic.delta2_vanishes": 1e-9,  # H_P1(T2) vs H(T2) at P1 = uniform
    "algebra.positivity_closure": 1e-9,  # least eigenvalue of a PSD product, clamp window
    "qf.jam_validity": 1e-9,  # symbol eigenvalues in [0, 1]; extreme maps reach 0 and 1
    # Exact algebraic identities: a few products of O(1) entries.
    "embedding.composition_covariance": 1e-12,  # Choi diagonal of a composition vs T2 T1
    "algebra.hermiticity_closure": 1e-12,  # one reshuffled product of Hermitian operands
    "algebra.neutral_element": 1e-12,  # product with N times the entangled projector
    "qf.compose_oracle": 1e-12,  # composed symbol action vs two actions
    "qf.odot_oracle": 1e-12,  # composition law of 2N-mode map symbols
    "qf.entangled_projector": 1e-12,  # the identity map's symbol is an exact projector
    # Longer chains of products or spectral routes at up to 64 modes.
    "algebra.associativity": 1e-10,  # four reshuffled products of N**2-dim operators
    "states.idempotent": 1e-10,  # self-composition of a product state
    "qf.closed_form": 1e-10,  # symbol eigenvalues vs the closed form in R's singular values
    "qf.adjoint_symmetry": 1e-10,  # entropies of R and R^dag from separate spectra
    # Marginals of compositions and Fock-space realizations.
    "states.d1_closure": 1e-8,  # left marginal of a composition of two Jamiolkowski states
    "states.d1_trace": 1e-9,  # trace of that composition
    "states.d2_closure": 1e-8,  # both marginals; Sinkhorn leaves one within 1e-10 of flat
    "qf.fock_entropy": 1e-8,  # 2**modes-dim Fock density vs the symbol entropy
}


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
    return Check(name, float(slack), TOLERANCES.get(name, tol))


def _eq(name: str, deviation: float) -> Check:
    return Check(name, -abs(float(deviation)), TOLERANCES[name])


def _ineqs(name: str, slacks: np.ndarray, tol: float) -> list[Check]:
    """``_ineq`` for each sample of a batch."""
    return [_ineq(name, slack, tol) for slack in slacks.tolist()]


def _eqs(name: str, deviations: np.ndarray) -> list[Check]:
    """``_eq`` for each sample of a batch."""
    return [_eq(name, deviation) for deviation in deviations.tolist()]


# -- check evaluation ----------------------------------------------------------
#
# A suite's sample function ``(dim, gens, tol)`` takes the numpy random
# generators of a batch's streams, one per sample, makes each sample's draws
# from its own generator and returns each sample's list of checks, in the
# order of ``gens``.  A suite with Sinkhorn draws collects the batch's starts,
# sample by sample and each sample's in draw order, and scales them in one
# call; the draws it no longer needs are dropped before the checks run.


def _by_sample(*columns) -> list[list[Check]]:
    """Each sample's checks from the batch's columns of checks, one column per check."""
    return [list(checks) for checks in zip(*columns)]


def _max_abs(x: np.ndarray) -> np.ndarray:
    """The largest absolute entry of each matrix of a stack."""
    return np.abs(x).max(axis=(-2, -1))


# Python's min(a, b) and max(a, b) member by member, with its tie rule: on a
# tie the first argument wins, where np.minimum and np.maximum give the second.
def _least(a, b):
    return np.minimum(b, a)


def _most(a, b):
    return np.maximum(b, a)


def _sample_dynsub_bistochastic(dim: int, gens, tol: float) -> list[list[Check]]:
    starts, w2 = [], []
    for g in gens:
        starts.append(wishart_choi(dim, g))
        w2.append(wishart_choi(dim, g))
        starts += [wishart_choi(dim, g), wishart_choi(dim, g)]
    phi2 = Channel(tp_renormalize(np.stack(w2)))
    del w2
    draws = operator_sinkhorn(np.stack(starts))
    del starts
    phi1, b1, b2 = Channel(draws[0::3]), Channel(draws[1::3]), Channel(draws[2::3])
    s1, s2 = map_entropy(phi1), map_entropy(phi2)
    s21 = map_entropy(phi2.compose(phi1))

    t1, t2 = map_entropy(b1), map_entropy(b2)
    t12 = map_entropy(b1.compose(b2))
    t21 = map_entropy(b2.compose(b1))

    sig1, sig2 = jam_state(b1), jam_state(b2)
    u21 = von_neumann_entropy(odot_state(sig2, sig1))
    u12 = von_neumann_entropy(odot_state(sig1, sig2))
    return _by_sample(
        _ineqs("subadditivity.upper", s1 + s2 - s21, tol),
        _ineqs("symmetric.lower", _least(t12, t21) - _most(t1, t2), tol),
        _ineqs("triangle.lower", _least(u21, u12) - _most(t1, t2), tol),
        _ineqs("triangle.upper", t1 + t2 - _most(u21, u12), tol),
    )


def _sample_strong_dynsub(dim: int, gens, tol: float) -> list[list[Check]]:
    draws = operator_sinkhorn(np.stack([wishart_choi(dim, g) for g in gens for _ in range(3)]))
    b1, b2, b3 = Channel(draws[0::3]), Channel(draws[1::3]), Channel(draws[2::3])
    s321 = map_entropy(b3.compose(b2).compose(b1))
    s2 = map_entropy(b2)
    s32 = map_entropy(b3.compose(b2))
    s21 = map_entropy(b2.compose(b1))

    g1, g2, g3 = jam_state(b1), jam_state(b2), jam_state(b3)
    v321 = von_neumann_entropy(odot_state(odot_state(g3, g2), g1))
    v32 = von_neumann_entropy(odot_state(g3, g2))
    v21 = von_neumann_entropy(odot_state(g2, g1))
    return _by_sample(
        _ineqs("strong_subadditivity", s32 + s21 - s321 - s2, tol),
        _ineqs("strong_subadditivity.states", v32 + v21 - v321 - von_neumann_entropy(g2), tol),
    )


def _sample_dynsub_general(dim: int, gens, tol: float) -> list[list[Check]]:
    starts, ws = [], []
    for g in gens:
        ws += [wishart_choi(dim, g), wishart_choi(dim, g)]
        starts += [wishart_choi(dim, g), wishart_choi(dim, g)]
        ws.append(wishart_choi(dim, g))
    phi1, phi2, phi3 = (Channel(tp_renormalize(np.stack(ws[k::3]))) for k in range(3))
    del ws
    draws = operator_sinkhorn(np.stack(starts))
    del starts
    rho_star = np.eye(dim, dtype=complex) / dim
    out1 = phi1.apply(rho_star)
    delta1 = von_neumann_entropy(phi2.apply(out1)) - von_neumann_entropy(out1)
    ex2 = entropy_exchange(phi2, out1)
    delta2 = ex2 - map_entropy(phi2)
    comp21 = phi2.compose(phi1)
    s1, s2 = map_entropy(phi1), map_entropy(phi2)
    s21 = map_entropy(comp21)

    bb1, bb2 = Channel(draws[0::2]), Channel(draws[1::2])
    bout1 = bb1.apply(rho_star)
    d1 = von_neumann_entropy(bb2.apply(bout1)) - von_neumann_entropy(bout1)
    d2 = entropy_exchange(bb2, bout1) - map_entropy(bb2)

    lhs = entropy_exchange(phi3.compose(comp21), rho_star) + ex2
    rhs = entropy_exchange(comp21, rho_star) + entropy_exchange(phi3.compose(phi2), out1)
    return _by_sample(
        _ineqs("general.lower", s21 - (s1 + delta1), tol),
        _ineqs("general.upper", s1 + s2 + delta2 - s21, tol),
        _eqs("general.delta1_vanishes", d1),
        _eqs("general.delta2_vanishes", d2),
        _ineqs("exchange.strong_subadditivity", rhs - lhs, tol),
    )


def _sample_lindblad(dim: int, gens, tol: float) -> list[list[Check]]:
    ws, rho = [], []
    for g in gens:
        ws.append(wishart_choi(dim, g))
        rho.append(random_density(dim, g))
    w = np.stack(ws)
    del ws
    ch = Channel(tp_renormalize(w))
    del w
    rho = np.stack(rho)
    lb = lindblad_bounds(ch, rho)
    return _by_sample(
        _ineqs("lindblad.lower", lb.actual - lb.lower, tol),
        _ineqs("lindblad.upper", lb.upper - lb.actual, tol),
        _eqs("exchange.purification", lb.exchange - purified_exchange_entropy(ch, rho)),
        _eqs("exchange.tracial_spectrum", tracial_spectrum_defect(ch)),
    )


def _sample_data_processing(dim: int, gens, tol: float) -> list[list[Check]]:
    ws, rho = [], []
    for g in gens:
        ws += [wishart_choi(dim, g), wishart_choi(dim, g)]
        rho.append(random_density(dim, g))
    w = np.stack(ws)
    del ws
    ch1, ch2 = Channel(tp_renormalize(w[0::2])), Channel(tp_renormalize(w[1::2]))
    del w
    rho = np.stack(rho)
    i1 = coherent_information(ch1, rho)
    # Free ch1's and ch2's cached eigendecompositions and Kraus stacks before i21.
    ch21 = ch2.compose(ch1)
    del ch1, ch2
    i21 = coherent_information(ch21, rho)
    return _by_sample(_ineqs("data_processing", i1 - i21, tol))


def _sample_classical(dim: int, gens, tol: float) -> list[list[Check]]:
    t1, t2, p, starts = [], [], [], []
    for g in gens:
        t1.append(random_stochastic(dim, g))
        t2.append(random_stochastic(dim, g))
        p.append(g.dirichlet(np.ones(dim)))
        starts += [positive_matrix(dim, g) for _ in range(3)]
    draws = matrix_sinkhorn(np.stack(starts))
    del starts
    t1, t2, p = np.stack(t1), np.stack(t2), np.stack(p)
    tol_thm = THEOREM_TOL if tol == INEQ_TOL else tol
    pb = cl.product_bounds(t2, t1)
    sb = cl.slomczynski_bounds(t1, p)
    bs = cl.bistochastic_slacks(draws[0::3], draws[1::3], draws[2::3])
    em = embedding_defects(t1, t2, p)
    return _by_sample(
        _ineqs("product.lower", pb.actual - pb.lower, tol_thm),
        _ineqs("product.upper", pb.upper - pb.actual, tol_thm),
        _ineqs("product.upper_weak", pb.upper_weak - pb.actual, tol_thm),
        _ineqs("transform.lower", sb.actual - sb.lower, tol_thm),
        _ineqs("transform.upper", sb.upper - sb.actual, tol_thm),
        _ineqs("transform.upper_weak", sb.upper_weak - sb.actual, tol_thm),
        _ineqs("bistochastic.subadditivity", bs.subadditivity, tol),
        _ineqs("bistochastic.symmetric", bs.symmetric, tol),
        _ineqs("bistochastic.strong", bs.strong, tol),
        _eqs("bistochastic.delta1_vanishes", bs.delta1),
        _eqs("bistochastic.delta2_vanishes", bs.delta2),
        _eqs("embedding.entropy_identity", em.entropy_identity),
        _eqs("embedding.composition_covariance", em.composition_covariance),
        _eqs("exchange.classical_identity", em.exchange_identity),
    )


def _sample_statecomp(dim: int, gens, tol: float) -> list[list[Check]]:
    d2 = dim * dim
    x, y, z, h2, sigma, ws, starts = [], [], [], [], [], [], []
    for g in gens:
        x.append(random_density(d2, g))
        y.append(random_density(d2, g))
        z.append(random_density(d2, g))
        h2.append(y[-1] - random_density(d2, g))  # indefinite Hermitian, as is x - z
        sigma.append(np.kron(random_density(dim, g), np.eye(dim) / dim))
        ws += [wishart_choi(dim, g), wishart_choi(dim, g)]
        starts += [wishart_choi(dim, g), wishart_choi(dim, g)]
    x, y, z, h2, sigma = map(np.stack, (x, y, z, h2, sigma))
    js = jam_state(Channel(tp_renormalize(np.stack(ws))))
    del ws
    draws = operator_sinkhorn(np.stack(starts))
    del starts
    assoc = _max_abs(odot_raw(odot_raw(x, y), z) - odot_raw(x, odot_raw(y, z)))

    h12 = odot_raw(x - z, h2)
    xy = odot_raw(x, y)
    witness = _max_abs(xy - odot_raw(y, x)) - WITNESS_GAP

    neutral = np.broadcast_to(dim * max_entangled_projector(dim), x.shape)
    dev = _most(_max_abs(odot_raw(x, neutral) - x), _max_abs(odot_raw(neutral, x) - x))

    comp = odot_state(js[1::2], js[0::2])
    flat = np.eye(dim) / dim
    trace_dev = np.trace(comp, axis1=-2, axis2=-1) - 1.0

    compb = odot_state(jam_state(Channel(draws[1::2])), jam_state(Channel(draws[0::2])))
    dev2 = _most(_max_abs(partial_trace(compb, "A") - flat), _max_abs(partial_trace(compb, "B") - flat))
    return _by_sample(
        _eqs("algebra.associativity", assoc),
        _eqs("algebra.hermiticity_closure", _max_abs(h12 - h12.conj().swapaxes(-1, -2))),
        _ineqs("algebra.positivity_closure", np.linalg.eigvalsh(xy).min(axis=-1), tol),
        _ineqs("algebra.noncommutativity_witness", witness, tol),
        _eqs("algebra.neutral_element", dev),
        _eqs("states.idempotent", _max_abs(odot_state(sigma, sigma) - sigma)),
        _ineqs("states.not_square_witness", not_square_witness(x) - WITNESS_GAP, tol),
        _eqs("states.d1_closure", _max_abs(partial_trace(comp, "A") - flat)),
        # np.abs of a complex array can differ in the last bit from abs() of a
        # complex scalar; hypot does not
        _eqs("states.d1_trace", np.hypot(trace_dev.real, trace_dev.imag)),
        _eqs("states.d2_closure", dev2),
    )


def _entangled_projector_defect(modes: int) -> float:
    """How far the identity map's symbol is from a projector with flat diagonal blocks."""
    ent = qf.qf_jam_symbol(qf.QFMap(np.eye(modes, dtype=complex), np.zeros((modes, modes))))
    proj_dev = np.abs(ent @ ent - ent).max()
    half = np.eye(modes) / 2
    marg_dev = max(
        np.abs(ent[:modes, :modes] - half).max(), np.abs(ent[modes:, modes:] - half).max()
    )
    return max(proj_dev, marg_dev)


# quasifree batches of at least this many modes are split over forked workers
# (see _in_forked_workers).  On a 2-core VM with one BLAS thread, a 64-mode
# sample costs about 19 ms, more than half of it LAPACK on 128x128 symbols,
# and the split cut the wall time of an 80-sample batch by 35-40 %.  A 4-mode
# batch is one stacked chunk of about 0.3 ms per sample; a split would add
# little but a fork.
QF_SPLIT_MIN_MODES = 16

# A quasifree chunk holds at most this many bytes of (B, 2N, 2N) complex map
# symbols: the whole batch at 4 modes, one sample at 64.  On the same VM, in
# CPU time, an 80-sample 4-mode call took 0.118 s in chunks of one sample and
# 0.021 s in one chunk; a 16-sample 64-mode call took 0.25 s in chunks of one
# and 0.26-0.29 s in chunks of 4 or 16, where LAPACK costs the same per
# stacked matrix and the larger stacks fall out of cache.
QF_CHUNK_BYTES = 256 * 1024


def _blas_threads(cores: int) -> int:
    """The threads OpenBLAS runs, as it reads them when it starts.

    The first positive count among ``OPENBLAS_NUM_THREADS``,
    ``GOTO_NUM_THREADS`` and ``OMP_NUM_THREADS``; with none set, one per core.
    """
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return cores


def _sample_quasifree(modes: int, gens, tol: float) -> list[list[Check]]:
    # The identity map's symbol is the same in every sample: one evaluation per batch.
    projector_dev = _entangled_projector_defect(modes)
    chunk = max(1, QF_CHUNK_BYTES // (16 * (2 * modes) ** 2))

    def evaluate(part) -> list[list[Check]]:
        return [
            checks
            for lo in range(0, len(part), chunk)
            for checks in _quasifree_chunk(modes, part[lo : lo + chunk], tol, projector_dev)
        ]

    # Workers share the cores with BLAS's threads: a BLAS that already runs
    # one thread per core leaves none to split over.  On 2 cores with two BLAS
    # threads in each of two workers, a 40-sample batch at 64 modes took 2.6 s,
    # against 0.8 s serially.
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cores // _blas_threads(cores), len(gens)) if modes >= QF_SPLIT_MIN_MODES else 1
    if workers < 2:
        return evaluate(gens)
    return _in_forked_workers(evaluate, gens, workers)


def _in_forked_workers(evaluate, items: list, workers: int) -> list:
    """``evaluate(items)``, with ``items`` cut into ``workers`` contiguous slices.

    The calling process evaluates the first slice; each other slice goes to a
    forked child, which sends its results back through a one-way pipe.
    Results come back in the order of ``items``.  ``evaluate`` must return a
    list, and must not depend on which process runs it: a sample draws only
    from its own stream, so its bits are the same in any process.  A child's
    exception is raised again here with its own type.  Every child is joined
    before this returns or raises; when this raises, unfinished children are
    terminated first.

    The ``fork`` start method lets a child inherit the loaded modules (and
    any test's monkeypatches) without importing anything again.  The process
    has no Python threads of its own at this point; OpenBLAS stops its thread
    pool around a fork.
    """
    import multiprocessing  # only a split batch pays for the import

    ctx = multiprocessing.get_context("fork")
    cuts = [len(items) * k // workers for k in range(workers + 1)]
    children = []
    done = False
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            receiver, sender = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_send_results, args=(evaluate, items[lo:hi], sender), daemon=True)
            child.start()
            children.append((child, receiver))
            sender.close()  # the child holds the only send end, so its exit ends the pipe
        results = evaluate(items[: cuts[1]])
        for child, receiver in children:
            try:
                ok, value = receiver.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"a worker exited with code {child.exitcode} and sent no results") from None
            if not ok:
                raise value
            results += value
        done = True
        return results
    finally:
        for child, receiver in children:
            if not done:
                child.terminate()
            child.join()
            receiver.close()


def _send_results(evaluate, items: list, sender) -> None:
    """A worker's body: send ``(True, evaluate(items))``, or ``(False, exception)``."""
    try:
        message = (True, evaluate(items))
    except Exception as exc:
        message = (False, exc)
    sender.send(message)
    sender.close()


def _quasifree_chunk(modes: int, gens, tol: float, projector_dev: float) -> list[list[Check]]:
    fock = modes <= qf.MODE_LIMIT
    b1, b2, m1, m2, q, qs = [], [], [], [], [], []
    for g in gens:
        b1.append(draw_contraction(modes, g))
        b2.append(draw_contraction(modes, g))
        m1.append(draw_qf_map(modes, g))
        m2.append(draw_qf_map(modes, g))
        q.append(draw_symbol(modes, g))
        if fock:
            qs.append(draw_symbol(modes, g))
    b1, b2 = (qf.qf_bistochastic(contractions(*stack_draws(d))) for d in (b1, b2))
    m1, m2 = (qf_maps(*stack_draws(d)) for d in (m1, m2))
    q = symbols(*stack_draws(q))
    # S(Phi_1) from the 2N-mode symbol's spectrum; S(Phi_2) and S(Phi_2 Phi_1)
    # from the closed form in R's singular values.  qf_compose(b2, b1) is the
    # bistochastic map of R_1 R_2, so S(Phi_2 Phi_1) needs only sigma(R_1 R_2),
    # not the map's Z.
    s1 = qf.qf_map_entropy(b1)
    s2 = qf.qf_bistochastic_entropy(b2)
    s21 = qf.qf_bistochastic_entropy(b1.r @ b2.r)
    adjoint = qf.qf_adjoint(b1)
    columns = [
        _ineqs("qf.subadditivity.upper", s1 + s2 - s21, tol),
        _ineqs("qf.subadditivity.lower", s21 - _most(s1, s2), tol),
        _eqs("qf.closed_form", s1 - qf.qf_bistochastic_entropy(b1)),
        _eqs("qf.adjoint_symmetry", s1 - qf.qf_map_entropy(adjoint)),
    ]

    m21 = qf.qf_compose(m2, m1)
    oracle = _max_abs(qf.qf_apply(m21, q) - qf.qf_apply(m2, qf.qf_apply(m1, q)))
    columns.append(_eqs("qf.compose_oracle", oracle))
    j1 = qf.qf_jam_symbol(m1)
    odot_dev = _max_abs(qf.qf_odot_symbol(qf.qf_jam_symbol(m2), j1) - qf.qf_jam_symbol(m21))
    columns.append(_eqs("qf.odot_oracle", odot_dev))

    jam_vals = np.linalg.eigvalsh(j1)
    jam_margin = _least(jam_vals.min(axis=-1), 1.0 - jam_vals.max(axis=-1))
    columns.append(_ineqs("qf.jam_validity", jam_margin, tol))
    columns.append([_eq("qf.entangled_projector", projector_dev)] * len(gens))

    if fock:
        qs = symbols(*stack_draws(qs))
        fock_dev = von_neumann_entropy(qf.fock_density(qs)) - qf.qf_state_entropy(qs)
        columns.append(_eqs("qf.fock_entropy", fock_dev))
    return _by_sample(*columns)


def _sample_power_subadd(dim: int, gens, tol: float) -> list[list[Check]]:
    ch = Channel(operator_sinkhorn(np.stack([wishart_choi(dim, g) for g in gens])))
    s = map_entropy(ch)
    worst = math.inf
    power = ch
    for n in range(2, 6):
        power = power.compose(ch)
        worst = _least(worst, n * s - map_entropy(power))
    return _by_sample(_ineqs("power.subadditivity", worst, tol))


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
    """Evaluate the checks of the samples ``indices``, in their order.

    Each sample draws from its own ``RngStream(seed, index)``, and the suite
    evaluates the batch at once.
    """
    gens = [RngStream(seed, index).generator() for index in indices]
    return SUITES[suite][0](dim, gens, tol)


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
    if not (math.isfinite(tol) and tol >= 0):
        raise DomainError(f"tol must be finite and nonnegative, got {tol}")
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
