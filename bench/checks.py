"""Correctness checks: the program's results against ``oracle``, and its verify reports.

``check_library`` draws objects with ``dynsub.randgen``'s public samplers
from a stream the benchmark chooses, checks their defining properties,
recomputes entropies with ``oracle`` and requires the program's public
functions to agree.  It then requires the paper's inequalities and the
closed forms to hold on the recomputed numbers.  It runs outside the
timed passes.

``check_report`` and ``check_same_bytes`` check each ``dynsub verify``
call of a pass.
"""

from __future__ import annotations

import json
import math

import numpy as np
from dynsub import channels, classical, quasifree, randgen, statecomp

import oracle
from oracle import CheckFailure, require_close, require_le

# The Fock realization forms minors of Q/(1-Q), which amplifies round-off for
# eigenvalues near 1; the program checks the same identity at 1e-8.
FOCK_TOL = 1e-8
# Maxima of matrix differences that are exact up to a few products of
# contractions, so only round-off separates them.
PRODUCT_TOL = 1e-10

# Mixed into --seed so the check draws do not repeat the verify samples.
CHECK_STREAM = 0xC0FFEE


def check_report(code: int, text: str, suite: str, dim: int, samples: int, seed: int) -> None:
    """Require exit code 0 and one passing, replayed report of what was asked."""
    if code != 0:
        raise CheckFailure(f"verify {suite}[{dim}] exited with {code}")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"verify {suite}[{dim}] printed no JSON report: {exc}") from None
    reports = payload.get("reports", [])
    if payload.get("seed") != seed or payload.get("pass") is not True or len(reports) != 1:
        raise CheckFailure(
            f"verify {suite}[{dim}]: payload seed={payload.get('seed')!r},"
            f" pass={payload.get('pass')!r}, {len(reports)} reports"
        )
    report = reports[0]
    for key, want in (("suite", suite), ("dim", dim), ("samples", samples), ("seed", seed)):
        if report.get(key) != want:
            raise CheckFailure(f"verify {suite}[{dim}]: report {key}={report.get(key)!r}, asked {want!r}")
    for key in ("pass", "replay_ok"):
        if report.get(key) is not True:
            raise CheckFailure(f"verify {suite}[{dim}]: report {key}={report.get(key)!r}")


def check_same_bytes(what: str, text: str, reference: str) -> None:
    if text != reference:
        raise CheckFailure(f"{what}: canonical JSON differs from the run's first pass")


def _max_dev(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max())


def _check_channels(n: int, g: np.random.Generator) -> None:
    bis = [randgen.random_bistochastic_channel(n, g) for _ in range(3)]
    phi = randgen.random_channel(n, g)
    rho = randgen.random_density(n, g)
    for i, ch in enumerate(bis):
        oracle.check_channel(f"random_bistochastic_channel[{n}] #{i}", ch.choi, unital=True)
    oracle.check_channel(f"random_channel[{n}]", phi.choi)
    oracle.check_density(f"random_density[{n}]", rho)

    d1, d2, d3 = (ch.choi for ch in bis)
    s1, s2, s3 = (oracle.map_entropy(d) for d in (d1, d2, d3))
    s_phi = oracle.map_entropy(phi.choi)
    for name, ch, own in (("b1", bis[0], s1), ("b2", bis[1], s2), ("b3", bis[2], s3), ("phi", phi, s_phi)):
        require_close(f"map_entropy({name})[{n}]", channels.map_entropy(ch), own)

    d21, d12, d32 = oracle.compose(d2, d1), oracle.compose(d1, d2), oracle.compose(d3, d2)
    d321 = oracle.compose(d3, d21)
    s21, s12, s32, s321 = (oracle.map_entropy(d) for d in (d21, d12, d32, d321))
    require_close(f"map_entropy(b2.b1)[{n}]", channels.map_entropy(bis[1].compose(bis[0])), s21)
    require_close(
        f"map_entropy(b3.b2.b1)[{n}]",
        channels.map_entropy(bis[2].compose(bis[1]).compose(bis[0])),
        s321,
    )
    sig = statecomp.odot_state(d2 / n, d1 / n)
    require_close(f"odot_state(J2, J1)[{n}]", _max_dev(sig, d21 / n), 0.0, PRODUCT_TOL)

    d_phi1 = oracle.compose(phi.choi, d1)
    s_phi1 = oracle.map_entropy(d_phi1)
    require_close(f"map_entropy(phi.b1)[{n}]", channels.map_entropy(phi.compose(bis[0])), s_phi1)
    require_le(f"subadditivity S(phi.b1) <= S(b1) + S(phi)[{n}]", s_phi1, s1 + s_phi)
    require_le(f"subadditivity S(b2.b1) <= S(b1) + S(b2)[{n}]", s21, s1 + s2)
    require_le(f"max(S1, S2) <= min(S12, S21)[{n}]", max(s1, s2), min(s12, s21))
    require_le(f"strong subadditivity[{n}]", s321 + s2, s32 + s21)

    out = oracle.apply(phi.choi, rho)
    require_close(f"Channel.apply[{n}]", _max_dev(phi.apply(rho), out), 0.0, PRODUCT_TOL)
    s_ex = oracle.exchange_entropy(phi.choi, rho)
    require_close(f"entropy_exchange[{n}]", channels.entropy_exchange(phi, rho), s_ex)
    s_rho, s_out = oracle.entropy(rho), oracle.entropy(out)
    require_le(f"Lindblad |S(sigma) - S(rho)| <= S(rho')[{n}]", abs(s_ex - s_rho), s_out)
    require_le(f"Lindblad S(rho') <= S(sigma) + S(rho)[{n}]", s_out, s_ex + s_rho)

    closed = (
        ("identity", channels.identity_channel(n), 0.0),
        ("unitary", channels.unitary_channel(randgen.haar_unitary(n, g)), 0.0),
        ("depolarizing", channels.depolarizing_channel(n), 2 * math.log(n)),
        ("coarse-graining", channels.coarse_graining_channel(n), math.log(n)),
    )
    for name, ch, want in closed:
        require_close(f"closed form S({name})[{n}], own", oracle.map_entropy(ch.choi), want)
        require_close(f"closed form S({name})[{n}], map_entropy", channels.map_entropy(ch), want)


def _check_classical(n: int, g: np.random.Generator) -> None:
    t1, t2 = randgen.random_stochastic(n, g), randgen.random_stochastic(n, g)
    b1, b2, b3 = (randgen.random_bistochastic_matrix(n, g) for _ in range(3))
    for name, t in (("t1", t1), ("t2", t2)):
        oracle.check_stochastic(f"random_stochastic[{n}] {name}", t)
    for name, t in (("b1", b1), ("b2", b2), ("b3", b3)):
        oracle.check_stochastic(f"random_bistochastic_matrix[{n}] {name}", t, bistochastic=True)

    own = oracle.product_terms(t2, t1)
    lib = classical.product_bounds(t2, t1)._asdict()
    for key, value in own.items():
        require_close(f"product_bounds.{key}[{n}]", lib[key], value)
    require_close(f"entropy_uniform(T2 T1)[{n}]", classical.entropy_uniform(t2 @ t1), own["actual"])
    require_le(f"H(T1) + delta1 <= H(T2 T1)[{n}]", own["lower"], own["actual"])
    require_le(f"H(T2 T1) <= H(T1) + H(T2) + delta2[{n}]", own["actual"], own["upper"])

    h = oracle.matrix_entropy
    h1, h2, h21, h12 = h(b1), h(b2), h(b2 @ b1), h(b1 @ b2)
    require_le(f"bistochastic H(B2 B1) <= H(B1) + H(B2)[{n}]", h21, h1 + h2)
    require_le(f"bistochastic max <= min[{n}]", max(h1, h2), min(h12, h21))
    require_le(f"bistochastic strong[{n}]", h(b3 @ b2 @ b1) + h2, h(b3 @ b2) + h21)
    bist = oracle.product_terms(b2, b1)
    require_close(f"bistochastic delta1 = 0[{n}]", bist["delta1"], 0.0)
    require_close(f"bistochastic delta2 = 0[{n}]", bist["delta2"], 0.0)


def _check_quasifree(modes: int, g: np.random.Generator) -> None:
    b1 = randgen.random_qf_map(modes, g, bistochastic=True)
    b2 = randgen.random_qf_map(modes, g, bistochastic=True)
    m = randgen.random_qf_map(modes, g)
    q = randgen.random_symbol(modes, g)
    for name, mp, bist in (("b1", b1, True), ("b2", b2, True), ("m", m, False)):
        oracle.check_qf_map(f"random_qf_map[{modes}] {name}", mp.r, mp.z, bistochastic=bist)

    def own(mp):
        return oracle.fermionic_entropy(oracle.qf_symbol(mp.r, mp.z))

    s1, s2, s_m = own(b1), own(b2), own(m)
    for name, mp, value in (("b1", b1, s1), ("b2", b2, s2), ("m", m, s_m)):
        require_close(f"qf_map_entropy({name})[{modes}]", quasifree.qf_map_entropy(mp), value)
    for name, mp, value in (("b1", b1, s1), ("b2", b2, s2)):
        closed = oracle.qf_bistochastic_closed_form(mp.r)
        require_close(f"symbol entropy = closed form ({name})[{modes}]", value, closed)
        require_close(f"qf_bistochastic_entropy({name})[{modes}]", quasifree.qf_bistochastic_entropy(mp.r), closed)

    c = quasifree.qf_compose(b2, b1)
    two_step = oracle.qf_act(b2.r, b2.z, oracle.qf_act(b1.r, b1.z, q))
    require_close(f"qf_compose action[{modes}]", _max_dev(oracle.qf_act(c.r, c.z, q), two_step), 0.0, PRODUCT_TOL)
    s21 = own(c)
    require_le(f"qf S(b2.b1) <= S(b1) + S(b2)[{modes}]", s21, s1 + s2)
    require_le(f"qf max(S1, S2) <= S(b2.b1)[{modes}]", max(s1, s2), s21)


def _check_fock(modes: int, g: np.random.Generator) -> None:
    q = randgen.random_symbol(modes, g)
    rho = quasifree.fock_density(q)
    oracle.check_density(f"fock_density[{modes}]", rho)
    want = oracle.fermionic_entropy(q)
    require_close(f"Fock entropy[{modes}]", oracle.entropy(rho), want, FOCK_TOL)
    require_close(f"qf_state_entropy[{modes}]", quasifree.qf_state_entropy(q), want)


def check_library(seed: int) -> None:
    """Raise :class:`CheckFailure` unless every recomputation and inequality holds."""
    g = np.random.default_rng([CHECK_STREAM, seed])
    for n in (2, 3):
        _check_channels(n, g)
    for n in (2, 3, 4, 5, 6):
        _check_classical(n, g)
    for modes in (4, 64):
        _check_quasifree(modes, g)
    for modes in (3, 4):
        _check_fock(modes, g)
