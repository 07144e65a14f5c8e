"""The benchmark's workloads: the ``dynsub verify`` calls of one pass.

A pass makes one ``dynsub verify --suite S --dim N --samples K --seed SEED``
call per (suite, dim) of its workload.  Each workload runs its suites at
their ``verify --all`` default dims, with one fraction of every suite's
default sample count, so within a workload the suites weigh as they do in
``verify --all``.  Together the three workloads cover every (suite, dim)
of ``verify --all``.
"""

from __future__ import annotations

from fractions import Fraction

# workload -> (fraction of the default sample counts, suites).  The
# fractions make one pass take about 3 s on a 2-core x86-64 VM.
WORKLOADS = {
    # The suites that draw bistochastic channels: operator Sinkhorn and
    # thousands of tiny eigh calls dominate, so batching and Sinkhorn
    # changes show here.
    "choi-sinkhorn": (
        Fraction(1, 20),
        ("dynsub_bistochastic", "strong_dynsub", "power_subadd", "dynsub_general", "statecomp_algebra"),
    ),
    # No bistochastic channel: Wishart draws, the Kraus and exchange-entropy
    # path, classical bounds and the entropy kernel.
    "wishart-classical": (Fraction(1, 5), ("lindblad", "data_processing", "classical")),
    # LAPACK on 128x128 symbols and the Fock realization at 4 modes.
    "quasifree": (Fraction(2, 25), ("quasifree",)),
}


def calls(workload: str) -> list[tuple[str, int, int]]:
    """The (suite, dim, samples) calls of one pass, from ``harness.SUITES``' defaults."""
    from dynsub.harness import SUITES  # imports numpy: only after the environment is pinned

    fraction, suites = WORKLOADS[workload]
    out = []
    for suite in suites:
        _, dims, default_samples = SUITES[suite]
        samples = default_samples * fraction
        if samples.denominator != 1 or samples < 1:
            raise ValueError(f"{workload}: {fraction} of {suite}'s {default_samples} samples is not a whole count")
        out += [(suite, dim, int(samples)) for dim in dims]
    return out


def samples_per_pass(workload: str) -> int:
    return sum(samples for _, _, samples in calls(workload))
