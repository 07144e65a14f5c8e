"""One pass of a workload through ``dynsub verify``, in this process.

Every pass of a run repeats the same calls, so passes are identical work
and each call's canonical JSON must be byte-identical to its first pass.
"""

from __future__ import annotations

import io
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout

from dynsub import cli

from checks import CheckFailure, check_report, check_same_bytes
from workloads import calls


def verify(suite: str, dim: int, samples: int, seed: int) -> tuple[int, str]:
    """Run ``dynsub verify`` for one (suite, dim); returns (exit code, stdout)."""
    argv = ["verify", "--suite", suite, "--dim", str(dim), "--samples", str(samples), "--seed", str(seed)]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def run_pass(workload: str, seed: int, reference: dict) -> int:
    """One pass; returns the number of samples whose call aborted or failed a check.

    ``reference`` maps (suite, dim) to the canonical JSON of that call's
    first passing run; the first pass fills it in.
    """
    failed = 0
    for suite, dim, samples in calls(workload):
        try:
            code, text = verify(suite, dim, samples, seed)
            check_report(code, text, suite, dim, samples, seed)
            check_same_bytes(f"verify {suite}[{dim}]", text, reference.setdefault((suite, dim), text))
        except CheckFailure as exc:
            sys.stderr.write(f"FAILED {exc}\n")
            failed += samples
        except (Exception, SystemExit):  # an aborted call counts its samples as failed
            sys.stderr.write(f"FAILED verify {suite}[{dim}] aborted:\n{traceback.format_exc()}")
            failed += samples
    return failed
