"""Command-line interface.

Exit codes: 0 on success, 1 when a verification suite reports a violation,
2 on malformed input.  Scalar results are printed as JSON with numbers
rounded to 12 decimal places; reports omit timing so that repeated runs
with the same seed are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import classical as cl
from . import quasifree as qf
from .channels import Channel, map_entropy, to_kraus
from .errors import DomainError, DynsubError
from .harness import INEQ_TOL, SUITES, run_all
from .jsonio import (
    MatrixFileError,
    load_matrix,
    load_vector,
    matrix_to_obj,
    round_scalar,
)
from .matcore import _as_square
from .randgen import (
    RngStream,
    random_bistochastic_channel,
    random_bistochastic_matrix,
    random_channel,
    random_qf_map,
    random_stochastic,
)


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _cmd_verify(args) -> int:
    suites = [args.suite] if args.suite else None
    dims = [args.dim] if args.dim is not None else None
    tol = args.tol if args.tol is not None else INEQ_TOL
    reports = run_all(args.seed, samples=args.samples, tol=tol, suites=suites, dims=dims)
    payload = {
        "seed": args.seed,
        "pass": all(r.passed for r in reports),
        "reports": [r.to_dict() for r in reports],
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        sys.stderr.write(
            f"{r.suite}[dim={r.dim}] {status} worst={r.worst_check}"
            f" slack={r.worst_violation:.3e} ({r.wall_time:.2f}s)\n"
        )
    return 0 if payload["pass"] else 1


def _require(value, flag: str):
    if value is None:
        raise MatrixFileError(f"missing required argument {flag}")
    return value


def _load_channel(path: str) -> Channel:
    return Channel(_as_square(load_matrix(path)))  # one Choi matrix, not a stack


def _cmd_channel(args) -> int:
    if args.action == "entropy":
        _emit({"entropy": round_scalar(map_entropy(_load_channel(_require(args.choi, "--choi"))))})
    elif args.action == "kraus":
        ks = to_kraus(_load_channel(_require(args.choi, "--choi")))
        kept = ks.weights > 0  # the zero-weight slots are not printed
        _emit(
            {
                "weights": [round_scalar(w) for w in ks.weights[kept]],
                "operators": [matrix_to_obj(a) for a in ks.operators[kept]],
            }
        )
    elif args.action == "compose":
        later = _load_channel(_require(args.later, "--later"))
        earlier = _load_channel(_require(args.earlier, "--earlier"))
        _emit({"choi": matrix_to_obj(later.compose(earlier).choi)})
    elif args.action == "apply":
        ch = _load_channel(_require(args.choi, "--choi"))
        _emit({"state": matrix_to_obj(ch.apply(load_matrix(_require(args.state, "--state"))))})
    return 0


def _cmd_classical(args) -> int:
    if args.action == "entropy":
        t = cl.validate_stochastic(load_matrix(_require(args.matrix, "--matrix")))
        out = {"uniform": round_scalar(cl.entropy_uniform(t))}
        try:
            out["invariant"] = round_scalar(cl.entropy_invariant(t))
        except DynsubError:
            out["invariant"] = None
        _emit(out)
    elif args.action == "bounds":
        t1 = cl.validate_stochastic(load_matrix(_require(args.t1, "--t1")))
        if (args.p is None) == (args.t2 is None):
            raise MatrixFileError("bounds needs exactly one of --p or --t2")
        if args.p is not None:
            b = cl.slomczynski_bounds(t1, load_vector(args.p))
            _emit(
                {
                    "lower": round_scalar(b.lower),
                    "upper": round_scalar(b.upper),
                    "actual": round_scalar(b.actual),
                    "upper_weak": round_scalar(b.upper_weak),
                }
            )
        else:
            t2 = cl.validate_stochastic(load_matrix(args.t2))
            b = cl.product_bounds(t2, t1)
            _emit(
                {
                    "delta1": round_scalar(b.delta1),
                    "delta2": round_scalar(b.delta2),
                    "lower": round_scalar(b.lower),
                    "upper": round_scalar(b.upper),
                    "actual": round_scalar(b.actual),
                    "upper_weak": round_scalar(b.upper_weak),
                }
            )
    return 0


def _load_qf_map(r_path: str, z_path: str) -> qf.QFMap:
    return qf.qf_validate(load_matrix(r_path), load_matrix(z_path))


def _cmd_qf(args) -> int:
    if args.action == "entropy":
        if args.q is not None:
            _emit({"entropy": round_scalar(qf.qf_state_entropy(load_matrix(args.q)))})
        else:
            if args.r is None or args.z is None:
                raise MatrixFileError("entropy needs --q, or --r and --z")
            m = _load_qf_map(args.r, args.z)
            _emit({"entropy": round_scalar(qf.qf_map_entropy(m))})
    elif args.action == "compose":
        later = _load_qf_map(_require(args.later_r, "--later-r"), _require(args.later_z, "--later-z"))
        earlier = _load_qf_map(
            _require(args.earlier_r, "--earlier-r"), _require(args.earlier_z, "--earlier-z")
        )
        m = qf.qf_compose(later, earlier)
        _emit({"r": matrix_to_obj(m.r), "z": matrix_to_obj(m.z)})
    elif args.action == "fock":
        _emit({"density": matrix_to_obj(qf.fock_density(load_matrix(_require(args.q, "--q"))))})
    return 0


def _cmd_random(args) -> int:
    size, flag = (args.modes, "--modes") if args.kind == "qfmap" else (args.dim, "--dim")
    if size < 1:
        raise DomainError(f"{flag} must be at least 1, got {size}")
    g = RngStream(args.seed, args.index).generator()
    if args.kind == "channel":
        if args.bistochastic:
            ch = random_bistochastic_channel(args.dim, g)
        else:
            ch = random_channel(args.dim, g)
        _emit({"choi": matrix_to_obj(ch.choi)})
    elif args.kind == "matrix":
        t = (
            random_bistochastic_matrix(args.dim, g)
            if args.bistochastic
            else random_stochastic(args.dim, g)
        )
        _emit({"matrix": matrix_to_obj(t)})
    elif args.kind == "qfmap":
        m = random_qf_map(args.modes, g, bistochastic=args.bistochastic)
        _emit({"r": matrix_to_obj(m.r), "z": matrix_to_obj(m.z)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynsub",
        description="Quantum-channel calculus and entropy-inequality verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run randomized verification suites")
    group = ver.add_mutually_exclusive_group()
    group.add_argument("--suite", choices=sorted(SUITES), help="run a single suite")
    group.add_argument("--all", action="store_true", help="run every suite (default)")
    ver.add_argument("--dim", type=int, help="override the suite's default dimensions")
    ver.add_argument("--samples", type=int, help="override the suite's default sample count")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--tol", type=float, help="override the inequality slack tolerance")
    ver.add_argument("--json", metavar="PATH", help="also write the report to PATH")
    ver.set_defaults(fn=_cmd_verify)

    chan = sub.add_parser("channel", help="single-channel computations")
    chan.add_argument("action", choices=["entropy", "kraus", "compose", "apply"])
    chan.add_argument("--choi", help="Choi matrix file (dim N^2)")
    chan.add_argument("--later", help="Choi file of the later channel")
    chan.add_argument("--earlier", help="Choi file of the earlier channel")
    chan.add_argument("--state", help="input state file (dim N)")
    chan.set_defaults(fn=_cmd_channel)

    clas = sub.add_parser("classical", help="stochastic-matrix computations")
    clas.add_argument("action", choices=["entropy", "bounds"])
    clas.add_argument("--matrix", help="column-stochastic matrix file")
    clas.add_argument("--t1", help="earlier transition matrix file")
    clas.add_argument("--t2", help="later transition matrix file")
    clas.add_argument("--p", help="probability vector file (single row)")
    clas.set_defaults(fn=_cmd_classical)

    qfp = sub.add_parser("qf", help="quasi-free map computations")
    qfp.add_argument("action", choices=["entropy", "compose", "fock"])
    qfp.add_argument("--q", help="symbol file")
    qfp.add_argument("--r", help="map R file")
    qfp.add_argument("--z", help="map Z file")
    qfp.add_argument("--later-r", dest="later_r")
    qfp.add_argument("--later-z", dest="later_z")
    qfp.add_argument("--earlier-r", dest="earlier_r")
    qfp.add_argument("--earlier-z", dest="earlier_z")
    qfp.set_defaults(fn=_cmd_qf)

    rnd = sub.add_parser("random", help="draw seeded random objects")
    rnd.add_argument("kind", choices=["channel", "matrix", "qfmap"])
    rnd.add_argument("--dim", type=int, default=2)
    rnd.add_argument("--modes", type=int, default=2)
    rnd.add_argument("--seed", type=int, default=0)
    rnd.add_argument("--index", type=int, default=0)
    rnd.add_argument("--bistochastic", action="store_true")
    rnd.set_defaults(fn=_cmd_random)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DynsubError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
