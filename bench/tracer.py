"""Per-layer trace: spans around the calls into each layer's public functions.

``Tracer`` replaces each traced function by a wrapper in every ``dynsub``
module that holds it (``harness`` and ``cli`` bind their callees with
``from ... import``) and in ``numpy.linalg``.  A wrapper records one span,
``(layer, parent span, start, end)``, in memory; ``layer_metrics`` turns
the spans into per-layer self times and counts.  The originals come back
when the ``with`` block ends; entering the same tracer again adds to its
spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy.linalg

# layer -> (module, attribute) pairs whose calls are the layer's spans.
LAYERS = {
    "randgen.sinkhorn": [("dynsub.randgen", "random_bistochastic_channel")],
    "randgen.wishart": [("dynsub.randgen", "random_channel"), ("dynsub.randgen", "random_density")],
    "randgen.matrix": [
        ("dynsub.randgen", "random_stochastic"),
        ("dynsub.randgen", "random_bistochastic_matrix"),
    ],
    "randgen.qf": [("dynsub.randgen", "random_qf_map"), ("dynsub.randgen", "random_symbol")],
    "matcore.eig": [("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh")],
    "matcore.svd": [("numpy.linalg", "svd"), ("numpy.linalg", "qr")],
    "matcore.entropy": [("dynsub.matcore", "von_neumann_entropy"), ("dynsub.matcore", "eta")],
    "channels.kraus": [
        ("dynsub.channels", name)
        for name in (
            "to_kraus",
            "sigma_hat",
            "entropy_exchange",
            "purified_exchange_entropy",
            "lindblad_bounds",
            "coherent_information",
        )
    ],
    "channels.compose": [("dynsub.channels", "Channel.compose")],
    "channels.map_entropy": [("dynsub.channels", "map_entropy")],
    "statecomp.odot": [("dynsub.statecomp", "odot_raw"), ("dynsub.statecomp", "odot_state")],
    "classical.bounds": [
        ("dynsub.classical", name)
        for name in (
            "product_bounds",
            "slomczynski_bounds",
            "entropy_uniform",
            "entropy_invariant",
            "entropy_weighted",
        )
    ],
    "quasifree.symbol": [
        ("dynsub.quasifree", name)
        for name in ("qf_jam_symbol", "qf_compose", "qf_apply", "qf_odot_symbol")
    ],
    "quasifree.entropy": [
        ("dynsub.quasifree", "qf_state_entropy"),
        ("dynsub.quasifree", "qf_bistochastic_entropy"),
    ],
    "quasifree.fock": [("dynsub.quasifree", "fock_density")],
    "harness.run_suite": [("dynsub.harness", "run_suite")],
    "harness.evaluate_sample": [("dynsub.harness", "evaluate_sample")],
    "harness.run_all": [("dynsub.harness", "run_all")],
    "cli.main": [("dynsub.cli", "main")],
}

# Every per-layer metric, with its unit, in the order they are printed.
METRICS = {
    "randgen.sinkhorn_s": "s",
    "randgen.sinkhorn_iters": "count",
    "randgen.sinkhorn_draws": "count",
    "randgen.wishart_s": "s",
    "randgen.matrix_s": "s",
    "randgen.qf_s": "s",
    "matcore.eig_calls": "count",
    "matcore.eig_s": "s",
    "matcore.svd_s": "s",
    "matcore.entropy_s": "s",
    "channels.kraus_s": "s",
    "channels.kraus_calls": "count",
    "channels.compose_s": "s",
    "channels.map_entropy_s": "s",
    "statecomp.odot_s": "s",
    "statecomp.odot_calls": "count",
    "classical.bounds_s": "s",
    "quasifree.symbol_s": "s",
    "quasifree.entropy_s": "s",
    "quasifree.fock_s": "s",
    "harness.aggregate_s": "s",
    "harness.replay_s": "s",
    "harness.samples": "count",
    "cli.report_s": "s",
    "trace.overhead_s": "s",
}


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Context manager that records spans while the traced functions are replaced."""

    def __init__(self) -> None:
        self.spans: list = []  # (layer, parent index or -1, start, end, samples asked)
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        asked = layer == "harness.run_suite"

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                samples = (args[2] if len(args) > 2 else kwargs["samples"]) if asked else 0
                spans[index] = (layer, parent, start, end, samples)

        return traced

    def __enter__(self) -> "Tracer":
        holders = [m for name, m in sys.modules.items() if name == "dynsub" or name.startswith("dynsub.")]
        holders.append(numpy.linalg)
        for layer, targets in LAYERS.items():
            for module, attr in targets:
                owner, name = _resolve(module, attr)
                original = getattr(owner, name)
                wrapper = self._wrap(layer, original)
                places = [owner] + [m for m in holders if m is not owner and getattr(m, name, None) is original]
                for place in places:
                    self._undo.append((place, name, original))
                    setattr(place, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for place, name, original in reversed(self._undo):
            setattr(place, name, original)
        self._undo.clear()

    def dump(self, path) -> None:
        """Write the spans as JSON: start and end in microseconds from the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [
            [layer, parent, round((start - t0) * 1e6, 3), round((end - t0) * 1e6, 3)]
            for layer, parent, start, end, _ in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["layer", "parent", "start_us", "end_us"], "spans": rows}, fh)


def layer_metrics(spans: list) -> dict:
    """Self times and counts per layer, from spans recorded by a :class:`Tracer`.

    A span's self time is its duration minus the durations of its direct
    children.  Of the ``evaluate_sample`` calls under one ``run_suite``, the
    first ``samples`` evaluate the suite and the rest replay.
    """
    child_time = [0.0] * len(spans)
    children = defaultdict(list)
    for i, (_, parent, start, end, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            children[parent].append(i)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for i, (layer, _, start, end, _) in enumerate(spans):
        self_s[layer] += end - start - child_time[i]
        calls[layer] += 1

    sinkhorn_eigs = sum(
        1 for layer, parent, *_ in spans if layer == "matcore.eig" and parent >= 0 and spans[parent][0] == "randgen.sinkhorn"
    )
    aggregate = replay = 0.0
    samples = 0
    for i, (layer, _, start, end, asked) in enumerate(spans):
        if layer != "harness.run_suite":
            continue
        evals = sorted((spans[c] for c in children[i] if spans[c][0] == "harness.evaluate_sample"), key=lambda s: s[2])
        aggregate += end - start - sum(s[3] - s[2] for s in evals)
        replay += sum(s[3] - s[2] for s in evals[asked:])
        samples += len(evals[:asked])
    main_s = sum(e - s for layer, _, s, e, _ in spans if layer == "cli.main")
    run_all_s = sum(e - s for layer, _, s, e, _ in spans if layer == "harness.run_all")

    return {
        "randgen.sinkhorn_s": self_s["randgen.sinkhorn"],
        "randgen.sinkhorn_iters": sinkhorn_eigs // 2,
        "randgen.sinkhorn_draws": calls["randgen.sinkhorn"],
        "randgen.wishart_s": self_s["randgen.wishart"],
        "randgen.matrix_s": self_s["randgen.matrix"],
        "randgen.qf_s": self_s["randgen.qf"],
        "matcore.eig_calls": calls["matcore.eig"],
        "matcore.eig_s": self_s["matcore.eig"],
        "matcore.svd_s": self_s["matcore.svd"],
        "matcore.entropy_s": self_s["matcore.entropy"],
        "channels.kraus_s": self_s["channels.kraus"],
        "channels.kraus_calls": calls["channels.kraus"],
        "channels.compose_s": self_s["channels.compose"],
        "channels.map_entropy_s": self_s["channels.map_entropy"],
        "statecomp.odot_s": self_s["statecomp.odot"],
        "statecomp.odot_calls": calls["statecomp.odot"],
        "classical.bounds_s": self_s["classical.bounds"],
        "quasifree.symbol_s": self_s["quasifree.symbol"],
        "quasifree.entropy_s": self_s["quasifree.entropy"],
        "quasifree.fock_s": self_s["quasifree.fock"],
        "harness.aggregate_s": aggregate,
        "harness.replay_s": replay,
        "harness.samples": samples,
        "cli.report_s": main_s - run_all_s,
    }
