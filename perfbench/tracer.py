"""Replay one hqperc CLI command with spans around its calls into each module.

Runs in a fresh interpreter with the repository's ``src`` on PYTHONPATH:

    python3 perfbench/tracer.py OUT.json RUN_ID CLI_ARG [CLI_ARG ...]

The command runs through ``hqperc.cli.main`` unchanged, with the public
functions it calls (and ``VertexSet.of``, ``InfectionTrace.to_json`` and
``bounds.construction_size``) wrapped so that each call records a span:
name, start, end, parent span and the run id shared by the command's spans.
Spans stay in memory until the command and its probes are done, then go to
OUT.json.  Stdout, stderr and the exit code are the command's own, so the
benchmark checks a traced command exactly like an untraced one.

After the command, probes walk the same inputs with the public one-step
functions and time every step: ``step`` from each seed the command closed
(time and new infections per round), ``step`` on the first subset a search
scans, and ``meta_step`` from the labeling ``meta-verify`` checked.
"""

from __future__ import annotations

import sys
import time

from hqperc import cli

IMPORTED = time.perf_counter()

import json  # noqa: E402
from math import comb  # noqa: E402

from hqperc import bootstrap, bounds, hypercube, meta  # noqa: E402

_STEP_REPEATS = 2000


class Tracer:
    """Spans of one command, kept in memory, and the calls they wrapped."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.calls: list[tuple[str, tuple, object]] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, items=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = {
                "name": name,
                "run": self.run_id,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
            }
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if items is not None:
                span["items"] = items(args, result)
            self.calls.append((name, args, result))
            return result

        return traced

    def install(self) -> None:
        def n_result(args, result):
            return len(result)

        def n_first_arg(args, result):
            return len(args[0])

        for attr, name, items in (
            ("load_vertex_set", "hypercube.load", n_result),
            ("format_vertex_set", "hypercube.format", n_first_arg),
            ("closure_rounds", "bootstrap.closure", None),
            ("percolates", "bootstrap.closure", None),
            ("trace", "bootstrap.trace", None),
            ("search_percolating_set", "bootstrap.search", None),
            ("construct", "constructions.build", lambda a, r: len(r[0])),
            ("construct_members", "constructions.build", n_result),
            ("construct_recipe", "constructions.build", None),
            ("load_labeling", "meta.load", None),
            ("meta_percolates", "meta.fixpoint", None),
        ):
            setattr(cli, attr, self.wrap(name, getattr(cli, attr), items))
        bounds.bound_report = self.wrap("bounds.report", bounds.bound_report)
        bounds.construction_size = self.wrap("constructions.size", bounds.construction_size)
        of = hypercube.VertexSet.__dict__["of"].__func__
        hypercube.VertexSet.of = classmethod(self.wrap("hypercube.of", of, n_result))
        trace_json = bootstrap.InfectionTrace.to_json
        bootstrap.InfectionTrace.to_json = self.wrap("bootstrap.trace_json", trace_json)


def _walk(seed: hypercube.VertexSet, r: int) -> dict:
    """Time each step from seed to its fixed point; new infections per round."""
    rounds = []
    state = seed
    while True:
        t0 = time.perf_counter()
        nxt = bootstrap.step(state, r)
        dt = time.perf_counter() - t0
        new = len(nxt) - len(state)
        if new == 0:
            break
        rounds.append([dt, new])
        state = nxt
    return {"kind": "closure", "d": seed.d, "r": r, "seed": len(seed), "rounds": rounds,
            "full": state.is_full()}


def _step_rate(d: int, r: int, size: int) -> dict:
    """Per-call time of step on the first subset a search scans."""
    state = hypercube.VertexSet(d, (1 << size) - 1)
    t0 = time.perf_counter()
    for _ in range(_STEP_REPEATS):
        bootstrap.step(state, r)
    return {"kind": "step", "d": d, "r": r, "step_s": (time.perf_counter() - t0) / _STEP_REPEATS}


def _sweeps(labeling: meta.Labeling) -> dict:
    """Time each meta_step sweep to the fixed point, counted as meta_fixpoint counts them."""
    times = []
    state = labeling
    while True:
        t0 = time.perf_counter()
        nxt = meta.meta_step(state)
        times.append(time.perf_counter() - t0)
        if nxt.labels == state.labels:
            break
        state = nxt
    return {"kind": "meta", "k": labeling.k, "sweep_s": times, "full": state.is_all(labeling.r)}


def _probes(calls) -> list[dict]:
    probes = []
    for name, args, result in calls:
        if name in ("bootstrap.closure", "bootstrap.trace"):
            probe = _walk(args[0], args[1])
            probe["call"] = name
            if isinstance(result, bool):  # percolates
                probe["reported_full"] = result
            elif isinstance(result, tuple):  # closure_rounds
                probe["reported_rounds"] = result[1]
            else:  # trace
                probe["reported_rounds"] = len(result.rounds) - 1
            probes.append(probe)
        elif name == "bootstrap.search":
            d, r, size = args[:3]
            probe = _step_rate(d, r, size)
            # A negative answer means the whole lexicographic space was scanned.
            probe["subsets"] = comb(1 << d, size) if result is None else None
            probes.append(probe)
        elif name == "meta.fixpoint":
            probes.append(_sweeps(args[0]))
    return probes


def main(argv: list[str]) -> int:
    out, run_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(run_id)
    tracer.install()
    main_span = tracer.wrap("cli.main", cli.main)
    code = main_span(cli_args)
    main_end = tracer.spans[0]["end"]
    sys.stdout.flush()
    probes = _probes(tracer.calls)
    report = {
        "run": run_id,
        "imported": IMPORTED,
        "main_end": main_end,
        "probe_end": time.perf_counter(),
        "spans": tracer.spans,
        "probes": probes,
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
