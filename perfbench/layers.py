"""Per-layer metrics from traced passes, and the cross-checks on their spans.

A layer is one module of the package: cli, hypercube, constructions,
bootstrap, meta or bounds.  A span's layer is the first part of its name.
A layer's self time is the duration of its spans minus the part covered by
their child spans.  What each metric should move, and on which workload, is
listed in perfbench/README.md.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from math import comb

from workloads import fields

LAYERS = ("cli", "hypercube", "constructions", "bootstrap", "meta", "bounds")

UNITS = {
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "hypercube.self_s": "s",
    "hypercube.load_s": "s",
    "hypercube.load_vertices_per_s": "1/s",
    "hypercube.format_s": "s",
    "hypercube.format_vertices_per_s": "1/s",
    "hypercube.of_s": "s",
    "constructions.self_s": "s",
    "constructions.build_s": "s",
    "constructions.members": "count",
    "bootstrap.self_s": "s",
    "bootstrap.step_ms.d20": "ms",
    "bootstrap.step_ms.d22": "ms",
    "bootstrap.rounds.d20": "count",
    "bootstrap.rounds.d22": "count",
    "bootstrap.sparse_rounds.d22": "count",
    "bootstrap.closure_s": "s",
    "bootstrap.vertex_rounds_per_s": "1/s",
    "bootstrap.trace_s": "s",
    "bootstrap.trace_json_s": "s",
    "bootstrap.step_us.d5": "us",
    "bootstrap.search_s": "s",
    "bootstrap.search_subsets": "count",
    "bootstrap.search_subsets_per_s": "1/s",
    "meta.self_s": "s",
    "meta.load_s": "s",
    "meta.sweeps": "count",
    "meta.sweep_ms": "ms",
    "meta.fixpoint_s": "s",
    "bounds.self_s": "s",
    "bounds.table_s": "s",
    "bounds.rows": "count",
    "tracing.overhead_s": "s",
}


def cross_check(s) -> list[str]:
    """The probes must agree with what the command returned and printed."""
    report = s.report
    if report is None:
        return ["traced command wrote no span report"]
    problems = []
    printed = fields(s.stdout)
    for probe in report["probes"]:
        if probe["kind"] == "closure":
            n = len(probe["rounds"])
            if probe.get("reported_rounds", n) != n:
                problems.append(f"probe walked {n} rounds, the call returned {probe['reported_rounds']}")
            if "rounds" in printed and printed["rounds"] != str(n):
                problems.append(f"probe walked {n} rounds, the CLI printed {printed['rounds']}")
            if probe.get("reported_full", probe["full"]) != probe["full"]:
                problems.append("probe and percolates disagree")
        elif probe["kind"] == "step" and s.code == 1:
            d, size = probe["d"], int(s.args[s.args.index("--size") + 1])
            if probe["subsets"] != comb(1 << d, size):
                problems.append(f"negative search scanned {probe['subsets']} subsets")
        elif probe["kind"] == "meta":
            if printed.get("meta-percolates") != ("yes" if probe["full"] else "no"):
                problems.append("meta probe and the CLI disagree")
    return problems


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _pass_metrics(samples) -> dict[str, float]:
    total = defaultdict(float)
    items = defaultdict(int)
    calls = defaultdict(int)
    self_time = defaultdict(float)
    startup, step_times = [], defaultdict(list)
    rounds, sparse = {}, {}
    vertex_rounds = 0
    search = {"s": 0.0, "subsets": 0, "step_s": 0.0}
    sweeps, sweep_times = 0, []
    for s in samples:
        report = s.report
        if report is None:
            continue
        startup.append(report["imported"] - s.t_spawn)
        spans = report["spans"]
        covered = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        for span, child in zip(spans, covered):
            duration = span["end"] - span["start"]
            self_time[span["name"].split(".")[0]] += duration - child
            total[span["name"]] += duration
            items[span["name"]] += span.get("items", 0)
            calls[span["name"]] += 1
        for probe in report["probes"]:
            if probe["kind"] == "closure":
                d = probe["d"]
                step_times[d].extend(dt for dt, _ in probe["rounds"])
                rounds[d] = len(probe["rounds"])
                sparse[d] = sum(1 for _, new in probe["rounds"] if new < (1 << d) / 1000)
                if probe["call"] == "bootstrap.closure":
                    vertex_rounds += rounds[d] << d
            elif probe["kind"] == "step" and probe["d"] == 5:
                search["s"] += sum(sp["end"] - sp["start"] for sp in spans
                                   if sp["name"] == "bootstrap.search")
                search["subsets"] += probe["subsets"] or 0
                search["step_s"] = probe["step_s"]
            elif probe["kind"] == "meta":
                sweeps = len(probe["sweep_s"])
                sweep_times.extend(probe["sweep_s"])
    metrics = {f"{layer}.self_s": self_time[layer] for layer in LAYERS}
    metrics.update({
        "cli.startup_s": _median(startup),
        "hypercube.load_s": total["hypercube.load"],
        "hypercube.load_vertices_per_s": _ratio(items["hypercube.load"], total["hypercube.load"]),
        "hypercube.format_s": total["hypercube.format"],
        "hypercube.format_vertices_per_s": _ratio(items["hypercube.format"],
                                                  total["hypercube.format"]),
        "hypercube.of_s": total["hypercube.of"],
        "constructions.build_s": total["constructions.build"],
        "constructions.members": items["constructions.build"],
        "bootstrap.step_ms.d20": _median(step_times[20]) * 1e3,
        "bootstrap.step_ms.d22": _median(step_times[22]) * 1e3,
        "bootstrap.rounds.d20": rounds.get(20, 0),
        "bootstrap.rounds.d22": rounds.get(22, 0),
        "bootstrap.sparse_rounds.d22": sparse.get(22, 0),
        "bootstrap.closure_s": total["bootstrap.closure"],
        "bootstrap.vertex_rounds_per_s": _ratio(vertex_rounds, total["bootstrap.closure"]),
        "bootstrap.trace_s": total["bootstrap.trace"],
        "bootstrap.trace_json_s": total["bootstrap.trace_json"],
        "bootstrap.step_us.d5": search["step_s"] * 1e6,
        "bootstrap.search_s": search["s"],
        "bootstrap.search_subsets": search["subsets"],
        "bootstrap.search_subsets_per_s": _ratio(search["subsets"], search["s"]),
        "meta.load_s": total["meta.load"],
        "meta.sweeps": sweeps,
        "meta.sweep_ms": _median(sweep_times) * 1e3,
        "meta.fixpoint_s": total["meta.fixpoint"],
        "bounds.table_s": total["bounds.report"],
        "bounds.rows": calls["bounds.report"],
    })
    return metrics


def _command_time(s) -> float:
    """Wall time of a traced command without its probes."""
    if s.report is None:
        return s.wall
    return s.wall - (s.report["probe_end"] - s.report["main_end"])


def layer_series(untraced, traced) -> dict[str, tuple[list, str]]:
    """Every per-layer metric's samples, one per traced pass, with its unit."""
    per_pass = [_pass_metrics(p) for p in traced]
    overhead = [sum(map(_command_time, t)) - sum(s.wall for s in u)
                for u, t in zip(untraced, traced)]
    return {
        name: (overhead if name == "tracing.overhead_s" else [m[name] for m in per_pass], unit)
        for name, unit in UNITS.items()
    }


def invariant_problems(traced) -> list[str]:
    """Counts that relabeling and repetition must leave unchanged."""
    problems = []
    for samples in traced:
        # The d = 22 verify seed is the d = 22 construction relabeled.
        by_seed = defaultdict(set)
        for s in samples:
            for probe in (s.report or {}).get("probes", []):
                if probe["kind"] == "closure":
                    by_seed[probe["d"], probe["seed"]].add(len(probe["rounds"]))
        for (d, size), counts in by_seed.items():
            if len(counts) > 1:
                problems.append(f"{size}-vertex seeds in Q_{d} took {sorted(counts)} rounds")
    per_pass = [_pass_metrics(p) for p in traced]
    for name in ("meta.sweeps", "bootstrap.rounds.d20", "bootstrap.rounds.d22",
                 "bootstrap.search_subsets", "bounds.rows"):
        if len({m[name] for m in per_pass}) > 1:
            problems.append(f"{name} differs between traced passes")
    return problems
