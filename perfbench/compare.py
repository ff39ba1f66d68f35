"""Compare benchmark results of a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds ``<workload>.jsonl`` files whose lines are the last
stdout lines of ``perfbench/run.py`` runs, one run per line, in the order
they were made.  Line i of the parent file and line i of the change file
form pair i; alternate which side runs first from pair to pair.  Keep the
untraced runs (end-to-end metrics) and the traced runs (per-layer metrics)
in separate directories.

One row is printed per workload and metric: both sides' medians and
quartiles, the share of pairs the change won (ties count for neither) and a
verdict:

* improved: the change won at least nine tenths of the pairs and the
  medians differ, in its favour, by more than the distance between the
  parent's quartiles;
* unresolved: the spread between quartiles, as a share of the median, is
  wider than the metric's bound on either side, and not every change run
  reads better than every parent run (metrics without a bound, the
  per-layer ones, are unresolved whenever they are not improved or
  regressed);
* regressed: the change's median is worse than the parent's by more than
  the bound (without a bound: the mirror image of improved), or the change
  failed more commands;
* unchanged: the metric (a count, say) reads the same in every run on
  both sides;
* within bound: otherwise.

With fewer than ten pairs every metric that is not unchanged is unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(directory: Path) -> dict[str, list[dict]]:
    runs = {}
    for path in sorted(directory.glob("*.jsonl")):
        lines = path.read_text(encoding="utf-8").splitlines()
        runs[path.stem] = [json.loads(line) for line in lines if line.strip()]
    return runs


def _spec() -> dict[str, dict]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _share(width: float, median: float) -> float:
    return width / abs(median) if median else (0.0 if width == 0 else float("inf"))


def verdict(parent: list[float], change: list[float], lower_better: bool, bound: float | None,
            more_failures: bool) -> tuple[str, float]:
    """The verdict for one metric and the share of pairs the change won."""
    sign = -1 if lower_better else 1  # sign * (change - parent) > 0 means the change is better
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) > 0) / len(pairs)
    lost = sum(1 for p, c in pairs if sign * (c - p) < 0) / len(pairs)
    p1, pmed, p3 = _quartiles(parent)
    c1, cmed, c3 = _quartiles(change)
    gain = sign * (cmed - pmed)
    if more_failures:
        return "regressed (more commands failed)", won
    if len(set(parent) | set(change)) == 1:
        return "unchanged", won
    if len(pairs) < 10:
        return "unresolved (fewer than ten pairs)", won
    if won >= 0.9 and gain > p3 - p1:
        return "improved", won
    if bound is None:
        return ("regressed" if lost >= 0.9 and -gain > p3 - p1 else "unresolved"), won
    every_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if max(_share(p3 - p1, pmed), _share(c3 - c1, cmed)) > bound and not every_better:
        return "unresolved", won
    if _share(-gain, pmed) > bound:
        return "regressed", won
    return "within bound", won


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = _load(Path(argv[0])), _load(Path(argv[1]))
    spec = _spec()
    print("workload | metric | unit | parent median [q1..q3] | change median [q1..q3] "
          "| change won | verdict")
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        n = min(len(p_runs), len(c_runs))
        if n == 0:
            continue
        p_runs, c_runs = p_runs[:n], c_runs[:n]
        more_failures = sum(r["failed"] for r in c_runs) > sum(r["failed"] for r in p_runs)
        for name in sorted(set(p_runs[0]["metrics"]) & set(c_runs[0]["metrics"])):
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            m = spec.get(name, {"better": "lower", "unit": p_runs[0]["metrics"][name]["unit"]})
            text, won = verdict(p, c, m["better"] == "lower", m.get("bound"), more_failures)
            pq, cq = _quartiles(p), _quartiles(c)
            print(f"{workload} | {name} | {m['unit']} | {pq[1]:.6g} [{pq[0]:.6g}..{pq[2]:.6g}] | "
                  f"{cq[1]:.6g} [{cq[0]:.6g}..{cq[2]:.6g}] | {won:.0%} of {n} | {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
