"""Write the seeded input files of benchmark workloads.

Runs in a fresh interpreter with the repository's ``src`` on PYTHONPATH:

    python3 perfbench/gen.py OUTDIR SEED WORKLOAD [WORKLOAD ...]

Every input is a shipped or assembled object relabeled by a random
automorphism of its cube, drawn from ``random.Random(SEED)``.  Relabeling
changes the bytes the program reads but not the work it does: rounds,
cardinalities and label histograms are invariant.  Beside each relabeled
file the canonical (unrelabeled) one is written, from which the benchmark
derives the values it checks outputs against, so the same expected values
hold for every seed.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

# The import every CLI command makes; it also warms the bytecode cache.
import hqperc.cli  # noqa: F401
from hqperc.constructions import catalog_labeling, catalog_seed, construct_members
from hqperc.hypercube import Automorphism, format_vertex
from hqperc.meta import Labeling, format_labeling


def _set_text(members, d: int) -> str:
    lines = [f"# expected-size: {len(members)}"]
    lines.extend(format_vertex(v, d) for v in sorted(members))
    return "\n".join(lines) + "\n"


def _write_set(out: Path, name: str, members, d: int, rng: random.Random) -> None:
    a = Automorphism.random(rng, d)
    (out / f"{name}.canon.set").write_text(_set_text(members, d), encoding="utf-8")
    (out / f"{name}.set").write_text(_set_text([a.apply(v) for v in members], d), encoding="utf-8")


def _write_labeling(out: Path, name: str, lab: Labeling, rng: random.Random) -> None:
    a = Automorphism.random(rng, lab.k)
    labels = [0] * len(lab.labels)
    for v, label in enumerate(lab.labels):
        labels[a.apply(v)] = label
    (out / f"{name}.canon.lab").write_text(format_labeling(lab), encoding="utf-8")
    (out / f"{name}.lab").write_text(
        format_labeling(Labeling(lab.k, lab.r, tuple(labels))), encoding="utf-8"
    )


def generate(out: Path, seed: int, workload: str) -> None:
    rng = random.Random(seed)
    if workload == "big-cube":
        _write_set(out, "q22", construct_members(22, 4), 22, rng)
    elif workload == "set-io":
        _write_set(out, "q14", list(catalog_seed(14)), 14, rng)
        _write_set(out, "q16", construct_members(16, 4), 16, rng)
    elif workload == "small-cube":
        _write_labeling(out, "l12", catalog_labeling(12), rng)
    else:
        raise SystemExit(f"unknown workload {workload!r}")


def main(argv: list[str]) -> None:
    out, seed, workloads = Path(argv[0]), int(argv[1]), argv[2:]
    out.mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        generate(out, seed, workload)


if __name__ == "__main__":
    main(sys.argv[1:])
