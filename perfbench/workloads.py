"""The benchmark's workloads: CLI commands and the checks on their outputs.

Every check compares against values the benchmark derives itself:

* cardinalities, rounds and final sizes of closures come from
  ``closure_rounds`` below, an engine separate from the program's (it keeps
  "at least k infected neighbours" bitmaps instead of a binary counter), run
  on the canonical unrelabeled inputs, so the same values must come out for
  every seed;
* seed sizes must reach ``lower_bound`` and agree with the recipe JSON and
  the file's ``# expected-size``;
* a search below ``lower_bound`` must come back negative; a witness must
  percolate under the program's reference engine.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

R = 4


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload and the check of its outputs."""

    kind: str
    args: list
    check: Callable[[int, str, dict], list]


def lower_bound(d: int, r: int) -> int:
    """Ceiling of 2^(r-1) + sum_{j<r} C(d-j-1, r-j) * j * 2^(j-1) / r."""
    num = (1 << (r - 1)) * r + sum(comb(d - j - 1, r - j) * j * (1 << (j - 1)) for j in range(1, r))
    return -(-num // r)


def _masks(d: int) -> list[int]:
    n = 1 << d
    masks = []
    for i in range(d):
        s = 1 << i
        m = (1 << s) - 1
        width = 2 * s
        while width < n:
            m |= m << width
            width *= 2
        masks.append(m)
    return masks


def closure_rounds(members, d: int, r: int) -> tuple[int, int]:
    """Growing rounds of the r-neighbour process from members, and the closure's size."""
    buf = bytearray((1 << d) // 8)
    for v in members:
        buf[v >> 3] |= 1 << (v & 7)
    x = int.from_bytes(buf, "little")
    full = (1 << (1 << d)) - 1
    masks = _masks(d)
    rounds = 0
    while True:
        at_least = [full] + [0] * r
        for i, m in enumerate(masks):
            s = 1 << i
            y = ((x & m) << s) | ((x >> s) & m)
            for k in range(r, 0, -1):
                at_least[k] |= at_least[k - 1] & y
        new = x | at_least[r]
        if new == x:
            return rounds, x.bit_count()
        x = new
        rounds += 1


def read_set(path: str, d: int) -> tuple[int | None, list[str], list[str]]:
    """Declared size, vertex lines and format problems of a vertex-set file."""
    declared = None
    lines = []
    problems = []
    vertex = re.compile(f"[01]{{{d}}}")
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# expected-size:"):
            declared = int(line.split(":", 1)[1])
        elif line and not line.startswith("#"):
            if not vertex.fullmatch(line):
                problems.append(f"{path}: bad vertex line {line!r}")
                break
            lines.append(line)
    if len(set(lines)) != len(lines):
        problems.append(f"{path}: duplicate vertices")
    return declared, lines, problems


def _vertex(line: str) -> int:
    return int(line[::-1], 2)


def fields(stdout: str) -> dict:
    found = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            found[key] = value
    return found


def _expect(code: int, want_code: int, stdout: str, want: dict) -> list:
    problems = [] if code == want_code else [f"exit code {code}, expected {want_code}"]
    printed = fields(stdout)
    for key, value in want.items():
        if printed.get(key) != str(value):
            problems.append(f"{key}: got {printed.get(key)!r}, expected {value!r}")
    return problems


def _check_size_file(path: str, d: int, size: int) -> list:
    declared, lines, problems = read_set(path, d)
    if declared != size:
        problems.append(f"{path}: expected-size {declared}, expected {size}")
    if len(lines) != size:
        problems.append(f"{path}: {len(lines)} vertex lines, expected {size}")
    return problems


def _check_construct(d: int, out: str, recipe: str | None):
    def check(code, stdout, expect):
        problems = [] if code == 0 else [f"exit code {code}, expected 0"]
        first = stdout.splitlines()[0] if stdout else ""
        m = re.fullmatch(r"wrote (\d+) vertices to (.+)", first)
        if not m or m.group(2) != out:
            return problems + [f"unexpected first line {first!r}"]
        size = int(m.group(1))
        if size < lower_bound(d, R):
            problems.append(f"size {size} below the lower bound {lower_bound(d, R)}")
        problems += _check_size_file(out, d, size)
        if recipe:
            if "verified: percolates" not in stdout.splitlines():
                problems.append("missing 'verified: percolates'")
            data = json.loads(Path(recipe).read_text(encoding="utf-8"))
            if (data.get("d"), data.get("size"), data.get("percolation")) != (d, size, "verified"):
                problems.append(f"recipe {recipe} disagrees: {data.get('d')}, {data.get('size')}")
        return problems

    return check


def _check_verify(name: str):
    def check(code, stdout, expect):
        e = expect[name]
        want = {"cardinality": e["card"], "rounds": e["rounds"],
                "percolates": "yes" if e["full"] else "no"}
        return _expect(code, 0 if e["full"] else 1, stdout, want)

    return check


def _check_closure(name: str, d: int, out: str, trace: str | None):
    def check(code, stdout, expect):
        e = expect[name]
        want = {"seed cardinality": e["card"], "rounds": e["rounds"],
                "closure cardinality": e["final"], "percolates": "yes" if e["full"] else "no"}
        problems = _expect(code, 0, stdout, want)
        problems += _check_size_file(out, d, e["final"])
        if trace:
            data = json.loads(Path(trace).read_text(encoding="utf-8"))
            rounds = data["rounds"]
            if len(rounds) != e["rounds"] + 1:
                problems.append(f"trace has {len(rounds)} rounds, expected {e['rounds'] + 1}")
            elif (len(rounds[0]), len(rounds[-1])) != (e["card"], e["final"]):
                problems.append("trace does not run from the seed to the closure")
            if data["percolated"] is not e["full"]:
                problems.append("trace percolated flag is wrong")
        return problems

    return check


def _check_meta(name: str):
    def check(code, stdout, expect):
        # The catalog labelings all meta-percolate; that is what they are shipped for.
        want = {"histogram": expect[name]["histogram"], "meta-percolates": "yes"}
        return _expect(code, 0, stdout, want)

    return check


def _check_search(d: int, size: int):
    # Below the bound no set percolates.  The workloads search at or above the
    # bound only where it is tight (m(Q_4, 4) = 8), so a witness must exist.
    negative = size < lower_bound(d, R)

    def check(code, stdout, expect):
        if negative:
            return [] if (code, stdout) == (1, "none\n") else [f"exit {code}, {stdout!r}: expected none"]
        problems = [] if code == 0 else [f"exit code {code}, expected 0"]
        lines = stdout.splitlines()
        if len(lines) != size or len(set(lines)) != size or not all(
            re.fullmatch(f"[01]{{{d}}}", line) for line in lines
        ):
            return problems + [f"witness is not {size} distinct vertices: {lines!r}"]
        from hqperc.bootstrap import reference_closure
        from hqperc.hypercube import VertexSet

        if not reference_closure(VertexSet.of(d, map(_vertex, lines)), R).is_full():
            problems.append("witness does not percolate under reference_closure")
        return problems

    return check


def _check_table(dmax: int):
    def check(code, stdout, expect):
        problems = [] if code == 0 else [f"exit code {code}, expected 0"]
        lines = stdout.splitlines()
        if not lines or lines[0] != "d,lower,construction,cap,exact":
            return problems + ["missing csv header"]
        rows = [line.split(",") for line in lines[1:]]
        if [int(row[0]) for row in rows] != list(range(R, dmax + 1)):
            return problems + ["rows do not cover d = 4..dmax"]
        for d, lower, construction, _, exact in rows:
            lower, construction = int(lower), int(construction)
            if lower != lower_bound(int(d), R) or construction < lower:
                problems.append(f"d={d}: lower {lower}, construction {construction}")
            elif exact != ("yes" if construction == lower else "no"):
                problems.append(f"d={d}: exact flag {exact}")
        return problems

    return check


def commands(workload: str, w: str) -> list[Command]:
    """The commands of one pass of a workload; w is the directory of its files."""
    if workload == "big-cube":
        return [
            Command("construct", ["construct", "--d", "20", "--r", "4", "--verify", "--recipe",
                                  f"{w}/c20.json", "--out", f"{w}/c20.set"],
                    _check_construct(20, f"{w}/c20.set", f"{w}/c20.json")),
            Command("construct", ["construct", "--d", "22", "--r", "4", "--verify", "--recipe",
                                  f"{w}/c22.json", "--out", f"{w}/c22.set"],
                    _check_construct(22, f"{w}/c22.set", f"{w}/c22.json")),
            Command("verify", ["verify", "--set", f"{w}/q22.set", "--d", "22", "--r", "4"],
                    _check_verify("q22")),
        ]
    if workload == "set-io":
        return [
            Command("closure", ["closure", "--set", f"{w}/q14.set", "--d", "14", "--r", "4",
                                "--out", f"{w}/q14.closure.set", "--trace", f"{w}/q14.trace.json"],
                    _check_closure("q14", 14, f"{w}/q14.closure.set", f"{w}/q14.trace.json")),
            Command("closure", ["closure", "--set", f"{w}/q16.set", "--d", "16", "--r", "4",
                                "--out", f"{w}/q16.closure.set"],
                    _check_closure("q16", 16, f"{w}/q16.closure.set", None)),
            Command("verify", ["verify", "--set", f"{w}/q16.closure.set", "--d", "16", "--r", "4"],
                    _check_verify("q16.closure")),
            Command("construct", ["construct", "--d", "120", "--r", "4", "--out", f"{w}/c120.set"],
                    _check_construct(120, f"{w}/c120.set", None)),
        ]
    if workload == "small-cube":
        return [
            Command("meta-verify", ["meta-verify", "--labeling", f"{w}/l12.lab", "--k", "12",
                                    "--r", "4"], _check_meta("l12")),
            Command("search", ["search", "--d", "5", "--r", "4", "--size", "5"], _check_search(5, 5)),
            Command("search", ["search", "--d", "4", "--r", "4", "--size", "8"], _check_search(4, 8)),
            Command("table", ["table", "--dmax", "200", "--r", "4", "--format", "csv"],
                    _check_table(200)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _set_facts(path: str, d: int) -> dict:
    _, lines, problems = read_set(path, d)
    if problems:
        raise SystemExit("; ".join(problems))
    rounds, final = closure_rounds(map(_vertex, lines), d, R)
    return {"card": len(lines), "rounds": rounds, "final": final, "full": final == 1 << d}


def _histogram(path: str) -> str:
    counts = [0] * R
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            label = int(line.split()[1])
            if label:
                counts[label - 1] += 1
    return "/".join(map(str, counts))


def derive_expected(w: str, workloads) -> dict:
    """Expected outputs, derived from the canonical inputs that gen.py writes."""
    expect = {}
    sets = {"big-cube": [("q22", 22)], "set-io": [("q14", 14), ("q16", 16)]}
    for workload in workloads:
        for name, d in sets.get(workload, []):
            expect[name] = _set_facts(f"{w}/{name}.canon.set", d)
            _, relabeled, problems = read_set(f"{w}/{name}.set", d)
            if problems or len(relabeled) != expect[name]["card"]:
                raise SystemExit(f"relabeled input {name} differs in size from its canonical form")
        if workload == "set-io":
            # A closure is its own fixed point: zero rounds.
            closed = expect["q16"]
            expect["q16.closure"] = {"card": closed["final"], "rounds": 0,
                                     "final": closed["final"], "full": closed["full"]}
        if workload == "small-cube":
            expect["l12"] = {"histogram": _histogram(f"{w}/l12.canon.lab")}
            if _histogram(f"{w}/l12.lab") != expect["l12"]["histogram"]:
                raise SystemExit("relabeled labeling l12 differs in histogram from its canonical form")
    return expect


def consistency(passes) -> list[str]:
    """Outputs are byte-identical for identical inputs, so every pass must print the same."""
    problems = []
    first = {}
    for samples in passes:
        for s in samples:
            key = tuple(s.args)
            if first.setdefault(key, s.stdout) != s.stdout:
                problems.append(f"stdout of {' '.join(s.args)} differs between passes")
    return problems
