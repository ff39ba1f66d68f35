"""Command line interface.

Subcommands: verify, construct, closure, meta-verify, bound, table, search.
Exit codes are a stable contract: 0 success (or: percolates / witness
found), 1 definite negative, 2 usage or parse error, 3 resource cap
(search past its budget, verification requested above the simulation
cap, or memory exhausted).  Identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys

from . import bounds
from .bootstrap import (
    SearchAborted,
    closure_rounds,
    percolates,
    search_percolating_set,
    trace,
)
from .constructions import (
    SIZE_CAP,
    THRESHOLDS,
    construct,  # unused here, but perfbench/tracer.py wraps cli.construct
    construct_members,
    construct_recipe,
    construct_text,
)
from .hypercube import (
    D_MAX,
    DomainError,
    FormatError,
    VertexSet,
    _texts,
    format_vertex_set,
    load_vertex_set,
)
from .meta import load_labeling, meta_percolates

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _write_json(fh, payload: dict) -> None:
    """Write payload to the open file fh as indented, key-sorted JSON and a newline."""
    import json  # here, so that start-up skips it

    fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_trace(path: str, history) -> None:
    """Write history.to_json() as _write_json would, one round at a time.

    Vertex names are 0/1 strings, so they need no escaping: _texts builds
    each round's names per state byte, each name ending in the JSON
    separator.  The chunks are written in joined batches (a write per
    chunk costs more than the join), the last one without its separator,
    so no text the size of a round is ever built.
    """
    sep = '",\n      "'
    percolated = "true" if history.percolated else "false"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f'{{\n  "d": {history.d},\n  "percolated": {percolated},'
            f'\n  "r": {history.r},\n  "rounds": [\n'
        )
        for t, chunks in enumerate(_texts(history.rounds, sep)):
            fh.write(",\n    [" if t else "    [")
            if chunks:
                fh.write('\n      "')
                last = chunks.pop()
                for i in range(0, len(chunks), 1024):
                    fh.write("".join(chunks[i:i + 1024]))
                fh.write(last[:-len(sep)] + '"\n    ')
            fh.write("]")
        fh.write("\n  ]\n}\n")


def _close(seed, r: int, trace_path: str | None):
    """The closure and its round count; with a trace path, also write the trace JSON."""
    if not trace_path:
        return closure_rounds(seed, r)
    history = trace(seed, r)
    _write_trace(trace_path, history)
    return history.rounds[-1], len(history.rounds) - 1


def _cmd_verify(args) -> int:
    seed = load_vertex_set(args.set, args.d)
    closed, rounds = _close(seed, args.r, args.trace)
    full = closed.is_full()
    print(f"cardinality: {len(seed)}")
    print(f"rounds: {rounds}")
    print(f"percolates: {'yes' if full else 'no'}")
    return EXIT_OK if full else EXIT_NEGATIVE


def _cmd_construct(args) -> int:
    recipe = construct_recipe(args.d, args.r)
    verified = False
    if args.verify and args.d <= D_MAX:
        if not percolates(VertexSet.of(args.d, construct_members(args.d, args.r)), args.r):
            print("verification failed", file=sys.stderr)
            return EXIT_NEGATIVE
        verified = True
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(construct_text(args.d, args.r))
    if args.recipe:
        with open(args.recipe, "w", encoding="utf-8") as fh:
            _write_json(
                fh,
                {
                    "d": args.d,
                    "r": args.r,
                    "size": recipe.size,
                    "percolation": "verified" if verified else "unverified",
                    "tree": recipe.to_json(),
                },
            )
    print(f"wrote {recipe.size} vertices to {args.out}")
    if args.verify and not verified:
        print(f"unverifiable at this scale: d={args.d} exceeds the simulation cap {D_MAX}")
        return EXIT_RESOURCE
    if verified:
        print("verified: percolates")
    return EXIT_OK


def _cmd_closure(args) -> int:
    seed = load_vertex_set(args.set, args.d)
    closed, rounds = _close(seed, args.r, args.trace)
    print(f"seed cardinality: {len(seed)}")
    print(f"rounds: {rounds}")
    print(f"closure cardinality: {len(closed)}")
    print(f"percolates: {'yes' if closed.is_full() else 'no'}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(format_vertex_set(closed))
    return EXIT_OK


def _cmd_meta_verify(args) -> int:
    labeling = load_labeling(args.labeling, args.k, args.r)
    histogram = labeling.histogram()
    print("histogram: " + "/".join(str(c) for c in histogram))
    ok = meta_percolates(labeling)
    print(f"meta-percolates: {'yes' if ok else 'no'}")
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_bound(args) -> int:
    report = bounds.bound_report(args.d, args.r)
    if args.format == "json":
        _write_json(sys.stdout, report.to_json())
    else:
        print(f"d: {report.d}, r: {report.r}")
        print(f"lower: {report.lower} ({bounds.LOWER_BOUND_NOTE})")
        print(f"upper: {report.upper}")
        if report.exact is not None:
            print(f"exact: {report.exact}")
        else:
            print(f"gap: {report.gap}")
    return EXIT_OK


def _cmd_table(args) -> int:
    if args.dmax > SIZE_CAP:
        print(f"--dmax must be at most {SIZE_CAP}", file=sys.stderr)
        return EXIT_USAGE
    if args.dmax < args.r:
        print(f"--dmax must be at least {args.r} for r={args.r}", file=sys.stderr)
        return EXIT_USAGE
    rows = []
    for d in range(args.r, args.dmax + 1):
        report = bounds.bound_report(d, args.r)
        rows.append(
            {
                "d": d,
                "lower": report.lower,
                "construction": report.upper,
                # below r = 4 the construction is the exact minimum
                "cap": bounds.upper_bound_m4(d) if args.r == 4 else report.upper,
                "exact": report.gap == 0,
            }
        )
    if args.format == "json":
        _write_json(sys.stdout, {"r": args.r, "rows": rows})
    elif args.format == "csv":
        print("d,lower,construction,cap,exact")
        for row in rows:
            print(
                f"{row['d']},{row['lower']},{row['construction']},"
                f"{row['cap']},{'yes' if row['exact'] else 'no'}"
            )
    else:
        print(f"{'d':>4} {'lower':>10} {'construction':>13} {'cap':>10} {'exact':>6}")
        for row in rows:
            flag = "yes" if row["exact"] else "no"
            print(
                f"{row['d']:>4} {row['lower']:>10} {row['construction']:>13}"
                f" {row['cap']:>10} {flag:>6}"
            )
        print(f"# lower bound column is a {bounds.LOWER_BOUND_NOTE}")
    return EXIT_OK


def _cmd_search(args) -> int:
    witness = search_percolating_set(args.d, args.r, args.size, budget=args.budget)
    if witness is None:
        print("none")
        return EXIT_NEGATIVE
    sys.stdout.write(format_vertex_set(witness, header=False))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    r_help = f"infection threshold ({THRESHOLDS[0]}..{THRESHOLDS[-1]})"
    parser = argparse.ArgumentParser(
        prog="hqperc",
        description="Bootstrap percolation on hypercubes: simulate, construct, bound, search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check that a vertex-set file percolates")
    p.add_argument("--set", required=True, help="vertex-set file")
    p.add_argument("--d", required=True, type=int, help="dimension")
    p.add_argument("--r", required=True, type=int, help="infection threshold")
    p.add_argument("--trace", help="write the round-by-round trace to this JSON file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("construct", help="assemble a percolating seed and write it out")
    p.add_argument("--d", required=True, type=int, help="dimension")
    p.add_argument("--r", required=True, type=int, help=r_help)
    p.add_argument("--out", required=True, help="output vertex-set file")
    p.add_argument("--recipe", help="write the assembly recipe to this JSON file")
    p.add_argument("--verify", action="store_true", help="simulate the closure as a check")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("closure", help="compute the infection fixed point of a seed file")
    p.add_argument("--set", required=True, help="vertex-set file")
    p.add_argument("--d", required=True, type=int, help="dimension")
    p.add_argument("--r", required=True, type=int, help="infection threshold")
    p.add_argument("--out", help="write the closure as a vertex-set file")
    p.add_argument("--trace", help="write the round-by-round trace to this JSON file")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("meta-verify", help="check that a labeling file meta-percolates")
    p.add_argument("--labeling", required=True, help="labeling file")
    p.add_argument("--k", required=True, type=int, help="dimension of the labeled cube")
    p.add_argument("--r", required=True, type=int, help="meta threshold")
    p.set_defaults(func=_cmd_meta_verify)

    p = sub.add_parser("bound", help="report lower/upper bounds for one (d, r)")
    p.add_argument("--d", required=True, type=int, help="dimension")
    p.add_argument("--r", required=True, type=int, help=r_help)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("table", help="tabulate bounds for d up to --dmax")
    p.add_argument("--dmax", required=True, type=int, help="largest dimension")
    p.add_argument("--r", required=True, type=int, choices=THRESHOLDS)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("search", help="exhaustive scan for a percolating set of a given size")
    p.add_argument("--d", required=True, type=int, help="dimension")
    p.add_argument("--r", required=True, type=int, help="infection threshold")
    p.add_argument("--size", required=True, type=int, help="exact seed cardinality")
    p.add_argument("--budget", type=int, help="largest subset count the scan may attempt")
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SearchAborted as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_RESOURCE


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
