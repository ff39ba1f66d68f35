"""Benchmark of the hqperc command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  Each command of a
workload runs as a fresh process, the way users run the CLI:
``python -c "from hqperc.cli import run; run()" ...`` with ``src`` on
PYTHONPATH and HQPERC_THREADS unset, so ``search`` uses one worker per CPU.
The load is a closed loop with one client: the benchmark runs one command
at a time and starts the next when the previous one has exited.

``--trace 0`` measures end-to-end metrics with tracing off: passes over
the workload's commands are repeated for ``--seconds``, and the medians of
the passes are reported.  The times in the result are calibrated: a fixed
pure-Python loop (``calibrate``) is timed before every command and set-up,
and each time is scaled by CAL_S over the loop's median time in the run.
The raw wall times are printed beside them.  ``--trace 1`` gives the
per-layer metrics: it alternates an untraced pass and a traced pass
(perfbench/tracer.py) over the commands of every workload, so each layer
metric is measured in every traced run whatever ``--workload`` names; the
difference of the two passes is the tracing overhead.

Every command's exit code, stdout and output files are checked against
values the benchmark derives itself (see perfbench/workloads.py).  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it give each metric with its spread and
the machine the run was made on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = "perfbench/_work"  # relative to ROOT, where every process runs
LAUNCH = "from hqperc.cli import run; run()"
SETUP_REPEATS = 11
# Calibration loops timed before each command and set-up, and the loop's
# median time on a 2-vCPU Intel Xeon VM at 2.1 GHz under Python 3.11.7.
CAL_SAMPLES = 3
CAL_S = 0.019
# Every run ends well inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0

WORKLOADS = ("big-cube", "set-io", "small-cube")


@dataclass
class Sample:
    """One command as run: its wall time, exit code, output and peak RSS."""

    kind: str
    args: list
    wall: float
    code: int
    stdout: str
    rss_mib: float
    t_spawn: float
    report: dict | None = None
    problems: list | None = None


def calibrate() -> float:
    """Wall seconds of a fixed mix of interpreter loop, big-integer and string work.

    Shared virtual machines change speed by up to half within seconds, and
    their share of slow time drifts over minutes, for this loop and the CLI
    alike.
    Scaling by the loop's median time in the same run takes most of that out
    of the result; the loop does not touch the program under test.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += i * i
    x = int.from_bytes(b"\x5a" * (1 << 17), "little")
    for _ in range(10):
        x = (x << 3) ^ (x >> 5)
    json.dumps([format(i, "014b") for i in range(20000)])
    return time.perf_counter() - t0


def _env() -> dict:
    env = dict(os.environ)
    env.pop("HQPERC_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(argv: list[str], stdout: str, deadline: float) -> tuple[int, float, float, float]:
    """Run argv to completion; exit code, start time, wall seconds and peak RSS (MiB).

    The child's own rusage comes from os.wait4, so one command's peak RSS
    never mixes with another's.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stdout + ".err", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, _env(), file_actions=actions)
    killer = threading.Timer(max(0.0, deadline - t0), os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    return os.waitstatus_to_exitcode(status), t0, wall, usage.ru_maxrss / 1024.0


def run_command(cmd: workloads.Command, traced: bool, run_id: str, deadline: float) -> Sample:
    out = f"{WORK}/stdout.txt"
    if traced:
        report_path = Path(f"{WORK}/spans.json")
        report_path.unlink(missing_ok=True)
        argv = [sys.executable, "perfbench/tracer.py", str(report_path), run_id, *cmd.args]
    else:
        argv = [sys.executable, "-c", LAUNCH, *cmd.args]
    code, t0, wall, rss = _spawn(argv, out, deadline)
    sample = Sample(cmd.kind, cmd.args, wall, code, Path(out).read_text(encoding="utf-8"), rss, t0)
    if traced:
        try:
            sample.report = json.loads(report_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            sample.report = None
    return sample


def run_pass(cmds, expect, traced: bool, pass_no: int, deadline: float,
             cal: list[float]) -> list[Sample]:
    samples = []
    for i, cmd in enumerate(cmds):
        cal.extend(calibrate() for _ in range(CAL_SAMPLES))
        s = run_command(cmd, traced, f"p{pass_no}c{i}", deadline)
        try:
            s.problems = cmd.check(s.code, s.stdout, expect)
        except (OSError, ValueError, LookupError) as exc:
            s.problems = [f"unreadable output: {exc!r}"]
        if traced:
            s.problems += layers.cross_check(s)
        samples.append(s)
    return samples


def setup(seed: int, names, cal: list[float]) -> list[float]:
    """Generate the seeded inputs in a fresh interpreter, several times; wall times."""
    times = []
    argv = [sys.executable, "perfbench/gen.py", WORK, str(seed), *names]
    for _ in range(SETUP_REPEATS):
        cal.extend(calibrate() for _ in range(CAL_SAMPLES))
        code, _, wall, _ = _spawn(argv, f"{WORK}/setup.txt", time.perf_counter() + 60)
        if code != 0:
            err = Path(f"{WORK}/setup.txt.err").read_text(encoding="utf-8")
            raise SystemExit(f"input generation failed (exit {code}):\n{err}")
        times.append(wall)
    return times


def tail(values) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it, as (pct, value)."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return round(100 * (k + 1) / n), sorted(values)[k]


def describe(name: str, values, unit: str) -> str:
    med = statistics.median(values)
    text = f"{name} = {med:.6g} {unit} (median of n={len(values)}"
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        text += f", quartiles {q[0]:.6g}..{q[2]:.6g}"
    t = tail(values)
    text += f", p{t[0]} {t[1]:.6g})" if t else ", no percentile has ten samples beyond it)"
    return text


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "cpu": cpu,
        "HQPERC_THREADS": f"{os.environ.get('HQPERC_THREADS', 'unset')} here, unset for the"
                          f" commands: search pools have {os.cpu_count()} workers",
        "launch": f'{Path(sys.executable).name} -c "{LAUNCH}" with PYTHONPATH=src',
    }


def end_to_end(passes: list[list[Sample]], setup_times: list[float],
               scale: float) -> tuple[dict, dict]:
    """The result metrics' samples, and the raw and per-command-kind times printed beside them."""
    run_wall = [sum(s.wall for s in p) for p in passes]
    series = {
        "run_s": ([t * scale for t in run_wall], "s"),
        "setup_s": ([t * scale for t in setup_times], "s"),
        "peak_rss_mib": ([max(s.rss_mib for s in p) for p in passes], "MiB"),
    }
    kinds = {"run_wall_s": (run_wall, "s"), "setup_wall_s": (setup_times, "s")}
    for kind in dict.fromkeys(s.kind for s in passes[0]):
        per_pass = [sum(s.wall for s in p if s.kind == kind) for p in passes]
        kinds[kind.replace("-", "_") + "_s"] = (per_pass, "s")
    return series, kinds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    if not (SRC / "hqperc" / "cli.py").is_file():
        print(f"error: no hqperc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the witness check uses the reference engine
    os.chdir(ROOT)
    Path(WORK).mkdir(parents=True, exist_ok=True)

    names = WORKLOADS if args.trace else (args.workload,)
    cal: list[float] = []
    setup_times = setup(args.seed, names, cal)
    expect = workloads.derive_expected(WORK, names)
    cmds = [c for name in names for c in workloads.commands(name, WORK)]

    untraced: list[list[Sample]] = []
    traced: list[list[Sample]] = []
    t0 = time.perf_counter()
    loops: list[float] = []
    while True:
        r0 = time.perf_counter()
        untraced.append(run_pass(cmds, expect, False, len(untraced), deadline, cal))
        if args.trace:
            traced.append(run_pass(cmds, expect, True, len(traced), deadline, cal))
        loops.append(time.perf_counter() - r0)
        now = time.perf_counter()
        typical = statistics.median(loops)
        if now - t0 + typical > args.seconds or now + 2 * typical > deadline:
            break

    samples = [s for p in untraced + traced for s in p]
    failed = [s for s in samples if s.problems]
    problems = workloads.consistency(untraced + traced) + layers.invariant_problems(traced)
    for key, value in machine().items():
        print(f"machine {key}: {value}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(untraced)} untraced and {len(traced)} traced passes of {len(cmds)} commands")
    for s in failed:
        print(f"FAILED {' '.join(s.args)}: {'; '.join(s.problems)}")
    for p in problems:
        print(f"FAILED consistency: {p}")
    print(f"error_rate = {len(failed) / len(samples):.6g} ({len(failed)} of {len(samples)} commands)")
    print("seed-independent expected values: " + json.dumps(expect, sort_keys=True))
    print(f"calibration: {describe('loop_s', cal, 's')}, scale {CAL_S} s over its median")
    if args.trace:
        series, extra = layers.layer_series(untraced, traced), {}
    else:
        series, extra = end_to_end(untraced, setup_times, CAL_S / statistics.median(cal))
    label = "all workloads" if args.trace else args.workload
    for name, (values, unit) in {**series, **extra}.items():
        print(f"{label}: {describe(name, values, unit)}")
    metrics = {name: {"value": statistics.median(values), "unit": unit}
               for name, (values, unit) in series.items()}
    result = {
        "correct": not failed and not problems,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
