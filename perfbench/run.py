"""Benchmark of contractsched: one closed-loop client running ``contract-sched`` commands.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run sets up the workload's inputs from the seed, then repeats the
workload's pass (bench_inputs) one command at a time, in one process per
command.  The number of passes is ``--seconds`` over the workload's nominal
pass time, the same on every commit.  Every output is checked
(bench_checks).  The program is run from ``src/`` of the checkout, through
the same ``contractsched.cli.main`` that the installed ``contract-sched``
script calls.

With ``--trace 0`` the result holds the end-to-end metrics.  Their times are
scaled to a reference host speed measured by a calibration loop around every
command (see CALIBRATION_REF_S); the unscaled pass time goes to the context
line.

* ``wall_s``: wall time of one pass, as the sum over its commands of each
  command's median latency over the run's passes;
* ``windows_per_s``: interruption windows evaluated in one pass over
  ``wall_s`` (eval's ``windows`` plus ``unserved_windows``; for
  ``normalize``, one window per input contract, since every finish time is
  a window on one processor);
* ``op_s_p50`` and ``op_s_tail``: per-command latency, spawn to reap, as the
  median and as the highest percentile with at least ten samples beyond it
  (percentile and sample count go to the context line);
* ``setup_s``: median of several set-ups: writing the seeded input files and
  starting one interpreter that imports the CLI;
* ``peak_rss_mb``: largest maximum resident set of any command, from wait4;
* ``ok_ratio``: commands that exited 0 and passed their check, over commands
  attempted (its complement is the failure ratio, and ``failed`` counts them).

With ``--trace 1`` half as many untraced and traced passes alternate; traced
commands run through traced_cli.py and the result holds the per-layer metrics
of bench_spans, medians over the traced passes.  ``trace.overhead_s`` is the
traced pass wall time minus that of the untraced pass before it.

The line before the result records the machine, the versions and the seed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_checks
import bench_inputs
import bench_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# What the installed ``contract-sched`` script runs.
ENTRY = "import sys; from contractsched.cli import main; sys.exit(main(sys.argv[1:]))"

SETUP_REPEATS = 5

# Typical wall time of calibrate() on the host the benchmark was defined on
# (2-vCPU Intel Xeon, Python 3.11).  That host's speed drifts by up to a third
# over minutes as other tenants load it, so every end-to-end time is scaled by
# CALIBRATION_REF_S over the calibration times measured right before and after
# it: the time the host would have taken at the reference speed.
CALIBRATION_REF_S = 0.0245

# A run ends well inside the 180 s a run may take; a command still running then is killed.
RUN_LIMIT_S = 165.0

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("windows_per_s", "1/s", "higher"),
    ("op_s_p50", "s", "lower"),
    ("op_s_tail", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_ratio", "ratio", "higher"),
)


class Client:
    """The single closed-loop client: one command at a time, reaped with wait4 for its rusage."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.timed_out = False
        path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}

    def run(self, argv: list[str], tag: str) -> dict:
        """Run one command in the work directory and return its outcome."""
        out_path, err_path = self.work / f"{tag}.out", self.work / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            exit_code, rusage = self._reap(proc)
            seconds = time.perf_counter() - t_spawn
        return {
            "exit": exit_code,
            "seconds": seconds,
            "t_spawn": t_spawn,
            "max_rss_kb": rusage.ru_maxrss,
            "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
            "stderr": err_path.read_text(encoding="utf-8", errors="replace"),
        }

    def _reap(self, proc: subprocess.Popen):
        def kill(signum, frame):
            self.timed_out = True
            proc.kill()

        previous = signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, max(self.deadline - time.perf_counter(), 0.01))
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, rusage


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python task: sorting, dict updates and float arithmetic."""
    rng = random.Random(1)
    values = [rng.random() for _ in range(20_000)]
    start = time.perf_counter()
    for _ in range(3):
        sums: dict[int, float] = {}
        for i, x in enumerate(sorted(values)):
            sums[i % 97] = sums.get(i % 97, 0.0) + x * 1.0001
        sum(v * v for v in sums.values())
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference host speed, given the calibration times around it."""
    return seconds * CALIBRATION_REF_S / ((before + after) / 2)


def set_up(client: Client, workload: str, seed: int) -> tuple[list[bench_inputs.Command], float]:
    """Write the seeded inputs and start one interpreter on the CLI; returns the pass and its time."""
    start = time.perf_counter()
    shutil.rmtree(client.work, ignore_errors=True)
    client.work.mkdir(parents=True)
    commands = bench_inputs.make_inputs(workload, seed, client.work)
    warm = client.run([sys.executable, "-c", "import contractsched.cli"], "setup")
    if warm["exit"] != 0:
        raise RuntimeError(f"cannot import contractsched.cli from {SRC}: {warm['stderr'][-500:]}")
    return commands, time.perf_counter() - start


def run_pass(client: Client, commands: list, traced: bool, number: int) -> tuple[float, list[dict]]:
    """Run the commands in order; returns the pass wall time and one record per command run."""
    records = []
    start = time.perf_counter()
    before = calibrate()
    for i, command in enumerate(commands):
        tag = f"p{number}c{i}"
        if traced:
            spans_path = client.work / f"{tag}.spans.json"
            records.append(client.run([sys.executable, str(HERE / "traced_cli.py"), str(spans_path),
                                       *command.argv], tag))
            records[-1]["spans_path"] = spans_path
        else:
            records.append(client.run([sys.executable, "-c", ENTRY, *command.argv], tag))
        after = calibrate()
        records[-1]["calibration_s"] = (before + after) / 2
        records[-1]["scaled"] = scaled(records[-1]["seconds"], before, after)
        before = after
        if client.timed_out:
            break
    return time.perf_counter() - start, records


def check_pass(client: Client, commands: list, records: list[dict], refs: dict) -> tuple[int, int]:
    """Check every command that ran; returns (failed commands, windows evaluated)."""
    seen: dict = {}
    failed = windows = 0
    for command, rec in zip(commands, records):
        problems = bench_checks.check_command(command.check, refs, rec["exit"], rec["stdout"], rec["stderr"],
                                              client.work, seen)
        if problems:
            failed += 1
            sys.stderr.write(f"FAILED {' '.join(command.argv)}: {'; '.join(problems)}\n")
            continue
        kind = command.check["kind"]
        if kind == "eval":
            report = json.loads(rec["stdout"])
            windows += report["windows"] + report["unserved_windows"]
        elif kind == "normalize":
            trace = json.loads((client.work / command.check["trace"]).read_text(encoding="utf-8"))
            windows += (trace["normalize"] if command.check["reduce"] else trace)["input_contracts"]
    return failed, windows


def load_traced(client: Client, commands: list, records: list[dict]) -> bool:
    """Attach each traced command's spans, and the verify report, to its record.

    False if a command left no spans, which its failed check already counts.
    """
    for command, rec in zip(commands, records):
        try:
            rec.update(json.loads(rec["spans_path"].read_text(encoding="utf-8")))
            if command.check["kind"] == "verify":
                rec["verify"] = json.loads((client.work / command.check["json"]).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return False
    return True


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, samples beyond).

    With ten samples or fewer there is no such percentile; the maximum is
    reported, with no sample beyond it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without starting git; None outside a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def context(args: argparse.Namespace) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "contractsched").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(args: argparse.Namespace, client: Client, refs: dict) -> tuple[dict, dict]:
    """Set up, run the passes; returns the result line and the sample counts for the context line."""
    setups = []
    before = calibrate()
    for _ in range(SETUP_REPEATS):
        commands, seconds = set_up(client, args.workload, args.seed)
        after = calibrate()
        setups.append(scaled(seconds, before, after))
        before = after

    # The same number of passes on every commit, so runs compare like for like;
    # at the commit that introduced the benchmark they fill --seconds.
    passes = max(1, round(args.seconds / bench_inputs.NOMINAL_PASS_S[args.workload]))
    if args.trace:
        passes = max(1, passes // 2)
    attempted = failed = windows = 0
    walls, layer_figures = [], []
    latencies: list[list[float]] = [[] for _ in commands]
    raw: list[list[float]] = [[] for _ in commands]
    calibrations = []
    peak_rss_kb = 0
    number = 0
    while len(walls) < passes and not client.timed_out:
        wall, records = run_pass(client, commands, traced=False, number=number)
        number += 1
        bad, windows = check_pass(client, commands, records, refs)
        attempted, failed = attempted + len(records), failed + bad
        walls.append(wall)
        for samples, raw_samples, rec in zip(latencies, raw, records):
            samples.append(rec["scaled"])
            raw_samples.append(rec["seconds"])
            calibrations.append(rec["calibration_s"])
            peak_rss_kb = max(peak_rss_kb, rec["max_rss_kb"])
        if args.trace and not client.timed_out:
            traced_wall, traced = run_pass(client, commands, traced=True, number=number)
            number += 1
            bad, _ = check_pass(client, commands, traced, refs)
            attempted, failed = attempted + len(traced), failed + bad
            if not client.timed_out and load_traced(client, commands, traced):
                layer_figures.append(bench_spans.summarize_pass(traced, wall, traced_wall))

    every = [x for samples in latencies for x in samples]
    tail_value, tail_percentile, beyond = tail(every)
    # Each command's median over the passes, summed: one pass, robust to a burst
    # of load from other tenants that slows a few commands.
    median_pass = sum(statistics.median(samples) for samples in latencies if samples)
    counts = {"passes": len(walls), "pass_walls_s": walls, "commands": len(every),
              "unscaled_median_pass_s": sum(statistics.median(samples) for samples in raw if samples),
              "calibration_s": statistics.median(calibrations), "tail_percentile": tail_percentile,
              "tail_samples_beyond": beyond, "setups_s": setups}
    if args.trace:
        specs = bench_spans.LAYER_METRICS
        values = {name: statistics.median(f[name] for f in layer_figures) if layer_figures else 0.0
                  for name, _, _ in specs}
        counts["traced_passes"] = len(layer_figures)
    else:
        specs = END_TO_END
        values = {
            "wall_s": median_pass,
            "windows_per_s": windows / median_pass,
            "op_s_p50": statistics.median(every),
            "op_s_tail": tail_value,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_kb / 1024.0,
            "ok_ratio": (attempted - failed) / attempted,
        }
    result = {
        "correct": failed == 0 and not client.timed_out,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in specs},
    }
    return result, counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench_inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "contractsched" / "cli.py").is_file():
        sys.stderr.write(f"no contractsched sources at {SRC}; run from a checkout of the repository\n")
        return 2
    refs = bench_checks.load_references()[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    client = Client(work, deadline=time.perf_counter() + RUN_LIMIT_S)
    try:
        result, counts = measure(args, client, refs)
    except RuntimeError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"context": context(args), "samples": counts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
