#!/usr/bin/env python3
"""Seeded benchmark of extdecide: four workloads, end-to-end metrics and,
with --trace 1, per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload tower_audit --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1

Each workload runs whole rounds of its jobs closed-loop with one client,
each job starting after the previous one ends, and checks every output
against the benchmark's own computation.  The last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  Run and
trace outputs go to .bench_runs/ under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

WORKLOADS = ("tower_audit", "decide_finite", "decide_window", "cli_cold")
END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Whole rounds per run at the reference length of 15 s.  Each count makes
# a run time at least 40 jobs and spend 8-20 s in timed jobs on a busy
# 2-core machine (cli_cold, at about 0.9 s a process, needs longer for its
# 40).
# The decide workloads' slots are grouped in cost plateaus laid out for
# these counts, so that the median and the tail each fall in the middle
# of one plateau's jobs (see workloads.py); other counts move them
# off-centre.
ROUNDS = {"tower_audit": 3, "decide_finite": 7, "decide_window": 3, "cli_cold": 8}
REFERENCE_SECONDS = 15
SETUP_SAMPLES = 3   # set-ups timed for setup_s; the median is reported
START_SAMPLES = 3   # fresh processes per cli.interpreter_s / cli.import_s


def tail(values):
    """The value with exactly ten samples above it: the highest percentile
    that has at least ten samples beyond it."""
    if len(values) < 11:
        raise ValueError("a tail needs at least 11 samples")
    return sorted(values)[-11]


def rounds_for(workload, seconds):
    base = ROUNDS[workload]
    return max(base, round(base * seconds / REFERENCE_SECONDS))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def build(workload, seed, workdir):
    import workloads as W

    if workload == "cli_cold":
        return W.cli_cold(seed, workdir, ROOT)
    return getattr(W, workload)(seed)


def _timed_child(argv, env=None):
    """Wall time of one child process from spawn to exit, and its output."""
    t0 = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True)
    elapsed = time.monotonic() - t0
    if proc.returncode:
        raise RuntimeError(f"{argv} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-2000:]}")
    return elapsed, proc.stdout


def process_age():
    """Seconds since this process started, or None where /proc cannot say."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # starttime
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, IndexError, ValueError, AttributeError):
        return None


def measure_setup(workload, seed, own):
    """Median over set-ups of the time from process start to the point
    where the first timed job would start: interpreter, `import
    extdecide`, and building the workload's inputs.  This process's own
    set-up (`own`, None if unknown) is one sample; fresh processes give
    the rest."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    samples = [] if own is None else [own]
    while len(samples) < SETUP_SAMPLES:
        t0 = time.monotonic()
        _, out = _timed_child(argv)
        ready = float(out.decode().split()[-1])
        samples.append(ready - t0)
    return statistics.median(samples)


def measure_starts():
    """cli.interpreter_s and cli.import_s from fresh processes."""
    import workloads as W

    env = W.program_env(ROOT)
    bare = [_timed_child([sys.executable, "-c", "pass"])[0]
            for _ in range(START_SAMPLES)]
    imported = [_timed_child([sys.executable, "-c", "import extdecide"], env)[0]
                for _ in range(START_SAMPLES)]
    return {"cli.interpreter_s": statistics.median(bare),
            "cli.import_s": statistics.median(imported)}


def run_workload(workload, args, tracer, first):
    import checks

    RUNS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=RUNS)
    try:
        jobs = build(workload, args.seed, workdir)
        own = process_age() if first else None
        setup = None if tracer else measure_setup(workload, args.seed, own)
        # The prebuilt inputs are the harness's, not the program's: keep the
        # collector from walking them, and start every job from an empty
        # young generation so its collections depend on the job alone.
        gc.collect()
        gc.freeze()
        paused = tracer.paused if tracer else contextlib.nullcontext
        times, by_name, handler = [], defaultdict(list), []
        attempted = failed = child_rss = 0
        busy = 0.0
        errors, mismatches = Counter(), Counter()
        for _ in range(rounds_for(workload, args.seconds)):
            for job in jobs:
                attempted += 1
                gc.collect()
                span = tracer.open("bench.job") if tracer else None
                t0 = time.perf_counter()
                try:
                    out = job.run()
                except Exception as exc:  # a job that fails is counted, not fatal
                    busy += time.perf_counter() - t0
                    failed += 1
                    errors[f"{job.label}: {type(exc).__name__}: {exc}"] += 1
                    continue
                finally:
                    if tracer:
                        tracer.close(span)
                elapsed = time.perf_counter() - t0
                busy += elapsed
                try:
                    with paused():
                        job.check(out)
                except (checks.CheckError, KeyError, TypeError, ValueError) as exc:
                    # an output of the wrong shape is as incorrect as a wrong value
                    mismatches[f"{job.label}: {type(exc).__name__}: {exc}"] += 1
                times.append(elapsed)
                if job.kind == "cli":
                    by_name[job.name].append(elapsed)
                    child_rss = max(child_rss, out[2])
                    handler.append(json.loads(out[1])["counters"]["duration_s"])
                del out  # the next job must not find this one's output alive
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
    for message, n in sorted(errors.items()):
        print(f"  failed x{n}: {message}", file=sys.stderr)
    for message, n in sorted(mismatches.items()):
        print(f"  INCORRECT x{n}: {message}", file=sys.stderr)

    rss_kib = child_rss if workload == "cli_cold" else (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    e2e = {
        "setup_s": setup,
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail(times),
        "jobs_per_s": len(times) / busy,
        "peak_rss_mb": rss_kib / 1024,
    }
    result = {"correct": not mismatches, "attempted": attempted,
              "failed": failed, "timed": len(times), "e2e": e2e}
    if tracer:
        cli = measure_starts()
        if by_name:
            cli["cli.handler_s"] = statistics.median(handler)
            for name, values in by_name.items():
                cli[f"cli.{name}_s"] = statistics.median(values)
        result["layers"] = tracer.layer_metrics(cli)
    return result


def report(workload, args, result):
    print(f"workload {workload}: seed {args.seed}, "
          f"{rounds_for(workload, args.seconds)} rounds, "
          f"attempted {result['attempted']}, failed {result['failed']}, "
          f"timed {result['timed']}, correct {result['correct']}"
          + (" (traced)" if args.trace else ""))
    for name, unit in END_TO_END.items():
        value = result["e2e"][name]
        if value is not None:
            print(f"  {name:<12} {value:12.6f} {unit}")
    for name, metric in result.get("layers", {}).items():
        print(f"  {name:<36} {metric['value']:>16.6f} {metric['unit']}")


def metrics_of(result, trace):
    if trace:
        return result["layers"]
    return {name: {"value": result["e2e"][name], "unit": unit}
            for name, unit in END_TO_END.items()}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "extdecide" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import extdecide  # noqa: F401  (import cost belongs to set-up)
    import tracing
    import workloads  # noqa: F401  (imports every module the tracer wraps)

    if args.setup_probe:
        RUNS.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=RUNS) as workdir:
            build(args.workload, args.seed, workdir)
            print(f"ready {time.monotonic()!r}", flush=True)
        return 0

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for i, workload in enumerate(names):
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        try:
            results[workload] = run_workload(workload, args, tracer, i == 0)
        finally:
            if tracer:
                tracer.uninstall()
                tracer.write(RUNS / f"trace-{workload}-seed{args.seed}.json",
                             {"workload": workload, "seed": args.seed})
        report(workload, args, results[workload])

    if len(names) == 1:
        metrics = metrics_of(results[names[0]], args.trace)
    else:
        metrics = {f"{w}.{name}": m for w, r in results.items()
                   for name, m in metrics_of(r, args.trace).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
