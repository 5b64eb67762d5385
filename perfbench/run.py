"""stslab benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; stslab is imported from ./src.  The
workload's job list runs closed-loop, one job after another on one thread,
in passes until the next pass would end after --seconds (at least one
pass).  Every answer is checked independently of stslab, outside the
timed calls.

--trace 0 reports the end-to-end metrics: setup_s (import of stslab plus
the median of several input builds), wall_s (median pass time), job_p50_s
(median job time, printed only) and peak_rss_mb.  --trace 1 runs the
workload untraced in a child process, then again with every stslab layer
wrapped in spans, and reports the per-layer metrics for one set-up plus one
pass, with the tracing overhead.  --workload all runs every workload in its
own process.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  The exit code is 0 only if every check passed;
it is 2 if stslab cannot be imported from ./src.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("oracle", "closure", "scale")
SETUPS_PER_RUN = 5
HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = os.path.join(HERE, "_work")  # trace outputs, and the files the jobs write


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_stslab():
    """Import stslab from ./src; return (module, seconds) or exit with code 2."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "stslab", "__init__.py")):
        print(f"error: no stslab package under {src}; run from a checkout root",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    start = time.perf_counter()
    import stslab

    seconds = time.perf_counter() - start
    if not os.path.abspath(stslab.__file__).startswith(src + os.sep):
        print(f"error: imported stslab from {stslab.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return stslab, seconds


class Phase:
    """Closed-loop passes over one job list, with answer checks."""

    def __init__(self):
        self.pass_s: list = []
        self.job_s: dict = {}  # job name -> its times
        self.attempted = 0
        self.failed = 0

    def run(self, jobs, seconds: float, tracer=None) -> None:
        start = time.perf_counter()
        while True:
            state: dict = {}
            t_pass = time.perf_counter()
            for job in jobs:
                self._run_job(job, state, tracer)
            self.pass_s.append(time.perf_counter() - t_pass)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.fmean(self.pass_s) > seconds:
                break

    def _run_job(self, job, state, tracer) -> None:
        gc.collect()
        self.attempted += 1
        problem = None
        span = tracer.root(f"job:{job.name}") if tracer else contextlib.nullcontext()
        t = time.perf_counter()
        try:
            with span:
                out = job.run(state)
        except Exception as e:  # a raising job is a failed job, not a crash
            problem = f"raised {type(e).__name__}: {e}"
        self.job_s.setdefault(job.name, []).append(time.perf_counter() - t)
        if problem is None:
            problem = job.check(out)
        if problem is not None:
            self.failed += 1
            print(f"FAIL {job.name}: {problem}", file=sys.stderr)


def build_inputs(setup, seed: int, files_dir: str, tracer=None):
    """Build the workload inputs SETUPS_PER_RUN times; return (jobs, times)."""
    times = []
    for _ in range(SETUPS_PER_RUN):
        gc.collect()
        span = tracer.root("setup") if tracer else contextlib.nullcontext()
        t = time.perf_counter()
        with span:
            jobs = setup(seed, files_dir)
        times.append(time.perf_counter() - t)
    return jobs, times


def metric(value: float, unit: str, samples: int | None = None) -> dict:
    out = {"value": value, "unit": unit}
    if samples is not None:
        out["samples"] = samples
    return out


def run_child(workload: str, args, trace: int):
    """Run one workload in a child process; return (exit code, stdout lines, result)."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, lines, result


def untraced_run(args, setup, import_s: float, files_dir: str):
    import tracing

    jobs, setup_times = build_inputs(setup, args.seed, files_dir)
    phase = Phase()
    phase.run(jobs, args.seconds)
    metrics = {
        "setup_s": metric(import_s + statistics.median(setup_times), "s", len(setup_times)),
        "wall_s": metric(statistics.median(phase.pass_s), "s", len(phase.pass_s)),
        "peak_rss_mb": metric(tracing.maxrss_mb(), "MB"),
    }
    # printed, not in the JSON result: which random STS(15) instances the
    # seed draws moves the oracle median job by up to a third
    job_s = [t for times in phase.job_s.values() for t in times]
    shown = {"job_p50_s": metric(statistics.median(job_s), "s", len(job_s))}
    return phase, metrics, shown


def traced_run(args, setup, files_dir: str):
    """Per-layer metrics and the tracing overhead.

    The untraced reference is an ordinary --trace 0 run in a child process.
    The traced passes run here afterwards, in a process whose peak RSS is
    still that of set-up alone, so the RSS rises recorded by the spans show
    which step sets the peak.
    """
    import tracing

    _, _, reference = run_child(args.workload, args, trace=0)
    if reference is None:
        raise RuntimeError("the untraced reference run printed no result")
    tracer = tracing.Tracer()
    tracing.install(tracer)
    jobs, _ = build_inputs(setup, args.seed, files_dir, tracer)
    phase = Phase()
    phase.run(jobs, args.seconds, tracer)
    summary = tracing.summarize(tracer, SETUPS_PER_RUN, len(phase.pass_s))
    tracing.write_out(tracer, summary, WORK_DIR, args.workload)
    metrics = {
        name: metric(value, tracing.unit_of(name))
        for name, value in tracing.layer_metrics(summary).items()
    }
    untraced_s = reference["metrics"]["wall_s"]["value"]
    traced_s = statistics.median(phase.pass_s)
    metrics.update({
        "trace.untraced_wall_s": metric(untraced_s, "s"),
        "trace.wall_s": metric(traced_s, "s", len(phase.pass_s)),
        "trace.overhead_s": metric(traced_s - untraced_s, "s"),
        "trace.overhead_frac": metric((traced_s - untraced_s) / untraced_s, "ratio"),
    })
    phase.attempted += reference["attempted"]
    phase.failed += reference["failed"]
    return phase, metrics, {}


def run_workload(args) -> int:
    stslab, import_s = import_stslab()
    import workloads  # imports stslab: only after import_s is measured

    os.environ.pop(stslab.search.BUDGET_ENV_VAR, None)  # default node budget
    os.makedirs(WORK_DIR, exist_ok=True)
    # a directory of this process's own: a traced run's reference child
    # removes its directory while the parent still needs one
    files_dir = tempfile.mkdtemp(prefix="files-", dir=WORK_DIR)
    setup = workloads.SETUPS[args.workload]
    try:
        if args.trace:
            phase, metrics, shown = traced_run(args, setup, files_dir)
        else:
            phase, metrics, shown = untraced_run(args, setup, import_s, files_dir)
    finally:
        shutil.rmtree(files_dir)
    for name, times in phase.job_s.items():
        print(f"{args.workload:8} job {name:30} {statistics.median(times):14.6f} s"
              f"  (n={len(times)})")
    for name, m in {**metrics, **shown}.items():
        extra = f"  (n={m['samples']})" if "samples" in m else ""
        print(f"{args.workload:8} {name:34} {m['value']:14.6f} {m['unit']}{extra}")
    print(f"{args.workload:8} {'failed_frac':34} {phase.failed / phase.attempted:14.6f} ratio"
          f"  ({phase.failed}/{phase.attempted} jobs)")
    result = {
        "correct": phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if phase.failed == 0 else 1


def run_all(args) -> int:
    """Run each workload in its own process; combine their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        returncode, lines, result = run_child(name, args, args.trace)
        print("\n".join(lines[:-1]), flush=True)
        code = max(code, returncode)
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, m in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = m
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
