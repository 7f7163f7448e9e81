"""The algstat benchmark: one workload, one closed loop, one client.

    python3 perfbench/run.py --workload toric-lc --seed 1 --seconds 35 --trace 0

Jobs run back to back, one at a time, in passes over the workload's
jobs.  After the first two passes, passes go on while the next one is
expected to end within ``--seconds``.  Every job's output is
checked; a job that raises or whose output does not match counts as
failed and the pass goes on.  In end-to-end runs a job shorter than
``COVER_S`` runs again within its pass, and its time is the median of
its runs.

``--trace 0`` measures the end-to-end metrics, in reference time: wall
time scaled by the host's speed, sampled in this process while the jobs
run (see speed.py).  ``--trace 1`` alternates
an untraced pass with a traced one (see spans.py), reports the
per-layer metrics of the traced passes and writes the spans to
``perfbench/out/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
metrics being those ``BENCHMARK.json`` lists for the mode.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 21
# In end-to-end runs a job runs again until its runs in a pass cover this.
COVER_S = 0.2


def import_algstat():
    """Import algstat from this checkout's ``src``, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import algstat
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import algstat from {SRC}: {exc}")
    if not Path(algstat.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: algstat was imported from {algstat.__file__}, not from {SRC}")


def run_job(job, tally, tracer=None, sampler=None) -> tuple[float, bool]:
    """Run one job and check its output; return its time and whether it passed.

    The time is wall time, or with a ``sampler`` reference time (see speed.py).
    """
    args = job.prepare()
    result = error = None
    mark = sampler.mark() if sampler is not None else None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = job.run(args)
        else:
            with tracer.job(job.name):
                result = job.run(args)
    except Exception:  # a failed job is counted, and the pass goes on
        error = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    if sampler is not None:
        seconds = sampler.reference_time(seconds, mark, sampler.mark())
    if error is None:
        try:
            error = job.check(result)
        except Exception:  # a result the check cannot read is a wrong result
            error = traceback.format_exc(limit=3)
    tally["attempted"] += 1
    if error is not None:
        tally["failed"] += 1
        print(f"perfbench: job {job.name} failed: {error}", file=sys.stderr)
    elif tracer is not None and job.counters is not None:
        for key, value in job.counters(result).items():
            tracer.add(key, value)
    return seconds, error is None


def run_pass(jobs, tally, tracer=None, sampler=None, cover_s=0.0) -> dict[str, float]:
    """Run every job; return each job's time in seconds.

    A job runs again, back to back, until its runs cover ``cover_s``
    seconds or one fails, and its time is the median of its runs: a job
    of a few milliseconds is timed on many runs, a long one on one.
    """
    times = {}
    for job in jobs:
        runs = []
        while True:
            seconds, ok = run_job(job, tally, tracer, sampler)
            runs.append(seconds)
            if not ok or sum(runs) >= cover_s:
                break
        times[job.name] = statistics.median(runs)
    return times


def setup_seconds(workload: str, seed: int, sampler: speed.Sampler) -> list[float]:
    """Reference time of fresh interpreters that import algstat and build the inputs.

    The interpreters run on one CPU, the one this process samples just
    before and just after each of them.  No timeout is passed: with one,
    ``subprocess`` polls for the child's exit in steps of up to 50 ms,
    which would quantise the samples.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    samples = []
    try:
        for _ in range(SETUP_REPEATS):
            lo = len(sampler.samples)
            sampler.sample()
            t0 = time.perf_counter()
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
            wall = time.perf_counter() - t0
            sampler.sample()
            samples.append(wall * sampler.scale(lo, len(sampler.samples)))
    finally:
        os.sched_setaffinity(0, cpus)
    return samples


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def repeat(seconds: float, step, least: int):
    """Call ``step`` ``least`` times, then again while the next call is expected
    to end within ``seconds`` of the first."""
    start = time.perf_counter()
    calls = 0
    while True:
        step()
        calls += 1
        elapsed = time.perf_counter() - start
        if calls >= least and elapsed * (calls + 1) / calls > seconds:
            return


def end_to_end(args, jobs, tally) -> dict[str, float]:
    sampler = speed.Sampler()
    setups = setup_seconds(args.workload, args.seed, sampler)
    passes, walls = [], []

    def step():
        t0 = time.perf_counter()
        passes.append(run_pass(jobs, tally, sampler=sampler, cover_s=COVER_S))
        walls.append(time.perf_counter() - t0)

    with sampler.running():
        repeat(args.seconds, step, least=2)
    pass_s = [sum(p.values()) for p in passes]
    per_job = [statistics.median(p[job.name] for p in passes) for job in jobs]
    attempted = tally["attempted"]
    print(f"perfbench: {args.workload}: {len(passes)} passes of {len(jobs)} jobs, "
          f"pass_s {[round(s, 3) for s in pass_s]}, "
          f"wall with checks {[round(s, 3) for s in walls]}; "
          f"{len(setups)} set-ups, setup_s {[round(s, 3) for s in setups]}")
    return {
        "pass_s": statistics.median(pass_s),
        "job_geomean_s": geomean(per_job),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
        "job_ok_ratio": (attempted - tally["failed"]) / attempted,
    }


def per_layer(args, jobs, tally) -> tuple[dict[str, float], list[str]]:
    import spans

    tracer = spans.Tracer()
    plain, traced = [], []

    def cycle():
        plain.append(sum(run_pass(jobs, tally).values()))
        with tracer.installed():
            traced.append(sum(run_pass(jobs, tally, tracer).values()))

    repeat(args.seconds, cycle, least=1)
    faults = tracer.check()
    job_s = tracer.job_ns() / 1e9
    if not math.isclose(job_s, sum(traced), rel_tol=0.01, abs_tol=0.001):
        faults.append(f"job spans cover {job_s:.4f} s of {sum(traced):.4f} s traced")
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    values = tracer.metrics(len(traced))
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    print(f"perfbench: {args.workload}: {len(traced)} traced and {len(plain)} untraced passes, "
          f"{len(tracer.spans)} spans")
    return values, faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import algstat, build the inputs and exit")
    args = parser.parse_args(argv)

    import_algstat()
    import workloads

    jobs = workloads.build(args.workload, args.seed)
    if args.setup_only:
        return 0
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        wanted = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    tally = {"attempted": 0, "failed": 0}
    faults = []
    if args.trace:
        values, faults = per_layer(args, jobs, tally)
    else:
        values = end_to_end(args, jobs, tally)
    for fault in faults:
        print(f"perfbench: trace fault: {fault}", file=sys.stderr)
    result = {
        "correct": tally["failed"] == 0 and not faults,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
