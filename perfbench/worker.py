"""One workload in one fresh interpreter; started by ``run.py``.

    python3 perfbench/worker.py --workload W --seed N --seconds S \\
        --mode setup|run|trace [--tiny]

``setup`` imports the library, generates the pool and warms every job kind
up once, then reports how long that took.  ``run`` does the same and then
runs the closed loop: one caller, jobs back to back, each result checked
before the next job starts, in whole passes over the pool until
``--seconds`` and at least 100 jobs are reached.
``trace`` alternates an untraced and a traced pass over the pool until
``--seconds`` are spent and reports the per-layer figures.  The last line
of standard output is one JSON object.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import tracer as tr  # noqa: E402
import workloads  # noqa: E402

MIN_JOBS = 100


def _attempt(job, tracer=None, job_id=-1):
    """Run one job and check it; return (seconds spent in run, failed).

    With a tracer the run (not the check) is one job span."""
    if tracer is not None:
        tracer.begin_job(job_id)
    t = time.perf_counter()
    try:
        result = job.run()
        failed = False
    except Exception as exc:  # a raising job is a failed job, not a crash
        print(f"job {job.kind} raised {type(exc).__name__}: {exc}",
              file=sys.stderr)
        failed = True
    dt = time.perf_counter() - t
    if tracer is not None:
        tracer.end_job(failed)
    if failed:
        return dt, True
    try:
        job.check(result)
    except Exception as exc:
        print(f"job {job.kind} failed its check: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return dt, True
    return dt, False


def _warm_up(jobs):
    seen = set()
    for job in jobs:
        if job.kind not in seen:
            seen.add(job.kind)
            _, failed = _attempt(job)
            if failed:
                raise SystemExit(f"warm-up job {job.kind} failed")


def _closed_loop(jobs, seconds):
    """Whole passes over the pool until ``seconds`` and MIN_JOBS are both
    reached, so that every run times the same mix of jobs."""
    latencies, failed = [], 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(latencies) < MIN_JOBS:
        for job in jobs:
            dt, bad = _attempt(job)
            latencies.append(dt)
            failed += bad
    return latencies, failed


def _traced_passes(jobs, seconds, spans_path):
    """Untraced and traced passes over the pool, in pairs, until
    ``seconds`` are spent; the ratio of their job times is the tracing
    overhead."""
    tracer = tr.Tracer()
    tracer.install()
    plain_s = traced_s = 0.0
    failed = passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for job in jobs:
            dt, bad = _attempt(job)
            plain_s += dt
            failed += bad
        tracemalloc.start()
        for i, job in enumerate(jobs):
            dt, bad = _attempt(job, tracer, passes * len(jobs) + i)
            traced_s += dt
            failed += bad
        tracemalloc.stop()
        passes += 1
    tracer.uninstall()
    metrics = tr.layer_metrics(tracer, passes)
    metrics["trace.overhead"] = traced_s / plain_s
    tracer.dump(spans_path)
    return metrics, 2 * passes * len(jobs), failed, passes


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        rng = np.random.default_rng(args.seed)
        jobs = workloads.build(args.workload, rng, workdir, args.tiny)
        _warm_up(jobs)
        out = {"setup_s": time.perf_counter() - T0,
               "numpy": np.__version__, "pool": len(jobs)}
        if args.mode == "run":
            latencies, failed = _closed_loop(jobs, args.seconds)
            out.update(latencies_s=latencies, attempted=len(latencies),
                       failed=failed,
                       peak_rss_mb=resource.getrusage(
                           resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
        elif args.mode == "trace":
            spans = os.path.join(
                OUT, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
            metrics, attempted, failed, passes = _traced_passes(
                jobs, args.seconds, spans)
            out.update(layers=metrics, attempted=attempted, failed=failed,
                       passes=passes, spans=os.path.relpath(spans, ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
