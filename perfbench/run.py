"""The bifreemax benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of the repository:

    python3 perfbench/run.py --seed 1                       # all four workloads
    python3 perfbench/run.py --workload atomic --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload lazy --seed 1 --seconds 20 --trace 1

Each workload runs in fresh interpreters (``worker.py``) with the BLAS
thread pools pinned to one thread.  With ``--trace 0`` it reports the
end-to-end metrics; ``setup_s`` is the median over several fresh
interpreters of importing the library, generating the inputs and warming
every job kind up once.  With ``--trace 1`` a separate run wraps the
library's entry points (``tracer.py``) and reports the per-layer metrics,
next to the layer map of ``layer_map.json``.  Every run also writes its
full result, with the environment it ran in, under ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)
from tracer import MODULES, metric_names, metric_unit  # noqa: E402

WORKLOADS = ("atomic", "lazy", "gaussian", "cli")
END_TO_END = [  # name, unit
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
RUN_SECONDS = 25        # the default of --seconds, as in BENCHMARK.json
SETUP_SAMPLES = 5       # fresh interpreters timed for setup_s, the run's included
IMPORT_SAMPLES = 3      # -X importtime runs for the per-module import times
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170        # one workload, all of its processes included


def _unit(name):
    return dict(END_TO_END).get(name) or metric_unit(name)


class BenchError(Exception):
    pass


def _child_env():
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "") \
        if env.get("PYTHONPATH") else SRC
    return env


def _run_child(argv, deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before " + " ".join(argv[1:4]))
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(argv[1:])} timed out") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def _worker(workload, seed, seconds, mode, tiny, deadline):
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--mode", mode]
    if tiny:
        argv.append("--tiny")
    proc = _run_child(argv, deadline)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{workload} {mode} worker exited {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _import_ms(deadline):
    """Median self import time of each package module, in ms."""
    samples = {m: [] for m in MODULES}
    for _ in range(IMPORT_SAMPLES):
        proc = _run_child([sys.executable, "-X", "importtime", "-c",
                           "import bifreemax, bifreemax.cli"], deadline)
        if proc.returncode != 0:
            raise BenchError("importing bifreemax failed: " + proc.stderr[-500:])
        for line in proc.stderr.splitlines():
            # import time: self [us] | cumulative | imported package
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2].startswith("bifreemax."):
                module = parts[2].split(".", 1)[1]
                if module in samples:
                    samples[module].append(int(parts[0].split()[-1]) / 1e3)
    return {f"{m}.import_ms": statistics.median(v) if v else 0.0
            for m, v in samples.items()}


def _cache_sizes():
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return sizes
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def environment(seed, numpy_version):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "caches": _cache_sizes(),
        "seed": seed,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def end_to_end(workload, seed, seconds, tiny, deadline):
    setups = [_worker(workload, seed, seconds, "setup", tiny, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    run = _worker(workload, seed, seconds, "run", tiny, deadline)
    setups.append(run["setup_s"])
    lat_ms = [1e3 * s for s in run["latencies_s"]]
    completed = run["attempted"] - run["failed"]
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": completed / sum(run["latencies_s"]),
        "job_p50_ms": statistics.median(lat_ms),
        "job_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    extra = {"fail_rate": run["failed"] / run["attempted"],
             "pool": run["pool"], "setup_samples_s": setups}
    return metrics, run["attempted"], run["failed"], run["numpy"], extra


def per_layer(workload, seed, seconds, tiny, deadline):
    run = _worker(workload, seed, seconds, "trace", tiny, deadline)
    metrics = dict(run["layers"])
    metrics.update(_import_ms(deadline))
    metrics = {name: metrics[name] for name in metric_names()}
    extra = {"fail_rate": run["failed"] / run["attempted"],
             "passes": run["passes"], "pool": run["pool"], "spans": run["spans"]}
    return metrics, run["attempted"], run["failed"], run["numpy"], extra


def _layer_map():
    with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _print_shares(workload, metrics):
    predicted = _layer_map()["dominant"][workload]
    shares = sorted(((metrics[f"{m}.self_share"], m) for m in MODULES),
                    reverse=True)
    print(f"{workload} self_share (predicted dominant: {', '.join(predicted)}): "
          + ", ".join(f"{m} {v:.3f}" for v, m in shares if v > 0))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload; all four when omitted")
    ap.add_argument("--seed", type=int, required=True,
                    help="generates every input of every workload")
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help="timed seconds per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: the traced run and its per-layer metrics")
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every size ladder (smoke test)")
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit so that a running child is killed and
    # reaped on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "bifreemax", "__init__.py")):
        print(f"error: no bifreemax sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    measure = per_layer if args.trace else end_to_end
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    record = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    for workload in ([args.workload] if args.workload else WORKLOADS):
        deadline = time.monotonic() + DEADLINE_S
        try:
            metrics, attempted, failed, numpy_version, extra = measure(
                workload, args.seed, args.seconds, args.tiny, deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        record["workloads"][workload] = {"metrics": metrics, "attempted": attempted,
                                         "failed": failed, **extra}
        for name, value in metrics.items():
            print(f"{workload} {name} {value:.6g} {_unit(name)}")
        print(f"{workload} fail_rate {extra['fail_rate']:.6g} ratio")
        if args.trace:
            _print_shares(workload, metrics)
        combined["correct"] &= failed == 0
        combined["attempted"] += attempted
        combined["failed"] += failed
        combined["metrics"].update(
            {(name if args.workload else f"{workload}.{name}"):
             {"value": value, "unit": _unit(name)}
             for name, value in metrics.items()})
    record["environment"] = environment(args.seed, numpy_version)
    print("environment " + json.dumps(record["environment"]))
    tag = args.workload or "all"
    path = os.path.join(OUT, f"{tag}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
