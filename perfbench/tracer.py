"""Spans around the library's entry points, installed from outside it.

The tracer replaces each target with a wrapper at every module attribute
that holds it: the defining module, the package namespace and every module
that imported the name (``bifreemax.gaussian.tensor_cells``,
``bifreemax.cli.dump_json``, ...).  Methods are wrapped on the named class
and on every subclass that overrides them.  No source file changes, and the
wrappers call straight through while the tracer is inactive.

A span records its name, start and end (ns), the index of the enclosing
span, the job id, the peak traced allocation inside it (tracemalloc) and
whether it raised.  Spans stay in memory until :func:`layer_metrics` derives
the per-layer figures and :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

MODULES = ("distributions", "copulas", "convolution", "extremes", "gaussian",
           "quadrature", "serialize", "specs", "cli")

# (module, attribute path, metric label); a span per call
SPAN_TARGETS = [
    ("distributions", "bdf_from_law", "bdf_from_law"),
    ("distributions", "materialize", "materialize"),
    ("distributions", "law_from_bdf", "law_from_bdf"),
    ("distributions", "DiscreteMeasure.tail", "DiscreteMeasure.tail"),
    ("distributions", "GridBDF.eval", "GridBDF.eval"),
    ("convolution", "ConvolvedBDF.eval", "ConvolvedBDF.eval"),
    ("convolution", "PowerBDF.eval", "PowerBDF.eval"),
    ("convolution", "bifree_maxconv", "bifree_maxconv"),
    ("convolution", "bifree_power", "bifree_power"),
    ("convolution", "MeasureBDF.eval", "MeasureBDF.eval"),
    ("convolution", "compound_poisson_limit", "compound_poisson_limit"),
    ("convolution", "is_bifree_maxid", "is_bifree_maxid"),
    ("convolution", "classical_maxid_check", "classical_maxid_check"),
    ("copulas", "check_maxid_coupling", "check_maxid_coupling"),
    ("copulas", "doa_iterate", "doa_iterate"),
    ("copulas", "Copula.eval", "Copula.eval"),
    ("copulas", "Copula.f_eval", "Copula.f_eval"),
    ("extremes", "check_max_stable", "check_max_stable"),
    ("extremes", "doa_experiment", "doa_experiment"),
    ("gaussian", "cdf_grid", "cdf_grid"),
    ("gaussian", "maxid_verdict", "maxid_verdict"),
    ("gaussian", "identity_check", "identity_check"),
    ("gaussian", "comparison_integral", "comparison_integral"),
    ("quadrature", "tensor_cells", "tensor_cells"),
    ("quadrature", "adaptive_panels", "adaptive_panels"),
    ("serialize", "dump_json", "dump_json"),
    ("serialize", "load_json", "load_json"),
    ("serialize", "write_surface_csv", "write_surface_csv"),
    ("serialize", "write_report_csv", "write_report_csv"),
    ("specs", "parse_spec", "parse"),
    ("specs", "parse_marginal", "parse"),
    ("specs", "parse_pickands", "parse"),
    ("specs", "parse_copula", "parse"),
    ("specs", "parse_measure", "parse"),
    ("specs", "parse_bdf", "parse"),
    ("cli", "main", "main"),
]

# called too often for a span each: counted only, their time stays with
# the enclosing span
COUNT_TARGETS = [
    ("distributions", "UnivariateDF.eval", "UnivariateDF.eval"),
    ("quadrature", "panel_nodes", "panel_nodes"),
]

# writers whose output file size feeds serialize.bytes_written, by the
# position of their path argument
WRITERS = {"serialize.dump_json": 1, "serialize.write_surface_csv": 0,
           "serialize.write_report_csv": 0}

JOB = "job"


UNITS = {"calls": "count", "self_ms": "ms", "peak_mb": "MB",
         "bytes_written": "bytes", "self_share": "ratio", "fail": "count",
         "import_ms": "ms", "overhead": "ratio"}


def metric_unit(name):
    return UNITS[name.rsplit(".", 1)[1]]


def metric_names():
    """Every per-layer metric the traced run emits, in a fixed order."""
    names = []
    for module, _, label in SPAN_TARGETS:
        for field in ("calls", "self_ms", "peak_mb"):
            name = f"{module}.{label}.{field}"
            if name not in names:
                names.append(name)
    names += [f"{module}.{label}.calls" for module, _, label in COUNT_TARGETS]
    names.append("serialize.bytes_written")
    for module in MODULES:
        names += [f"{module}.self_share", f"{module}.fail", f"{module}.import_ms"]
    names.append("trace.overhead")
    return names


class Tracer:
    def __init__(self):
        self.active = False
        self.job = -1
        self.spans = []     # [name, start_ns, end_ns, parent, job, peak_bytes, failed]
        self.counts = Counter()
        self.bytes_written = 0
        self._stack = []    # [span index, bytes at entry, peak bytes so far]
        self._undo = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name):
        cur, peak = tracemalloc.get_traced_memory()
        if self._stack:
            top = self._stack[-1]
            top[2] = max(top[2], peak)
        tracemalloc.reset_peak()
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.job,
                           0, False])
        self._stack.append([len(self.spans) - 1, cur, cur])

    def _exit(self, failed):
        end = time.perf_counter_ns()
        _, peak = tracemalloc.get_traced_memory()
        index, base, seen = self._stack.pop()
        seen = max(seen, peak)
        span = self.spans[index]
        span[2] = end
        span[5] = seen - base
        span[6] = failed
        if self._stack:
            top = self._stack[-1]
            top[2] = max(top[2], seen)
        tracemalloc.reset_peak()

    def begin_job(self, job_id):
        self.job = job_id
        self.active = True
        self._enter(JOB)

    def end_job(self, failed):
        self._exit(failed)
        self.active = False

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        tracer = self
        path_arg = WRITERS.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._enter(name)
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                tracer._exit(failed)
                if path_arg is not None and not failed:
                    tracer.bytes_written += os.path.getsize(args[path_arg])

        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr, value):
        had = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target in the already imported ``bifreemax`` package."""
        package = [m for n, m in sorted(sys.modules.items())
                   if n == "bifreemax" or n.startswith("bifreemax.")]
        targets = [(t, self._span_wrapper) for t in SPAN_TARGETS] + \
                  [(t, self._count_wrapper) for t in COUNT_TARGETS]
        for (module, path, label), make in targets:
            name = f"{module}.{label}"
            owner = sys.modules[f"bifreemax.{module}"]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(owner, cls_name)
                classes = [cls]
                for c in classes:
                    classes.extend(c.__subclasses__())
                for c in dict.fromkeys(classes):
                    if c is cls or meth in vars(c):
                        self._set(c, meth, make(name, getattr(c, meth)))
                continue
            fn = getattr(owner, path)
            wrapper = make(name, fn)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, old, had in reversed(self._undo):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def dump(self, path):
        """Write every span as one JSON line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, job, peak, failed in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "job": job, "peak_bytes": peak,
                                     "failed": failed}) + "\n")


def layer_metrics(tracer, passes):
    """Per-layer figures from the spans, averaged over ``passes`` traced
    passes of the job pool (calls, times, failures and bytes per pass; peaks
    as the largest seen)."""
    spans = tracer.spans
    child = [0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = Counter()
    self_ns = defaultdict(int)
    peak = defaultdict(int)
    module_self = defaultdict(int)
    module_fail = Counter()
    job_ns = 0
    for i, (name, start, end, parent, _, peak_bytes, failed) in enumerate(spans):
        if name == JOB:
            job_ns += end - start
            continue
        own = end - start - child[i]
        calls[name] += 1
        self_ns[name] += own
        peak[name] = max(peak[name], peak_bytes)
        module = name.split(".")[0]
        module_self[module] += own
        module_fail[module] += failed
    out = {}
    for module, _, label in SPAN_TARGETS:
        name = f"{module}.{label}"
        out[f"{name}.calls"] = calls[name] / passes
        out[f"{name}.self_ms"] = self_ns[name] / 1e6 / passes
        out[f"{name}.peak_mb"] = peak[name] / 1e6
    for module, _, label in COUNT_TARGETS:
        name = f"{module}.{label}"
        out[f"{name}.calls"] = tracer.counts[name] / passes
    out["serialize.bytes_written"] = tracer.bytes_written / passes
    for module in MODULES:
        out[f"{module}.self_share"] = module_self[module] / job_ns if job_ns else 0.0
        out[f"{module}.fail"] = module_fail[module] / passes
    return out
