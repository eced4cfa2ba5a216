"""Command-line driver.

Subcommands wrap the library operations and emit deterministic CSV/JSON
artifacts: ``convolve``, ``power``, ``transform``, ``check``, ``build``,
``gaussian``, ``experiment``.  Verdict-producing commands exit 0 for a
positive verdict (member / yes / maxid), 1 for a negative one, and 2 for
inconclusive.  Malformed specs or inputs (a ``frechet`` or ``weibull``
alpha <= 0 among them) exit 4 with a diagnostic on stderr, as does
``convolve --free`` with ``--csv`` (a univariate DF has no surface) and as
do runs that could cover nothing: an empty or non-positive ``--ns``,
``--grid`` below 3 for ``check copula`` or below 2 for ``check
copula-axioms``, a negative or NaN ``--tol`` for any ``check``, ``check
maxid`` with neither a spec nor ``--gaussian``,
``build from-measure --lower`` and ``experiment compound-poisson --p``
without two finite coordinates, ``experiment compound-poisson`` with
``--max-log2`` below 1 or a NaN or non-positive ``--lam``, ``experiment
doa-copula`` and ``max-stable`` with ``--probe`` below 2, and ``gaussian
density`` or ``gaussian cdf`` with ``--resolution`` below 2, or for
``gaussian cdf`` too coarse to resolve the kernel near |c| = 1.  A
``gaussian`` correlation that is NaN or has |c| >= 1 (except for
``verdict``, which decides c = -1 and c = 1) and a non-finite or
out-of-square ``identity --xs`` point exit 4 too (argparse usage errors
keep the stdlib exit code 2).  A JSON file that is not a well-formed
grid, ``grid2d`` or measure object, or a grid DF file that fails
``GridBDF.validate``, exits 4 too.  ``check maxid --gaussian C`` decides
with its own 1e-8 witness margin, not ``--tol``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from . import convolution as cv
from . import copulas as cp
from . import extremes as ex
from . import gaussian as ga
from .distributions import (
    CoupledBDF,
    GridBDF,
    GridUDF,
    _require_tol,
    _span,
    materialize,
)
from .serialize import (
    dump_json,
    fmt,
    report_csv_lines,
    surface_csv_lines,
    udf_to_obj,
    write_grid,
    write_report_csv,
    write_surface_csv,
)
from .specs import (
    SpecError,
    parse_bdf,
    parse_copula,
    parse_marginal,
    parse_measure,
    parse_pickands,
)

_EXIT = {"yes": 0, "member": 0, "maxid": 0, "pass": 0,
         "no": 1, "nonmember": 1, "not-maxid": 1, "fail": 1,
         "inconclusive": 2}


def _floats(text):
    return [float(p) for p in text.split(",") if p.strip()]


def _point(text, flag):
    """The two finite coordinates x,y of ``text``, else a SpecError that
    names ``flag``."""
    try:
        xy = _floats(text)
    except ValueError:
        xy = []
    if len(xy) != 2 or not all(map(math.isfinite, xy)):
        raise SpecError(f"{flag} needs two finite coordinates x,y, "
                        f"got {text!r}")
    return xy


def _ints(text):
    return [int(p) for p in text.split(",") if p.strip()]


def _out_path(args, path):
    if path is None:
        return None
    if args.out_dir and not os.path.isabs(path):
        os.makedirs(args.out_dir, exist_ok=True)
        return os.path.join(args.out_dir, path)
    return path


def _print_verdict(args, payload):
    if args.format == "csv":
        # RFC 4180 fields; a nested value or None is its JSON text
        writer = csv.writer(sys.stdout, lineterminator="\n")
        for k, v in payload.items():
            if v is None or isinstance(v, (dict, list)):
                v = json.dumps(v)
            writer.writerow([k, v])
    else:
        print(json.dumps(payload, indent=2))


def _emit_verdict(args, payload):
    """Print a verdict payload, write it to ``-o`` if given, and return the
    exit code of its status."""
    _print_verdict(args, payload)
    if args.output:
        dump_json(payload, _out_path(args, args.output))
    return _EXIT[payload["status"]]


def _marginal_summary(tag, m):
    med = m.quantile_exceed(0.5)
    sat = m.saturation
    return (f"{tag}: kind={m.kind} support_lower={fmt(m.support_lower)} "
            f"median={fmt(med)} saturation="
            f"{fmt(sat) if np.isfinite(sat) else 'inf'}")


def _write_grid(args, F, json_path, csv_path=None):
    """``serialize.write_grid`` of a grid DF to its paths, where given,
    under ``--out-dir``."""
    write_grid(F, json_path and _out_path(args, json_path),
               csv_path and _out_path(args, csv_path))


def _emit_bdf(args, F):
    print(_marginal_summary("marginal1", F.marginal1))
    print(_marginal_summary("marginal2", F.marginal2))
    _write_grid(args, F, args.output, getattr(args, "csv", None))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_convolve(args):
    if args.free:
        if args.csv:
            raise SpecError("--csv writes a surface; --free gives a "
                            "univariate DF")
        f = parse_marginal(args.a)
        g = parse_marginal(args.b)
        h = cv.free_maxconv(f, g)
        if not isinstance(h, GridUDF):
            knots = np.union1d(np.linspace(*_span(f), args.grid),
                               np.linspace(*_span(g), args.grid))
            h = GridUDF(knots, h.eval(knots))
        print(_marginal_summary("result", h))
        if args.output:
            dump_json(udf_to_obj(h), _out_path(args, args.output))
        return 0
    F = parse_bdf(args.a)
    G = F if args.b == args.a else parse_bdf(args.b)
    _emit_bdf(args, cv.bifree_maxconv(F, G))
    return 0


def _cmd_power(args):
    F = parse_bdf(args.input)
    P = cv.bifree_power(F, args.t)
    if not isinstance(P, GridBDF):
        P = materialize(P, F.xknots, F.yknots)
    _emit_bdf(args, P)
    return 0


def _cmd_transform(args):
    F = parse_bdf(args.input)
    xs = F.xknots[F.marginal1.eval(F.xknots) > 0]
    ys = F.yknots[F.marginal2.eval(F.yknots) > 0]
    if args.kind == "ratio":
        vals = cv.product_ratio(F, xs[:, None], ys[None, :])
    else:
        vals = cv.tail_functional(F, xs[:, None], ys[None, :])
    out = _out_path(args, args.output)
    if out:
        write_surface_csv(out, xs, ys, vals)
    else:
        sys.stdout.writelines(surface_csv_lines(xs, ys, vals))
    return 0


def _witness_obj(w):
    if w is None:
        return None
    return {k: (list(v) if isinstance(v, tuple) else v)
            for k, v in vars(w).items()}


def _gaussian_verdict(c, resolution):
    v = ga.maxid_verdict(c, resolution=resolution)
    return {"check": "bifree-maxid", "gaussian_c": c, "status": v.status,
            "mechanism": v.mechanism, "witness": _witness_obj(v.witness)}


def _cmd_check(args):
    tol = args.tol if args.tol is not None else 1e-9
    if args.what == "copula":
        C = parse_copula(args.spec)
        verdict = cp.check_maxid_coupling(C, mode=args.mode, tol=tol,
                                          grid_n=args.grid)
        payload = {"check": "maxid-coupling", "spec": args.spec,
                   "status": "member" if verdict.member else "nonmember",
                   "mode": verdict.mode, "min_margin": verdict.min_margin,
                   "witness": _witness_obj(verdict.witness)}
    elif args.what == "maxid" and args.gaussian is not None:
        # refused as by every check, though the verdict has its own margin
        _require_tol(tol)
        payload = _gaussian_verdict(args.gaussian, args.resolution)
    elif args.what == "maxid":
        if args.spec is None:
            raise SpecError("check maxid needs a spec or --gaussian C")
        v = cv.is_bifree_maxid(parse_bdf(args.spec), tol=tol)
        payload = {"check": "bifree-maxid", "input": args.spec,
                   "status": v.status, "reason": v.reason,
                   "margin": v.margin, "witness": _witness_obj(v.witness)}
    elif args.what == "classical-maxid":
        F = parse_bdf(args.spec)
        v = cv.classical_maxid_check(F, ns=tuple(_ints(args.ns)), tol=tol)
        payload = {"check": "classical-maxid", "input": args.spec,
                   "status": v.status, "reason": v.reason,
                   "witness": _witness_obj(v.witness)}
    else:  # copula-axioms
        C = parse_copula(args.spec)
        payload = {"check": "copula-axioms", "spec": args.spec,
                   "status": "pass"}
        try:
            cp.check_copula_axioms(C, n=args.grid, tol=tol)
        except AssertionError as exc:
            payload.update(status="fail", reason=str(exc))
    return _emit_verdict(args, payload)


def _cmd_build(args):
    if args.what == "from-measure":
        tau = parse_measure(args.spec)
        F = cv.from_exponent_measure(tau, _point(args.lower, "--lower"))
        grid = materialize(F, F.marginal1.knots, F.marginal2.knots)
    else:  # coupled
        C = parse_copula(args.spec)
        m1 = parse_marginal(args.marginal1)
        m2 = parse_marginal(args.marginal2 or args.marginal1)
        grid = materialize(CoupledBDF(C, m1, m2),
                           np.linspace(*_span(m1), args.grid),
                           np.linspace(*_span(m2), args.grid))
    _emit_bdf(args, grid)
    return 0


def _cmd_gaussian(args):
    c = args.c
    if args.what == "density":
        if args.resolution < 2:
            raise ValueError(
                f"resolution must be at least 2, got {args.resolution}")
        knots = np.linspace(-2.0, 2.0, args.resolution)
        vals = ga.density(c, knots[:, None], knots[None, :])
        write_surface_csv(_out_path(args, args.output or "density.csv"),
                          knots, knots, vals)
        return 0
    if args.what == "cdf":
        _write_grid(args, ga.cdf_grid(c, resolution=args.resolution),
                    args.output, args.csv)
        return 0
    if args.what == "identity":
        xs = _floats(args.xs)
        rows = []
        for x in xs:
            r = ga.identity_check(c, x)
            rows.append({"x": x, "value": r.value, "reference": r.reference,
                         "error": r.error})
        _print_verdict(args, {"check": "kernel-identity", "c": c, "rows": rows})
        if args.output:
            dump_json({"c": c, "rows": rows}, _out_path(args, args.output))
        return 0
    return _emit_verdict(args, _gaussian_verdict(c, args.resolution))


def _dyadic(n_max):
    ns = []
    k = 2
    while k <= n_max:
        ns.append(k)
        k *= 2
    if not ns or ns[-1] != n_max:
        ns.append(n_max)
    return ns


def _cmd_experiment(args):
    rows = []
    # one probe point per axis would compare the laws at u = 0 alone
    if getattr(args, "probe", 2) < 2:
        raise SpecError(f"--probe needs at least 2 points per axis, "
                        f"got {args.probe}")
    if args.what == "compound-poisson":
        nu = parse_measure(args.nu)
        p = _point(args.p, "--p")
        ns = [2 ** k for k in range(1, args.max_log2 + 1)]
        limit, report = cv.compound_poisson_limit(args.lam, nu, p, ns=ns)
        rows = [(n, "sup_distance", d)
                for n, d in zip(report.ns, report.distances)]
        summary = {"experiment": "compound-poisson", "lam": args.lam,
                   "final": report.final,
                   "eventually_decreasing": report.eventually_decreasing()}
        if args.limit_output:
            grid = materialize(limit, limit.marginal1.knots,
                               limit.marginal2.knots)
            _write_grid(args, grid, args.limit_output)
    elif args.what == "doa-copula":
        C = parse_copula(args.spec)
        if args.pickands:
            A = parse_pickands(args.pickands)
        elif isinstance(C, cp.BiFreeCopula):
            A = C.pickands
        else:
            raise SpecError("target dependence function required: --pickands")
        target = cp.ev_copula(A)
        probe = (np.linspace(0.0, 1.0, args.probe),) * 2
        tvals = target.eval(probe[0][:, None], probe[1][None, :])
        for n in _dyadic(args.n):
            it = cp.doa_iterate(C, n, probe)
            rows.append((n, "sup_distance", float(np.max(np.abs(it - tvals)))))
        summary = {"experiment": "doa-copula", "spec": args.spec,
                   "final": rows[-1][2],
                   "eventually_decreasing": cv.eventually_decreasing(
                       [r[2] for r in rows])}
    else:  # max-stable
        A = parse_pickands(args.spec)
        m1 = parse_marginal(args.marginal)
        m2 = parse_marginal(args.marginal2 or args.marginal)
        F = ex.bifree_ev(m1, m2, A)
        seq = ex.default_normalizers(m1, m2)
        probe = (np.linspace(*_span(m1), args.probe),
                 np.linspace(*_span(m2), args.probe))
        report = ex.check_max_stable(F, seq, _ints(args.ns), probe)
        rows = [(n, "sup_distance", d) for n, d in report.rows]
        summary = {"experiment": "max-stable", "pickands": args.spec,
                   "max_distance": report.max_distance}
    header = ("n", "diagnostic", "value")
    out = _out_path(args, args.output)
    if out:
        write_report_csv(out, header, rows)
    else:
        sys.stdout.writelines(report_csv_lines(header, rows))
    _print_verdict(args, summary)
    if args.summary:
        dump_json(summary, _out_path(args, args.summary))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The argument parser; built once per process, since parsing keeps no
    state in it."""
    parser = argparse.ArgumentParser(
        prog="bifreemax",
        description="Bi-free max-convolution calculus: convolve, transform, "
                    "check, and run attraction experiments on bivariate "
                    "distribution functions.")
    parser.add_argument("--tol", type=float, default=None,
                        help="tolerance override for checks")
    parser.add_argument("--grid", type=int, default=101,
                        help="default probe/materialization resolution")
    parser.add_argument("--out-dir", default=None,
                        help="directory for output artifacts")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="stdout format for verdicts and summaries")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("convolve", help="free or bi-free max-convolution")
    c.add_argument("--free", action="store_true")
    c.add_argument("a")
    c.add_argument("b")
    c.add_argument("-o", "--output")
    c.add_argument("--csv")
    c.set_defaults(handler=_cmd_convolve)

    p = sub.add_parser("power", help="bi-free convolution power")
    p.add_argument("input")
    p.add_argument("t", type=float)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_power)

    t = sub.add_parser("transform",
                       help="tail-functional or product-ratio surface")
    t.add_argument("kind", choices=("tail", "ratio"))
    t.add_argument("input")
    t.add_argument("-o", "--output")
    t.set_defaults(handler=_cmd_transform)

    ck = sub.add_parser("check", help="membership and divisibility verdicts")
    cks = ck.add_subparsers(dest="what", required=True)
    k1 = cks.add_parser("copula", help="ratio-form coupling membership")
    k1.add_argument("spec")
    k1.add_argument("--mode", choices=("grid", "smooth"), default="grid")
    k1.add_argument("-o", "--output")
    k2 = cks.add_parser("maxid", help="bi-free max-infinite divisibility")
    k2.add_argument("spec", nargs="?")
    k2.add_argument("--gaussian", type=float, default=None, metavar="C")
    k2.add_argument("--resolution", type=int, default=61)
    k2.add_argument("-o", "--output")
    k3 = cks.add_parser("classical-maxid", help="quasi-monotone n-th roots")
    k3.add_argument("spec")
    k3.add_argument("--ns", default="2,3,10")
    k3.add_argument("-o", "--output")
    k4 = cks.add_parser("copula-axioms", help="copula axiom probes")
    k4.add_argument("spec")
    k4.add_argument("-o", "--output")
    for k in (k1, k2, k3, k4):
        k.set_defaults(handler=_cmd_check)

    b = sub.add_parser("build", help="construct DFs from measures or couplings")
    bs = b.add_subparsers(dest="what", required=True)
    b1 = bs.add_parser("from-measure", help="DF from an exponent measure")
    b1.add_argument("spec")
    b1.add_argument("--lower", required=True, help="lower corner x,y")
    b1.add_argument("-o", "--output")
    b2 = bs.add_parser("coupled", help="copula applied to two marginals")
    b2.add_argument("spec")
    b2.add_argument("marginal1")
    b2.add_argument("marginal2", nargs="?")
    b2.add_argument("-o", "--output")
    for x in (b1, b2):
        x.set_defaults(handler=_cmd_build)

    g = sub.add_parser("gaussian", help="correlated bi-free Gaussian family")
    gs = g.add_subparsers(dest="what", required=True)
    g1 = gs.add_parser("density")
    g2 = gs.add_parser("cdf")
    g3 = gs.add_parser("identity")
    g4 = gs.add_parser("verdict")
    for x in (g1, g2, g3, g4):
        x.add_argument("c", type=float)
        x.add_argument("--resolution", type=int, default=101)
        x.add_argument("-o", "--output")
        x.set_defaults(handler=_cmd_gaussian)
    g2.add_argument("--csv")
    g3.add_argument("--xs", default="-2,-1,0,1,2")
    g4.set_defaults(resolution=61)

    e = sub.add_parser("experiment", help="convergence experiments")
    es = e.add_subparsers(dest="what", required=True)
    e1 = es.add_parser("compound-poisson")
    e1.add_argument("--lam", type=float, required=True)
    e1.add_argument("--nu", required=True)
    e1.add_argument("--p", default="0,0")
    e1.add_argument("--max-log2", type=int, default=10)
    e1.add_argument("--limit-output")
    e2 = es.add_parser("doa-copula")
    e2.add_argument("spec")
    e2.add_argument("--pickands")
    e2.add_argument("--n", type=int, default=10000)
    e2.add_argument("--probe", type=int, default=21)
    e3 = es.add_parser("max-stable")
    e3.add_argument("spec", help="Pickands dependence function")
    e3.add_argument("--marginal", required=True)
    e3.add_argument("--marginal2")
    e3.add_argument("--ns", default="2,5,10")
    e3.add_argument("--probe", type=int, default=21)
    for x in (e1, e2, e3):
        x.add_argument("-o", "--output")
        x.add_argument("--summary")
        x.set_defaults(handler=_cmd_experiment)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (SpecError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
