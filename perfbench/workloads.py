"""Seeded job pools for the four benchmark workloads.

Every input is generated here from the workload seed; the library only ever
receives the generated objects.  A pool is a list of :class:`Job` in the
order the closed loop runs them.  Job kinds rotate through fixed size
ladders and only the contents (atom positions, masses, copula parameters,
correlations) come from the seed, so two seeds give pools of the same cost
profile and the figures of different seeds can be compared.

Each job returns its result from ``run``; ``check`` inspects that result and
raises :class:`CheckFailed` when it is wrong.  The loop times ``run`` only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import bifreemax as bfm
from bifreemax import cli, extremes, serialize

class CheckFailed(Exception):
    """A job's output failed its correctness check."""


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


def _probe_values(F, probe):
    xs, ys = probe
    return np.asarray(F.eval(xs[:, None], ys[None, :]))


ROUNDS = 10


def _ladder(lo, hi, tiny):
    """Sizes from lo to hi in ROUNDS even steps; the two smallest if tiny.

    Many distinct sizes keep the latency distribution free of gaps, so its
    percentiles do not jump between job classes from run to run."""
    sizes = [int(round(lo + (hi - lo) * r / (ROUNDS - 1))) for r in range(ROUNDS)]
    return sizes[:2] if tiny else sizes


# ---------------------------------------------------------------------------
# atomic: step DFs of atomic laws and exponent-measure DFs
# ---------------------------------------------------------------------------

def _law(rng, k, span=3.0):
    pts = rng.uniform(0.0, span, size=(k, 2))
    return bfm.DiscreteMeasure(pts, rng.dirichlet(np.ones(k)))


def _exponent_measure(rng, k, span=3.0):
    pts = rng.uniform(0.05, span, size=(k, 2))
    masses = rng.uniform(0.1, 1.0, size=k)
    masses *= rng.uniform(0.3, 0.95) / masses.sum()
    return bfm.DiscreteMeasure(pts, masses)


def _sorted_atoms(m, floor=0.0):
    keep = m.masses > floor
    pts, ms = m.points[keep], m.masses[keep]
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    return pts[order], ms[order]


def _maxid_grid(F, n=41):
    # a coarse lattice reaching past both saturation points
    return (np.linspace(F.lower[0] - 0.2, F.marginal1.saturation + 0.5, n),
            np.linspace(F.lower[1] - 0.2, F.marginal2.saturation + 0.5, n))


def _expect_maxid(F):
    v = bfm.is_bifree_maxid(F, tol=1e-9, grid=_maxid_grid(F))
    expect(v.status == "yes", f"exponent-measure DF judged {v.status}: {v.reason}")


def _law_round_trip(law):
    def run():
        F = bfm.bdf_from_law(law)
        return F, bfm.law_from_bdf(F)

    def check(result):
        _, back = result
        pts, ms = _sorted_atoms(law)
        bpts, bms = _sorted_atoms(back, floor=1e-12)
        expect(bpts.shape == pts.shape and np.array_equal(bpts, pts),
               "round trip moved or lost atoms")
        expect(np.max(np.abs(bms - ms)) <= 1e-12, "round trip changed masses")
        stray = back.masses[back.masses <= 1e-12].sum()
        expect(stray <= 1e-12, f"round trip created {stray:.2e} stray mass")

    return run, check


def _grid_maxconv(law1, law2):
    def run():
        F, G = bfm.bdf_from_law(law1), bfm.bdf_from_law(law2)
        return F, G, bfm.bifree_maxconv(F, G)

    def check(result):
        F, G, H = result
        for axis in (1, 2):
            knots = H.xknots if axis == 1 else H.yknots
            h = getattr(H, f"marginal{axis}").eval(knots)
            f = getattr(F, f"marginal{axis}").eval(knots)
            g = getattr(G, f"marginal{axis}").eval(knots)
            expect(np.array_equal(h, np.maximum(f + g - 1.0, 0.0)),
                   f"marginal {axis} breaks (F + G - 1)_+")
        d = bfm.sup_distance(H, bfm.bifree_maxconv(G, F), (H.xknots, H.yknots))
        expect(d <= 1e-9, f"commutativity off by {d:.2e}")

    return run, check


def _measure_eval(F, probe):
    def run():
        return bfm.materialize(F, probe[0], probe[1])

    def check(grid):
        grid.validate(tol=1e-9)
        _expect_maxid(F)

    return run, check


def _compound_poisson(lam, nu, ns):
    def run():
        return bfm.compound_poisson_limit(lam, nu, (0.0, 0.0), ns=ns)

    def check(result):
        limit, report = result
        d = np.asarray(report.distances)
        expect(np.all(np.isfinite(d)) and np.all((d >= 0) & (d <= 1)),
               "ladder distances leave [0, 1]")
        _expect_maxid(limit)

    return run, check


def _root_power(F, probe, ns=(2, 3, 5)):
    def run():
        return [_probe_values(bfm.bifree_power(bfm.bifree_power(F, 1.0 / n), n),
                              probe) for n in ns]

    def check(values):
        ref = _probe_values(F, probe)
        worst = max(float(np.max(np.abs(v - ref))) for v in values)
        expect(worst <= 1e-9, f"root-then-power off by {worst:.2e}")

    return run, check


def atomic_jobs(rng, tiny=False):
    probe301 = (np.linspace(-0.2, 3.5, 301),) * 2
    probe101 = (np.linspace(-0.2, 3.5, 101),) * 2
    jobs = []
    for k_law, k_conv, k_tau, k_nu, k_root in zip(
            _ladder(100, 300, tiny), _ladder(100, 300, tiny),
            _ladder(100, 500, tiny), _ladder(20, 60, tiny),
            _ladder(20, 100, tiny)):
        jobs.append(Job("law_round_trip", *_law_round_trip(_law(rng, k_law))))
        jobs.append(Job("grid_maxconv", *_grid_maxconv(_law(rng, k_conv),
                                                       _law(rng, k_conv))))
        tau = bfm.from_exponent_measure(_exponent_measure(rng, k_tau), (0.0, 0.0))
        jobs.append(Job("measure_eval", *_measure_eval(tau, probe301)))
        lam = float(rng.uniform(0.3, 0.9))
        ns = [2 ** j for j in range(1, 4 if tiny else 7)]
        jobs.append(Job("compound_poisson",
                        *_compound_poisson(lam, _law(rng, k_nu), ns)))
        root = bfm.from_exponent_measure(_exponent_measure(rng, k_root), (0.0, 0.0))
        jobs.append(Job("root_power", *_root_power(root, probe101)))
    return jobs


# ---------------------------------------------------------------------------
# lazy: closed-form DFs, lazy convolution chains, verdict sweeps
# ---------------------------------------------------------------------------

# (copula, expected membership) points of the parameter-boundary table that
# the acceptance suite pins for check_maxid_coupling
def _coupling_table():
    cases = [(bfm.AMHCopula(th), 0.0 <= th <= 1.0)
             for th in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    cases += [(bfm.FGMCopula(th), 0.0 <= th <= 1.0)
              for th in (-0.5, 0.0, 0.5, 1.0)]
    cases += [(bfm.ClaytonCopula(p), p <= 1.0)
              for p in (0.25, 0.5, 1.0, 1.5, 2.0)]
    cases += [(bfm.LomaxCopula(p, th),
               th == 0.0 or (0.0 <= th <= 1.0 and p <= 1.0))
              for p in (0.5, 1.0, 2.0) for th in (-0.5, 0.0, 0.5, 1.0)]
    return cases


def _coupled_base(rng, i):
    family = i % 3
    if family == 0:
        C = bfm.AMHCopula(rng.uniform(0.0, 1.0))
    elif family == 1:
        C = bfm.LogisticCopula(rng.uniform(1.2, 3.0))
    else:
        C = bfm.GumbelMixedCopula(rng.uniform(0.2, 1.0))
    if i % 2 == 0:
        m1 = bfm.uniform_df(0.0, rng.uniform(0.5, 2.0))
        m2 = bfm.uniform_df(0.0, rng.uniform(0.5, 2.0))
    else:
        m1 = bfm.pareto_free_df(rng.uniform(0.8, 2.5))
        m2 = bfm.pareto_free_df(rng.uniform(0.8, 2.5))
    return bfm.CoupledBDF(C, m1, m2)


def _span_probe(F, n):
    out = []
    for m in (F.marginal1, F.marginal2):
        lo = m.quantile_exceed(0.0)
        hi = m.saturation if np.isfinite(m.saturation) else \
            m.quantile_exceed(0.99)
        out.append(np.linspace(lo - 0.1, hi + 0.1, n))
    return out[0], out[1]


def _chain(base, depth, probe):
    def run():
        H = base
        for _ in range(depth):
            H = bfm.bifree_maxconv(H, base)
        return _probe_values(H, probe)

    def check(values):
        ref = _probe_values(bfm.bifree_power(base, depth + 1), probe)
        d = float(np.max(np.abs(values - ref)))
        expect(d <= 1e-9, f"depth-{depth} chain off the power by {d:.2e}")

    return run, check


def _coupling_sweep(cases, mode):
    def run():
        return [bfm.check_maxid_coupling(C, mode=mode).member for C, _ in cases]

    def check(members):
        wrong = [(C.family, C.params) for (C, want), got in zip(cases, members)
                 if got != want]
        expect(not wrong, f"{mode}-mode verdicts disagree with the table: {wrong}")

    return run, check


def _copula_attraction(C, A, probe):
    def run():
        return bfm.doa_iterate(C, 10 ** 4, probe)

    def check(values):
        target = bfm.ev_copula(A).eval(probe[0][:, None], probe[1][None, :])
        d = float(np.max(np.abs(values - target)))
        expect(d <= 1e-3, f"{C.family} iterate {d:.2e} from its limit")

    return run, check


def _stability(A, alpha, ns, probe):
    F = extremes.bifree_ev(bfm.pareto_free_df(alpha), bfm.pareto_free_df(alpha), A)
    seq = extremes.default_normalizers(F.marginal1, F.marginal2)

    def run():
        return bfm.check_max_stable(F, seq, ns, probe)

    def check(report):
        expect(report.max_distance <= 1e-12,
               f"stability distance {report.max_distance:.2e}")

    return run, check


def _attraction(A, ns, probe):
    g = extremes.gev_df(xi=1.0, m=1.0, sigma=1.0)
    H = bfm.CoupledBDF(bfm.BiFreeCopula(A), g, g)
    G = extremes.classical_mev(g, g, A)
    F = extremes.bifree_ev(bfm.pareto_free_df(1.0), bfm.pareto_free_df(1.0), A)
    seq = extremes.default_normalizers(g, g)

    def run():
        return bfm.doa_experiment(H, seq, G, F, ns, probe)

    def check(report):
        for series in ("classical", "bifree"):
            vals = [v for _, v in report.series(series)]
            expect(vals[-1] < 5e-3 and vals[-1] < 0.05 * vals[0],
                   f"{series} attraction stalls at {vals[-1]:.2e}")

    return run, check


def _maxid_decisions(F):
    def run():
        return bfm.is_bifree_maxid(F).status, bfm.classical_maxid_check(F).status

    def check(statuses):
        expect(statuses == ("yes", "yes"), f"divisible DF judged {statuses}")

    return run, check


def lazy_jobs(rng, tiny=False):
    table = _coupling_table()  # every family in it is smooth
    jobs = []
    depths = _ladder(2, 16, tiny)
    probes = _ladder(41, 101, tiny)
    for i, (depth, n) in enumerate(zip(depths, probes)):
        base = _coupled_base(rng, i)
        jobs.append(Job("coupled_chain",
                        *_chain(base, depth, _span_probe(base, n))))
        k = int(rng.integers(2, 9))
        tau = bfm.from_exponent_measure(_exponent_measure(rng, k), (0.0, 0.0))
        jobs.append(Job("measure_chain",
                        *_chain(tau, depth, _span_probe(tau, n))))
        grid = bfm.bdf_from_law(_law(rng, int(rng.integers(2, 9))))
        jobs.append(Job("grid_chain", *_chain(
            grid, depth, (np.linspace(-0.2, 3.2, n),) * 2)))
        # alternate halves of the table: every pass checks all of it, and
        # the cost of a pass does not depend on the seed
        half = slice(0, len(table) // 2) if i % 2 else slice(len(table) // 2, None)
        jobs.append(Job("coupling_sweep", *_coupling_sweep(table[half], "grid")))
        jobs.append(Job("coupling_sweep", *_coupling_sweep(table[half], "smooth")))
        theta = float(rng.uniform(0.2, 1.0))
        jobs.append(Job("copula_attraction", *_copula_attraction(
            bfm.GumbelMixedCopula(theta), bfm.gumbel_mixed_pickands(theta),
            (np.linspace(0, 1, 101),) * 2)))
        m = float(rng.uniform(1.2, 3.0))
        A = bfm.logistic_pickands(m) if i % 2 else \
            bfm.gumbel_mixed_pickands(rng.uniform(0.2, 1.0))
        jobs.append(Job("max_stability", *_stability(
            A, float(rng.choice((1.0, 2.0))), (2, 5, 10),
            (np.linspace(1.0, 50.0, 40),) * 2)))
        jobs.append(Job("attraction", *_attraction(
            A, [2 ** j for j in range(1, 11)],
            (np.linspace(0.8, 6, 13),) * 2)))
        jobs.append(Job("maxid_decision", *_maxid_decisions(
            _coupled_base(rng, 2 * i) if i % 2 else tau)))
    return jobs


# ---------------------------------------------------------------------------
# gaussian: the correlated bi-free Gaussian family
# ---------------------------------------------------------------------------

def _cdf(c, resolution):
    def run():
        return bfm.cdf_grid(c, resolution=resolution)

    def check(F):
        expect(F.values.shape == (resolution, resolution), "wrong grid shape")
        F.validate(tol=1e-9)

    return run, check


def _verdict(c):
    want = "maxid" if c == 0.0 else "not-maxid"

    def run():
        return bfm.maxid_verdict(c)

    def check(v):
        expect(v.status == want, f"c={c}: verdict {v.status}, expected {want}")
        expect(want == "maxid" or v.witness is not None, f"c={c}: no witness")

    return run, check


def _identity_batch(cs, xs):
    def run():
        return [bfm.identity_check(c, x) for c, x in zip(cs, xs)]

    def check(reports):
        worst = max(r.error for r in reports)
        expect(worst <= 1e-6, f"kernel identity off by {worst:.2e}")

    return run, check


def _comparison(c, x, y):
    def run():
        return bfm.comparison_integral(c, x, y)

    def check(value):
        # negative for c < 0 and positive for c > 0 at interior points
        expect(np.sign(value) == np.sign(c),
               f"comparison integral {value:.2e} has the wrong sign for c={c}")

    return run, check


def gaussian_jobs(rng, tiny=False):
    sweep = [round(c, 1) for c in np.arange(-0.7, 0.75, 0.1)]
    sweep = [sweep[j] for j in rng.permutation(len(sweep))]
    jobs = []
    resolutions = _ladder(61, 161, tiny)
    per_round = -(-len(sweep) // len(resolutions))
    for i, res in enumerate(resolutions):
        jobs.append(Job("cdf_grid", *_cdf(float(rng.uniform(-0.7, 0.7)), res)))
        for c in sweep[per_round * i: per_round * (i + 1)]:
            jobs.append(Job("maxid_verdict", *_verdict(float(c))))
        jobs.append(Job("identity_check", *_identity_batch(
            rng.uniform(-0.7, 0.7, 8), rng.uniform(-2.0, 2.0, 8))))
        sign = 1.0 if i % 2 else -1.0
        jobs.append(Job("comparison_integral", *_comparison(
            sign * float(rng.uniform(0.1, 0.7)),
            float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5)))))
    return jobs


# ---------------------------------------------------------------------------
# cli: in-process command chains over files
# ---------------------------------------------------------------------------

def _measure_file(path, m):
    atoms = [[float(x), float(y), float(w)] for (x, y), w in zip(m.points, m.masses)]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"kind": "measure", "atoms": atoms}, fh)


def _chain_steps(rng, i):
    """One chain of CLI calls as (name, argv, expected exit, artifacts)."""
    family = i % 3
    if family == 0:
        copula = f"amh:theta={rng.uniform(0.0, 1.0)!r}"
    elif family == 1:
        copula = f"logistic:m={rng.uniform(1.2, 3.0)!r}"
    else:
        copula = f"gumbel-mixed:theta={rng.uniform(0.2, 1.0)!r}"
    marginal = f"uniform:0,{rng.uniform(0.5, 2.0)!r}"
    tau = _exponent_measure(rng, 10 + 10 * i)
    nu = _law(rng, 8 + 4 * i)
    c = float(rng.uniform(-0.7, 0.7))
    lam = float(rng.uniform(0.3, 0.9))
    pickands = f"logistic:m={rng.uniform(1.2, 3.0)!r}"
    pareto = f"pareto:alpha={float(rng.choice((1.0, 2.0)))!r}"
    steps = [
        ("build_coupled", ["--grid", "201", "build", "coupled", copula,
                           marginal, "-o", "F.json"], 0, ["F.json"]),
        ("convolve", ["convolve", "@F.json", "@F.json", "-o", "H.json",
                      "--csv", "H.csv"], 0, ["H.json", "H.csv"]),
        ("power", ["power", "@H.json", "2", "-o", "P.json"], 0, ["P.json"]),
        ("transform_ratio", ["transform", "ratio", "@P.json", "-o", "ratio.csv"],
         0, ["ratio.csv"]),
        ("transform_tail", ["transform", "tail", "@P.json", "-o", "tail.csv"],
         0, ["tail.csv"]),
        ("check_maxid", ["check", "maxid", "@P.json", "-o", "maxid.json"], 0,
         ["maxid.json"]),
        ("check_classical", ["check", "classical-maxid", "@P.json", "-o",
                             "classical.json"], 0, ["classical.json"]),
        ("check_copula", ["check", "copula", copula, "-o", "copula.json"], 0,
         ["copula.json"]),
        ("build_measure", ["build", "from-measure", "@tau.json", "--lower",
                           "0,0", "-o", "M.json"], 0, ["M.json"]),
        ("gaussian_cdf", ["gaussian", "cdf", repr(c), "-o", "G.json"], 0,
         ["G.json"]),
        ("compound_poisson", ["experiment", "compound-poisson", "--lam",
                              repr(lam), "--nu", "@nu.json", "--max-log2", "6",
                              "-o", "cp.csv", "--summary", "cp.json"], 0,
         ["cp.csv", "cp.json"]),
        ("max_stable", ["experiment", "max-stable", pickands, "--marginal",
                        pareto, "-o", "ms.csv", "--summary", "ms.json"], 0,
         ["ms.csv", "ms.json"]),
    ]
    return tau, nu, steps


def _reload(path):
    if path.endswith(".csv"):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        expect(len(lines) > 1 and "," in lines[0], f"{path}: empty CSV")
        width = lines[0].count(",")
        expect(all(line.count(",") == width for line in lines),
               f"{path}: ragged CSV")
        return
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if obj.get("kind") == "grid2d":
        serialize.load_json(path)
    elif os.path.basename(path) == "ms.json":
        expect(obj["max_distance"] <= 1e-12,
               f"max-stable distance {obj['max_distance']:.2e}")


def _cli_call(workdir, argv, want, artifacts, digests, key):
    def run():
        out = io.StringIO()
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = cli.main(list(argv))
        finally:
            os.chdir(cwd)
        return code, out.getvalue()

    def check(result):
        code, text = result
        expect(code == want, f"{argv[:3]} exited {code}, expected {want}: "
                             f"{text[-200:]}")
        for name in artifacts:
            path = os.path.join(workdir, name)
            _reload(path)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            # the first chain of a pair records, its twin must match
            first = digests.setdefault((key, name), digest)
            expect(first == digest, f"{name} differs between identical chains")

    return run, check


def cli_jobs(rng, workdir, tiny=False):
    """CLI chains run twice each, in twin directories under ``workdir``."""
    digests = {}
    jobs = []
    for i in range(2 if tiny else 3):
        tau, nu, steps = _chain_steps(rng, i)
        if tiny:
            steps = steps[:3] + steps[-1:]
        for twin in ("a", "b"):
            d = os.path.join(workdir, f"chain{i}{twin}")
            os.makedirs(d, exist_ok=True)
            _measure_file(os.path.join(d, "tau.json"), tau)
            _measure_file(os.path.join(d, "nu.json"), nu)
            for name, argv, want, artifacts in steps:
                jobs.append(Job(name, *_cli_call(d, argv, want, artifacts,
                                                 digests, (i, name))))
    return jobs


def build(workload, rng, workdir, tiny=False):
    """The job pool of ``workload`` in loop order."""
    if workload == "cli":
        return cli_jobs(rng, workdir, tiny)
    return {"atomic": atomic_jobs, "lazy": lazy_jobs,
            "gaussian": gaussian_jobs}[workload](rng, tiny)
