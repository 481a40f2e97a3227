"""One benchmark workload, run in a fresh interpreter by run.py.

    python3 perfbench/workloads.py --probe
    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR

--probe times `import airymax` plus the Hastings-McLeod solve and exits; the
parent takes the median of several probes as the set-up time.  A workload
run repeats whole rounds of its operations until --seconds have passed (at
least one round), then checks every output against the references in
references.py or against properties the method must have.  With --trace 1
it alternates untraced and traced rounds: the per-layer metrics come from the
traced rounds, the tracing overhead from the difference.  The last line of
standard output is one JSON object for the parent.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import airymax  # noqa: E402,F401
from airymax import airy2, cli, finite_n, fredholm, mc, oracles, painleve  # noqa: E402
from airymax.lax import default_zeta_rule  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from collections import namedtuple  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402
from scipy.integrate import simpson  # noqa: E402

import references as ref  # noqa: E402
from tracer import Tracer  # noqa: E402

TWO_23 = 2.0 ** (2.0 / 3.0)
TWO_43 = 2.0 ** (4.0 / 3.0)


def _cli(argv):
    """Run one airymax command; its console summary is not part of the result."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _cli_error(rc):
    return None if rc == 0 else f"exit code {rc}"


def _table(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class Checks:
    """Named pass/fail results with the measured figure beside the bound."""

    def __init__(self):
        self.items = []

    def le(self, name, value, bound):
        self.items.append((name, bool(value <= bound), float(value), float(bound)))

    def true(self, name, ok):
        self.items.append((name, bool(ok), float(ok), 1.0))

    @property
    def ok(self):
        return all(item[1] for item in self.items)


class EdgeGrid:
    """`airymax tw-f1`, `jpdf` and `marginal` at their defaults.

    Batch tabulation: a Fredholm determinant per s (bounded by Airy
    evaluation) and one transport of all f-columns shared by the whole P(s, w)
    grid.  The inputs are the CLI defaults and do not depend on the seed."""

    OP_METRICS = ("tw_f1_s", "jpdf_grid_s", "marginal_s")

    def __init__(self, seed, sol, out):
        self.sol, self.out = sol, out

    def ops(self, r):
        def cmd(name, *argv):
            path = os.path.join(self.out, f"{name}-{r}.csv")
            return name, (lambda: (_cli([*argv, "-o", path]), path)), lambda res: _cli_error(res[0])
        return [cmd("tw_f1", "tw-f1"), cmd("jpdf_grid", "jpdf"), cmd("marginal", "marginal")]

    def op_metrics(self, rounds):
        return {f"{name}_s": statistics.median(rec.dt for recs in rounds for rec in recs if rec.name == name)
                for name in ("tw_f1", "jpdf_grid", "marginal")}

    def check(self, rounds, checks):
        for recs in rounds:
            out = {rec.name: rec.result[1] for rec in recs if rec.error is None}
            if "tw_f1" in out:
                self._check_tw(_table(out["tw_f1"]), checks)
            if "jpdf_grid" in out:
                self._check_jpdf(_table(out["jpdf_grid"]), checks)
            if "marginal" in out:
                self._check_marginal(_table(out["marginal"]), checks)

    def _check_tw(self, t, checks):
        s, f_pl, f_fr = t[:, 0], t[:, 3], t[:, 4]
        checks.le("tw_f1.dual_route_gap", np.max(np.abs(f_pl - f_fr)), 1e-6)
        # moments of the table on [a, b] plus the reference's moments outside
        # it (1 - F1(4) ~ 2e-4 carries ~1e-3 of the mean)
        a, b = s[0], s[-1]
        t1, t2 = ref.tw_goe_tail_moments(a, b)
        m1 = b * f_pl[-1] - a * f_pl[0] - simpson(f_pl, x=s) + t1
        m2 = b * b * f_pl[-1] - a * a * f_pl[0] - 2.0 * simpson(s * f_pl, x=s) + t2
        checks.le("tw_f1.mean_vs_bornemann", abs(m1 - ref.TW_GOE_MEAN), 1e-7)
        checks.le("tw_f1.variance_vs_bornemann", abs(m2 - m1 * m1 - ref.TW_GOE_VARIANCE), 1e-6)

    def _check_jpdf(self, t, checks):
        s = np.unique(t[:, 0])
        w = np.unique(t[:, 1])
        p = t[:, 2].reshape(len(s), len(w))
        checks.le("jpdf.w_symmetry", np.max(np.abs(p - p[:, ::-1])), 1e-12)
        per_s = simpson(p, x=w, axis=1)
        checks.le("jpdf.normalization", abs(simpson(per_s, x=s) - 1.0), 1e-6)
        # int P(s, w) dw = F1'(s) = F1(s) (int_s^inf q^2 + q(s)) / 2
        f1p = painleve.tracy_widom_f1(s, self.sol) * 0.5 * (self.sol.integral_q2(s) + self.sol.q_at(s))
        checks.le("jpdf.w_integral_vs_f1_prime", np.max(np.abs(per_s - f1p)), 1e-6)

    def _check_marginal(self, t, checks):
        w, pw = t[:, 0], t[:, 1]
        fit = w >= 2.5 - 1e-9
        slope = np.polyfit(w[fit] ** 3, -np.log(pw[fit]), 1)[0]
        checks.le("marginal.tail_slope_x12", abs(12.0 * slope - 1.0), 0.15)
        checks.le("marginal.normalization", abs(2.0 * simpson(pw, x=w) - 1.0), 2e-3)


class EdgePoints:
    """`airymax airy2`, then f_function and joint_pdf one point at a time.

    One f point per route f_function can take (plain quadrature, the
    epsilon-ladder, downward transport twice, the large-w rule) and three
    off-grid joint_pdf points.  The seed jitters every point by up to 0.05 in
    s and w, which keeps it inside its route's domain."""

    F_POINTS = [("quadrature", 0.4, 0.9), ("eps_ladder", 0.5, -0.3),
                ("transport", 6.0, -1.0), ("transport", 7.0, -2.0), ("large_w", 0.5, 5.5)]
    PDF_POINTS = [("resolvent", 0.3, 0.7), ("resolvent", -1.2, 1.3), ("large_s", 6.0, 0.5)]
    OP_METRICS = ("airy2_s", "f_point_s", "pdf_point_s")

    def __init__(self, seed, sol, out):
        self.sol, self.out = sol, out
        rng = np.random.default_rng([seed, 2])
        jit = lambda pts: [(k, s + d[0], w + d[1]) for (k, s, w), d in
                           zip(pts, rng.uniform(-0.05, 0.05, (len(pts), 2)))]
        self.f_points = jit(self.F_POINTS)
        self.pdf_points = jit(self.PDF_POINTS)
        # f_function and joint_pdf read only the solution and the zeta rule
        # from their psi argument; building the full PsiGrid is not needed
        rule = default_zeta_rule()
        self.psi = SimpleNamespace(painleve=sol, zeta_nodes=rule.nodes, zeta_weights=rule.weights)

    def ops(self, r):
        path = os.path.join(self.out, f"airy2-{r}.csv")
        ops = [("airy2", lambda: (_cli(["airy2", "-o", path]), path), lambda res: _cli_error(res[0]))]
        for pt in self.f_points:
            ops.append(("f_point", lambda pt=pt: (pt, airy2.f_function(pt[1], pt[2], self.psi)), None))
        for pt in self.pdf_points:
            ops.append(("pdf_point", lambda pt=pt: (pt, airy2.joint_pdf(pt[1], pt[2], self.psi, sol=self.sol)),
                        None))
        return ops

    def op_metrics(self, rounds):
        def med(name):
            return statistics.median(rec.dt for recs in rounds for rec in recs if rec.name == name)
        return {"airy2_s": med("airy2"), "f_point_s": med("f_point"), "pdf_point_s": med("pdf_point")}

    def check(self, rounds, checks):
        oracle = {}
        for recs in rounds:
            ok = [rec for rec in recs if rec.error is None]
            for rec in (x for x in ok if x.name == "airy2"):
                for m, t, dens, *_ in _table(rec.result[1]):
                    if (m, t) not in oracle:
                        oracle[(m, t)] = fredholm.mfqr_jpdf(m, t)
                    checks.le(f"airy2({m:g},{t:g}).vs_resolvent", abs(dens - oracle[(m, t)]), 1e-3)
            for (kind, s, w), val in (rec.result for rec in ok if rec.name == "f_point"):
                label = f"f({s:.3f},{w:.3f}).{kind}"
                if kind == "transport":
                    closed = float(airy2.f_closed(s, w))
                    checks.le(label + "_vs_closed_airy_rel", abs(val - closed) / abs(closed), 1e-4)
                else:
                    prof = airy2.transport_profile([w], self.sol, s_lo=min(s, -0.5) - 0.25)
                    checks.le(label + "_vs_transport", abs(val - prof.value(s, w)), 2e-4)
            for (kind, s, w), val in (rec.result for rec in ok if rec.name == "pdf_point"):
                label = f"joint_pdf({s:.3f},{w:.3f})"
                if kind == "large_s":
                    closed = float(airy2.joint_pdf_large_s(s, w))
                    checks.le(label + ".vs_large_s_rel", abs(val - closed) / abs(closed), 1e-2)
                else:
                    res = fredholm.mfqr_jpdf(s / TWO_23, w / TWO_43) / 4.0
                    checks.le(label + ".vs_resolvent", abs(val - res), 1e-3)


class FiniteN:
    """`airymax finite-n -N 2` and `-N 3` with the convergence table,
    exact_marginals(N) for N = 1, 2, 3 and recurrence_table(30, 904).

    Exact discrete-orthogonal-polynomial sums; the last call takes the
    arbitrary-precision Stieltjes path.  The package inputs are fixed; the seed
    picks the points where the N = 1 law is compared with Kennedy-Chung."""

    OP_METRICS = ("finite_n_cli_s", "exact_marginals_s", "recurrence_s")

    def __init__(self, seed, sol, out):
        self.out = out
        self.m_points = np.sort(np.random.default_rng([seed, 3]).uniform(0.6, 3.0, 16))

    def ops(self, r):
        ops = []
        for N in (2, 3):
            table = os.path.join(self.out, f"finite-n-{N}-{r}.csv")
            conv = os.path.join(self.out, f"convergence-{N}-{r}.csv")
            argv = ["finite-n", "-N", str(N), "-o", table, "--convergence-output", conv]
            ops.append(("finite_n_cli", lambda argv=argv, table=table, conv=conv, N=N: (_cli(argv), table, conv, N),
                        lambda res: _cli_error(res[0])))
        for N in (1, 2, 3):
            ops.append(("exact_marginals", lambda N=N: (N, mc.exact_marginals(N)), None))
        ops.append(("recurrence", lambda: finite_n.recurrence_table(30, 904), None))
        return ops

    def op_metrics(self, rounds):
        def total(name):  # per round, summed over the round's calls
            return statistics.median(sum(rec.dt for rec in recs if rec.name == name) for recs in rounds)
        return {"finite_n_cli_s": total("finite_n_cli"), "exact_marginals_s": total("exact_marginals"),
                "recurrence_s": total("recurrence")}

    def check(self, rounds, checks):
        kc = ref.kennedy_chung_cdf(self.m_points)
        fn1 = np.array([finite_n.cdf_max_finite_n(m, 1) for m in self.m_points])
        checks.le("cdf_max_finite_n(N=1).vs_kennedy_chung", np.max(np.abs(fn1 - kc)), 1e-12)
        double = finite_n.recurrence_table(30, 400)
        for recs in rounds:
            for rec in recs:
                if rec.error is not None:
                    continue
                if rec.name == "finite_n_cli":
                    self._check_cli(*rec.result[1:], checks)
                elif rec.name == "exact_marginals":
                    N, (cdf_m, cdf_tau, _) = rec.result
                    x = np.linspace(0.0, 0.49, 50)
                    checks.le(f"exact_marginals({N}).tau_symmetry",
                              np.max(np.abs(cdf_tau(0.5 + x) + cdf_tau(0.5 - x) - 1.0)), 1e-6)
                    if N == 1:
                        checks.le("exact_marginals(1).cdf_vs_kennedy_chung",
                                  np.max(np.abs(cdf_m(self.m_points) - kc)), 1e-4)
                elif rec.name == "recurrence":
                    g = rec.result
                    checks.le("recurrence_table(30,904).vs_double_400",
                              np.max(np.abs(g[1:401] / double[1:401] - 1.0)), 1e-12)

    def _check_cli(self, table, conv, N, checks):
        t = _table(table)
        M, tau, dens, cdf = t.T
        if N <= 2:
            brute = np.array([oracles.brute_force_jpdf(m, u, N) for m, u in zip(M, tau)])
            checks.le(f"finite-n(N={N}).vs_brute_force",
                      np.max(np.abs(dens - brute) - 1e-8 * np.abs(brute)), 1e-13)
        key = {(round(m, 9), round(u, 9)): d for m, u, d in zip(M, tau, dens)}
        asym = max(abs(d - key[(round(m, 9), round(1.0 - u, 9))]) for m, u, d in zip(M, tau, dens))
        checks.le(f"finite-n(N={N}).tau_symmetry_vs_peak", asym / np.max(dens), 1e-10)
        by_m = dict(zip(M, cdf))
        vals = np.array([by_m[m] for m in sorted(by_m)])
        checks.true(f"finite-n(N={N}).cdf_monotone_in_[0,1]",
                    np.all(np.diff(vals) >= 0) and vals[0] >= 0 and vals[-1] <= 1)
        c = _table(conv)
        sups = [np.max(c[c[:, 0] == n, 4]) for n in np.unique(c[:, 0])]
        checks.true(f"finite-n(N={N}).convergence_sup_decreasing", np.all(np.diff(sups) < 0))


class MonteCarlo:
    """sample_ensemble for N = 1 (10,000 steps), N = 2 (8,000 steps) and
    N = 3 (2,000 steps), in chunks of 500, 60 and 20 draws per round.

    Each N = 1 and N = 2 chunk has its own Philox seed derived from (seed,
    round, N).  The N = 3 chunk uses a fixed seed: it fails on every input
    today (_top_eigenpaths_n3 divides 0/0 at t = 0 and t = 1, so every sample is
    (nan, 0.0)) and is counted as a failed operation until that is mended."""

    PLAN = {1: (10000, 500), 2: (8000, 60), 3: (2000, 20)}
    N3_SEED = 3
    OP_METRICS = ("mc_n1_samples_per_s", "mc_n2_samples_per_s")

    def __init__(self, seed, sol, out):
        self.seed = seed

    def setup(self):
        # the exact marginals the checks compare against (set-up, not timed as ops)
        self.exact = {N: mc.exact_marginals(N) for N in (1, 2, 3)}

    def _seed(self, r, N):
        if N == 3:
            return self.N3_SEED
        return int(np.random.SeedSequence([self.seed, r, N]).generate_state(1, np.uint64)[0] >> 1)

    def ops(self, r):
        def nan_error(ens):
            bad = np.isnan(ens.samples).any(axis=1)
            if not bad.any():
                return None
            at_t0 = np.count_nonzero(bad & (ens.argmax_times == 0.0))
            return f"{np.count_nonzero(bad)}/{len(ens)} samples NaN, {at_t0} of them with argmax at t = 0"
        return [(f"mc_n{N}", lambda N=N, st=st, n=n: mc.sample_ensemble(N, st, n, self._seed(r, N)), nan_error)
                for N, (st, n) in self.PLAN.items()]

    def op_metrics(self, rounds):
        return {f"mc_n{N}_samples_per_s": statistics.median(
            self.PLAN[N][1] / rec.dt for recs in rounds for rec in recs if rec.name == f"mc_n{N}")
            for N in (1, 2)}

    def check(self, rounds, checks):
        alpha = 1e-6
        for N, (steps, _) in self.PLAN.items():
            got = [rec.result.samples for recs in rounds for rec in recs
                   if rec.name == f"mc_n{N}" and rec.error is None]
            if not got:
                continue
            samples = np.concatenate(got)
            n = len(samples)
            cdf_m, cdf_tau, _ = self.exact[N]
            if N == 1:
                cdf_m = ref.kennedy_chung_cdf
            # N = 1 is a cycle-shifted bridge: its maximum is the bridge's range
            maxima = samples[:, 0] + ref.monitoring_correction(steps, ends=2 if N == 1 else 1)
            tau = samples[:, 1]
            # DKW bound at level alpha, plus 0.005 for the quadrature of the
            # exact marginals and the O(dt) remainder of the monitoring bias
            bound = ref.ks_bound(n, alpha) + 0.005
            checks.le(f"mc(N={N},n={n}).ks_max", mc.ks_statistic(maxima, cdf_m), bound)
            checks.le(f"mc(N={N},n={n}).ks_tau", mc.ks_statistic(tau, cdf_tau), bound)
            z = abs(np.mean(tau) - 0.5) / (np.std(tau, ddof=1) / math.sqrt(n))
            checks.le(f"mc(N={N},n={n}).mean_tau_z", z, ref.mean_tau_z(alpha))


WORKLOADS = {"edge_grid": EdgeGrid, "edge_points": EdgePoints,
             "finite_n": FiniteN, "monte_carlo": MonteCarlo}


Record = namedtuple("Record", "name dt result error")


def run_round(workload, r, tracer=None):
    records = []
    start = time.perf_counter()
    for name, fn, verify in workload.ops(r):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = fn()
            else:
                with tracer.span("op." + name):
                    result = fn()
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if error is None and verify is not None:
            error = verify(result)
        records.append(Record(name, dt, result, error))
    return records, time.perf_counter() - start


TIMED_LAYERS = ["special.airy", "painleve.solve", "fredholm.f1", "fredholm.mfqr", "lax.psi_grid",
                "lax.psi_at_s", "airy2.transport", "airy2.grid", "airy2.marginal", "airy2.joint_pdf",
                "finite_n.op_table", "finite_n.g", "finite_n.recurrence", "mc.sample",
                "mc.exact_marginals", "cli.write"]
CALL_COUNTED = {"special.airy", "painleve.solve", "fredholm.f1", "fredholm.mfqr", "lax.psi_at_s",
                "airy2.transport", "airy2.marginal", "finite_n.op_table", "finite_n.g"}


def per_layer(tracer, n_rounds, op_metrics):
    times = tracer.layer_times()
    counts = tracer.counts

    def t(name, k):
        return times.get(name, (0, 0.0, 0.0))[k] / n_rounds

    out = {}
    for layer in TIMED_LAYERS:
        out[layer + "_s"] = t(layer, 1)
        if layer in CALL_COUNTED:
            out[layer + "_calls"] = t(layer, 0)
    out["airy2.f_self_s"] = t("airy2.f", 2)
    for key in ("special.airy_points", "lax.psi_grid_mb", "lax.zeta_nodes", "airy2.transport_columns",
                "finite_n.dd_tables", "mc.gaussians_drawn", "cli.rows_written"):
        out[key] = counts.get(key, 0.0) / n_rounds
    points = counts.get("airy2.points", 0.0)
    out["airy2.transport_columns_per_point"] = counts.get("airy2.transport_columns", 0.0) / points if points else 0.0
    out["trace.spans"] = len(tracer.spans) / n_rounds
    for wl in WORKLOADS.values():  # every workload reports every op metric, 0 if not its own
        out.update({"op." + k: 0.0 for k in wl.OP_METRICS})
    out.update({"op." + k: v for k, v in op_metrics.items()})
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--probe", action="store_true")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    p.add_argument("--spans", help="file for the raw spans of a traced run")
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    sol = painleve.solve_hastings_mcleod()
    import_solve_s = IMPORT_S + (time.perf_counter() - t0)
    if args.probe:
        print(json.dumps({"import_solve_s": import_solve_s}))
        return 0

    ref.self_test()
    workload = WORKLOADS[args.workload](args.seed, sol, args.out)
    t0 = time.perf_counter()
    if hasattr(workload, "setup"):
        workload.setup()
    extra_setup_s = time.perf_counter() - t0

    tracer = Tracer() if args.trace else None
    plain, traced = [], []            # (records, wall seconds) per round
    deadline = time.perf_counter() + args.seconds
    r = 0
    while True:
        if tracer is not None and r % 2 == 1:
            tracer.install()
            try:
                traced.append(run_round(workload, r, tracer))
            finally:
                tracer.uninstall()
        else:
            plain.append(run_round(workload, r))
        r += 1
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    all_rounds = [recs for recs, _ in plain + traced]
    checks = Checks()
    workload.check(all_rounds, checks)
    failures = [f"{rec.name}: {rec.error}" for recs in all_rounds for rec in recs if rec.error]
    result = {
        "workload": args.workload,
        "correct": checks.ok,
        "attempted": sum(len(recs) for recs in all_rounds),
        "failed": len(failures),
        "rounds": [len(plain), len(traced)],
        "import_solve_s": import_solve_s,
        "extra_setup_s": extra_setup_s,
        "round_s": statistics.median(wall for _, wall in plain),
        "peak_rss_mb": peak_rss_mb,
        "ops": workload.op_metrics([recs for recs, _ in plain]),
        "checks": checks.items,
        "failures": sorted(set(failures)),
    }
    if tracer is not None:
        layer = per_layer(tracer, len(traced), workload.op_metrics([recs for recs, _ in traced]))
        untraced = result["round_s"]
        layer["trace.overhead_pct"] = 100.0 * (statistics.median(w for _, w in traced) - untraced) / untraced
        result["per_layer"] = layer
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
