"""Command-line front end: tabulate the distributions, run the validation
suite, and emit plot-ready CSV/JSON artifacts."""

import argparse
import csv
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import airy2, fredholm, mc
from .errors import DomainError
from .finite_n import cdf_max_finite_n, jpdf_finite_n, large_deviation_eval
from .painleve import solve_hastings_mcleod, tracy_widom_f1

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2
EXIT_VALIDATION = 3


def _fmt(x):
    return format(float(x), ".17g")


def write_csv(path, header, rows):
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) if isinstance(v, (int, float, np.floating)) else v
                        for v in row])
    os.replace(tmp, path)


def write_json(path, payload, columns=None):
    doc = {"schema": SCHEMA_VERSION, "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "columns": columns or {}, "data": payload}
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1, default=float)
    os.replace(tmp, path)


def _solution():
    return solve_hastings_mcleod()


def cmd_tw_f1(args):
    if args.s_min >= args.s_max or args.step <= 0:
        raise DomainError("need s_min < s_max and step > 0")
    sol = _solution()
    s = np.round(np.arange(args.s_min, args.s_max + args.step / 2, args.step), 12)
    pl = tracy_widom_f1(s, sol)
    fr = np.array([fredholm.f1_fredholm(v) for v in s])
    q = sol.q_at(s)
    qp = sol.q_prime_at(s)
    rows = [(si, qi, qpi, a, b, abs(a - b))
            for si, qi, qpi, a, b in zip(s, q, qp, pl, fr)]
    header = ["s", "q", "q_prime", "f1_painleve", "f1_fredholm", "abs_diff"]
    _emit(args, header, rows, {
        "q": "Hastings-McLeod solution of Painleve II",
        "q_prime": "its derivative",
        "f1_painleve": "GOE Tracy-Widom CDF from the Painleve II integral route",
        "f1_fredholm": "same CDF as an Airy-kernel Fredholm determinant",
        "abs_diff": "dual-route discrepancy"})
    dmax = max(r[5] for r in rows)
    print(f"rows: {len(rows)}  max discrepancy: {dmax:.3e}")
    return EXIT_OK


def cmd_jpdf(args):
    sol = _solution()
    grid = airy2.build_joint_density_grid(sol, s_lo=args.s_min, s_hi=args.s_max,
                                          s_step=args.s_step, w_max=args.w_max,
                                          w_step=args.w_step)
    rows = [(s, w, grid.values[i, j])
            for i, s in enumerate(grid.s_grid) for j, w in enumerate(grid.w_grid)]
    _emit(args, ["s", "w", "density"], rows, {
        "density": "joint density of rescaled max height and argmax time"})
    print(f"grid {len(grid.s_grid)} x {len(grid.w_grid)}; "
          f"normalization estimate {grid.normalization_estimate:.6f}")
    return EXIT_OK


def cmd_marginal(args):
    sol = _solution()
    grid = airy2.build_joint_density_grid(sol, w_max=max(args.w_max, 4.25))
    ws = np.round(np.arange(0.0, args.w_max + args.w_step / 2, args.w_step), 12)
    pw = airy2.marginal_w(ws, grid)
    fit = np.arange(2.5, 4.001, 0.25)
    pf = airy2.marginal_w(fit, grid)
    slope = float(np.polyfit(fit ** 3, -np.log(pf), 1)[0])
    rows = list(zip(ws, pw))
    _emit(args, ["w", "marginal_density"], rows,
          {"marginal_density": "argmax-time marginal of the joint density"})
    print(f"fitted cubic tail coefficient: {slope:.6f} "
          f"(x 12 = {12 * slope:.4f}, target 1)")
    return EXIT_OK


def cmd_airy2(args):
    sol = _solution()
    rows = []
    for (m, t) in [(0.0, 0.0), (0.5, 0.5), (1.0, 0.25), (0.5, -0.5), (1.0, 0.0)]:
        ours = airy2.airy2_jpdf(m, t, sol=sol)
        oracle = fredholm.mfqr_jpdf(m, t)
        rows.append((m, t, ours, oracle, abs(ours - oracle)))
    _emit(args, ["m", "t", "density", "resolvent_oracle", "abs_diff"], rows, {
        "density": "joint density of (max, argmax) of the parabola-shifted Airy2 process",
        "resolvent_oracle": "independent double-integral resolvent evaluation"})
    print(f"max cross-check discrepancy: {max(r[4] for r in rows):.3e}")
    return EXIT_OK


def cmd_finite_n(args):
    sol = _solution()
    N = args.walkers
    rows = []
    for M in np.round(np.arange(args.m_min, args.m_max + args.m_step / 2, args.m_step), 12):
        for tau in np.round(np.arange(0.1, 0.91, 0.1), 12):
            rows.append((M, tau, jpdf_finite_n(M, tau, N), cdf_max_finite_n(M, N)))
    _emit(args, ["M", "tau", "joint_density", "cdf_max"], rows, {
        "joint_density": f"exact joint density at N = {N}",
        "cdf_max": "cumulative distribution of the maximal height"})
    conv_rows = []
    sups = []
    for NN in (8, 16, 32):
        sup = 0.0
        for s in np.arange(-4.0, 2.001, 0.2):
            M = np.sqrt(2.0 * NN) * (1.0 + s / (2.0 ** (7.0 / 3.0) * NN ** (2.0 / 3.0)))
            fn_val = cdf_max_finite_n(M, NN)
            f1_val = float(tracy_widom_f1(s, sol))
            conv_rows.append((NN, s, fn_val, f1_val, abs(fn_val - f1_val)))
            sup = max(sup, abs(fn_val - f1_val))
        sups.append((NN, sup))
    if args.convergence_output:
        write_csv(args.convergence_output,
                  ["N", "s", "cdf_rescaled", "f1", "abs_diff"], conv_rows)
    print("edge-law convergence sup-distance:",
          "  ".join(f"N={n}: {d:.4f}" for n, d in sups))
    return EXIT_OK


def cmd_ldev(args):
    rows = []
    for c in np.round(np.arange(0.1, 1.001, args.c_step), 12):
        for u in np.round(np.arange(-0.4, 0.4001, args.u_step), 12):
            p = large_deviation_eval(c, u, args.M)
            rows.append((c, u, p.y_star, p.phi_star, p.phi_pp, p.varphi,
                         p.log_jpdf_estimate))
    _emit(args, ["c", "u", "y_star", "phi_star", "phi_pp", "varphi", "log_jpdf"],
          rows, {"varphi": "large-deviation rate of the joint density"})
    print(f"{len(rows)} rate-function samples")
    return EXIT_OK


def cmd_mc(args):
    ens = mc.sample_ensemble(args.walkers, args.steps, args.samples, args.seed)
    if args.dump:
        mc.save_ensemble(ens, args.dump)
    summary = mc.extreme_stats(ens)
    if args.histogram:
        em, et = summary.hist_edges_m, summary.hist_edges_tau
        hrows = [(em[i], em[i + 1], et[j], et[j + 1],
                  int(summary.hist_counts[i, j]), ens.seed)
                 for i in range(len(em) - 1) for j in range(len(et) - 1)]
        write_csv(args.histogram,
                  ["m_lo", "m_hi", "tau_lo", "tau_hi", "count", "seed"], hrows)
    report = {}
    if args.walkers <= 3:
        cdf_m, cdf_tau, _ = mc.exact_marginals(args.walkers)
        report = {"ks_max": mc.ks_statistic(ens.maxima, cdf_m),
                  "ks_tau": mc.ks_statistic(ens.argmax_times, cdf_tau)}
    rows = [(m, t, ens.seed) for m, t in ens.samples]
    _emit(args, ["max_height", "argmax_time", "seed"], rows,
          {"max_height": "sampled maximum of the top path",
           "argmax_time": "sampled argmax time"})
    print(f"n={len(ens)} seed={ens.seed} method={ens.method} "
          f"acceptance={ens.acceptance_rate:.3g} mean_tau={summary.mean_tau:.4f} "
          + " ".join(f"{k}={v:.4f}" for k, v in report.items()))
    return EXIT_OK


def cmd_validate(args):
    from . import validation
    subset = set(args.only) if args.only else None
    ctx = validation.build_context(mc_samples=args.mc_samples)
    results = validation.run_all(ctx, subset=subset)
    payload = [dataclasses.asdict(r) for r in results]
    if args.output:
        write_json(args.output, payload,
                   columns={"criteria": "pass/fail records of the acceptance suite"})
    return EXIT_OK if all(r.passed for r in results) else EXIT_VALIDATION


def _emit(args, header, rows, column_doc):
    out = getattr(args, "output", None)
    if not out:
        return
    if args.format == "csv":
        write_csv(out, header, rows)
    else:
        write_json(out, [dict(zip(header, map(float, r))) for r in rows], column_doc)


def build_parser():
    p = argparse.ArgumentParser(prog="airymax",
                                description="extreme-value laws of non-intersecting "
                                            "Brownian excursions and the Airy2 endpoint")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--output", "-o", help="output file path")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("tw-f1", help="tabulate the GOE edge law by both routes")
    sp.add_argument("--s-min", type=float, default=-6.0)
    sp.add_argument("--s-max", type=float, default=4.0)
    sp.add_argument("--step", type=float, default=0.1)
    common(sp); sp.set_defaults(fn=cmd_tw_f1)

    sp = sub.add_parser("jpdf", help="joint density grid of the scaling limit")
    sp.add_argument("--s-min", type=float, default=-10.0)
    sp.add_argument("--s-max", type=float, default=8.0)
    sp.add_argument("--s-step", type=float, default=0.05)
    sp.add_argument("--w-max", type=float, default=6.0)
    sp.add_argument("--w-step", type=float, default=0.25)
    common(sp); sp.set_defaults(fn=cmd_jpdf)

    sp = sub.add_parser("marginal", help="argmax-time marginal and its tail fit")
    sp.add_argument("--w-max", type=float, default=4.0)
    sp.add_argument("--w-step", type=float, default=0.1)
    common(sp); sp.set_defaults(fn=cmd_marginal)

    sp = sub.add_parser("airy2", help="rescaled (max, argmax) density with oracle cross-check")
    common(sp); sp.set_defaults(fn=cmd_airy2)

    sp = sub.add_parser("finite-n", help="exact finite-N tables and convergence report")
    sp.add_argument("--walkers", "-N", type=int, default=2)
    sp.add_argument("--m-min", type=float, default=1.0)
    sp.add_argument("--m-max", type=float, default=4.0)
    sp.add_argument("--m-step", type=float, default=0.25)
    sp.add_argument("--convergence-output", help="CSV path for the edge-law comparison table")
    common(sp); sp.set_defaults(fn=cmd_finite_n)

    sp = sub.add_parser("ldev", help="large-deviation rate surfaces")
    sp.add_argument("--M", type=float, default=10.0)
    sp.add_argument("--c-step", type=float, default=0.1)
    sp.add_argument("--u-step", type=float, default=0.1)
    common(sp); sp.set_defaults(fn=cmd_ldev)

    sp = sub.add_parser("mc", help="sample non-intersecting excursions and compare")
    sp.add_argument("--walkers", "-N", type=int, default=1)
    sp.add_argument("--steps", type=int, default=2000)
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--dump", help="binary sample dump path")
    sp.add_argument("--histogram", help="CSV path for the 2-d histogram")
    common(sp); sp.set_defaults(fn=cmd_mc)

    sp = sub.add_parser("validate", help="run the acceptance suite")
    sp.add_argument("--only", type=int, nargs="*", help="criterion indices to run")
    sp.add_argument("--mc-samples", type=int, default=100000)
    common(sp); sp.set_defaults(fn=cmd_validate)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        _validate_common(args)
        return args.fn(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _cleanup_partial(args)
        return EXIT_USAGE
    except Exception as exc:  # computation failure, whatever its type
        print(f"computation failed: {exc}", file=sys.stderr)
        _cleanup_partial(args)
        return EXIT_COMPUTE


def _validate_common(args):
    for attr, lo in (("steps", 2000), ("samples", 1), ("walkers", 1)):
        if hasattr(args, attr) and getattr(args, attr) < lo:
            raise DomainError(f"{attr} must be >= {lo}")


def _cleanup_partial(args):
    out = getattr(args, "output", None)
    if out:
        for path in (out + ".tmp",):
            if os.path.exists(path):
                os.remove(path)


if __name__ == "__main__":
    sys.exit(main())
