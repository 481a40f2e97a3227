"""Command-line front end: tabulate the distributions, run the validation
suite, and emit plot-ready CSV/JSON artifacts."""

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import airy2, fredholm, mc
from .errors import DomainError
from .finite_n import check_table_domain, edge_law_convergence, large_deviation_eval, law_table
from .painleve import export_table, solve_hastings_mcleod

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2
EXIT_VALIDATION = 3

FINITE_N_MAX_ROWS = 4096    # M values of one finite-n grid


def write_csv(path, header, rows):
    """Write header and the numeric rows as CSV, numbers as %.17g (the bytes
    of csv.writer with format(v, ".17g")), in one formatting pass."""
    table = np.asarray(rows, dtype=float).reshape(-1, len(header))
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.write((line * len(table)) % tuple(table.ravel().tolist()))
    os.replace(tmp, path)


def write_json(path, payload, columns):
    doc = {"schema": SCHEMA_VERSION, "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "columns": columns, "data": payload}
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1, default=float)
    os.replace(tmp, path)


def cmd_tw_f1(args):
    if args.s_min >= args.s_max or args.step <= 0:
        raise DomainError("need s_min < s_max and step > 0")
    s = np.round(np.arange(args.s_min, args.s_max + args.step / 2, args.step), 12)
    table = export_table(solve_hastings_mcleod(), s)
    fr = np.array([fredholm.f1_fredholm(v) for v in s])
    rows = [(*row, b, abs(row[3] - b)) for row, b in zip(table, fr)]
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
    sol = solve_hastings_mcleod()
    grid = airy2.build_joint_density_grid(sol, s_lo=args.s_min, s_hi=args.s_max,
                                          s_step=args.s_step, w_max=args.w_max,
                                          w_step=args.w_step)
    n_s, n_w = grid.values.shape
    rows = np.column_stack([np.repeat(grid.s_grid, n_w), np.tile(grid.w_grid, n_s),
                            grid.values.ravel()])
    _emit(args, ["s", "w", "density"], rows, {
        "density": "joint density of rescaled max height and argmax time"})
    print(f"grid {len(grid.s_grid)} x {len(grid.w_grid)}; "
          f"normalization estimate {grid.normalization_estimate:.6f}")
    return EXIT_OK


def cmd_marginal(args):
    if not (args.w_step > 0 and args.w_max >= 0):
        raise DomainError("need w_step > 0 and w_max >= 0")
    sol = solve_hastings_mcleod()
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
    sol = solve_hastings_mcleod()
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
    m_min, m_max, m_step = args.m_min, args.m_max, args.m_step
    if not all(map(math.isfinite, (m_min, m_max, m_step))):
        raise DomainError("--m-min, --m-max and --m-step must be finite")
    if not (m_step > 0 and m_min <= m_max):
        raise DomainError("need m_step > 0 and m_min <= m_max")
    N = args.walkers
    check_table_domain((m_min, m_max), N)
    n_rows = (m_max + m_step / 2 - m_min) / m_step      # np.arange's length, before its ceil
    if not n_rows <= FINITE_N_MAX_ROWS:
        raise DomainError(f"the M grid has {math.ceil(n_rows)} values, above {FINITE_N_MAX_ROWS}")
    m_grid = np.round(np.arange(m_min, m_max + m_step / 2, m_step), 12)
    taus = np.round(np.arange(0.1, 0.91, 0.1), 12)
    rows = []
    for M, log_f, dens in zip(m_grid, *law_table(m_grid, N, taus)):
        rows.extend((M, tau, d, math.exp(log_f)) for tau, d in zip(taus, dens))
    _emit(args, ["M", "tau", "joint_density", "cdf_max"], rows, {
        "joint_density": f"exact joint density at N = {N}",
        "cdf_max": "cumulative distribution of the maximal height"})
    conv_rows, sups = edge_law_convergence(solve_hastings_mcleod())
    if args.convergence_output:
        write_csv(args.convergence_output,
                  ["N", "s", "cdf_rescaled", "f1", "abs_diff"], conv_rows)
    print("edge-law convergence sup-distance:",
          "  ".join(f"N={n}: {d:.4f}" for n, d in sups.items()))
    return EXIT_OK


def cmd_ldev(args):
    if not (args.c_step > 0 and args.u_step > 0):
        raise DomainError("need c_step > 0 and u_step > 0")
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
    cdf_m, cdf_tau, _ = mc.exact_marginals(args.walkers)
    report = {"ks_max": mc.ks_statistic(ens.maxima, cdf_m),
              "ks_tau": mc.ks_statistic(ens.argmax_times, cdf_tau)}
    rows = [(m, t, ens.seed) for m, t in ens.samples]
    _emit(args, ["max_height", "argmax_time", "seed"], rows,
          {"max_height": "sampled maximum of the top path",
           "argmax_time": "sampled argmax time"})
    print(f"n={len(ens)} seed={ens.seed} refined={ens.refined_fraction:.3g} "
          f"miss_bound={ens.miss_bound:.2g} mean_tau={summary.mean_tau:.4f} "
          + " ".join(f"{k}={v:.4f}" for k, v in report.items()))
    return EXIT_OK


def cmd_validate(args):
    from . import validation
    if args.mc_samples < 1:
        raise DomainError("--mc-samples must be at least 1")
    n_criteria = len(validation.ALL_CRITERIA)
    if args.only is not None and not args.only:
        raise DomainError("--only needs at least one criterion index")
    outside = sorted(set(args.only or ()) - set(range(1, n_criteria + 1)))
    if outside:
        raise DomainError(f"--only indices {outside} outside 1-{n_criteria}")
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
        return args.fn(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _cleanup_partial(args)
        return EXIT_USAGE
    except Exception as exc:  # computation failure, whatever its type
        print(f"computation failed: {exc}", file=sys.stderr)
        _cleanup_partial(args)
        return EXIT_COMPUTE


def _cleanup_partial(args):
    out = getattr(args, "output", None)
    if out:
        for path in (out + ".tmp",):
            if os.path.exists(path):
                os.remove(path)


if __name__ == "__main__":
    sys.exit(main())
