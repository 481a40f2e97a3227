#!/usr/bin/env python3
"""Time the finite-N grids of the benchmark's finite_n workload, best of 7,
and print one JSON line of seconds.

    PYTHONPATH=src python3 scripts/time_finite_n.py

"edge_law_convergence" is the convergence table of `finite-n` (31 M per
N at N = 8, 16 and 32).  "cli_n2" and "cli_n3" are `airymax finite-n -N 2`
and `-N 3` at their defaults (13 M times 9 tau, the convergence table and
the Hastings-McLeod solve), writing both CSVs to a temporary directory.
"exact_marginals_<N>" is `mc.exact_marginals(N)` (96 Gauss nodes in M,
239 tau each), and "recurrence" is `recurrence_table(30, 904)`.
"""

import contextlib
import io
import json
import os
import tempfile
import time

from airymax import cli, finite_n, mc, solve_hastings_mcleod

REPEATS = 7


def best_of(fn):
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return round(best, 5)


def run_cli(argv):
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"airymax {' '.join(argv)} exited {code}")


def main():
    sol = solve_hastings_mcleod()
    out = {"edge_law_convergence": best_of(lambda: finite_n.edge_law_convergence(sol))}
    with tempfile.TemporaryDirectory() as tmp:
        for N in (2, 3):
            argv = ["finite-n", "-N", str(N), "-o", os.path.join(tmp, "table.csv"),
                    "--convergence-output", os.path.join(tmp, "convergence.csv")]
            with contextlib.redirect_stdout(io.StringIO()):
                out[f"cli_n{N}"] = best_of(lambda argv=argv: run_cli(argv))
    for N in (1, 2, 3):
        out[f"exact_marginals_{N}"] = best_of(lambda N=N: mc.exact_marginals(N))
    out["recurrence"] = best_of(lambda: finite_n.recurrence_table(30, 904))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
