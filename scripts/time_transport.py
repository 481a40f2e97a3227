#!/usr/bin/env python3
"""Time airy2.transport_profile and build_joint_density_grid at the column
counts the benchmark's workloads use, best of 7, with the tracemalloc peak of
one more call beside each time, and print one JSON line.

    PYTHONPATH=src python3 scripts/time_transport.py

Keys "cols_<k>" are k-column transports down to s = -10, the depth of the
default density grid: 49 (jpdf), 85 (marginal), 6 (its off-grid fit points)
and 121 (the validation grid).  "cols_<k>_s0.3" are the one- and two-column
transports of the pointwise queries, down to s = 0.3.  "grid_<k>" are the
default density grids of k columns: w_step 0.25 (jpdf), 0.1 (validation) and
0.05.  Each "<key>_mb" is the peak traced allocation of one call above what
was allocated before it, in MB (1e6 bytes).
"""

import json
import time
import tracemalloc

import numpy as np

from airymax import airy2, solve_hastings_mcleod


def _pm(w_pos):
    w_pos = np.round(np.asarray(w_pos, dtype=float), 12)
    return np.concatenate([w_pos, -w_pos[w_pos > 0.0]])


COLUMNS = {
    1: [0.7],
    2: [0.7, -0.7],
    6: _pm([2.75, 3.25, 3.75]),
    49: _pm(np.arange(0.0, 6.0 + 0.125, 0.25)),
    85: _pm(np.arange(0.0, 4.25 + 0.05, 0.1)),
    121: _pm(np.arange(0.0, 6.0 + 0.05, 0.1)),
}
GRID_W_STEPS = {49: 0.25, 121: 0.1, 241: 0.05}
REPEATS = 7


def best_of(call):
    best = np.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best


def peak_mb(call):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()


def main():
    sol = solve_hastings_mcleod()
    cases = {f"cols_{k}": (lambda w=w: airy2.transport_profile(w, sol, s_lo=-10.0))
             for k, w in COLUMNS.items()}
    for k in (1, 2):
        cases[f"cols_{k}_s0.3"] = lambda w=COLUMNS[k]: airy2.transport_profile(w, sol, s_lo=0.3)
    for k, w_step in GRID_W_STEPS.items():
        cases[f"grid_{k}"] = lambda w_step=w_step: airy2.build_joint_density_grid(sol, w_step=w_step)
    out = {}
    for key, call in cases.items():
        out[key] = round(best_of(call), 5)
        out[key + "_mb"] = round(peak_mb(call), 2)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
