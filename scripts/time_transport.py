#!/usr/bin/env python3
"""Time airy2.transport_profile at the column counts the benchmark's
workloads use, best of 7, and print one JSON line of seconds.

    PYTHONPATH=src python3 scripts/time_transport.py

Keys "cols_<k>" are k-column transports down to s = -10, the depth of the
default density grid: 49 (jpdf), 85 (marginal), 6 (its off-grid fit points)
and 121 (the validation grid).  "cols_<k>_s0.3" are the one- and two-column
transports of the pointwise queries, down to s = 0.3.
"""

import json
import time

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
REPEATS = 7


def best_of(w, sol, s_lo):
    best = np.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        airy2.transport_profile(w, sol, s_lo=s_lo)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    sol = solve_hastings_mcleod()
    out = {}
    for k, w in COLUMNS.items():
        out[f"cols_{k}"] = round(best_of(w, sol, -10.0), 5)
    for k in (1, 2):
        out[f"cols_{k}_s0.3"] = round(best_of(COLUMNS[k], sol, 0.3), 5)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
