#!/usr/bin/env python3
"""Time the Monte-Carlo sampler, best of k, and print one JSON line.

    PYTHONPATH=src python3 scripts/time_mc.py [--repeats 7]

"chunk_n1", "chunk_n2" and "chunk_n3" are the `sample_ensemble` chunks of
the benchmark's monte_carlo workload: N = 1 at 10,000 steps x 500 draws,
N = 2 at 8,000 x 60 and N = 3 at 2,000 x 20 (every N = 3 draw is NaN today,
so that chunk is timed up to its PrecisionError).  "per_1000_n1" and
"per_1000_n2" are 1,000 draws at the steps of the Monte-Carlo criterion
(validation.criterion_12_mc_oracle), N = 1 at 10,000 and N = 2 at 8,000.
"refined_n2" is the share of coarse windows the N = 2 criterion draws
refine, and "miss_bound_n2" their miss bound (PathEnsemble; null where
the sampler does not report them).
"""

import argparse
import json
import time

from airymax import mc
from airymax.errors import PrecisionError

CHUNKS = {"chunk_n1": (1, 10000, 500), "chunk_n2": (2, 8000, 60), "chunk_n3": (3, 2000, 20),
          "per_1000_n1": (1, 10000, 1000), "per_1000_n2": (2, 8000, 1000)}


def draw(N, steps, n, seed):
    try:
        return mc.sample_ensemble(N, steps, n, seed)
    except PrecisionError:
        return None


def best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return round(best, 5)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args()
    out = {name: best_of(args.repeats, lambda a=a: draw(*a, seed=11)) for name, a in CHUNKS.items()}
    ens = draw(*CHUNKS["per_1000_n2"], seed=11)
    out["refined_n2"] = getattr(ens, "refined_fraction", None)
    out["miss_bound_n2"] = getattr(ens, "miss_bound", None)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
