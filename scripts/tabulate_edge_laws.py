#!/usr/bin/env python3
"""Tabulate the GOE edge law by both routes and the rescaled endpoint
density, writing plot-ready CSVs into ./out/.

The s axis (-6 to 4 by 0.05) and the t axis (0 to 1.8 by 0.05) come from
special.axis.  They hold the same values as the np.arange constructions
they replaced, except that s = 0 is written as 0.0, no longer -0.0."""

import os

import numpy as np

from airymax import (airy2, build_joint_density_grid, f1_fredholm,
                     solve_hastings_mcleod, tracy_widom_f1)
from airymax.special import axis


def main():
    os.makedirs("out", exist_ok=True)
    sol = solve_hastings_mcleod()
    grid = build_joint_density_grid(sol)

    s = axis(-6.0, 4.0, 0.05)
    with open("out/tracy_widom_goe.csv", "w") as fh:
        fh.write("s,f1_painleve,f1_fredholm\n")
        for v in s:
            fh.write(f"{v},{tracy_widom_f1(v, sol):.17g},{f1_fredholm(v):.17g}\n")

    t = axis(0.0, 1.8, 0.05)
    density = airy2.argmax_marginal(t, sol)
    with open("out/endpoint_marginal.csv", "w") as fh:
        fh.write("t,density\n")
        for v, d in zip(t, density):
            fh.write(f"{v},{d:.17g}\n")

    with open("out/joint_density_slices.csv", "w") as fh:
        fh.write("s,w,density\n")
        for w in (0.0, 0.5, 1.0, 2.0):
            j = int(np.argmin(np.abs(grid.w_grid - w)))
            for i, sv in enumerate(grid.s_grid):
                fh.write(f"{sv},{w},{grid.values[i, j]:.17g}\n")
    print("wrote out/tracy_widom_goe.csv, out/endpoint_marginal.csv, "
          "out/joint_density_slices.csv")


if __name__ == "__main__":
    main()
