#!/usr/bin/env python3
"""Tabulate the GOE edge law by both routes and the rescaled endpoint
density, writing plot-ready CSVs into ./out/."""

import os

import numpy as np

from airymax import (airy2, build_joint_density_grid, f1_fredholm,
                     solve_hastings_mcleod, tracy_widom_f1)


def main():
    os.makedirs("out", exist_ok=True)
    sol = solve_hastings_mcleod()
    grid = build_joint_density_grid(sol)

    s = np.round(np.arange(-6.0, 4.001, 0.05), 10)
    with open("out/tracy_widom_goe.csv", "w") as fh:
        fh.write("s,f1_painleve,f1_fredholm\n")
        for v in s:
            fh.write(f"{v},{tracy_widom_f1(v, sol):.17g},{f1_fredholm(v):.17g}\n")

    t = np.round(np.arange(0.0, 1.8001, 0.05), 10)
    density = airy2.argmax_marginal(t, grid)
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
