#!/usr/bin/env python3
"""Convergence of the rescaled finite-N maximum law to the GOE edge law,
plus the double-scaling behavior of the recursion coefficients."""

import numpy as np

from airymax import double_scaling_check, solve_hastings_mcleod
from airymax.finite_n import edge_law_convergence, f1_scaling_function


def main():
    sol = solve_hastings_mcleod()
    print("sup |F_N(rescaled) - F1| over s in [-4, 2]:")
    _, sups = edge_law_convergence(sol, N_values=(4, 8, 16, 32, 64, 128, 256), s_step=0.1)
    for N, sup in sups.items():
        print(f"  N={N:3d}: {sup:.5f}")

    print("\nrecursion-coefficient deviations at M = 15: leading scaling "
          "function and the two-term prediction")
    M = 15.0
    for k in (106, 109, 112, 113, 116):
        rep = double_scaling_check(M, k, sol)
        x = rep.x_even
        f1 = float(f1_scaling_function(x, sol))
        f2 = 0.5 * (-2.0 * x / np.pi ** 2 + (np.pi ** 2 / 2.0) * f1 ** 2)
        two_term = -f1 + f2 / M ** (2.0 / 3.0)
        print(f"  2k={2*k}: x={x:+.3f} measured={rep.deviation_even:+.5f} "
              f"leading={-f1:+.5f} two-term={two_term:+.5f}")


if __name__ == "__main__":
    main()
