#!/usr/bin/env python3
"""Monte-Carlo experiment: sample non-intersecting excursions and compare the
(M, tau) statistics against the exact finite-N quadrature."""

import argparse

import numpy as np

from airymax import compare_to_exact, extreme_stats, sample_ensemble


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("-N", "--walkers", type=int, choices=(1, 2, 3), default=2)
    ap.add_argument("--steps", type=int, default=4000)
    ap.add_argument("--samples", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    ens = sample_ensemble(args.walkers, args.steps, args.samples, args.seed)
    st = extreme_stats(ens)
    print(f"N={args.walkers} steps={args.steps} samples={len(ens)}")
    print(f"  windows refined = {ens.refined_fraction:.4f}   "
          f"miss bound = {ens.miss_bound:.2g} (the chance that a maximum lay in "
          "an unrefined window)")
    print(f"  E[M]    = {st.mean_max:.5f} +- {st.stderr_max:.5f}")
    print(f"  E[tau]  = {st.mean_tau:.5f} +- {st.stderr_tau:.5f}")
    print(f"  corr    = {st.correlation:+.4f} (exactly 0 in the continuum law)")
    rep = compare_to_exact(ens)
    print(f"  KS(M)   = {rep['ks_max']:.4f}   KS(tau) = {rep['ks_tau']:.4f}")
    print(f"  chi2    = {rep['chi2']:.1f} on {rep['dof']} dof "
          "(sensitive to the finite-steps bias at large sample counts)")


if __name__ == "__main__":
    main()
