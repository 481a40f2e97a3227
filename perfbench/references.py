"""Reference values the benchmark checks the package against.

Everything here is computed from the literature or from first principles
with numpy/scipy only; nothing imports airymax.  `self_test()` shows that
each reference reproduces a value known in closed form.
"""

import math

import numpy as np
from scipy.special import airy

# GOE Tracy-Widom law F1: mean and variance (Bornemann, Math. Comp. 79 (2010),
# Table 4).
TW_GOE_MEAN = -1.2065335745820
TW_GOE_VARIANCE = 1.6077810345810

# zeta(1/2) and the discrete-monitoring constant beta = -zeta(1/2)/sqrt(2 pi)
# (Asmussen-Glynn-Pitman, Ann. Appl. Probab. 5 (1995)): the maximum of a
# Brownian path sampled every dt underestimates the continuous maximum by
# beta sqrt(dt) to leading order.
ZETA_HALF = -1.4603545088095868
MONITORING_BETA = -ZETA_HALF / math.sqrt(2.0 * math.pi)


def kennedy_chung_cdf(x):
    """P(max of a standard Brownian excursion <= x)
    = 1 + 2 sum_k (1 - 4 k^2 x^2) exp(-2 k^2 x^2)  (Kennedy 1976, Chung 1976)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(x)
    live = x > 0.15  # below this the law carries less than 1e-40 of its mass
    xs = x[live]
    k_max = int(math.ceil(7.0 / max(float(np.min(xs)), 0.15))) if xs.size else 1
    k = np.arange(1, k_max + 1, dtype=float)[:, None]
    a = 2.0 * k * k * xs[None, :] ** 2
    out[live] = 1.0 + 2.0 * np.sum((1.0 - 2.0 * a) * np.exp(-a), axis=0)
    return np.clip(out, 0.0, 1.0)


def monitoring_correction(steps, ends=1):
    """Shift that makes the maximum of a path sampled on `steps` intervals of
    [0, 1] comparable with the continuous maximum.

    ends = 2 where the sampled figure is a range, max - min, each end read on
    the grid: the cycle-shift (Vervaat) excursion's maximum is the range of
    the Brownian bridge it is built from."""
    return ends * MONITORING_BETA / math.sqrt(steps)


def ks_bound(n, alpha=1e-6):
    """Dvoretzky-Kiefer-Wolfowitz-Massart bound: a correct sampler exceeds
    this KS distance with probability at most alpha, for every n."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def mean_tau_z(alpha=1e-6):
    """Two-sided normal quantile for the mean-of-tau check at level alpha."""
    from scipy.stats import norm
    return float(norm.isf(alpha / 2.0))


def _f1_nystrom(s, nodes=50, length=20.0):
    """F1(s) = det(I - Ai(x + y + s)) on L^2(0, inf), truncated to [0, length],
    by Gauss-Legendre Nystrom (Bornemann 2010); scipy Airy, not the package's."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    x = 0.5 * length * (t + 1.0)
    w = 0.5 * length * w
    rw = np.sqrt(w)
    ai = airy(np.add.outer(x, x) + s)[0]
    return float(np.linalg.det(np.eye(nodes) - rw[:, None] * ai * rw[None, :]))


def tw_goe_moments(n_quad=40):
    """Mean and variance of F1 by quadrature of the Nystrom determinant."""
    t, w = np.polynomial.legendre.leggauss(n_quad)
    left = 0.5 * 14.0 * (t - 1.0)           # [-14, 0]
    right = 0.5 * 14.0 * (t + 1.0)          # [0, 14]
    fl = np.array([_f1_nystrom(s) for s in left])
    fr = np.array([_f1_nystrom(s) for s in right])
    wl, wr = 7.0 * w, 7.0 * w
    m1 = wr @ (1.0 - fr) - wl @ fl
    m2 = wr @ (2.0 * right * (1.0 - fr)) - wl @ (2.0 * left * fl)
    return float(m1), float(m2 - m1 * m1)


def tw_goe_tail_moments(a, b, n_quad=40):
    """First and second moments of F1 carried by s < a and s > b, so that a
    table of F1 on [a, b] can be compared with the full-line constants."""
    t, w = np.polynomial.legendre.leggauss(n_quad)
    lo, hi = -14.0, 14.0
    left = a + 0.5 * (a - lo) * (t - 1.0)
    right = b + 0.5 * (hi - b) * (t + 1.0)
    wl, wr = 0.5 * (a - lo) * w, 0.5 * (hi - b) * w
    fa, fb = _f1_nystrom(a), _f1_nystrom(b)
    fl = np.array([_f1_nystrom(s) for s in left])
    fr = np.array([_f1_nystrom(s) for s in right])
    m1 = a * fa - wl @ fl + b * (1.0 - fb) + wr @ (1.0 - fr)
    m2 = a * a * fa - wl @ (2.0 * left * fl) + b * b * (1.0 - fb) + wr @ (2.0 * right * (1.0 - fr))
    return float(m1), float(m2)


def self_test():
    """Each reference against a value known in closed form.  Returns a dict
    of (measured, known, tolerance) triples; raises on any miss."""
    checks = {}
    # Brownian excursion: E[max] = sqrt(pi/2), E[max^2] = pi^2/6.
    x = np.linspace(0.0, 6.0, 6001)
    tail = 1.0 - kennedy_chung_cdf(x)
    dx = x[1] - x[0]
    m1 = float(np.sum(0.5 * (tail[1:] + tail[:-1])) * dx)
    m2 = float(np.sum(0.5 * (x[1:] * tail[1:] + x[:-1] * tail[:-1])) * 2.0 * dx)
    checks["kennedy_chung_mean"] = (m1, math.sqrt(math.pi / 2.0), 1e-6)
    checks["kennedy_chung_second_moment"] = (m2, math.pi ** 2 / 6.0, 1e-6)
    # GOE Tracy-Widom constants against an independent Nystrom quadrature.
    mean, var = tw_goe_moments()
    checks["tw_goe_mean"] = (mean, TW_GOE_MEAN, 1e-9)
    checks["tw_goe_variance"] = (var, TW_GOE_VARIANCE, 1e-9)
    # zeta(1/2) from the Euler-Maclaurin expansion of sum_{k<=n} k^{-1/2}.
    n = 10000
    partial = float(np.sum(np.arange(1, n + 1, dtype=float) ** -0.5))
    zeta_em = partial - 2.0 * math.sqrt(n) - 0.5 / math.sqrt(n) + n ** -1.5 / 24.0
    checks["zeta_half"] = (zeta_em, ZETA_HALF, 1e-11)
    # beta from Spitzer's identity: for a Gaussian walk of n steps of variance
    # 1/n, E[max(0, S_1..S_n)] = sum_k E[S_k^+]/k; the gap to the continuous
    # sqrt(2/pi), times sqrt(n), tends to beta with a 1/(2 sqrt(2 pi n)) term.
    e_walk = partial / math.sqrt(2.0 * math.pi * n)
    beta_n = (math.sqrt(2.0 / math.pi) - e_walk) * math.sqrt(n) + 0.5 / math.sqrt(2.0 * math.pi * n)
    checks["monitoring_beta"] = (beta_n, MONITORING_BETA, 1e-7)
    bad = {k: v for k, v in checks.items() if not abs(v[0] - v[1]) <= v[2]}
    if bad:
        raise AssertionError(f"reference self-test failed: {bad}")
    return checks


if __name__ == "__main__":
    for name, (got, known, tol) in self_test().items():
        print(f"{name:30s} {got:.15g}  known {known:.15g}  |diff| {abs(got - known):.2e} <= {tol:g}")
