"""Extended-precision and brute-force reference values used only by tests."""

import mpmath as mp
import numpy as np


def airy_reference(x, dps=40):
    """(Ai, Ai') by mpmath at high precision."""
    with mp.workdps(dps):
        return float(mp.airyai(x)), float(mp.airyai(x, 1))


def airy_maclaurin_reference(x, terms=200, dps=60):
    """Independent brute-force Maclaurin evaluation in extended precision."""
    with mp.workdps(dps):
        x = mp.mpf(x)
        c1 = mp.mpf(3) ** mp.mpf("-2/3") / mp.gamma(mp.mpf(2) / 3)
        c2 = mp.mpf(3) ** mp.mpf("-1/3") / mp.gamma(mp.mpf(1) / 3)
        f = mp.mpf(1)
        g = x
        tf, tg = mp.mpf(1), x
        for k in range(1, terms):
            tf = tf * x ** 3 / ((3 * k) * (3 * k - 1))
            tg = tg * x ** 3 / ((3 * k) * (3 * k + 1))
            f += tf
            g += tg
        return float(c1 * f - c2 * g)


# frozen output of the independent collocation oracle below (plain
# second-order discretization, Richardson-extrapolated over h, h/2, h/4)
HASTINGS_MCLEOD_AT_ZERO = 0.3670615515480784


def hastings_mcleod_oracle_at_zero(h=0.02, s_min=-12.0, s_max=12.0):
    """Independent coarse-stencil solve + Richardson; regenerates the frozen
    value above (agrees to ~1e-11)."""
    from scipy.linalg import solve_banded
    from scipy.special import airy

    def solve_at(step):
        n = int(round((s_max - s_min) / step))
        s = np.linspace(s_min, s_max, n + 1)
        q = np.interp(s, [s_min, -2.0, 0.0, 2.0, s_max],
                      [np.sqrt(-s_min / 2), 1.0, 0.37, airy(2.0)[0], airy(s_max)[0]])
        q[0] = np.sqrt(-s_min / 2) * (1 + 1 / (8 * s_min ** 3))
        q[-1] = airy(s_max)[0]
        for _ in range(80):
            F = (q[:-2] - 2 * q[1:-1] + q[2:]
                 - step ** 2 * (2 * q[1:-1] ** 3 + s[1:-1] * q[1:-1]))
            dF = -2.0 - step ** 2 * (6 * q[1:-1] ** 2 + s[1:-1])
            ab = np.zeros((3, n - 1))
            ab[0, 1:] = 1.0
            ab[1] = dF
            ab[2, :-1] = 1.0
            delta = solve_banded((1, 1), ab, -F)
            q[1:-1] += delta
            if np.max(np.abs(delta)) < 1e-14:
                break
        return q[int(round((0.0 - s_min) / step))]

    v1, v2, v4 = solve_at(h), solve_at(h / 2), solve_at(h / 4)
    r1 = v2 + (v2 - v1) / 3.0
    r2 = v4 + (v4 - v2) / 3.0
    return r2 + (r2 - r1) / 15.0


def zeta_prime_minus_one_reference(dps=40):
    with mp.workdps(dps):
        return float(mp.zeta(-1, derivative=1))


def stieltjes_mp(M, deg_max, n_max, dps=30):
    """gamma_k (k <= deg_max) of the half-weight exp(-pi^2 n^2/(4 M^2))
    Stieltjes procedure on the lattice |n| <= n_max, in arbitrary precision.

    About 1.4 M multiprecision operations (~20 s) at (M, deg_max) = (30, 904);
    the values at 30 and 40 digits are identical in double.
    """
    with mp.workdps(dps):
        n = [mp.mpf(i) for i in range(-n_max, n_max + 1)]
        a = mp.pi ** 2 / (4 * M * M)
        sqw = [mp.e ** (-a * x * x) for x in n]
        rt = mp.sqrt(mp.fsum([v * v for v in sqw]))
        psi = [v / rt for v in sqw]
        prev = [mp.mpf(0)] * len(n)
        g_prev = mp.mpf(0)
        gammas = np.full(deg_max + 1, np.nan)
        for k in range(1, deg_max + 1):
            y = [n[i] * psi[i] - g_prev * prev[i] for i in range(len(n))]
            g = mp.sqrt(mp.fsum([v * v for v in y]))
            prev, psi = psi, [v / g for v in y]
            g_prev = g
            gammas[k] = float(g)
    return gammas


# frozen output of stieltjes_mp(30, 904, 782), the lattice recurrence_table(30, 904)
# uses: gamma_k at the degrees where plain doubles lose the wave-function tails
RECURRENCE_30_904 = {700: 252.65063960867545, 800: 270.0948948471318,
                     900: 303.7739505395585, 904: 314.26059581732284}
