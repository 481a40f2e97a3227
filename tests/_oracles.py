"""Extended-precision and brute-force reference values used only by tests."""

import math

import mpmath as mp
import numpy as np

from airymax.errors import IntegrationFailureError, MisconfigurationError
from airymax.lax import _SQ3_12, _pauli_apply


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


def g_mp(M, N, u):
    """G_{2k-1}(M, u) for k = 1..N: a Stieltjes procedure plus the alternating
    lattice sum, both in mpmath.

    The sum cancels down to about exp(-M^2/(1+2u)) of its term scale, so it
    runs at 40 digits plus that loss, on a lattice whose dropped tail
    n^(2N) exp(-b n^2), b = pi^2 (1+2u)/(4 M^2), lies below 10^-dps.  At
    M = 16 and u = -0.3 this is 370 digits and ~0.4 s; 40 more digits leave
    every value unchanged in double.
    """
    dps = int(math.ceil(1.2 * M * M / ((1.0 + 2.0 * u) * math.log(10.0)))) + 40
    b_float = math.pi ** 2 * (1.0 + 2.0 * u) / (4.0 * M * M)
    tail = dps * math.log(10.0) + 20.0
    n_max = int(math.ceil(math.sqrt(N / b_float) + math.sqrt(tail / b_float))) + 2
    with mp.workdps(dps):
        a = mp.pi ** 2 / (4 * mp.mpf(M) ** 2)
        n = [mp.mpf(i) for i in range(n_max + 1)]
        mult = [1] + [2] * n_max            # n and -n carry equal squares
        ea, e2a = mp.e ** (-a), mp.e ** (-2 * a)
        sqw, cur, step = [], mp.mpf(1), ea  # exp(-a n^2) by a product recursion
        for _ in n:
            sqw.append(cur)
            cur, step = cur * step, step * e2a
        rt = mp.sqrt(mp.fsum(m * v * v for m, v in zip(mult, sqw)))
        psi = [v / rt for v in sqw]
        prev = [mp.mpf(0)] * len(n)
        g_prev = mp.mpf(0)
        odd = []
        for j in range(1, 2 * N):
            y = [n[i] * psi[i] - g_prev * prev[i] for i in range(len(n))]
            g = mp.sqrt(mp.fsum(m * v * v for m, v in zip(mult, y)))
            prev, psi = psi, [v / g for v in y]
            g_prev = g
            if j % 2:
                odd.append(psi)
        damp = [mp.e ** (-2 * a * mp.mpf(u) * x * x) for x in n]
        # psi_{2k-1} is odd, so n psi(n) is even and n, -n add
        return np.array([float(mp.fsum((-1) ** i * 2 * n[i] * p[i] * damp[i]
                                       for i in range(1, len(n))))
                         for p in odd])


# frozen output of stieltjes_mp(30, 904, 782), the lattice recurrence_table(30, 904)
# uses: gamma_k at the degrees where plain doubles lose the wave-function tails
RECURRENCE_30_904 = {700: 252.65063960867545, 800: 270.0948948471318,
                     900: 303.7739505395585, 904: 314.26059581732284}


def psi_at_s_sequential(s_values, zeta_nodes, sol, phase_per_step=0.3):
    """Integrate the zeta-ODE outward from zeta = 0 at fixed s (batched).

    The sequential node-by-node, sub-step-by-sub-step sweep that
    airymax.lax.psi_at_s reorders into a prefix product of step matrices.

    Seeds with the exact zeta = 0 value (exp(-int_s^inf q), 0) and returns
    (phi1, phi2) of shape (n_nodes, n_s) at the requested zeta nodes.
    """
    sarr = np.atleast_1d(np.asarray(s_values, dtype=float))
    zeta_nodes = np.asarray(zeta_nodes, dtype=float)
    if np.any(zeta_nodes <= 0) or np.any(np.diff(zeta_nodes) <= 0):
        raise MisconfigurationError("zeta nodes must be positive and increasing")
    q = sol.q_at(sarr)
    r = sol.q_prime_at(sarr)
    q2 = q * q
    smax_abs = float(np.max(np.abs(sarr)))
    u1 = np.exp(-sol.integral_q(sarr))
    u2 = np.zeros_like(u1)
    g = np.sqrt(3.0) / 6.0
    out1 = np.empty((len(zeta_nodes), len(sarr)))
    out2 = np.empty((len(zeta_nodes), len(sarr)))
    cur = 0.0
    for i, zt in enumerate(zeta_nodes):
        gap = zt - cur
        nsub = max(1, int(np.ceil(gap * (4.0 * zt * zt + smax_abs + 2.0) / phase_per_step)),
                   int(np.ceil(gap / 0.02)))
        hh = gap / nsub
        for k in range(nsub):
            z0 = cur + k * hh
            t1 = z0 + hh * (0.5 - g)
            t2 = z0 + hh * (0.5 + g)
            pa1, pa2 = 4.0 * t1 * q, 4.0 * t2 * q
            qb1 = 4.0 * t1 * t1 + sarr + 2.0 * q2
            qb2 = 4.0 * t2 * t2 + sarr + 2.0 * q2
            rc = 2.0 * r
            a = 0.5 * hh * (pa1 + pa2)
            b = 0.5 * hh * (qb1 + qb2)
            c = 0.5 * hh * (rc + rc)
            f = _SQ3_12 * hh * hh
            a += f * 2.0 * (qb2 * rc - qb1 * rc)
            b += f * 2.0 * (pa2 * rc - pa1 * rc)
            c += f * 2.0 * (pa2 * qb1 - pa1 * qb2)
            try:
                u1, u2 = _pauli_apply(a, b, c, u1, u2)
            except FloatingPointError as exc:
                raise IntegrationFailureError(z0) from exc
        cur = zt
        out1[i], out2[i] = u1, u2
    return out1, out2


def transport_profile_sequential(w_values, sol, s_lo=-10.5, s_hi=12.0, step=0.0025):
    """Integrate the third-order f-ODE in s downward from s_hi for each w.

    The step-by-step RK4 loop that airymax.airy2.transport_profile reorders
    into prefix products of step matrices: same equation, seed, grid and
    scheme, with each step applied to the state in turn.
    """
    from airymax.airy2 import FProfile, f_closed

    w_arr = np.atleast_1d(np.asarray(w_values, dtype=float))
    n = int(round((s_hi - s_lo) / step))
    h = -(s_hi - s_lo) / n
    s_desc = s_hi + h * np.arange(n + 1)
    half = s_hi + 0.5 * h * np.arange(2 * n + 1)
    U = sol.potential(half)
    Up = sol.potential_prime(half)

    Y = np.empty((3, len(w_arr)))
    for i, w in enumerate(w_arr):
        a0, a1, a2 = f_closed(np.array([s_hi]), w, derivatives=2)
        Y[0, i], Y[1, i], Y[2, i] = a0[0], a1[0], a2[0]

    out_f = np.empty((n + 1, len(w_arr)))
    out_fs = np.empty_like(out_f)
    out_fss = np.empty_like(out_f)
    out_f[0], out_fs[0], out_fss[0] = Y

    def rhs(idx, Y):
        u, up, sv = U[idx], Up[idx], half[idx]
        y, y1, y2 = Y
        y3 = (2.0 * w_arr * y2 + y1 * (6.0 * u + sv) + y * (3.0 * up + 2.0 - 2.0 * w_arr * u)) / 4.0
        return np.array([y1, y2, y3])

    for k in range(n):
        i0 = 2 * k
        k1 = rhs(i0, Y)
        k2 = rhs(i0 + 1, Y + 0.5 * h * k1)
        k3 = rhs(i0 + 1, Y + 0.5 * h * k2)
        k4 = rhs(i0 + 2, Y + h * k3)
        Y = Y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out_f[k + 1], out_fs[k + 1], out_fss[k + 1] = Y

    return FProfile(s_grid=s_desc[::-1].copy(), w_values=w_arr,
                    f=out_f[::-1].copy(), f_s=out_fs[::-1].copy(),
                    f_ss=out_fss[::-1].copy())
