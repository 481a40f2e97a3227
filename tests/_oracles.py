"""Extended-precision and brute-force reference values used only by tests."""

import csv
import math

import mpmath as mp
import numpy as np

from airymax.errors import IntegrationFailureError, MisconfigurationError, PrecisionError
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


def write_csv_reference(path, header, rows):
    """CSV through csv.writer, one field at a time, numbers as format(v, ".17g")."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([format(float(v), ".17g") if isinstance(v, (int, float, np.floating)) else v
                        for v in row])


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


def _wave_functions_mp(M, n_max, deg_max):
    """Yield (gamma_k, psi_k) for k = 1..deg_max: the half-weight
    exp(-pi^2 n^2/(4 M^2)) Stieltjes procedure on |n| <= n_max at the working
    mpmath precision.  psi_k has the parity of k, so it is kept on n >= 0
    and the sums count n > 0 twice."""
    a = mp.pi ** 2 / (4 * mp.mpf(M) ** 2)
    n = [mp.mpf(i) for i in range(n_max + 1)]
    mult = [1] + [2] * n_max                # n and -n carry equal squares
    ea, e2a = mp.e ** (-a), mp.e ** (-2 * a)
    sqw, cur, step = [], mp.mpf(1), ea      # exp(-a n^2) by a product recursion
    for _ in n:
        sqw.append(cur)
        cur, step = cur * step, step * e2a
    rt = mp.sqrt(mp.fsum(m * v * v for m, v in zip(mult, sqw)))
    psi = [v / rt for v in sqw]
    prev = [mp.mpf(0)] * len(n)
    g_prev = mp.mpf(0)
    for _ in range(deg_max):
        y = [n[i] * psi[i] - g_prev * prev[i] for i in range(len(n))]
        g = mp.sqrt(mp.fsum(m * v * v for m, v in zip(mult, y)))
        prev, psi = psi, [v / g for v in y]
        g_prev = g
        yield g, psi


def stieltjes_mp(M, deg_max, n_max, dps=30):
    """gamma_k (k <= deg_max) of the half-weight exp(-pi^2 n^2/(4 M^2))
    Stieltjes procedure on the lattice |n| <= n_max, in arbitrary precision.

    Too few digits give wrong gammas without a sign (at (N, M) = (32, 1.5)
    and (64, 2.25), 300 and 600 digits differ by up to 2e25 relative), so the
    procedure is rerun at twice the digits and PrecisionError raised where
    the two differ in double.
    """
    runs = []
    for digits in (dps, 2 * dps):
        with mp.workdps(digits):
            runs.append(np.array([np.nan] + [float(g) for g, _ in
                                             _wave_functions_mp(M, n_max, deg_max)]))
    diff = float(np.max(np.abs(runs[0][1:] / runs[1][1:] - 1.0)))
    if not diff <= 1e-15:
        raise PrecisionError(f"{dps} digits miss the gammas by {diff:.1e} at M = {M}")
    return runs[1]


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
        odd = [psi for j, (_, psi) in enumerate(_wave_functions_mp(M, n_max, 2 * N - 1), 1)
               if j % 2]
        a = mp.pi ** 2 / (4 * mp.mpf(M) ** 2)
        n = [mp.mpf(i) for i in range(n_max + 1)]
        damp = [mp.e ** (-2 * a * mp.mpf(u) * x * x) for x in n]
        # psi_{2k-1} is odd, so n psi(n) is even and n, -n add
        return np.array([float(mp.fsum((-1) ** i * 2 * n[i] * p[i] * damp[i]
                                       for i in range(1, len(n))))
                         for p in odd])


# frozen output of stieltjes_mp(30, 904, 782), the lattice recurrence_table(30, 904)
# uses: gamma_k at the degrees where plain doubles lose the wave-function tails
RECURRENCE_30_904 = {700: 252.65063960867545, 800: 270.0948948471318,
                     900: 303.7739505395585, 904: 314.26059581732284}

# frozen output of stieltjes_mp(M, 2N - 1, suggested_n_max(M, 2N - 1), dps), keyed
# (M, N, dps) -> {k: gamma_k} at the top 16 degrees and every 16th (32nd past
# degree 300); 900 digits where 300 miss the gammas (1.5-32 to 4.25-64) or the
# top rows rest on weights below 1e-300, 40 where 40 and 80 agree
OP_TABLE_REFERENCES = {
    (0.9, 11, 900): {
        6: 2.9999999999982307, 7: 7.683719820241313e-09, 8: 4.0, 9: 2.2327633752062162e-11,
        10: 5.0, 11: 6.167648079231821e-14, 12: 6.0, 13: 1.6473920367003027e-16, 14: 7.0,
        15: 4.296072273660136e-19, 16: 8.0, 17: 1.100413605080194e-21, 18: 9.0,
        19: 2.779632242576409e-24, 20: 10.0, 21: 6.94352085661459e-27
    },
    (1.0, 16, 900): {
        16: 8.0, 17: 2.063675055522104e-17, 18: 9.0, 19: 1.6587793846425056e-19, 20: 10.0,
        21: 1.3185510778703426e-21, 22: 11.0, 23: 1.0385995603194309e-23, 24: 12.0,
        25: 8.119007490467279e-26, 26: 13.0, 27: 6.306223122344291e-28, 28: 14.0,
        29: 4.871314860147197e-30, 30: 15.0, 31: 3.745006124738449e-32
    },
    (2.0, 32, 900): {
        16: 7.9999980070793395, 32: 15.999999999999979, 48: 24.0,
        49: 7.317912547977922e-12, 50: 25.0, 51: 2.2180532588391293e-12, 52: 26.0,
        53: 6.712562188856356e-13, 54: 27.0, 55: 2.02855039324361e-13, 56: 28.0,
        57: 6.122215687412518e-14, 58: 29.0, 59: 1.8454251736476708e-14, 60: 30.0,
        61: 5.556290228566247e-15, 62: 31.0, 63: 1.6711148400114473e-15
    },
    (4.0, 48, 900): {
        16: 6.272608181029183, 32: 15.969759136600839, 48: 23.999500173952196,
        64: 31.999993491717618, 80: 39.999999926058145, 81: 0.0006090429799050119,
        82: 40.99999995803325, 83: 0.0004584517942163002, 84: 41.99999997621074,
        85: 0.0003448952180828291, 86: 42.99999998653075, 87: 0.00025932247838210187,
        88: 43.999999992382435, 89: 0.00019487834453931478, 90: 44.9999999956965,
        91: 0.00014637524390470025, 92: 45.99999999757125, 93: 0.00010989093093003603,
        94: 46.99999999863064, 95: 8.246224873872063e-05
    },
    (5.1, 64, 900): {
        16: 6.493616968861543, 32: 14.96813069674753, 48: 23.910659497873066,
        64: 31.992342981047308, 80: 39.999416189787084, 96: 47.99995913695337,
        112: 55.99999730540245, 113: 0.004996355887573321, 114: 56.99999808815184,
        115: 0.004206058146165442, 116: 57.99999864439835, 117: 0.003539694806525632,
        118: 58.99999903940611, 119: 0.0029780326438413694, 120: 59.99999931972281,
        121: 0.002504784725255371, 122: 60.999999518518926, 123: 0.002106166477037403,
        124: 61.99999965941293, 125: 0.0017705171998445015, 126: 62.999999759208734,
        127: 0.0014879776682553126
    },
    (5.3, 64, 900): {
        16: 6.748176349057324, 32: 14.273596140078944, 48: 23.83609330778488,
        64: 31.982665379834994, 80: 39.99834685595616, 96: 47.99985502582843,
        112: 55.99998802259365, 113: 0.011050443308452106, 114: 56.99999125910384,
        115: 0.009434150506392985, 116: 57.999993625189205, 117: 0.008051829653012026,
        118: 58.999995353706204, 119: 0.00687004329096783, 120: 59.999996615586404,
        121: 0.005860055205526323, 122: 60.999997536194144, 123: 0.004997183465640444,
        124: 61.99999820739636, 125: 0.00426023991660137, 126: 62.999998696458555,
        127: 0.003631045054629462
    },
    (1.5, 32, 900): {
        16: 7.9999999999987805, 32: 16.0, 48: 24.0, 49: 4.514645529053388e-22, 50: 25.0,
        51: 5.2418352696267813e-23, 52: 26.0, 53: 6.076796287254586e-24, 54: 27.0,
        55: 7.034724812425521e-25, 56: 28.0, 57: 8.132889935411672e-26, 58: 29.0,
        59: 9.390909741518521e-27, 60: 30.0, 61: 1.0831063584132394e-27, 62: 31.0,
        63: 1.247864516003254e-28
    },
    (1.75, 32, 900): {
        16: 7.9999999927046685, 32: 16.0, 48: 24.0, 49: 7.01402251848232e-16, 50: 25.0,
        51: 1.457252353514163e-16, 52: 26.0, 53: 3.022970940504523e-17, 54: 27.0,
        55: 6.262017914791177e-18, 56: 28.0, 57: 1.295448001622733e-18, 58: 29.0,
        59: 2.6766442589060557e-19, 60: 30.0, 61: 5.524105849702172e-20, 62: 31.0,
        63: 1.1388491961907921e-20
    },
    (2.25, 64, 900): {
        16: 7.999910085481391, 32: 15.999999999936668, 48: 24.0, 64: 32.0, 80: 40.0,
        96: 48.0, 112: 56.0, 113: 2.725297367104478e-22, 114: 57.0,
        115: 1.046389967496625e-22, 116: 58.0, 117: 4.016445349933521e-23, 118: 59.0,
        119: 1.5412150288929542e-23, 120: 60.0, 121: 5.9123742630903944e-24, 122: 61.0,
        123: 2.267471998266784e-24, 124: 62.0, 125: 8.693749206104632e-25, 126: 63.0,
        127: 3.3324304119273324e-25
    },
    (3.5, 64, 900): {
        16: 7.630825864170007, 32: 15.99803504229525, 48: 23.999992783554916,
        64: 31.99999997933745, 80: 39.9999999999483, 96: 47.99999999999988, 112: 56.0,
        113: 2.9467399904970722e-08, 114: 57.0, 115: 2.0045163004845942e-08, 116: 58.0,
        117: 1.3631573575783143e-08, 118: 59.0, 119: 9.267347965932758e-09, 120: 60.0,
        121: 6.298574307254111e-09, 122: 61.0, 123: 4.27967093017472e-09, 124: 62.0,
        125: 2.90712467098161e-09, 126: 63.0, 127: 1.9742663486930097e-09
    },
    (4.25, 64, 900): {
        16: 5.75005780599776, 32: 15.916841373730152, 48: 23.997627080612084,
        64: 31.999945636559094, 80: 39.99999891344509, 96: 47.999999980069276,
        112: 55.99999999965526, 113: 4.469437570206246e-05, 114: 56.99999999979307,
        115: 3.461146334912421e-05, 116: 57.99999999987587, 117: 2.679511787378515e-05,
        118: 58.999999999925585, 119: 2.073788494498552e-05, 120: 59.99999999995541,
        121: 1.6045400388150965e-05, 122: 60.999999999973305, 123: 1.2411320452513942e-05,
        124: 61.99999999998402, 125: 9.597775333612701e-06, 126: 62.99999999999044,
        127: 7.42013790396862e-06
    },
    (16.0, 128, 40): {
        16: 20.371832715762604, 32: 28.810122117027394, 48: 35.28504930699469,
        64: 40.74366543152521, 80: 45.55280277869933, 96: 49.90059527895527,
        112: 53.89880311651743, 128: 57.62024423405479, 144: 61.11549814728781,
        160: 64.4213914937434, 176: 67.56572541007142, 192: 70.57009861398939,
        208: 73.45168743185779, 224: 76.22441900452772, 240: 78.91787097113935,
        241: 79.03360162082875, 242: 79.27796852787223, 243: 79.30996602527064,
        244: 79.68445044240168, 245: 79.51366850716988, 246: 80.19366242738545,
        247: 79.56779163544266, 248: 80.90705494992112, 249: 79.34350327313796,
        250: 81.9806652447898, 251: 78.66166517581864, 252: 83.60550589096434,
        253: 77.3372818668198, 254: 85.93474308172922, 255: 75.27932291344452
    },
    (22.6, 256, 40): {
        32: 40.694297490301196, 64: 57.55042742202936, 96: 70.48459083152433,
        128: 81.38859498060239, 160: 90.99521548491256, 192: 99.68026429226,
        224: 107.66699093781688, 256: 115.10085484405872, 288: 122.08289247090359,
        320: 128.68666784982562, 352: 134.96771588243047, 384: 140.96918166304866,
        416: 146.7253762202665, 448: 152.26411880416214, 480: 157.60855268269057,
        496: 160.44981049824233, 497: 160.03879888582762, 498: 161.00952133134865,
        499: 160.03891104782056, 500: 161.76360166979654, 501: 159.7893953676613,
        502: 162.82872496376993, 503: 159.15671137926861, 504: 164.35181605505147,
        505: 157.98645005580164, 506: 166.48525401088912, 507: 156.14057553997438,
        508: 169.337741452901, 509: 153.5559014297568, 510: 172.91299550600107,
        511: 150.29946602035653
    },
}

# frozen output of stieltjes_mp(10, 200, 192, dps=60), the lattice
# recurrence_table(10, 200) uses: degree 2 M^2, past the limit of plain Stieltjes
RECURRENCE_10_200 = {
    16: 12.732395447351626, 32: 18.006326323142122, 48: 22.053155816871683,
    64: 25.464790894703295, 80: 28.47050914132145, 96: 32.111742170270766,
    112: 49.48274325299405, 128: 60.8568215687055, 144: 70.35091559674461,
    160: 79.11522752166486, 176: 87.52359643668689, 185: 3.9092565506198627,
    186: 92.67704242956621, 187: 3.757238177829827, 188: 93.7012875418612,
    189: 3.610994679106025, 190: 94.72374292411355, 191: 3.470301813563225,
    192: 95.74453949478738, 193: 3.3349456701301436, 194: 96.76379847379282,
    195: 3.2047219685931214, 196: 97.7816321448265, 197: 3.0794354290827775,
    198: 98.79814454943354, 199: 2.958899201911568, 200: 99.81343212017109
}


def psi_at_s_sequential(s_values, zeta_nodes, sol):
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
        # sub-steps of at most 0.3 in phase and 0.02 in zeta
        nsub = max(1, int(np.ceil(gap * (4.0 * zt * zt + smax_abs + 2.0) / 0.3)),
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
    into a chunked scan of step matrices: same equation, seed, grid and
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


def matrix_samples_full_path(N, steps, n_samples, seed):
    """(M, tau_M) of the N = 2, 3 matrix realization from the whole fine
    path of every draw: all E = dim (dim - 1)/2 entries as bridges of steps
    normals from Philox stream (seed, i), the top eigenvalue at every grid
    time, and its max and first argmax.  This is the sampler
    airymax.mc.sample_ensemble ran before it went coarse to fine; its
    streams differ, its law is the same."""
    from airymax import mc

    dim = 2 * N + 1
    samples = np.empty((n_samples, 2))
    for i in range(n_samples):
        a = mc._bridges(mc._rng_for(seed, i), dim * (dim - 1) // 2, steps)
        path = mc._top_eigenpath(a, dim)
        j = int(np.argmax(path))
        samples[i] = path[j], j / steps
    return samples
