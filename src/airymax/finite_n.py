"""Exact finite-N machinery: discrete orthogonal polynomials on the integer
lattice with weight exp(-pi^2 n^2 / (2 M^2)), the alternating G sums, the
joint density of (max height, argmax time) for N non-intersecting excursions,
its cumulative in M, and the large-M asymptotic cross-checks.

The Stieltjes construction runs on orthonormal wave functions so every
intermediate stays O(1); norms are tracked as log h_k.  recurrence_table
holds each value as a float mantissa times a per-n power of two, since its
high degrees need exponent range below the weight's underflow, not digits.
The alternating sums cancel to exp(-M^2/(1+2u)) of the term scale in the bulk
regime, far beyond double precision, so g_function falls back to a
double-double pipeline (weights included) whenever cancellation is detected.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from . import ddouble as dd
from .errors import DomainError, PrecisionError
from .special import airy_both, hermite_fn

_PI_DD = (3.141592653589793, 1.2246467991473532e-16)

DD_FALLBACK_DEFECT = 1e-8
CANCELLATION_GUARD = 1e-11


def _weight_exponent(M):
    # pi^2 / (2 M^2) in dd
    p2h, p2l = dd.mul(*_PI_DD, *_PI_DD)
    return dd.div_d(p2h, p2l, 2.0 * M * M)


def suggested_n_max(M, deg_max, u_edge=0.0):
    """Lattice cutoff certifying the dropped tail of all sums involved.

    The heaviest integrand is n^(deg+1) exp(-a n^2 (1 - 2|u|)) with
    a = pi^2/(4 M^2); cover its peak plus a generous margin.
    """
    shrink = max(1.0 - 2.0 * abs(u_edge), 1e-4)
    a = np.pi ** 2 / (4.0 * M * M) * shrink
    n_peak = math.sqrt((deg_max + 2.0) / (2.0 * a))
    return int(math.ceil(max(8.0 * M + 50.0, 1.8 * n_peak + 50.0)))


def _stieltjes_float(n, w, deg_max):
    h0 = float(np.sum(w))
    psi = np.sqrt(w) / math.sqrt(h0)
    psi_prev = np.zeros_like(psi)
    gammas = np.full(deg_max + 1, np.nan)
    table = np.empty((deg_max + 1, len(n)))
    table[0] = psi
    g_prev = 0.0
    for k in range(1, deg_max + 1):
        y = n * psi - g_prev * psi_prev
        g = float(np.sqrt(np.dot(y, y)))
        psi_prev, psi = psi, y / g
        gammas[k] = g
        table[k] = psi
        g_prev = g
    return h0, gammas, table


def _stieltjes_extended(n, M, deg_max):
    """gamma_k of the half-weight exp(-pi^2 n^2/(4 M^2)) Stieltjes procedure
    (Gautschi 2004), each wave-function value held as mantissa * 2**e(n).

    The three-term step acts pointwise in n, so the per-n scale is exact; only
    the norms sum over n.  The gammas stay within ~defect^2 of exact, so a
    defect of psi_k against psi_0 or psi_1 above DD_FALLBACK_DEFECT (the
    Lanczos instability past degree ~M^2) raises PrecisionError.
    """
    log2_w = -(np.pi ** 2 / (4.0 * M * M * math.log(2.0))) * n * n
    e = np.ceil(log2_w)
    psi = np.exp2(log2_w - e)
    e = e.astype(np.int64)
    psi /= math.sqrt(float(np.sum(np.ldexp(psi, e) ** 2)))
    psi_prev = np.zeros_like(psi)
    low = []                     # (mantissa, exponent) of psi_0 and psi_1
    gammas = np.full(deg_max + 1, np.nan)
    g_prev = 0.0
    for k in range(1, deg_max + 1):
        if k <= 2:
            low.append((psi, e))
        y = n * psi - g_prev * psi_prev
        g = math.sqrt(float(np.sum(np.ldexp(y, e) ** 2)))
        psi_prev, psi = psi, y / g
        # renormalize both carried rows so the larger mantissa lies in [0.5, 1)
        _, d = np.frexp(np.maximum(np.abs(psi), np.abs(psi_prev)))
        psi, psi_prev, e = np.ldexp(psi, -d), np.ldexp(psi_prev, -d), e + d
        if k >= 2:
            m0, e0 = low[k % 2]
            defect = abs(float(np.sum(np.ldexp(psi * m0, e + e0))))
            if defect > DD_FALLBACK_DEFECT:
                raise PrecisionError(
                    f"orthogonality defect {defect:.1e} at degree {k} for M = {M}")
        gammas[k] = g
        g_prev = g
    return gammas


@dataclass(frozen=True)
class FiniteNModel:
    """Recursion data for the discrete orthogonal system at fixed (M, N)."""

    M: float
    N: int
    n_max: int
    n_grid: np.ndarray = field(repr=False)
    gamma: np.ndarray = field(repr=False)       # gamma[k], k >= 1
    log_h: np.ndarray = field(repr=False)       # log h_k
    psi_table: np.ndarray = field(repr=False)   # (deg+1, n_pts) wave functions
    orthonormality_defect: float = np.nan
    used_extended_precision: bool = False

    @property
    def deg_max(self):
        return self.psi_table.shape[0] - 1

    def psi(self, k):
        return self.psi_table[k]

    def ratio_R(self, k):
        """R_k = h_k / h_{k-1} = gamma_k^2."""
        return float(self.gamma[k] ** 2)


def _orthonormality_defect(model, max_deg=None):
    deg = model.deg_max if max_deg is None else min(max_deg, model.deg_max)
    sub = model.psi_table[: deg + 1]
    gram = sub @ sub.T
    return float(np.max(np.abs(gram - np.eye(deg + 1))))


def build_op_table(M, N, defect_threshold=DD_FALLBACK_DEFECT, u_edge=0.0):
    """Stieltjes construction of the orthonormal wave functions at (M, N).

    u_edge widens the lattice so later G evaluations up to |u| = u_edge are
    tail-certified without rebuilding.
    """
    if not 1 <= N <= 64:
        raise DomainError("walker count N must lie in [1, 64]")
    if not 0.5 <= M <= 4.0 * math.sqrt(2.0 * N) + 1e-9:
        raise DomainError(f"M = {M} outside [0.5, 4 sqrt(2N)]")
    deg_max = 2 * N - 1
    n_max = suggested_n_max(M, deg_max, u_edge=u_edge)
    n = np.arange(-n_max, n_max + 1, dtype=float)
    w = np.exp(-np.pi ** 2 * n ** 2 / (2.0 * M * M))
    h0, gammas, table = _stieltjes_float(n, w, deg_max)
    log_h = np.empty(deg_max + 1)
    log_h[0] = math.log(h0)
    log_h[1:] = log_h[0] + 2.0 * np.cumsum(np.log(gammas[1:]))
    model = FiniteNModel(M=float(M), N=int(N), n_max=n_max, n_grid=n,
                         gamma=gammas, log_h=log_h, psi_table=table)
    defect = _orthonormality_defect(model, max_deg=min(deg_max, 63))
    object.__setattr__(model, "orthonormality_defect", defect)
    if defect > defect_threshold:
        # extended-precision rerun; defect beyond this means the float
        # recursion lost orthogonality
        model = _build_op_table_dd(M, N, n_max)
        if model.orthonormality_defect > defect_threshold:
            raise PrecisionError(
                f"orthogonality defect {model.orthonormality_defect:.2e} persists "
                "in extended precision")
    return model


def _build_op_table_dd(M, N, n_max):
    deg_max = 2 * N - 1
    n = np.arange(-n_max, n_max + 1, dtype=float)
    ah, al = _weight_exponent(M)
    wh, wl = dd.exp(*dd.mul_d(ah, al, -(n * n)))
    h0h, h0l = dd.tree_sum(wh, wl)
    sh, sl = dd.sqrt(*dd.div(wh, wl, h0h, h0l))
    psi_h, psi_l = sh, sl
    prev_h = np.zeros_like(psi_h)
    prev_l = np.zeros_like(psi_l)
    gammas = np.full(deg_max + 1, np.nan)
    table = np.empty((deg_max + 1, len(n)))
    table[0] = psi_h + psi_l
    g_h, g_l = 0.0, 0.0
    log_h = np.empty(deg_max + 1)
    log_h[0] = math.log(h0h)
    for k in range(1, deg_max + 1):
        yh, yl = dd.add(*dd.mul(*dd.dd(n), psi_h, psi_l),
                        *dd.neg(*dd.mul(prev_h, prev_l, g_h, g_l)))
        n2h, n2l = dd.tree_sum(*dd.mul(yh, yl, yh, yl))
        gh, gl = dd.sqrt(n2h, n2l)
        prev_h, prev_l = psi_h, psi_l
        psi_h, psi_l = dd.div(yh, yl, gh, gl)
        gammas[k] = gh + gl
        table[k] = psi_h + psi_l
        g_h, g_l = gh, gl
        log_h[k] = log_h[k - 1] + 2.0 * math.log(gh)
    model = FiniteNModel(M=float(M), N=int(N), n_max=n_max, n_grid=n,
                         gamma=gammas, log_h=log_h, psi_table=table,
                         used_extended_precision=True)
    object.__setattr__(model, "orthonormality_defect",
                       _orthonormality_defect(model, max_deg=min(deg_max, 63)))
    return model


def recurrence_table(M, deg_max, n_max=None):
    """gamma_k (k <= deg_max) for the double-scaling analysis; no N cap.

    Near and beyond the transition degree ~ M^2 the wave functions press
    against the lattice Nyquist momentum and spread to |n| ~ (2/pi) deg, past
    the |n| ~ 17.3 M where exp(-pi^2 n^2/(4 M^2)) underflows in doubles.  The
    extended-exponent kernel covers that support for every M; the gammas
    agree with a 45-digit Stieltjes to 4e-15 up to degree 968 at M = 30.
    Beyond degree M^2 + c M, with c from about 2 at M = 40 to 6 at M = 1,
    double precision loses orthogonality and PrecisionError is raised.
    """
    if n_max is None:
        n_max = max(suggested_n_max(M, deg_max), int(math.ceil(0.66 * deg_max + 60.0)))
    if deg_max > 2 * n_max:
        raise DomainError("degree exceeds the lattice support")
    n = np.arange(-n_max, n_max + 1, dtype=float)
    return _stieltjes_extended(n, M, deg_max)


def _g_lattice(model, k, u_edge):
    need = max(suggested_n_max(model.M, 2 * k - 1, u_edge=u_edge), model.n_max)
    return np.arange(-need, need + 1, dtype=float)


def _g_terms_combined(n, gammas, log_h0, M, k, u):
    """Alternating-sum terms via the recursion on q_j(n) = phat_j(n) W(n),
    where W is the combined Gaussian exp(-(pi^2 n^2/(4 M^2))(1 + 2u)).

    Folding the full exponential into the recursion seed keeps every
    intermediate representable: the factored form psi * exp(-u ...) under- and
    overflows pointwise near |u| = 1/2 although the product is O(1).
    """
    expo = np.exp(-(np.pi ** 2 * n * n / (4.0 * M * M)) * (1.0 + 2.0 * u))
    q = expo * math.exp(-0.5 * log_h0)
    q_prev = np.zeros_like(q)
    for j in range(1, 2 * k):
        if j == 1:
            q_new = n * q / gammas[1]
        else:
            q_new = (n * q - gammas[j - 1] * q_prev) / gammas[j]
        q_prev, q = q, q_new
    signs = 1.0 - 2.0 * (np.abs(n).astype(int) % 2)
    return signs * n * q


def _g_sum_dd(M, k, u, n_eval):
    """Full dd pipeline: dd Stieltjes for the gammas on the weight support,
    then the combined-exponent recursion and alternating sum in dd."""
    n_base = np.arange(-suggested_n_max(M, 2 * k - 1), suggested_n_max(M, 2 * k - 1) + 1,
                       dtype=float)
    ah, al = _weight_exponent(M)
    wh, wl = dd.exp(*dd.mul_d(ah, al, -(n_base * n_base)))
    h0h, h0l = dd.tree_sum(wh, wl)
    psi_h, psi_l = dd.sqrt(*dd.div(wh, wl, h0h, h0l))
    prev_h = np.zeros_like(psi_h)
    prev_l = np.zeros_like(psi_l)
    g_h = g_l = 0.0
    gam_dd = [(np.nan, np.nan)]
    for j in range(1, 2 * k):
        yh, yl = dd.add(*dd.mul(*dd.dd(n_base), psi_h, psi_l),
                        *dd.neg(*dd.mul(prev_h, prev_l, g_h, g_l)))
        n2h, n2l = dd.tree_sum(*dd.mul(yh, yl, yh, yl))
        gh, gl = dd.sqrt(n2h, n2l)
        prev_h, prev_l = psi_h, psi_l
        psi_h, psi_l = dd.div(yh, yl, gh, gl)
        g_h, g_l = gh, gl
        gam_dd.append((float(gh), float(gl)))
    # combined-exponent recursion on the evaluation lattice
    n = n_eval
    ch, cl = dd.mul_d(*dd.div_d(*dd.mul(*_PI_DD, *_PI_DD), 4.0 * M * M), 1.0 + 2.0 * u)
    eh, el = dd.exp(*dd.mul_d(ch, cl, -(n * n)))
    ih, il = dd.div(*dd.dd(np.ones_like(n)), *dd.sqrt(h0h, h0l))
    qh, ql = dd.mul(eh, el, ih, il)
    qph, qpl = np.zeros_like(qh), np.zeros_like(ql)
    for j in range(1, 2 * k):
        nh, nl = dd.mul(*dd.dd(n), qh, ql)
        if j > 1:
            gp_h, gp_l = gam_dd[j - 1]
            nh, nl = dd.add(nh, nl, *dd.neg(*dd.mul(qph, qpl, gp_h, gp_l)))
        qph, qpl = qh, ql
        qh, ql = dd.div(nh, nl, gam_dd[j][0], gam_dd[j][1])
    signs = 1.0 - 2.0 * (np.abs(n).astype(int) % 2)
    th, tl = dd.mul(qh, ql, *dd.dd(signs * n))
    sh, sl = dd.tree_sum(th, tl)
    return float(sh + sl)


def g_function(model, k, u):
    """G_{2k-1}(M, u) = sum_n (-1)^n n psi_{2k-1}(n) exp(-u pi^2 n^2/(2M^2)).

    Absolutely convergent for |u| < 1/2; the lattice cutoff certifies the
    dropped tail below 1e-15 of the peak term.  Falls back to the dd pipeline
    when the alternating cancellation exhausts double precision.
    """
    if not abs(u) < 0.5:
        raise DomainError("|u| < 1/2 required")
    if not 1 <= k <= (model.deg_max + 1) // 2:
        raise DomainError(f"k must lie in [1, {(model.deg_max + 1) // 2}]")
    n = _g_lattice(model, k, u)
    terms = _g_terms_combined(n, model.gamma, model.log_h[0], model.M, k, u)
    total = float(np.sum(terms))
    peak = float(np.max(np.abs(terms)))
    if peak > 0 and abs(total) < CANCELLATION_GUARD * peak:
        return _g_sum_dd(model.M, k, u, n)
    return total


def g_function_vector(model, k, u_values):
    """g_function over an array of u (float path only; used by quadratures
    at physical arguments where no deep cancellation occurs)."""
    u_values = np.asarray(u_values, dtype=float)
    if np.any(np.abs(u_values) >= 0.5):
        raise DomainError("|u| < 1/2 required")
    n = _g_lattice(model, k, float(np.max(np.abs(u_values))))
    expo = np.exp(-(np.pi ** 2 * n[:, None] ** 2 / (4.0 * model.M ** 2))
                  * (1.0 + 2.0 * u_values[None, :]))
    q = expo * math.exp(-0.5 * model.log_h[0])
    q_prev = np.zeros_like(q)
    nn = n[:, None]
    for j in range(1, 2 * k):
        if j == 1:
            q_prev, q = q, nn * q / model.gamma[1]
        else:
            q_prev, q = q, (nn * q - model.gamma[j - 1] * q_prev) / model.gamma[j]
    signs = 1.0 - 2.0 * (np.abs(n).astype(int) % 2)
    return (signs * n) @ q


def log_cdf_max(M, N, model=None):
    """log F_N(M); the h-product is accumulated in log space."""
    if model is None:
        model = build_op_table(M, N)
    total = gammaln(N + 1) - sum(gammaln(2.0 + j) + gammaln(1.5 + j) for j in range(N))
    total += (2 * N * N + N) * math.log(math.pi) - (N * N + N / 2.0) * math.log(2.0)
    total -= (2 * N * N + N) * math.log(M)
    total += float(sum(model.log_h[2 * i - 1] for i in range(1, N + 1)))
    return min(total, 0.0)


def cdf_max_finite_n(M, N, model=None):
    """F_N(M): cumulative distribution of the maximal height."""
    return math.exp(log_cdf_max(M, N, model=model))


def jpdf_finite_n(M, tau, N, model=None):
    """P_N(M, tau): joint density of the maximum and its position."""
    if not 0.0 < tau < 1.0:
        raise DomainError("tau must lie in (0, 1)")
    if model is None:
        model = build_op_table(M, N)
    u = tau - 0.5
    acc = 0.0
    for k in range(1, N + 1):
        acc += g_function(model, k, u) * g_function(model, k, -u)
    val = cdf_max_finite_n(M, N, model=model) * math.pi ** 2 / (2.0 * M ** 3) * acc
    return float(val)


@dataclass(frozen=True)
class ScalingCoordinates:
    """Maps between (M, tau, N) and the edge variables (s, w), plus the
    large-deviation variables."""

    N: int

    def to_sw(self, M, tau):
        n16 = self.N ** (1.0 / 6.0)
        s = 2.0 ** (11.0 / 6.0) * n16 * (M - math.sqrt(2.0 * self.N))
        w = 2.0 ** (8.0 / 3.0) * self.N ** (1.0 / 3.0) * (tau - 0.5)
        return s, w

    def from_sw(self, s, w):
        M = math.sqrt(2.0 * self.N) + s / (2.0 ** (11.0 / 6.0) * self.N ** (1.0 / 6.0))
        tau = 0.5 + w / (2.0 ** (8.0 / 3.0) * self.N ** (1.0 / 3.0))
        return M, tau

    @staticmethod
    def c_of(k, M):
        return 2.0 * k / (M * M)

    @staticmethod
    def rho_of(u):
        return 1.0 - 4.0 * u * u

    @staticmethod
    def v_of(u, M):
        return u * M ** (2.0 / 3.0)

    @staticmethod
    def x_of(index, M):
        return M ** (4.0 / 3.0) * (1.0 - index / (M * M))


@dataclass(frozen=True)
class LargeDeviationPoint:
    y_star: float
    phi_star: float
    phi_pp: float
    varphi: float
    log_jpdf_estimate: float


def large_deviation_eval(c, u, M):
    """Saddle data and rate function of the M >> sqrt(2N) regime."""
    rho = 1.0 - 4.0 * u * u
    crho = c * rho
    if not 0.0 < c <= 1.0 + 1e-12:
        raise DomainError("c must lie in (0, 1]")
    if crho > 1.0 + 1e-12:
        raise DomainError("c rho must not exceed 1")
    crho = min(crho, 1.0)
    root = math.sqrt(max(1.0 - crho, 0.0))
    y_star = (1.0 - root) / math.sqrt(2.0 * rho)
    one_m = 1.0 - root
    phi_star = -(2.0 - 2.0 * root + crho * (1.0 + math.log(2.0 * rho) - 2.0 * math.log(one_m))) / (2.0 * rho)
    phi_pp = 2.0 - 2.0 * crho / one_m ** 2
    varphi = 2.0 * root / rho - c * math.log(crho) + 2.0 * c * math.log(one_m)
    return LargeDeviationPoint(y_star=y_star, phi_star=phi_star, phi_pp=phi_pp,
                               varphi=varphi, log_jpdf_estimate=-M * M * varphi)


def _hermite_fn_pair(k_top, z):
    """(h_{k_top}, h_{k_top - 1}) orthonormal Hermite functions."""
    if 0.5 * z * z > 650.0:
        raise DomainError("Hermite-function seed underflows; argument too large")
    h_prev = np.pi ** -0.25 * math.exp(-0.5 * z * z)
    h_cur = math.sqrt(2.0) * z * h_prev
    for j in range(1, k_top):
        h_prev, h_cur = h_cur, math.sqrt(2.0 / (j + 1)) * z * h_cur - math.sqrt(j / (j + 1.0)) * h_prev
    return h_cur, h_prev


def g_closed_form(M, k, u=0.0):
    """Hermite closed form of G_{2k-1}(M, u) for the M >> sqrt(2N) regime,
    evaluated through orthonormal Hermite functions so no factor overflows."""
    rho_r = (1.0 - 2.0 * u) / (1.0 + 2.0 * u)
    zt = M * math.sqrt(2.0 / (1.0 - 4.0 * u * u))
    log_fac = k * math.log(rho_r) + 2.0 * u * M * M / (1.0 - 4.0 * u * u)
    h2k, h2km1 = _hermite_fn_pair(2 * k, zt)
    bracket = math.sqrt(rho_r) * math.sqrt(2.0 * k) * h2k - M * h2km1
    return ((-1.0) ** k * (2.0 ** 2.75 / np.pi) * M ** 1.5
            * (1.0 - 2.0 * u) ** -1.5 * math.exp(log_fac) * bracket)


def g_plancherel_rotach(M, k, u):
    """Edge form of G_{2k-1}(M, u): with v = u M^{2/3}, x = x_{2k},
    (-1)^{k+1} (8/pi) M^{5/3} e^{16 v^3/3 + 2 v x} (2 v Ai(4v^2+x) + Ai'(4v^2+x)).

    Valid in the large-x tail of the double-scaling zone (the full limit
    object at x = O(1) is the function f(2^{2/3} x, 2^{7/3} v))."""
    v = u * M ** (2.0 / 3.0)
    x = ScalingCoordinates.x_of(2 * k, M)
    a, ap = airy_both(4.0 * v * v + x)
    return ((-1.0) ** (k + 1) * (8.0 / np.pi) * M ** (5.0 / 3.0)
            * math.exp(16.0 * v ** 3 / 3.0 + 2.0 * v * x)
            * (2.0 * v * a + ap))


@dataclass(frozen=True)
class DoubleScalingReport:
    M: float
    k: int
    x_even: float
    x_odd: float
    deviation_even: float
    deviation_odd: float
    f1_even: float
    f1_odd: float
    rel_even: float
    rel_odd: float

    @property
    def signs_alternate(self):
        return self.deviation_even * self.deviation_odd < 0


def f1_scaling_function(x, sol):
    """f1(x) = -(2^{5/3}/pi^2) q(2^{2/3} x)."""
    return -(2.0 ** (5.0 / 3.0) / np.pi ** 2) * sol.q_at(2.0 ** (2.0 / 3.0) * np.asarray(x, dtype=float))


def double_scaling_check(M, k, sol, gammas=None):
    """Compare measured (R_j - M^4/pi^2)/M^{10/3} against -/+ f1(x_j) for the
    even/odd recursion coefficients around index 2k."""
    if M < 10.0:
        raise DomainError("double-scaling comparison requires M >= 10")
    if gammas is None:
        gammas = recurrence_table(M, 2 * k + 1)
    r_even = gammas[2 * k] ** 2
    r_odd = gammas[2 * k + 1] ** 2
    x_even = ScalingCoordinates.x_of(2 * k, M)
    x_odd = ScalingCoordinates.x_of(2 * k + 1, M)
    dev_even = (r_even - M ** 4 / np.pi ** 2) / M ** (10.0 / 3.0)
    dev_odd = (r_odd - M ** 4 / np.pi ** 2) / M ** (10.0 / 3.0)
    f1e = float(f1_scaling_function(x_even, sol))
    f1o = float(f1_scaling_function(x_odd, sol))
    return DoubleScalingReport(
        M=M, k=k, x_even=x_even, x_odd=x_odd,
        deviation_even=float(dev_even), deviation_odd=float(dev_odd),
        f1_even=f1e, f1_odd=f1o,
        rel_even=float((dev_even - (-f1e)) / abs(f1e)),
        rel_odd=float((dev_odd - f1o) / abs(f1o)),
    )
