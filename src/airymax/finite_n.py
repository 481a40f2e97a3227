"""Exact finite-N machinery: discrete orthogonal polynomials on the integer
lattice with weight exp(-pi^2 n^2 / (2 M^2)), the alternating G sums, the
joint density of (max height, argmax time) for N non-intersecting excursions,
its cumulative in M, and the large-M asymptotic cross-checks.

One Stieltjes kernel serves build_op_tables (degree 2N - 1, N <= 256, a
whole grid of M at once), build_op_table (one M) and recurrence_table (any
degree the lattice supports).  It runs on a block of rows, one per M, in
array operations over (lattice point, row); each row keeps its own lattice,
exponents, omega estimates, projections and resets, so a row's table is
the same bit for bit alone or in any block.  It works on orthonormal wave
functions, each value a float mantissa times a per-n power of two, so wave
functions reaching past the weight's underflow need no extra digits; norms
are tracked as log h_k.  It reorthogonalizes within each parity only where
Simon's omega recurrence or a cancelling three-term step calls for it, and
raises PrecisionError only at Lanczos breakdown.
The alternating G sums cancel to about exp(-M^2/(1+2u)) of their term scale,
far beyond double precision once M^2/(1+2u) passes ~35.  Where they cancel,
G is taken from their Poisson dual: a sum of a few Hermite-function terms
that carry that scale themselves and do not cancel.  Every k and both signs
of u come from one pass per op table, on the distinct values of u and -u
(g_product_sum), so a row of the joint density at one M is one G pass.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PrecisionError
from .painleve import tracy_widom_f1
from .special import airy_both

_EPS = np.finfo(float).eps
_SEMI_ORTHOGONAL = math.sqrt(_EPS)     # omega bound of partial reorthogonalization
_ORTHOGONAL = _EPS ** 0.75             # overlap left by a reorthogonalization
_MAX_PASSES = 4                        # projections per reorthogonalization
_CANCELLED = 1e-2                      # gamma_k / gamma_{k-1} below this projects y
_BREAKDOWN_SHARE = 1e-18               # less of the residual left is rounding noise
# a residual norm below this loses relative precision: its squares flush to
# zero or turn subnormal in the norm's dot product
_RESOLVED_NORM = math.sqrt(np.finfo(float).tiny / _EPS)
_DRIFT = 300.0                         # log2 range of the unreset mantissas
_HISTORY_BYTES = 1 << 24               # stored wave functions of one block of rows


def suggested_n_max(M, deg_max):
    """Lattice cutoff certifying the dropped tail of the Stieltjes sums.

    The heaviest integrand is n^(deg+1) exp(-a n^2) with a = pi^2/(4 M^2);
    cover its peak plus a generous margin.
    """
    a = np.pi ** 2 / (4.0 * M * M)
    n_peak = math.sqrt((deg_max + 2.0) / (2.0 * a))
    return int(math.ceil(max(8.0 * M + 50.0, 1.8 * n_peak + 50.0)))


def _column_norms(mantissa, exponent, widths):
    """Euclidean norm of mantissa * 2^exponent for each row r (column r of
    the (lattice point, row) arrays) over its first widths[r] points, one
    contiguous dot per row: the zeros past a row's lattice take no part, so
    its norm does not depend on the rows beside it."""
    v = np.ascontiguousarray(np.ldexp(mantissa, exponent).T)
    return np.array([math.sqrt(float(np.dot(col[:w], col[:w]))) for col, w in zip(v, widths)])


def _stieltjes(M, n_max, deg_max):
    """log h_0 and gamma_k (k <= deg_max) of the lattice weights
    w(n) = exp(-pi^2 n^2/(2 M^2)), |n| <= n_max, one row per entry of the
    arrays M and n_max; shapes (rows,) and (rows, deg_max + 1).

    The rows run in blocks whose stored wave functions fit in _HISTORY_BYTES.
    A block is one pass of _stieltjes_block, and a row's table is the same
    bit for bit whichever rows share its block.
    """
    M = np.asarray(M, dtype=float)
    n_max = np.asarray(n_max, dtype=np.int64)
    size = max(1, _HISTORY_BYTES // (8 * (deg_max + 1) * (int(n_max.max()) + 1)))
    blocks = [_stieltjes_block(M[i:i + size], n_max[i:i + size], deg_max)
              for i in range(0, len(M), size)]
    return np.concatenate([b[0] for b in blocks]), np.concatenate([b[1] for b in blocks])


def _stieltjes_block(M, n_max, deg_max):
    """The Stieltjes procedure (Gautschi 2004) for a block of rows, on the
    orthonormal wave functions psi_k = phat_k sqrt(w):
    gamma_{k+1} psi_{k+1} = n psi_k - gamma_k psi_{k-1}.

    psi_k has the parity of k, so the kernel runs on n >= 0 with psi scaled
    by sqrt(2) off n = 0, where same-parity inner products are plain dots.
    Each row lives on its own lattice 0..n_max, zero past it.  Each value is
    a float mantissa times a per-(row, n) power of two shared by the two
    carried wave functions: the three-term step acts pointwise, so wave
    functions reaching past the weight's underflow stay exact to rounding.  A
    row's exponents are reset from its mantissas wherever a scalar bound on
    their growth or decay since its last reset leaves [2^-_DRIFT, 2^_DRIFT].
    The normalized wave functions are also kept as plain floats, for
    projections only.

    Orthogonality to earlier wave functions of the same parity is estimated
    per row by Simon's omega recurrence (Math. Comp. 42, 1984).  Where the
    estimate passes sqrt(eps), for that step and the next, and where the
    three-term step cancels (gamma_{k+1} below _CANCELLED gamma_k, which the
    estimate does not model), the row's residual alone is projected: its
    overlaps with that row's stored wave functions of its parity are measured
    and subtracted until they fall below eps^(3/4) of its norm.  Twice is
    usually enough (Parlett, The Symmetric Eigenvalue Problem, sec. 6.9), but
    the stored rows are only semi-orthogonal, and after a deep cancellation
    a third pass can be needed.  Where less than _BREAKDOWN_SHARE of the
    residual remains it is rounding noise (Lanczos breakdown: the weight
    lives on too few lattice points for the degree) and PrecisionError is
    raised.  So it is where the residual's norm falls below
    sqrt(tiny / eps) ~ 1e-146, before or after a projection: its squared
    norm is then not resolved in doubles (gamma_1 ~ sqrt(2)
    exp(-pi^2 / (4 M^2)) is that small for M below about 0.086).
    """
    n_rows = len(M)
    widths = (n_max + 1).tolist()
    n_max = n_max.astype(float)
    n = np.arange(max(widths), dtype=float)[:, None]
    # floored far below any double, so the exponents fit the int32 on which
    # numpy vectorizes ldexp
    log2_sqw = np.maximum(-(np.pi ** 2 / (4.0 * M * M * math.log(2.0))) * n * n, -2.0 ** 30)
    e = np.ceil(log2_sqw)
    psi = np.exp2(log2_sqw - e)
    psi[1:] *= math.sqrt(2.0)
    psi[n > n_max] = 0.0
    e = e.astype(np.int32)
    h0 = _column_norms(psi, e, widths) ** 2
    psi /= np.sqrt(h0)
    psi_prev = np.zeros_like(psi)
    # one array per degree, not one block: the allocator reuses the pieces,
    # where a freed multi-MB block would leave the heap's peak raised
    stored = [np.ldexp(psi, e)]
    gammas = np.zeros((deg_max + 1, n_rows))
    # omega[j + 1] estimates psi_k . psi_j for j of the parity of k; omega[0] = 0
    omega, omega_prev = np.zeros((deg_max + 3, n_rows)), np.zeros((deg_max + 3, n_rows))
    omega[1] = 1.0
    project_next = np.zeros(n_rows, dtype=bool)
    log2_drift, g_max = np.zeros(n_rows), np.zeros(n_rows)
    for k in range(deg_max):
        g_k = gammas[k]
        y = n * psi
        y -= g_k * psi_prev
        g = g_in = _column_norms(y, e, widths)
        if not g_in.min() > _RESOLVED_NORM:
            r = (~(g_in > _RESOLVED_NORM)).nonzero()[0][0]
            raise PrecisionError(
                f"Stieltjes breakdown at degree {k + 1} for M = {M[r]}: the residual "
                f"norm {g_in[r]:.1e} is below the range where doubles resolve it")
        project = project_next | (g < _CANCELLED * g_k)
        p = (k + 1) % 2
        if k:
            # omega_{k+1, j} for j = p, p + 2, ..., k - 1, into the buffer of
            # omega_{k-1}, which has parity p too; a row that projects sets
            # its entries below instead (its g may be tiny)
            rec = gammas[p + 1:k + 1:2] * omega[p + 2:k + 2:2]
            rec += gammas[p:k:2] * omega[p:k:2]
            rec -= g_k * omega_prev[p + 1:k + 1:2]
            # Simon's rounding term eps (gamma_{k+1} + gamma_{j+1}), at its largest
            rec += np.copysign(_EPS * (g + g_max), rec)
            rec = np.divide(rec, g, out=omega_prev[p + 1:k + 1:2], where=~project)
            project |= ~(np.abs(rec).max(axis=0) <= _SEMI_ORTHOGONAL)
        for r in project.nonzero()[0]:
            # measure the row's overlaps with its stored wave functions of
            # its parity and subtract them until they fall below _ORTHOGONAL
            same = np.array([s[:widths[r], r] for s in stored[p:k:2]])
            y_r, e_r = y[:widths[r], r], e[:widths[r], r]
            for _ in range(_MAX_PASSES):
                v = np.ldexp(y_r, e_r)
                c = np.dot(same, v)
                g_r = math.sqrt(float(np.dot(v, v)))
                if np.abs(c).max() <= _ORTHOGONAL * g_r:
                    break
                y_r -= np.ldexp(np.dot(c, same), -e_r)
            else:
                raise PrecisionError(f"Stieltjes reorthogonalization at degree {k + 1} "
                                     f"for M = {M[r]} did not converge")
            if not g_r > max(_BREAKDOWN_SHARE * g_in[r], _RESOLVED_NORM):
                raise PrecisionError(
                    f"Stieltjes breakdown at degree {k + 1} for M = {M[r]}: projection "
                    f"left {g_r / g_in[r]:.1e} of the residual")
            omega_prev[p + 1:k + 1:2, r] = c / g_r
            g[r] = g_r
        project_next ^= project
        y /= g
        psi_prev, psi = psi, y
        # per step the larger of the two mantissas at a point grows by at most
        # (n_max + g_k)/g and falls by at most g_k/(2 max(n_max, g))
        decay = 2.0 * np.maximum(n_max, g) / g_k if k else 1.0
        log2_drift += np.log2(np.maximum((n_max + g_k) / g, decay))
        reset = (project | (log2_drift > _DRIFT)).nonzero()[0]
        if reset.size:
            _, d = np.frexp(np.fmax(np.abs(psi[:, reset]), np.abs(psi_prev[:, reset])))
            psi[:, reset] = np.ldexp(psi[:, reset], -d)
            psi_prev[:, reset] = np.ldexp(psi_prev[:, reset], -d)
            e[:, reset] += d
            log2_drift[reset] = 0.0
        omega_prev[k + 2] = 1.0
        omega_prev, omega = omega, omega_prev
        gammas[k + 1] = g
        np.maximum(g_max, g, out=g_max)
        stored.append(np.ldexp(psi, e))
    gammas[0] = np.nan
    return np.array([math.log(h) for h in h0]), gammas.T


@dataclass(frozen=True)
class FiniteNModel:
    """Recursion data for the discrete orthogonal system at fixed (M, N)."""

    M: float
    N: int
    n_max: int
    gamma: np.ndarray = field(repr=False)       # gamma[k], k >= 1
    log_h: np.ndarray = field(repr=False)       # log h_k
    # always False; perfbench's tracer reads it for finite_n.dd_tables
    used_extended_precision: bool = False

    @property
    def deg_max(self):
        return len(self.gamma) - 1


def check_table_domain(M_values, N):
    """DomainError unless 1 <= N <= 256 and every M lies in [0.5, 4 sqrt(2N)]."""
    if not 1 <= N <= 256:
        raise DomainError("walker count N must lie in [1, 256]")
    for M in M_values:
        if not 0.5 <= M <= 4.0 * math.sqrt(2.0 * N) + 1e-9:
            raise DomainError(f"M = {M} outside [0.5, 4 sqrt(2N)]")


def build_op_tables(M_values, N):
    """Recursion coefficients gamma_k and log norms log h_k of the lattice
    weights exp(-pi^2 n^2/(2 M^2)) up to degree 2N - 1, N <= 256, one
    FiniteNModel per M in order, from one run of the Stieltjes kernel.  Every
    M is checked before any table is built.  PrecisionError only at Lanczos
    breakdown, where the weight lives on too few lattice points for the
    degree (e.g. M = 0.5 at N = 8); it names the M and ends the whole call.
    """
    M_values = [float(M) for M in M_values]
    check_table_domain(M_values, N)
    if not M_values:
        return []
    deg_max = 2 * N - 1
    n_max = [suggested_n_max(M, deg_max) for M in M_values]
    log_h0, gammas = _stieltjes(M_values, n_max, deg_max)
    models = []
    for M, n_cut, l0, gamma in zip(M_values, n_max, log_h0, gammas):
        log_h = np.empty(deg_max + 1)
        log_h[0] = l0
        log_h[1:] = l0 + 2.0 * np.cumsum(np.log(gamma[1:]))
        models.append(FiniteNModel(M=M, N=int(N), n_max=n_cut, gamma=gamma.copy(), log_h=log_h))
    return models


def build_op_table(M, N):
    """build_op_tables for one M."""
    return build_op_tables([M], N)[0]


def recurrence_table(M, deg_max):
    """gamma_k (k <= deg_max) for the double-scaling analysis; no N cap.
    M must be finite and > 0, and deg_max >= 1.

    Near and beyond the transition degree ~ M^2 the wave functions press
    against the lattice Nyquist momentum and spread to |n| ~ (2/pi) deg, past
    the |n| ~ 17.3 M where exp(-pi^2 n^2/(4 M^2)) underflows in doubles; the
    kernel's per-n exponents cover that support for every M.  The gammas
    agree with a 30-digit Stieltjes to 7e-16 at degrees 700-904 for M = 30,
    and with 60 digits to 1e-14 up to degree 200 = 2 M^2 for M = 10.
    """
    if not (math.isfinite(M) and M > 0.0 and deg_max >= 1):
        raise DomainError("need finite M > 0 and deg_max >= 1")
    n_max = max(suggested_n_max(M, deg_max), int(math.ceil(0.66 * deg_max + 60.0)))
    return _stieltjes([M], [n_max], deg_max)[1][0]


# dropped terms of either G sum lie below e^-_LOG_TAIL of their envelope's peak
_LOG_TAIL = 45.0


def _g_terms(n, gammas, log_h0, M, k_max, u):
    """Terms (-1)^n n q_{2k-1}(n) of the direct alternating sums, shape
    (k_max, len(n), len(u)), from the recursion on q_j(n) = phat_j(n) W(n),
    where W is the combined Gaussian exp(-(pi^2 n^2/(4 M^2))(1 + 2u)).

    Folding the full exponential into the recursion seed keeps every
    intermediate representable: the factored form psi * exp(-u ...) under- and
    overflows pointwise near |u| = 1/2 although the product is O(1).
    """
    nn = n[:, None]
    q = np.exp(-(np.pi ** 2 * nn * nn / (4.0 * M * M)) * (1.0 + 2.0 * u)) * math.exp(-0.5 * log_h0)
    q_prev = np.zeros_like(q)
    signed_n = (1.0 - 2.0 * (np.abs(n) % 2))[:, None] * nn
    out = np.empty((k_max,) + q.shape)
    for j in range(1, 2 * k_max):
        g_prev = gammas[j - 1] if j > 1 else 0.0
        q_prev, q = q, (nn * q - g_prev * q_prev) / gammas[j]
        if j % 2:
            out[j // 2] = signed_n * q
    return out


def _direct_lattice(M, u_min, deg):
    """|n| <= n_cut, past which n^deg exp(-b n^2) stays below e^-_LOG_TAIL of its peak.

    Past the peak n_p = sqrt(deg / (2b)) the envelope falls at least like
    exp(-b (n - n_p)^2), so n_p + sqrt(_LOG_TAIL / b) suffices.
    """
    b = np.pi ** 2 * (1.0 + 2.0 * u_min) / (4.0 * M * M)
    n_cut = int(math.ceil(math.sqrt(deg / (2.0 * b)) + math.sqrt(_LOG_TAIL / b))) + 1
    return np.arange(-n_cut, n_cut + 1, dtype=float)


def _g_dual(model, k_max, u):
    """G_{2k-1}(M, u) for k <= k_max by Poisson summation, shape (k_max, len(u)).

    With b = pi^2 (1 + 2u)/(4 M^2) and y = sqrt(2b) x, each q_j(x) is a finite
    sum of orthonormal Hermite functions phi_n(y): q_0 = pi^(1/4) phi_0 / sqrt(h_0),
    and multiplication by x acts on the coefficients through the Hermite Jacobi
    matrix.  Poisson summation turns sum_n (-1)^n F(n), F = x q_{2k-1}, into
    sum_m Fhat(m + 1/2), and phi_n transforms into (-i)^n phi_n, so
        G = 2 sqrt(pi/b) sum_n (-1)^(n/2) d_n sum_{m >= 0} phi_n(t_m),
    with t_m = pi (2m + 1)/sqrt(2b) and d the coefficients of F (even n only).
    At t_0 = sqrt(2) eta, eta^2 = M^2/(1 + 2u), the Gaussian is exp(-eta^2): the
    scale the direct sum cancels down to, here carried by the terms themselves.
    Coefficients and Hermite values are rescaled by powers of two per column,
    their exponents kept as logs, so neither over- nor underflows on the way.
    """
    deg = 2 * k_max                      # Hermite degree of x q_{2k_max - 1}
    n_u = len(u)
    b = np.pi ** 2 * (1.0 + 2.0 * u) / (4.0 * model.M ** 2)
    r = 1.0 / np.sqrt(2.0 * b)           # x = r y
    half = np.sqrt(np.arange(1, deg + 1) / 2.0)[:, None]
    ln2 = math.log(2.0)

    def times_x(v):                      # y phi_n = sqrt((n+1)/2) phi_{n+1} + sqrt(n/2) phi_{n-1}
        out = np.zeros_like(v)
        out[1:] = half * v[:-1]
        out[:-1] += half * v[1:]
        return out * r

    c = np.zeros((deg + 1, n_u))
    c[0] = np.pi ** 0.25
    c_prev = np.zeros_like(c)
    log_c = np.full(n_u, -0.5 * model.log_h[0])
    d = np.empty((k_max, deg + 1, n_u))
    log_d = np.empty((k_max, n_u))
    for j in range(2 * k_max - 1):       # c becomes the coefficients of q_{j+1}
        nxt = times_x(c)
        if j:
            nxt -= model.gamma[j] * c_prev
        c_prev, c = c, nxt / model.gamma[j + 1]
        _, e = np.frexp(np.max(np.abs(c), axis=0))
        c, c_prev, log_c = np.ldexp(c, -e), np.ldexp(c_prev, -e), log_c + e * ln2
        if j % 2 == 0:
            d[j // 2], log_d[j // 2] = times_x(c), log_c

    # Hermite functions at t_m; the envelope t^deg exp(-t^2/2) falls by
    # e^-_LOG_TAIL within sqrt(2 _LOG_TAIL) of max(t_0, sqrt(deg))
    t0_min = float(np.pi * np.min(r))
    t_last = max(t0_min, math.sqrt(deg)) + math.sqrt(2.0 * _LOG_TAIL)
    n_terms = int((t_last / t0_min - 1.0) // 2.0) + 1
    t = np.pi * (2.0 * np.arange(n_terms) + 1.0)[:, None] * r
    p_prev, p = np.zeros_like(t), np.full_like(t, np.pi ** -0.25)
    log_p = -0.5 * t * t
    phi, log_phi = [p], [log_p]
    for n in range(deg):
        p_prev, p = p, math.sqrt(2.0 / (n + 1)) * t * p - math.sqrt(n / (n + 1.0)) * p_prev
        _, e = np.frexp(np.maximum(np.abs(p), np.abs(p_prev)))
        p, p_prev, log_p = np.ldexp(p, -e), np.ldexp(p_prev, -e), log_p + e * ln2
        phi.append(p)
        log_phi.append(log_p)
    even = slice(0, deg + 1, 2)
    signs = (-1.0) ** np.arange(k_max + 1)[None, :, None]     # (-i)^n, n = 2l
    with np.errstate(under="ignore"):
        scale = np.exp(np.array(log_phi[even])[None] + log_d[:, None, None, :])
        phi_sums = np.sum(np.array(phi[even])[None] * scale, axis=2)   # (k_max, l, n_u)
    return 2.0 * np.sqrt(np.pi / b) * np.sum(signs * d[:, even] * phi_sums, axis=1)


def _g_table(model, k_max, u):
    """G_{2k-1}(M, u) for k <= k_max, shape (k_max, len(u)).

    The dual sum is taken where t_0 = sqrt(2) eta lies past the turning point
    sqrt(4k + 1) of phi_{2k}, i.e. eta^2 >= 2k + 1/2: there the direct sum
    cancels by about exp(-eta^2) and the dual terms decay at once.  Inside the
    turning point the dual polynomials oscillate and lose digits, while the
    direct sum keeps them, on a lattice of a few dozen points since b is
    bounded below there.
    """
    eta2 = model.M ** 2 / (1.0 + 2.0 * u)
    use_dual = eta2[None, :] >= 2.0 * np.arange(1, k_max + 1)[:, None] + 0.5
    out = np.empty((k_max, len(u)))
    cols = np.any(use_dual, axis=0)
    if np.any(cols):
        out[:, cols] = _g_dual(model, k_max, u[cols])
    cols = ~np.all(use_dual, axis=0)
    if np.any(cols):
        n = _direct_lattice(model.M, float(np.min(u[cols])), 2 * k_max)
        direct = _g_terms(n, model.gamma, model.log_h[0], model.M, k_max, u[cols]).sum(axis=1)
        out[:, cols] = np.where(use_dual[:, cols], out[:, cols], direct)
    return out


def _check_k(model, k):
    k_top = (model.deg_max + 1) // 2
    if not 1 <= k <= k_top:
        raise DomainError(f"k must lie in [1, {k_top}]")


def g_function(model, k, u):
    """G_{2k-1}(M, u) = sum_n (-1)^n n psi_{2k-1}(n) exp(-u pi^2 n^2/(2M^2)).

    Absolutely convergent for |u| < 1/2.  Where the alternating sum cancels
    (eta^2 = M^2/(1 + 2u) >= 2k + 1/2) it is evaluated through its Poisson
    dual, a sum of a few non-cancelling Hermite-function terms; elsewhere
    directly on a lattice whose dropped tail is below e^-45 of the peak term.
    """
    return float(g_function_vector(model, k, u))


def g_function_vector(model, k, u_values):
    """g_function over an array of u, in one pass for every k requested.

    k is an int (result shaped like u_values) or a sequence of ints (one row
    per k).  Non-finite u and |u| >= 1/2 raise DomainError; an empty u gives
    an empty result.
    """
    u_values = np.asarray(u_values, dtype=float)
    ks = np.atleast_1d(np.asarray(k))
    for kk in ks:
        _check_k(model, int(kk))
    if not np.all(np.abs(u_values) < 0.5):     # NaN fails this too
        raise DomainError("finite u with |u| < 1/2 required")
    flat = u_values.ravel()
    table = (_g_table(model, int(ks.max()), flat) if flat.size
             else np.empty((int(ks.max()), 0)))
    rows = table[ks - 1].reshape(ks.shape + u_values.shape)
    return rows[0] if np.ndim(k) == 0 else rows


def g_product_sum(model, u_values):
    """sum_{k <= N} G_{2k-1}(M, u) G_{2k-1}(M, -u) over an array of u: the
    tau-dependence of the joint density, from one G evaluation for all k on
    the distinct values of u and -u (a grid symmetric about 0 needs each once)."""
    u_values = np.asarray(u_values, dtype=float)
    n_u = len(u_values)
    both, col = np.unique(np.concatenate([u_values, -u_values]), return_inverse=True)
    g = g_function_vector(model, list(range(1, model.N + 1)), both)
    return np.sum(g[:, col[:n_u]] * g[:, col[n_u:]], axis=0)


def law_table(M_values, N, tau=()):
    """The exact finite-N law on a grid: log F_N(M) for each M, shape (n_M,),
    and the joint density P_N(M, tau), shape (n_M,) + shape of tau.

    Every M and tau is checked before any table is built: tau must lie in
    (0, 1), N in [1, 256] and M in [0.5, 4 sqrt(2N)].  The op tables of all M
    come from one build_op_tables call, and each row of P_N from one G pass
    on its table; an empty tau gives no G pass.  The h-product of F_N is
    accumulated in log space.
    """
    tau = np.asarray(tau, dtype=float)
    if not np.all((tau > 0.0) & (tau < 1.0)):
        raise DomainError("tau must lie in (0, 1)")
    models = build_op_tables(M_values, N)
    log_f = np.empty(len(models))
    dens = np.empty((len(models),) + tau.shape)
    const = math.lgamma(N + 1) - sum(math.lgamma(2.0 + j) + math.lgamma(1.5 + j) for j in range(N))
    const += (2 * N * N + N) * math.log(math.pi) - (N * N + N / 2.0) * math.log(2.0)
    for i, model in enumerate(models):
        M = model.M
        total = const - (2 * N * N + N) * math.log(M)
        total += float(sum(model.log_h[1::2]))
        log_f[i] = min(total, 0.0)
        if tau.size:
            acc = g_product_sum(model, tau.ravel() - 0.5).reshape(tau.shape)
            dens[i] = math.exp(log_f[i]) * math.pi ** 2 / (2.0 * M ** 3) * acc
    return log_f, dens


def log_cdf_max(M, N):
    """log F_N(M), by law_table."""
    return float(law_table([M], N)[0][0])


def cdf_max_finite_n(M, N):
    """F_N(M): cumulative distribution of the maximal height."""
    return math.exp(log_cdf_max(M, N))


def edge_law_convergence(sol, N_values=(8, 16, 32), s_step=0.2):
    """Distance of the rescaled finite-N maximum law from the GOE edge law.

    For each N and s in [-4, 2] by s_step, compares F_N(M) at
    M = sqrt(2N) (1 + s / (2^{7/3} N^{2/3})) with F1(s).  Returns the rows
    (N, s, F_N(M), F1(s), |difference|) and the sup of the difference per N.
    """
    s = np.arange(-4.0, 2.001, s_step)
    f1 = tracy_widom_f1(s, sol)
    rows = []
    sups = {}
    for N in N_values:
        M = np.sqrt(2.0 * N) * (1.0 + s / (2.0 ** (7.0 / 3.0) * N ** (2.0 / 3.0)))
        fn = np.array([math.exp(v) for v in law_table(M, N)[0]])
        diff = np.abs(fn - f1)
        rows.extend(zip([N] * len(s), s, fn, f1, diff))
        sups[N] = float(diff.max())
    return rows, sups


def jpdf_finite_n(M, tau, N):
    """P_N(M, tau): joint density of the maximum and its position, by
    law_table.  tau is a scalar (returns a float) or an array (returns an
    array of its shape, from one G pass)."""
    dens = law_table([M], N, tau)[1][0]
    return float(dens) if dens.ndim == 0 else dens


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
    """Saddle data and rate function of the M >> sqrt(2N) regime; M must be
    finite and positive, and |u| < 1/2."""
    if not (math.isfinite(M) and M > 0.0):
        raise DomainError("M must be finite and > 0")
    if not abs(u) < 0.5:
        raise DomainError("|u| < 1/2 required")
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


def double_scaling_check(M, k, sol):
    """Compare measured (R_j - M^4/pi^2)/M^{10/3} against -/+ f1(x_j) for the
    even/odd recursion coefficients around index 2k."""
    if M < 10.0:
        raise DomainError("double-scaling comparison requires M >= 10")
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
