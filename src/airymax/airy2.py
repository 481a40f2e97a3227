"""Joint law of the maximum and its position for the Airy2 process minus a
parabola, assembled from the Lax-pair psi-functions.

Central objects:

* f(s, w) = -(2^{13/3}/pi^2) int_0^inf zeta Phi2(zeta, s) e^{-w zeta^2} dzeta,
  regularized by exp(-eps zeta^3) for w <= 0.
* P(s, w) = (pi^2/2^{20/3}) F1(s) int_s^inf f(x, w) f(x, -w) dx, identically
  (4/pi^2) F1(s) int h(x, w) h(x, -w) dx with h = -(pi^2/2^{13/3}) f.
* the rescaling hat-P(m, t) = 4 P(2^{2/3} m, 2^{4/3} t).

f has one production route: downward integration of its third-order ODE in
s, seeded at s = 12 from the closed Airy form, where the psi-function
corrections are ~1e-12.  f_function reads this transport.  The regularized
quadrature of the defining integral (_quad_f_batch) is kept as its
independent oracle: the route cross-checks and the third-order ODE residual
of the acceptance suite run on it.

P(s, w) has one assembly, _density_columns, behind joint_pdf, the density
grid and the off-grid marginals.  It transports the +-w columns once, down
to the lowest s wanted, and accumulates int_s^inf f(x, w) f(x, -w) dx
downward from the seed point by cumulative Simpson, plus the analytic tail
above it.  Accumulating from the small end keeps the relative accuracy of
the small densities at large s and |w|, which a total-minus-prefix sum
loses to cancellation.

The transport is classical RK4.  The ODE is linear, so each step is a 3x3
matrix per column that is known before the sweep: the step matrices are
built as arrays, and the states are their prefix products (a doubling scan
within fixed chunks of steps) applied to the seed.  The tests keep the
step-by-step loop as an oracle.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainError, MisconfigurationError, RangeError, ResolutionError,
                     TailRegularizationError)
from .lax import psi_at_s
from .painleve import tracy_widom_f1
from .special import (airy_both, cumulative_simpson, gauss_legendre_rule, legendre_nodes,
                      neville_at_zero, simpson)

TWO_23 = 2.0 ** (2.0 / 3.0)
TWO_43 = 2.0 ** (4.0 / 3.0)
TWO_83 = 2.0 ** (8.0 / 3.0)
TWO_113 = 2.0 ** (11.0 / 3.0)
TWO_133 = 2.0 ** (13.0 / 3.0)
JOINT_PREFACTOR = np.pi ** 2 / 2.0 ** (20.0 / 3.0)
H_FROM_F = -np.pi ** 2 / TWO_133

W_CAP = 6.0
S_SEED = 12.0             # ODE transport seeding point
S_FLOOR = -10.5


def f_closed(s, w, derivatives=0):
    """Closed Airy form of the regularized -sin(4 zeta^3/3 + s zeta) part.

    Equals f(s, w) up to psi-function corrections that vanish for large s;
    exact identity: reg. int_0^inf zeta sin(phi) e^{-w zeta^2} dzeta
    = -pi 2^{-2/3} e^{w^3/24 + s w/4} [(w/4) Ai(theta) + 2^{-2/3} Ai'(theta)]
    with theta = s/2^{2/3} + w^2/2^{8/3}.
    """
    s = np.asarray(s, dtype=float)
    theta = s / TWO_23 + w * w / TWO_83
    expo = w ** 3 / 24.0 + w * s / 4.0
    if np.max(expo) > 690.0:
        raise DomainError("f_closed exponent overflows double range; reduce |w| or s")
    E = np.exp(expo)
    A, Ap = airy_both(theta)
    K = -TWO_113 / np.pi
    V = (w / 4.0) * A + Ap / TWO_23
    f0 = K * E * V
    if derivatives == 0:
        return f0
    Vp = ((w / 4.0) * Ap + theta * A / TWO_23) / TWO_23
    f1 = K * E * ((w / 4.0) * V + Vp)
    if derivatives == 1:
        return f0, f1
    Vpp = 2.0 ** (-4.0 / 3.0) * ((w / 4.0) * theta * A + (A + theta * Ap) / TWO_23)
    f2 = K * E * ((w / 4.0) ** 2 * V + 2.0 * (w / 4.0) * Vp + Vpp)
    return f0, f1, f2


def cos_moment(s, w):
    """Regularized int_0^inf cos(4 zeta^3/3 + s zeta) e^{-w zeta^2} dzeta."""
    s = np.asarray(s, dtype=float)
    theta = (s + w * w / 4.0) / TWO_23
    A, _ = airy_both(theta)
    return np.exp(w ** 3 / 24.0 + s * w / 4.0) * np.pi * A / TWO_23


def _epsilon_ladder(w):
    # dense (ratio sqrt 2) ladder over the clean linear-bias region above the
    # floor below which the damped envelope has no resolvable cancellation
    floor = max(4e-3, 0.30 * abs(min(w, 0.0)) ** 1.5)
    eps = floor * np.sqrt(2.0) ** np.arange(10)[::-1]
    return eps[eps <= 1.0]


def _quad_f_batch(s_values, w_values, sol, zeta_nodes, zeta_weights):
    """Regularized-quadrature f at the (s, w) product set.

    Returns (values, error_estimates), each shaped (n_s, n_w).
    """
    s_values = np.atleast_1d(np.asarray(s_values, dtype=float))
    _, phi2 = psi_at_s(s_values, zeta_nodes, sol)
    phase = (4.0 / 3.0) * zeta_nodes[:, None] ** 3 + s_values[None, :] * zeta_nodes[:, None]
    g_coef = 0.5 * (sol.integral_q2(s_values) + sol.q_at(s_values))
    base = zeta_nodes[:, None] * (phi2 + np.sin(phase)) + g_coef[None, :] * np.cos(phase)
    vals = np.empty((len(s_values), len(w_values)))
    errs = np.empty_like(vals)
    z2 = zeta_nodes ** 2
    z3 = zeta_nodes ** 3
    for j, w in enumerate(w_values):
        kc = cos_moment(s_values, w)
        fc = f_closed(s_values, w)
        if w >= 0.2:
            jhat = zeta_weights @ (base * np.exp(-w * z2)[:, None])
            err = np.full(len(s_values), 1e-9)
        else:
            eps = _epsilon_ladder(w)
            ladder = [zeta_weights @ (base * np.exp(-w * z2 - e * z3)[:, None]) for e in eps]
            jhat, err = neville_at_zero(eps, ladder)
        jfull = jhat - g_coef * kc
        vals[:, j] = fc - TWO_133 / np.pi ** 2 * jfull
        errs[:, j] = TWO_133 / np.pi ** 2 * np.maximum(np.atleast_1d(err), 1e-12)
    return vals, errs


def _large_w_f(s_values, w, sol):
    """f(s, w) for large positive w: the integrand is confined to small zeta,
    which a 200-point Gauss rule covers."""
    cut = max(8.0 / np.sqrt(w), 0.4)
    rule = gauss_legendre_rule(0.0, cut, 200)
    s_values = np.atleast_1d(np.asarray(s_values, dtype=float))
    _, phi2 = psi_at_s(s_values, rule.nodes, sol)
    integrand = rule.nodes[:, None] * phi2 * np.exp(-w * rule.nodes ** 2)[:, None]
    return -TWO_133 / np.pi ** 2 * (rule.weights @ integrand)


@dataclass(frozen=True)
class FProfile:
    """f(., w) tables from downward ODE transport, one column per w."""

    s_grid: np.ndarray           # ascending
    w_values: np.ndarray
    f: np.ndarray                # (n_s, n_w)
    f_s: np.ndarray
    f_ss: np.ndarray

    def column(self, w):
        j = int(np.argmin(np.abs(self.w_values - w)))
        if abs(self.w_values[j] - w) > 1e-12:
            raise RangeError(f"w = {w} not in the transported set")
        return self.f[:, j]

    def value(self, s, w):
        """f(s, w) interpolated linearly in s; RangeError outside the
        transported range."""
        if not self.s_grid[0] <= s <= self.s_grid[-1]:
            raise RangeError(f"s = {s} outside the transported range "
                             f"[{self.s_grid[0]}, {self.s_grid[-1]}]")
        return float(np.interp(s, self.s_grid, self.column(w)))


_CHUNK = 64                 # steps per doubling scan; fixed, so no column depends on the others
_GROUP_ELEMENTS = 2 ** 14   # per matrix component of the chunks scanned together
_EYE = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


def _companion_times(c, m):
    """A m for A = [[0, 1, 0], [0, 0, 1], [c0, c1, c2]] and m a row-major
    3x3 matrix given as its nine components."""
    c0, c1, c2 = c
    return (*m[3:], *(c0 * m[j] + c1 * m[3 + j] + c2 * m[6 + j] for j in range(3)))


def _rk4_step_matrices(ca, cb, cc, h):
    """Components of I + (h/6)(K1 + 2 K2 + 2 K3 + K4), the classical RK4 step
    of Y' = A Y, from A's coefficients at the start, middle and end of each
    step: K1 = A_a, K2 = A_b (I + h K1/2), K3 = A_b (I + h K2/2),
    K4 = A_c (I + h K3)."""
    k1 = (0.0, 1.0, 0.0, 0.0, 0.0, 1.0, *ca)
    k2 = _companion_times(cb, [e + 0.5 * h * k for e, k in zip(_EYE, k1)])
    k3 = _companion_times(cb, [e + 0.5 * h * k for e, k in zip(_EYE, k2)])
    k4 = _companion_times(cc, [e + h * k for e, k in zip(_EYE, k3)])
    return [e + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
            for e, a, b, c, d in zip(_EYE, k1, k2, k3, k4)]


def _chunk_prefix_products(steps):
    """Prefix products S_j ... S_1 within consecutive chunks of _CHUNK steps.

    steps holds the nine components of the step matrices, each broadcastable
    to (n_steps, n_cols).  Returns an array (9, n_chunks, _CHUNK, n_cols); the
    last chunk is padded with identities.  The products come from a
    Hillis-Steele doubling scan, M[d:] <- M[d:] M[:-d] for d = 1, 2, 4, ...
    """
    n_steps, n_cols = np.broadcast_shapes(*(np.shape(c) for c in steps))
    n_chunks = -(-n_steps // _CHUNK)
    m = np.empty((9, n_chunks * _CHUNK, n_cols))
    m[:, n_steps:] = np.array(_EYE)[:, None, None]
    for i, comp in enumerate(steps):
        m[i, :n_steps] = comp
    m = m.reshape(9, n_chunks, _CHUNK, n_cols)
    new = np.empty_like(m)
    tmp = np.empty_like(m[0])
    d = 1
    while d < _CHUNK:
        a, b, t = m[:, :, d:], m[:, :, :-d], tmp[:, d:]
        for r in range(3):
            for j in range(3):
                out = new[3 * r + j, :, d:]
                np.multiply(a[3 * r], b[j], out=out)
                out += np.multiply(a[3 * r + 1], b[3 + j], out=t)
                out += np.multiply(a[3 * r + 2], b[6 + j], out=t)
        new[:, :, :d] = m[:, :, :d]
        m, new = new, m
        d *= 2
    return m


def transport_profile(w_values, sol, s_lo=S_FLOOR, s_hi=S_SEED, step=0.0025):
    """Integrate the third-order ODE in s downward from s_hi for each w.

    The equation is 4 f''' = 2 w f'' + f' (6 u + s) + f (3 u' + 2 - 2 w u)
    with u = q^2 - q'; seeding uses the closed Airy form, exact to ~1e-12
    at s_hi = 12.  Downward integration is stable: the wanted solution is
    the fastest-growing one in that direction.

    The scheme is classical RK4 on Y = (f, f_s, f_ss).  The equation is
    linear, so every step is a fixed 3x3 matrix per column, known before the
    sweep.  The step matrices are built as arrays, their prefix products
    within chunks of _CHUNK steps come from a doubling scan, and the state
    is carried from one chunk to the next.  Every operation is elementwise
    in the columns and the chunking is fixed, so each column's values are
    bitwise independent of the other columns in the call.
    """
    w_arr = np.atleast_1d(np.asarray(w_values, dtype=float))
    if np.any(np.abs(w_arr) > W_CAP):
        raise DomainError(f"|w| capped at {W_CAP}")
    n = max(1, int(round((s_hi - s_lo) / step)))   # s_lo within half a step of s_hi: one step
    h = -(s_hi - s_lo) / n
    half = s_hi + 0.5 * h * np.arange(2 * n + 1)
    U, Up = sol.potentials(half)
    # f''' = c0 f + c1 f' + c2 f''
    c0_base = (3.0 * Up + 2.0) / 4.0
    c1 = (6.0 * U + half) / 4.0
    c2 = w_arr / 2.0

    def coef(i):
        return c0_base[i, None] - 0.5 * U[i, None] * w_arr, c1[i, None], c2

    Y = np.empty((3, len(w_arr)))
    for i, w in enumerate(w_arr):
        a0, a1, a2 = f_closed(np.array([s_hi]), w, derivatives=2)
        Y[0, i], Y[1, i], Y[2, i] = a0[0], a1[0], a2[0]

    out = np.empty((3, n + 1, len(w_arr)))     # ascending s
    desc = out[:, ::-1]
    desc[:, 0] = Y
    # chunks are scanned a group at a time, which keeps the working set in
    # cache; the grouping does not change any column's arithmetic
    span = _CHUNK * max(1, _GROUP_ELEMENTS // (_CHUNK * len(w_arr)))
    for k0 in range(0, n, span):
        k1 = min(k0 + span, n)
        i = 2 * np.arange(k0, k1)
        P = _chunk_prefix_products(_rk4_step_matrices(coef(i), coef(i + 1), coef(i + 2), h))
        starts = np.empty((3, P.shape[1], len(w_arr)))
        for c in range(P.shape[1]):
            starts[:, c] = Y
            e = P[:, c, -1]
            Y = np.array([e[3 * r] * Y[0] + e[3 * r + 1] * Y[1] + e[3 * r + 2] * Y[2]
                          for r in range(3)])
        for r in range(3):
            states = (P[3 * r] * starts[0, :, None] + P[3 * r + 1] * starts[1, :, None]
                      + P[3 * r + 2] * starts[2, :, None])
            desc[r, k0 + 1:k1 + 1] = states.reshape(-1, len(w_arr))[:k1 - k0]

    return FProfile(s_grid=(s_hi + h * np.arange(n + 1))[::-1].copy(), w_values=w_arr,
                    f=out[0], f_s=out[1], f_ss=out[2])


def f_function(s, w, psi=None, sol=None, with_error=False):
    """f(s, w) by downward transport of the third-order ODE, read at the
    grid node s.  (s, w) is checked at entry on the domain of joint_pdf.

    The error estimate is 3e-6 max(1, |f|), or the change from seeding the
    transport one unit lower if that is larger, as it is for s <= -10.5 at
    large w; that second transport runs only when with_error is set.
    """
    sol = _painleve_at(s, w, psi, sol)
    val = float(transport_profile([w], sol, s_lo=s).f[0, 0])
    if not with_error:
        return val
    reseeded = float(transport_profile([w], sol, s_lo=s, s_hi=S_SEED - 1.0).f[0, 0])
    return val, max(3e-6 * max(1.0, abs(val)), abs(val - reseeded))


def _tail_product(w, x_hi=26.0):
    """int_{S_SEED}^{x_hi} f_closed(x, w) f_closed(x, -w) dx (analytic tail)."""
    x = np.linspace(S_SEED, x_hi, 1401)
    y = f_closed(x, w) * f_closed(x, -w)
    return float(simpson(y, x=x))


def _taylor_to(prof, sol, node, s_points):
    """f at the 6 Gauss-Legendre points x of [s, prof.s_grid[node]] for each
    s of s_points, by the cubic Taylor expansion of every column about its
    node, f''' taken from the ODE there.  Returns the points' quadrature
    weights (n_s, 6) and the values (n_s, 6, n_cols)."""
    s_node = prof.s_grid[node]
    gap = s_node - s_points
    t, wt = legendre_nodes(6)
    d = (-0.5 * gap[:, None] * (1.0 + t))[..., None]       # x - s_node
    u, up = (v[:, None] for v in sol.potentials(s_node))
    f0, f1, f2 = prof.f[node], prof.f_s[node], prof.f_ss[node]
    w = prof.w_values
    f3 = (((3.0 * up + 2.0 - 2.0 * w * u) * f0 + (6.0 * u + s_node[:, None]) * f1) / 4.0
          + w * f2 / 2.0)
    vals = f0[:, None] + d * (f1[:, None] + d * (f2[:, None] / 2.0 + d * f3[:, None] / 6.0))
    return 0.5 * gap[:, None] * wt, vals


def _density_columns(w_values, sol, s_points):
    """P(s, w) at the ascending s_points for each w, shaped (n_s, n_w).

    One transport of the +-w columns ends at s_points[0].  Each column's
    int_s^inf f(x, w) f(x, -w) dx is accumulated downward from S_SEED, where
    the product is small, so a small P(s, w) is not the difference of two
    large integrals; the analytic tail above S_SEED is added.  The sums are
    read at the first transport node at or above each s, and the piece from
    s up to that node is added by a 6-point Gauss rule on the nodes' cubic
    Taylor expansions.
    """
    w_values = np.asarray(w_values, dtype=float)
    s_points = np.asarray(s_points, dtype=float)
    cols, where = np.unique(np.concatenate([w_values, -w_values]), return_inverse=True)
    prof = transport_profile(cols, sol, s_lo=s_points[0])
    x_desc = -prof.s_grid[::-1]            # ascending in -s, from -S_SEED
    f_desc = prof.f[::-1]
    node = np.searchsorted(prof.s_grid, s_points - 1e-9)
    idx = len(x_desc) - 1 - node
    gauss_w, f_gap = _taylor_to(prof, sol, node, s_points)
    scale = JOINT_PREFACTOR * tracy_widom_f1(s_points, sol)
    out = np.empty((len(s_points), len(w_values)))
    n_w = len(w_values)
    for j, w in enumerate(w_values):
        prod = f_desc[:, where[j]] * f_desc[:, where[n_w + j]]
        inner = cumulative_simpson(prod, x=x_desc, initial=0.0) + _tail_product(w)
        gap = np.sum(gauss_w * f_gap[:, :, where[j]] * f_gap[:, :, where[n_w + j]], axis=1)
        out[:, j] = scale * (inner[idx] + gap)
    return out


def _painleve_at(s, w, psi, sol):
    """The Hastings-McLeod solution (sol, or else psi.painleve), after
    checking (s, w) at entry: s_min + 0.25 <= s <= min(s_max - 2, S_SEED)
    (F1 needs the first bound, the downward transport from S_SEED the
    second) and |w| <= W_CAP."""
    if sol is None:
        if psi is None:
            raise MisconfigurationError("pass the Hastings-McLeod solution (sol) or a psi grid")
        sol = psi.painleve
    if not abs(w) <= W_CAP:
        raise DomainError(f"|w| <= {W_CAP} required")
    s_top = min(sol.s_max - 2.0, S_SEED)
    if not sol.s_min + 0.25 <= s <= s_top:
        raise RangeError(f"s = {s} outside [{sol.s_min + 0.25}, {s_top}]")
    return sol


def joint_pdf(s, w, psi=None, sol=None):
    """P(s, w) = (pi^2 / 2^{20/3}) F1(s) int_s^infty f(x, w) f(x, -w) dx.

    Reads only the Hastings-McLeod solution: sol, or else psi.painleve.
    """
    sol = _painleve_at(s, w, psi, sol)
    return float(_density_columns([w], sol, [s])[0, 0])


def joint_pdf_large_s(s, w):
    """Closed large-s form: int_z^infty [Ai'^2 - (w^2/2^{8/3}) Ai^2] via the
    standard Airy primitives, z = (w^2 + 4 s)/(4 2^{2/3})."""
    s = np.asarray(s, dtype=float)
    z = (w * w + 4.0 * s) / (4.0 * TWO_23)
    beta = w * w / TWO_83
    A, Ap = airy_both(z)
    int_ai2 = Ap ** 2 - z * A ** 2
    int_aip2 = -(2.0 / 3.0) * A * Ap - (1.0 / 3.0) * z * Ap ** 2 + (1.0 / 3.0) * z ** 2 * A ** 2
    return int_aip2 - beta * int_ai2


@dataclass(frozen=True)
class JointDensityGrid:
    """P(s, w) samples on a product grid, with the solution they came from."""

    s_grid: np.ndarray
    w_grid: np.ndarray
    values: np.ndarray                 # (n_s, n_w)
    normalization_estimate: float
    painleve: object = field(repr=False, default=None, compare=False)


def build_joint_density_grid(sol, s_lo=-10.0, s_hi=8.0, s_step=0.05,
                             w_max=6.0, w_step=0.1):
    """Tabulate P(s, w) on a product grid; w covers [-w_max, w_max]."""
    if not (s_step > 0.0 and w_step > 0.0 and s_lo < s_hi and w_max >= 0.0):
        raise DomainError("need s_step > 0, w_step > 0, s_lo < s_hi and w_max >= 0")
    s_top = min(sol.s_max - 2.0, S_SEED)
    if not (sol.s_min + 0.5 <= s_lo and s_hi <= s_top):
        raise RangeError(f"s range [{s_lo}, {s_hi}] outside [{sol.s_min + 0.5}, {s_top}]")
    if s_step > 0.05 + 1e-12:
        raise ResolutionError("marginal accuracy requires s_step <= 0.05")
    w_pos = np.round(np.arange(0.0, w_max + w_step / 2, w_step), 12)
    s_grid = np.round(np.arange(s_lo, s_hi + s_step / 2, s_step), 12)
    w_grid = np.concatenate([-w_pos[:0:-1], w_pos])
    half = _density_columns(w_pos, sol, s_grid)
    values = np.concatenate([half[:, :0:-1], half], axis=1)
    norm = float(simpson(simpson(values, x=s_grid, axis=0), x=w_grid))
    return JointDensityGrid(s_grid=s_grid, w_grid=w_grid, values=values,
                            normalization_estimate=norm, painleve=sol)


def marginal_w(w, grid):
    """P(w) = int P(s, w) ds over the grid plus the large-s analytic tail.

    w is a scalar (returns a float) or a 1-d array (returns an array).
    On-grid columns are read from the grid; every off-grid +-w shares one
    fresh transport, whose columns are independent of each other.
    """
    if grid.s_grid[1] - grid.s_grid[0] > 0.05 + 1e-12:
        raise ResolutionError("marginal accuracy requires s_step <= 0.05")
    w_arr = np.atleast_1d(np.asarray(w, dtype=float))
    j = np.abs(grid.w_grid[None, :] - w_arr[:, None]).argmin(axis=1)
    on = np.abs(grid.w_grid[j] - w_arr) <= 1e-9
    core = np.empty(len(w_arr))
    core[on] = simpson(grid.values[:, j[on]], x=grid.s_grid, axis=0)
    off = w_arr[~on]
    if len(off):
        if grid.painleve is None:
            raise RangeError(f"w = {off[0]} not on the grid and no solver attached")
        core[~on] = simpson(_density_columns(off, grid.painleve, grid.s_grid),
                            x=grid.s_grid, axis=0)
    s_tail = np.linspace(grid.s_grid[-1], grid.s_grid[-1] + 10.0, 801)
    tail = [simpson(joint_pdf_large_s(s_tail, abs(wi)), x=s_tail) for wi in w_arr]
    out = core + np.array(tail)
    return float(out[0]) if np.ndim(w) == 0 else out


def airy2_jpdf(m, t, psi=None, sol=None):
    """Joint density of (max, argmax) of the Airy2 process minus a parabola:
    hat-P(m, t) = 4 P(2^{2/3} m, 2^{4/3} t), by joint_pdf with sol (or
    psi.painleve)."""
    return 4.0 * joint_pdf(TWO_23 * m, TWO_43 * t, psi, sol=sol)


def argmax_marginal(t, grid):
    """hat-P(t) = 2^{4/3} P_w(2^{4/3} t)."""
    return TWO_43 * marginal_w(TWO_43 * t, grid)


@dataclass(frozen=True)
class TailConstants:
    """Constants of the large-w analysis of the marginal."""

    C: float
    D: float
    c_tilde: float
    C_tilde: float

    def predicted_right_tail(self, w):
        w = np.asarray(w, dtype=float)
        return self.C_tilde / w ** 3 * np.exp(-w ** 3 / 12.0)


def recover_matching_constant(sol):
    """Recover the amplitude constant of the large-w expansion of f.

    The estimator is sqrt(pi) * d_x f(x, w) / d_x f_closed(x, w) at x = 10
    and w = 18, each derivative by the 5-point stencil of step 0.2; the
    closed form carries the identical Gaussian-moment structure, so the ratio
    isolates the zeta -> 0 normalization, and the finite-w corrections cancel
    between numerator and denominator (residual ~ q(x), below 1e-8 here).
    """
    h, w = 0.2, 18.0
    coef = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
    xs = 10.0 + np.array([-2.0, -1.0, 1.0, 2.0]) * h
    dnum = float(coef @ _large_w_f(xs, w, sol)) / h
    dclo = float(coef @ f_closed(xs, w)) / h
    return float(np.sqrt(np.pi) * dnum / dclo)


def tail_analysis(sol, grid):
    """Tail constants of the marginal and the predicted right-tail curve.

    C is recovered numerically from the x -> infinity matching; D, c-tilde and
    C-tilde follow from the q-integral formulas.  Returns (constants, report)
    where the report compares the measured marginal against the predicted
    envelope on w in [3, 4].
    """
    z_neg = np.linspace(sol.s_min, 0.0, 2401)
    z_pos = np.linspace(0.0, sol.s_max, 2401)
    d_left = simpson(np.exp(-2.0 * sol.integral_q(z_neg)), x=z_neg)
    k_int = simpson(1.0 - np.exp(-2.0 * sol.integral_q(z_pos)), x=z_pos)
    if not (np.isfinite(d_left) and np.isfinite(k_int)):
        raise TailRegularizationError({"d_left": d_left, "k_int": k_int})
    C = recover_matching_constant(sol)
    D = C * (d_left + k_int)
    f1_0 = tracy_widom_f1(0.0, sol)
    c_tilde = 2.0 ** 4.5 / np.pi ** 3 * k_int
    C_tilde = 2.0 ** (-7.0 / 6.0) / np.pi * f1_0 * k_int
    constants = TailConstants(C=C, D=D, c_tilde=c_tilde, C_tilde=C_tilde)
    report = {w: marginal_w(w, grid) / float(constants.predicted_right_tail(w))
              for w in (3.0, 3.5, 4.0)}
    return constants, report
