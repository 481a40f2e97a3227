"""Joint law of the maximum and its position for the Airy2 process minus a
parabola.

Central objects:

* f(s, w) = -(2^{13/3}/pi^2) int_0^inf zeta Phi2(zeta, s) e^{-w zeta^2} dzeta,
  regularized by exp(-eps zeta^3) for w <= 0.
* P(s, w) = (pi^2/2^{20/3}) F1(s) int_s^inf f(x, w) f(x, -w) dx, identically
  (4/pi^2) F1(s) int h(x, w) h(x, -w) dx with h = -(pi^2/2^{13/3}) f.
* the rescaling hat-P(m, t) = 4 P(2^{2/3} m, 2^{4/3} t).

f has one production route: downward integration of its third-order ODE in
s, seeded at s = 12 from the closed Airy form, where the psi-function
corrections are ~1e-12.  f_function reads this transport.  The regularized
quadrature of the defining integral is its independent oracle,
lax.f_quadrature, which this module does not import: the route
cross-checks and the third-order ODE residual of the acceptance suite run
on it.

P(s, w) has one assembly, _density_columns, behind joint_pdf, the density
grid and the off-grid marginals.  It builds the transport's steps once,
down to the lowest s wanted, and transports the +-w columns through them
in blocks of a fixed number of columns, so its memory does not grow with
the number of w.  Each block accumulates int_s^inf f(x, w) f(x, -w) dx
downward from the seed point by cumulative Simpson, plus the tail above it.
The tail is in closed form: the exponentials of f_closed(x, w) and
f_closed(x, -w) cancel, which leaves the Airy primitive of
joint_pdf_large_s.  Accumulating from the small end keeps the relative
accuracy of the small densities at large s and |w|, which a
total-minus-prefix sum loses to cancellation.

The transport is classical RK4.  The ODE is linear, so each step is a 3x3
matrix per column that is known before the sweep, and A(s, w) is linear in
w, so the step matrix is a polynomial of degree at most 4 in w: its
coefficients are built once per step and evaluated per column by Horner's
rule.  The states come from a work-efficient two-pass scan (Blelloch,
"Prefix sums and their applications", 1990) over fixed chunks of steps.
The tests keep the step-by-step loop as an oracle.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, MisconfigurationError, RangeError, ResolutionError
from .painleve import tracy_widom_f1
from .special import airy_both, cumulative_simpson, legendre_nodes, simpson

TWO_23 = 2.0 ** (2.0 / 3.0)
TWO_43 = 2.0 ** (4.0 / 3.0)
TWO_83 = 2.0 ** (8.0 / 3.0)
TWO_113 = 2.0 ** (11.0 / 3.0)
TWO_133 = 2.0 ** (13.0 / 3.0)
JOINT_PREFACTOR = np.pi ** 2 / 2.0 ** (20.0 / 3.0)
H_FROM_F = -np.pi ** 2 / TWO_133
TAIL_FROM_LARGE_S = (TWO_113 / np.pi) ** 2 / TWO_23

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


_STEP = 0.0025              # transport step in s
_CHUNK = 16                 # steps per chunk of the scan
_SUPER = 8                  # chunks per superchunk; both fixed, so no column depends on the others
_GROUP_ELEMENTS = 2 ** 15   # column-steps of the superchunks scanned together
_BLOCK_COLUMNS = 8          # columns transported together for P(s, w)
_EYE = ((1.0,), (), (), (), (1.0,), (), (), (), (1.0,))


def _add(x, y):
    """x + y, skipping a zero float so that no array operation is spent on it."""
    if isinstance(x, float) and x == 0.0:
        return y
    return x if isinstance(y, float) and y == 0.0 else x + y


def _mul(x, y):
    """x y, skipping a factor that is the float 0 or 1."""
    if isinstance(x, float) and x in (0.0, 1.0):
        return y if x == 1.0 else 0.0
    if isinstance(y, float) and y in (0.0, 1.0):
        return x if y == 1.0 else 0.0
    return x * y


def _poly_add(p, q):
    """p + q for polynomials in v given as coefficient tuples, lowest degree
    first; a coefficient is a float or an array over the steps, and () is 0."""
    if len(p) < len(q):
        p, q = q, p
    return tuple(_add(a, b) for a, b in zip(p, q)) + p[len(q):]


def _poly_mul(p, q):
    """p q for polynomials in v given as coefficient tuples."""
    out = [0.0] * max(0, len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = _add(out[i + j], _mul(a, b))
    return tuple(out)


def _poly_scale(x, p):
    return tuple(_mul(x, a) for a in p)


def _companion_times(c, m):
    """A m for A = [[0, 1, 0], [0, 0, 1], [c0, c1, c2]] and m a row-major
    3x3 matrix given as its nine components, all polynomials in v."""
    row = [_poly_add(_poly_add(_poly_mul(c[0], m[j]), _poly_mul(c[1], m[3 + j])),
                     _poly_mul(c[2], m[6 + j])) for j in range(3)]
    return (*m[3:], *row)


def _rk4_step_polynomials(ca, cb, cc):
    """Components of I + (K1 + 2 K2 + 2 K3 + K4)/3 as polynomials in v, from
    the coefficients of a companion matrix B at the start, middle and end of
    each step: K1 = B_a, K2 = B_b (I + K1), K3 = B_b (I + K2),
    K4 = B_c (I + 2 K3).  For B = (h/2) A this is the classical RK4 step of
    Y' = A Y.  B is linear in v, so the step is of degree at most 4; its
    coefficients do not depend on v."""
    def plus_eye(k):
        return [_poly_add(e, a) for e, a in zip(_EYE, k)]

    k1 = ((), (1.0,), (), (), (), (1.0,), *ca)
    k2 = _companion_times(cb, plus_eye(k1))
    total = [_poly_add(a, _poly_scale(2.0, b)) for a, b in zip(k1, k2)]
    k3 = [_poly_scale(2.0, a) for a in _companion_times(cb, plus_eye(k2))]
    total = [_poly_add(a, b) for a, b in zip(total, k3)]
    k4 = _companion_times(cc, plus_eye(k3))
    return [_poly_add(e, _poly_scale(1.0 / 3.0, _poly_add(a, b)))
            for e, a, b in zip(_EYE, total, k4)]


def _horner(poly, v, out):
    """out = sum_p poly[p] v^p by Horner's rule, broadcast into out.  While
    the leading coefficients are floats, the sum runs on v alone."""
    k = len(poly) - 1
    acc = poly[k]
    if np.ndim(acc) == 0:
        while k > 1 and np.ndim(poly[k - 1]) == 0:
            k -= 1
            acc = acc * v + poly[k]
    np.multiply(acc, v, out=out)
    out += poly[k - 1]
    for a in reversed(poly[:k - 1]):
        out *= v
        out += a


def _matvec(m, y, out, tmp):
    """out = m y for stacked 3x3 matrices m (3, 3, ...) and vectors y (3, ...),
    summed in the order of the step-by-step loop."""
    np.multiply(m[:, 0], y[0], out=out)
    out += np.multiply(m[:, 1], y[1], out=tmp)
    out += np.multiply(m[:, 2], y[2], out=tmp)


def _products(m):
    """m[:, :, -1] ... m[:, :, 1] m[:, :, 0] for stacked 3x3 matrices m."""
    p = m[:, :, 0].copy()
    new, tmp = np.empty_like(p), np.empty_like(p)
    for j in range(1, m.shape[2]):
        _matvec(m[:, :, j, None], p, new, tmp)
        p, new = new, p
    return p


def _step_states(m, y, out):
    """out[:, j] = m[:, :, j] ... m[:, :, 0] y, one matrix at a time."""
    tmp = np.empty_like(y)
    for j in range(m.shape[2]):
        _matvec(m[:, :, j], y, out[:, j], tmp)
        y = out[:, j]


def _ode_steps(sol, s_hi, h, n, groups):
    """The RK4 step matrices of the n steps of length h down from s_hi, as
    polynomials in v = h w / 4 for the state (f, r f', r^2 f''), r = h/2,
    each coefficient an array over the steps in the scan order of groups:
    within a group, step j of chunk i of superchunk c is stored at [j, i, c],
    and the padding up to the last group's end repeats step n - 1.

    f''' = (a + b w) f + c f' + (w/2) f'' with a = (3 u' + 2)/4, b = -u/2
    and c = (6 u + s)/4; in that state (h/2) A is the companion matrix with
    last row (r^3 a + 2 r^2 b v, r^2 c, v).  The steps are built group by
    group, each from the potentials at its own half-points, into arrays
    allocated once, so the build's temporaries are those of one group."""
    r = h / 2.0
    steps = None
    for k0, k1 in groups:
        half = s_hi + 0.5 * h * np.arange(2 * k0, 2 * min(k1, n) + 1)
        U, Up = sol.potentials(half)
        alpha, beta, gamma = r ** 3 * (3.0 * Up + 2.0) / 4.0, -r * r * U, r * r * (6.0 * U + half) / 4.0
        k = 2 * (np.minimum(np.arange(k0, k1).reshape(-1, _SUPER, _CHUNK).T.ravel(), n - 1) - k0)

        def coef(i):
            return (alpha[i], beta[i]), (gamma[i],), (0.0, 1.0)

        group = _rk4_step_polynomials(coef(k), coef(k + 1), coef(k + 2))
        if steps is None:
            steps = [tuple(np.empty(groups[-1][1]) if np.ndim(a) else a for a in poly)
                     for poly in group]
        for poly, part in zip(steps, group):
            for a, p in zip(poly, part):
                if np.ndim(a):
                    a[k0:k1] = p
    return steps


class _Sweep:
    """The downward transport from s_hi to s_lo in steps of about step, for
    calls of at most n_cols columns: its nodes s_hi + h k (k = 0..n), its
    scan groups and its step polynomials, built once and run on any set of
    columns.  Every column's values are bitwise the same in every call."""

    def __init__(self, sol, s_lo, s_hi, step, n_cols):
        self.n = max(1, int(round((s_hi - s_lo) / step)))   # s_lo within half a step of s_hi: one step
        self.s_hi, self.h = s_hi, -(s_hi - s_lo) / self.n
        size = _CHUNK * _SUPER
        span = size * max(1, _GROUP_ELEMENTS // (size * n_cols))
        n_pad = -(-self.n // size) * size
        self.groups = [(k0, min(k0 + span, n_pad)) for k0 in range(0, self.n, span)]
        steps = _ode_steps(sol, s_hi, self.h, self.n, self.groups) if self.h else ()
        # per group, each coefficient as [j, 0, i, c] for Horner's broadcast
        self.group_steps = [[[p if np.ndim(p) == 0 else p[k0:k1].reshape(_CHUNK, 1, _SUPER, -1)
                              for p in poly] for poly in steps] for k0, k1 in self.groups]

    def nodes(self):
        """The transport's s nodes, descending from s_hi."""
        return self.s_hi + self.h * np.arange(self.n + 1)

    def run(self, w_arr):
        """(f, f_s, f_ss) of each column of w_arr at the nodes, (3, n + 1, n_cols)."""
        seed = np.array(f_closed(np.array([self.s_hi]), w_arr, derivatives=2))
        h, n_cols = self.h, len(w_arr)
        if h == 0.0:                                   # s_lo = s_hi: the step leaves the seed
            return np.stack([seed, seed], axis=1)
        n_pad = self.groups[-1][1]
        span = self.groups[0][1]
        desc = np.empty((3, n_pad + 1, n_cols))        # descending s
        desc[:, 0] = seed
        scale = np.array([1.0, h / 2.0, h * h / 4.0])
        Y = seed * scale[:, None]
        v_col = (h / 4.0) * w_arr[:, None, None]
        S_buf, states_buf = np.empty(9 * span * n_cols), np.empty(3 * span * n_cols)
        for (k0, k1), steps in zip(self.groups, self.group_steps):
            n_super = (k1 - k0) // (_CHUNK * _SUPER)
            # S[:, :, j, col, i, c]: the step matrices, evaluated per column
            S = S_buf[:9 * (k1 - k0) * n_cols].reshape(3, 3, _CHUNK, n_cols, _SUPER, n_super)
            for m, poly in zip(S.reshape(9, *S.shape[2:]), steps):
                _horner(poly, v_col, m)
            # pass 1: the product of the steps of each chunk, then of the chunks
            # of each superchunk
            E = _products(S)                           # [:, :, col, i, c]
            T = _products(np.moveaxis(E, 3, 2))        # [:, :, col, c]
            # the carry from one superchunk start to the next, then every chunk
            # start, then (pass 2) every state, each stepped from its start
            sup = np.empty((3, n_cols, n_super))
            sup[:, :, 0] = Y
            _step_states(np.moveaxis(T, 3, 2)[:, :, :-1], Y, np.moveaxis(sup, 2, 1)[:, 1:])
            _matvec(T[..., -1], sup[..., -1], Y, np.empty_like(Y))
            starts = np.empty((3, n_cols, _SUPER, n_super))
            starts[:, :, 0] = sup
            _step_states(np.moveaxis(E, 3, 2)[:, :, :-1], sup, np.moveaxis(starts, 2, 1)[:, 1:])
            states = states_buf[:3 * (k1 - k0) * n_cols].reshape(3, _CHUNK, n_cols, _SUPER, n_super)
            _step_states(S, starts, states)
            np.divide(states.transpose(0, 4, 3, 1, 2), scale[:, None, None, None, None],
                      out=desc[:, k0 + 1:k1 + 1].reshape(3, n_super, _SUPER, _CHUNK, n_cols))
        return desc[:, :self.n + 1]


def transport_profile(w_values, sol, s_lo=S_FLOOR, s_hi=S_SEED, step=_STEP):
    """Integrate the third-order ODE in s downward from s_hi for each w.

    The equation is 4 f''' = 2 w f'' + f' (6 u + s) + f (3 u' + 2 - 2 w u)
    with u = q^2 - q'; seeding uses the closed Airy form, exact to ~1e-12
    at s_hi = 12.  Downward integration is stable: the wanted solution is
    the fastest-growing one in that direction.

    The scheme is classical RK4 on Y = (f, f_s, f_ss), stepped in the
    scaled state (f, r f_s, r^2 f_ss) with r = h/2, where (h/2) A is a
    companion matrix.  The equation is linear, so every step is a fixed 3x3
    matrix per column, known before the sweep, and a polynomial of degree at
    most 4 in w: its w-free coefficients are built once per step for all
    columns and evaluated per column by Horner's rule.

    The steps are cut into chunks of _CHUNK and the chunks into superchunks
    of _SUPER, both counted from s_hi.  A group of superchunks is scanned in
    two passes, vectorized over its chunks and columns.  The first pass
    multiplies out the product of each chunk's steps, step by step, and from
    those the product of each superchunk's chunks.  The state is then carried
    from one superchunk start to the next, which continues from group to
    group, and stepped through each superchunk's chunk products to every
    chunk start.  The second pass steps the state from every chunk start
    through its chunk.  Every operation is elementwise in the columns, and
    the chunks, superchunks and carry order do not depend on the grouping,
    so each column's values are bitwise independent of the other columns in
    the call.
    """
    w_arr = _columns(w_values)
    sweep = _Sweep(sol, s_lo, s_hi, step, len(w_arr))
    asc = sweep.run(w_arr)[:, ::-1]
    return FProfile(s_grid=sweep.nodes()[::-1].copy(), w_values=w_arr,
                    f=asc[0], f_s=asc[1], f_ss=asc[2])


def _columns(w_values):
    """w_values as a 1-d float array, checked against W_CAP (NaN fails too)."""
    w_arr = np.atleast_1d(np.asarray(w_values, dtype=float))
    if not np.all(np.abs(w_arr) <= W_CAP):
        raise DomainError(f"|w| capped at {W_CAP}")
    return w_arr


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


def _tail_product(w):
    """int_{S_SEED}^inf f_closed(x, w) f_closed(x, -w) dx in closed form.

    The exponentials of the two factors cancel, which leaves
    (2^{11/3}/pi)^2 int [Ai'(theta)^2/2^{4/3} - (w/4)^2 Ai(theta)^2] dx,
    the Airy primitive of joint_pdf_large_s."""
    return TAIL_FROM_LARGE_S * joint_pdf_large_s(S_SEED, w)


def _taylor_rule(sol, s_node, s_points):
    """The 6-point Gauss-Legendre rule on [s, s_node] for each s of s_points
    and its transport node s_node above: the weights (n_s, 6), the offsets
    x - s_node (n_s, 6, 1), and the potential terms of f''' at the nodes."""
    gap = s_node - s_points
    t, wt = legendre_nodes(6)
    u, up = (v[:, None] for v in sol.potentials(s_node))
    return (0.5 * gap[:, None] * wt, (-0.5 * gap[:, None] * (1.0 + t))[..., None],
            u, 3.0 * up + 2.0, 6.0 * u + s_node[:, None])


def _taylor_values(rule, f0, f1, f2, w):
    """f at the rule's points, (n_s, 6, n_cols), by the cubic Taylor
    expansion of each column about its node from (f, f_s, f_ss) there, each
    (n_s, n_cols), with f''' taken from the ODE."""
    _, d, u, a0, a1 = rule
    f3 = ((a0 - 2.0 * w * u) * f0 + a1 * f1) / 4.0 + w * f2 / 2.0
    return f0[:, None] + d * (f1[:, None] + d * (f2[:, None] / 2.0 + d * f3[:, None] / 6.0))


def _density_columns(w_values, sol, s_points):
    """P(s, w) at the ascending s_points for each w, shaped (n_s, n_w).

    The +-w columns are transported once each, down to s_points[0], in
    blocks of at most _BLOCK_COLUMNS that keep every -w beside its w.  The
    steps are built once per call, and each block is turned into P before
    the next one is transported, so the memory does not grow with the number
    of w.  Each column's int_s^inf f(x, w) f(x, -w) dx is accumulated
    downward from S_SEED, where the product is small, so a small P(s, w) is
    not the difference of two large integrals; the analytic tail above
    S_SEED is added.  The sums are read at the first transport node at or
    above each s, and the piece from s up to that node is added by a 6-point
    Gauss rule on the nodes' cubic Taylor expansions.  Every entry is
    bitwise the same whatever else shares the call.
    """
    w_values = np.asarray(w_values, dtype=float)
    s_points = np.asarray(s_points, dtype=float)
    cols, where = np.unique(_columns(np.concatenate([w_values, -w_values])), return_inverse=True)
    n_c, n_w = len(cols), len(w_values)
    sweep = _Sweep(sol, s_points[0], S_SEED, _STEP, min(n_c, _BLOCK_COLUMNS))
    s_desc = sweep.nodes()
    x_desc = -s_desc                       # ascending in -s, from -S_SEED
    idx = sweep.n - np.searchsorted(s_desc[::-1], s_points - 1e-9)
    rule = _taylor_rule(sol, s_desc[idx], s_points)
    scale = JOINT_PREFACTOR * tracy_widom_f1(s_points, sol)
    tails = _tail_product(w_values)
    out = np.empty((len(s_points), n_w))
    # cols[c] = -cols[n_c - 1 - c], and a block takes whole pairs
    block = np.minimum(np.arange(n_c), n_c - 1 - np.arange(n_c)) // (_BLOCK_COLUMNS // 2)
    for b in range(block.max() + 1):
        members = np.flatnonzero(block == b)
        desc = sweep.run(cols[members])
        f_gap = _taylor_values(rule, *desc[:, idx], cols[members])
        js = np.flatnonzero(block[where[:n_w]] == b)
        a, c = np.searchsorted(members, where[js]), np.searchsorted(members, where[n_w + js])
        prod = desc[0][:, a] * desc[0][:, c]
        del desc                           # freed before the next block is transported
        inner = cumulative_simpson(prod.T, x=x_desc, initial=0.0)[:, idx]
        for j, inner_j, a_j, c_j in zip(js, inner, a, c):
            gap = np.sum(rule[0] * f_gap[:, :, a_j] * f_gap[:, :, c_j], axis=1)
            out[:, j] = scale * (inner_j + tails[j] + gap)
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
    painleve: object = field(repr=False, compare=False)


def build_joint_density_grid(sol, s_lo=-10.0, s_hi=8.0, s_step=0.05,
                             w_max=6.0, w_step=0.1):
    """Tabulate P(s, w) on a product grid; w covers [-w_max, w_max]."""
    if not (s_step > 0.0 and w_step > 0.0 and s_lo < s_hi and 0.0 <= w_max <= W_CAP):
        raise DomainError(f"need s_step > 0, w_step > 0, s_lo < s_hi and 0 <= w_max <= {W_CAP}")
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
    fresh sweep, run in blocks of _BLOCK_COLUMNS columns, each column
    independent of the others.
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
