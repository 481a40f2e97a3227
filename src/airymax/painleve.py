"""Hastings-McLeod solution of Painleve II and the GOE Tracy-Widom CDF.

The boundary-value problem q'' = 2 q^3 + s q with q ~ Ai(s) on the right and
q ~ sqrt(-s/2) on the left is solved by Newton iteration on a Numerov
discretization (4th order).  Backward marching is useless here (the wanted
solution is a separatrix), hence the global two-point formulation.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, RangeError, SolverFailureError
from .special import airy_ai

# zeta'(-1); enters the left-tail constant of the GOE Tracy-Widom law.
# 30-digit value 1/12 - ln(Glaisher), cross-checked against an independent
# series evaluation in the test suite.
ZETA_PRIME_MINUS_ONE = -0.16542114370045092921391966024278


_SPLINE_BLOCK = 4096      # points evaluated together; bounds the temporaries


class _Spline:
    """Piecewise polynomial with coefficients c[k, i] of (t - x_i)^{deg - k}
    on [x_i, x_{i+1}); points outside [x_0, x_n] use the end pieces.

    Evaluation and antiderivative follow scipy's PPoly operation for
    operation, so the values are the same: each piece is summed from its
    constant term up, with the powers of t - x_i built by repeated products.
    """

    def __init__(self, x, c):
        self.x, self.c = x, c

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        out = np.empty_like(flat)
        for lo in range(0, len(flat), _SPLINE_BLOCK):
            out[lo:lo + _SPLINE_BLOCK] = self._evaluate(flat[lo:lo + _SPLINE_BLOCK])
        return out.reshape(t.shape)

    def _evaluate(self, t):
        i = np.searchsorted(self.x[1:-1], t, side="right")
        z = t - self.x[i]
        out = self.c[-1][i]
        zk = z.copy()
        for k, row in enumerate(self.c[-2::-1]):
            if k:
                zk *= z
            out += row[i] * zk
        return out

    def antiderivative(self):
        """The antiderivative that vanishes at x_0."""
        deg = len(self.c) - 1
        c = np.empty((deg + 2, len(self.x) - 1))
        c[:-1] = self.c / np.arange(deg + 1, 0, -1.0)[:, None]
        # each piece's constant is the previous piece at its right end, summed
        # term by term from the constant up, in one sequential pass
        h = np.diff(self.x)[:-1]
        terms = np.empty((len(h), deg + 1))
        hk = h.copy()
        for k in range(deg + 1):
            if k:
                hk *= h
            terms[:, k] = c[deg - k, :-1] * hk
        c[-1] = np.cumsum(np.concatenate([[0.0], terms.ravel()]))[::deg + 1]
        return _Spline(self.x, c)


class _Tridiagonal:
    """The LU factors of a tridiagonal matrix with sub-diagonal lower,
    diagonal diag and super-diagonal upper (1-d arrays of lengths n - 1, n
    and n - 1), for repeated solves.

    A port of LAPACK gtsv for matrices that need no row interchanges (every
    diagonally dominant one): Gaussian elimination and back substitution,
    each one list comprehension with gtsv's operations in gtsv's order, so a
    solve equals scipy.linalg.solve_banded((1, 1), ...) bit for bit.  It
    skips gtsv's product with the zero fill-in, which could only flip the
    sign of a zero.  Where gtsv would interchange rows i and i + 1
    (|pivot_i| < |lower_i|), and at a zero pivot, it raises
    SolverFailureError.
    """

    def __init__(self, lower, diag, upper):
        self.upper = upper.tolist()
        p = float(diag[0])
        try:
            self.pivots = [p] + [p := d - l / p * u
                                 for l, d, u in zip(lower.tolist(), diag[1:].tolist(), self.upper)]
        except ZeroDivisionError:
            raise SolverFailureError(np.inf, "zero pivot in a tridiagonal elimination") from None
        pivots = np.array(self.pivots, dtype=float)
        if pivots[-1] == 0.0:
            raise SolverFailureError(np.inf, "zero pivot in a tridiagonal elimination")
        if not np.all(np.abs(pivots[:-1]) >= np.abs(lower)):
            raise SolverFailureError(np.inf, "tridiagonal matrix needs row interchanges")
        self.factors = (lower / pivots[:-1]).tolist()

    def solve(self, b):
        """The solution for the right-hand side b (1-d array of length n)."""
        b = b.tolist()
        acc = b[0]
        y = [acc] + [acc := bn - f * acc for f, bn in zip(self.factors, b[1:])]
        x = acc / self.pivots[-1]
        out = [x] + [x := (yi - u * x) / p
                     for yi, u, p in zip(y[-2::-1], self.upper[::-1], self.pivots[-2::-1])]
        return np.array(out, dtype=float)[::-1]


def _cubic_splines(x, ys):
    """Not-a-knot cubic splines of each y in ys at the strictly increasing x
    (at least four points): the slopes solve scipy CubicSpline's tridiagonal
    system, with its operations, so the coefficients are the same.  The
    matrix depends on x alone and is factored once."""
    dx = np.diff(x)
    diag = np.empty(len(x))
    diag[1:-1] = 2 * (dx[:-1] + dx[1:])
    # not-a-knot: the third derivative is continuous at x_1 and x_{n-1}
    diag[0], diag[-1] = dx[1], dx[-2]
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    lower = np.append(dx[1:], d1)
    upper = np.insert(dx[:-1], 0, d0)
    system = _Tridiagonal(lower, diag, upper)
    splines = []
    for y in ys:
        slope = np.diff(y) / dx
        b = np.empty(len(x))
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        b[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
        b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
        m = system.solve(b)
        t = (m[:-1] + m[1:] - 2 * slope) / dx
        splines.append(_Spline(x, np.stack((t / dx, (slope - m[:-1]) / dx - t, m[:-1], y[:-1]))))
    return splines


@dataclass(frozen=True)
class PainleveSolution:
    """Grid solution q, q' with interpolants and cumulative integrals.

    integral_q(s)      = int_s^smax q dt   (+ analytic Ai tail beyond smax)
    integral_q2(s)     = int_s^smax q^2 dt
    integral_tq2(s)    = int_s^smax t q(t)^2 dt
    """

    s_grid: np.ndarray
    q: np.ndarray
    q_prime: np.ndarray
    achieved_residual: float
    _q_spline: _Spline = field(repr=False)
    _qp_spline: _Spline = field(repr=False)
    _aq: _Spline = field(repr=False)
    _aq2: _Spline = field(repr=False)
    _atq2: _Spline = field(repr=False)
    _tail_q: float = field(repr=False)
    # the antiderivatives at s_max
    _aq_total: float = field(init=False, repr=False)
    _aq2_total: float = field(init=False, repr=False)
    _atq2_total: float = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("_aq", "_aq2", "_atq2"):
            object.__setattr__(self, name + "_total", getattr(self, name)(self.s_max))

    @property
    def s_min(self):
        return float(self.s_grid[0])

    @property
    def s_max(self):
        return float(self.s_grid[-1])

    def _check(self, s):
        s = np.asarray(s, dtype=float)
        if not np.all((s >= self.s_min - 1e-12) & (s <= self.s_max + 1e-12)):   # NaN fails too
            raise RangeError(f"s outside solved range [{self.s_min}, {self.s_max}]")
        return np.clip(s, self.s_min, self.s_max)

    def q_at(self, s):
        return self._q_spline(self._check(s))

    def q_prime_at(self, s):
        return self._qp_spline(self._check(s))

    def potentials(self, s):
        """(u(s), u'(s)) from one evaluation of q and q': the supersymmetric
        Schrodinger potential u = q^2 - q' and u' = 2 q q' - q'', with q''
        taken from the defining equation."""
        s = self._check(s)
        q, qp = self._q_spline(s), self._qp_spline(s)
        return q ** 2 - qp, 2.0 * q * qp - (2.0 * q ** 3 + s * q)

    def potential(self, s):
        """u(s) = q^2 - q'."""
        return self.potentials(s)[0]

    def integral_q(self, s):
        s = self._check(s)
        return (self._aq_total - self._aq(s)) + self._tail_q

    def integral_q2(self, s):
        s = self._check(s)
        return self._aq2_total - self._aq2(s)

    def integral_tq2(self, s):
        s = self._check(s)
        return self._atq2_total - self._atq2(s)


def _ai_integral_tail(x):
    """int_x^inf Ai(t) dt by the leading asymptotic terms (x >= 8)."""
    xi = (2.0 / 3.0) * x ** 1.5
    return np.exp(-xi) / (2.0 * np.sqrt(np.pi) * x ** 0.75) * (1.0 - 41.0 / (72.0 * xi))


def solve_hastings_mcleod(s_min=-12.0, s_max=12.0, step=0.005):
    """Solve the Hastings-McLeod boundary-value problem on [s_min, s_max].

    Boundary data: q(s_max) = Ai(s_max) and the left asymptote
    q(s_min) = sqrt(-s_min/2) (1 + 1/(8 s_min^3)).  Newton stops once the
    residual is below 1e-14 and the update below 1e-12, within 60 steps.
    """
    if not (s_min < -4.0 < 4.0 < s_max):
        raise DomainError("need s_min < -4 and s_max > 4")

    n = int(round((s_max - s_min) / step))
    s = s_min + (s_max - s_min) * np.arange(n + 1) / n
    h = s[1] - s[0]

    q_left = np.sqrt(-s_min / 2.0) * (1.0 + 1.0 / (8.0 * s_min ** 3))
    q_right = airy_ai(s_max)

    # initial guess: smooth blend of the two asymptotic branches
    blend = 0.5 * (1.0 + np.tanh(-s / 1.5))
    left = np.sqrt(np.maximum(-s, 1e-12) / 2.0)
    right = airy_ai(np.minimum(s, s_max))
    q = blend * left + (1.0 - blend) * right
    q[0], q[-1] = q_left, q_right

    def rhs(qv, sv):
        return 2.0 * qv ** 3 + sv * qv

    residual = np.inf
    for _ in range(60):
        r = rhs(q, s)
        F = (q[:-2] - 2.0 * q[1:-1] + q[2:]
             - (h * h / 12.0) * (r[:-2] + 10.0 * r[1:-1] + r[2:]))
        r_q = 6.0 * q ** 2 + s
        off = 1.0 - (h * h / 12.0) * r_q       # sub- and super-diagonal entries
        diag = -2.0 - (10.0 * h * h / 12.0) * r_q[1:-1]
        delta = _Tridiagonal(off[1:-2], diag, off[2:-1]).solve(-F)
        q[1:-1] += delta
        residual = float(np.max(np.abs(F)))
        if residual < 1e-14 and np.max(np.abs(delta)) < 1e-12:
            break
    else:
        raise SolverFailureError(residual)

    if np.any(q <= 0) or np.any(np.diff(q) >= 0):
        raise SolverFailureError(residual, "solution lost positivity/monotonicity")

    qp = np.empty_like(q)
    qp[2:-2] = (q[:-4] - 8.0 * q[1:-3] + 8.0 * q[3:-1] - q[4:]) / (12.0 * h)
    # one-sided 4th-order stencils at the edges
    c = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    qp[0] = np.dot(c, q[:5]) / h
    qp[1] = np.dot(c, q[1:6]) / h
    qp[-1] = -np.dot(c, q[-1:-6:-1]) / h
    qp[-2] = -np.dot(c, q[-2:-7:-1]) / h

    # achieved residual measured with an independent 5-point second derivative
    qpp = (-q[:-4] + 16.0 * q[1:-3] - 30.0 * q[2:-2] + 16.0 * q[3:-1] - q[4:]) / (12.0 * h * h)
    ach = float(np.max(np.abs(qpp - rhs(q[2:-2], s[2:-2]))))

    q_spline, qp_spline, q2_spline, tq2_spline = _cubic_splines(s, (q, qp, q * q, s * q * q))
    sol = PainleveSolution(
        s_grid=s, q=q, q_prime=qp, achieved_residual=ach,
        _q_spline=q_spline, _qp_spline=qp_spline,
        _aq=q_spline.antiderivative(),
        _aq2=q2_spline.antiderivative(),
        _atq2=tq2_spline.antiderivative(),
        _tail_q=float(_ai_integral_tail(s_max)),
    )
    return sol


def log_tracy_widom_f1(s, sol):
    """log F1(s) = -(1/2) int_s^inf [(t-s) q^2 + q] dt."""
    s = np.asarray(s, dtype=float)
    if np.any(s > sol.s_max - 2.0):
        raise RangeError(f"s must stay below s_max - 2 = {sol.s_max - 2.0}")
    inner = (sol.integral_tq2(s) - s * sol.integral_q2(s)) + sol.integral_q(s)
    return -0.5 * inner


def tracy_widom_f1(s, sol):
    """GOE Tracy-Widom CDF by the Painleve route."""
    out = np.exp(log_tracy_widom_f1(s, sol))
    return float(out) if np.ndim(s) == 0 else out


def left_tail_log_f1(s):
    """Leading left-tail law of log F1 for s -> -infinity."""
    a = np.abs(np.asarray(s, dtype=float))
    const = np.log(2.0 ** (-11.0 / 48.0)) + 0.5 * ZETA_PRIME_MINUS_ONE
    return -a ** 3 / 24.0 - a ** 1.5 / (3.0 * np.sqrt(2.0)) - np.log(a) / 16.0 + const


def export_table(sol, s_values):
    """(s, q, q', F1) rows for CSV export."""
    s_values = np.asarray(s_values, dtype=float)
    return np.column_stack([
        s_values,
        sol.q_at(s_values),
        sol.q_prime_at(s_values),
        tracy_widom_f1(s_values, sol),
    ])
