"""Psi-functions (Phi1, Phi2) of the Painleve II Lax pair and the oracle
routes built on them: the zeta-quadrature of f and the right-tail constants
of the argmax marginal.  Production computes f by ODE transport (airy2).

Two independent constructions, cross-checked in the tests:

* s-direction: dPsi/ds = B Psi with B = [[q, zeta], [-zeta, -q]], integrated
  downward from s_max where Psi = (cos, -sin)(4 zeta^3/3 + s zeta); the
  neglected corrections there are O(integral of q beyond s_max) ~ 1e-13.
* zeta-direction: dPsi/dzeta = A Psi seeded at zeta = 0 with the exact value
  Psi(0, s) = (exp(-int_s^inf q), 0).  Every step of this sweep is known
  before it starts, so it runs as a prefix product of 2x2 step matrices
  (a doubling scan in array operations, no loop over nodes); the
  reassociated product agrees with the step-by-step sweep to ~4e-14.

Both matrices live in the span of sigma3, J = [[0,1],[-1,0]], S = [[0,1],[1,0]],
which is closed under commutators, so every Magnus step exponentiates in
closed form (cos/cosh of a single scalar).
"""

from dataclasses import dataclass, field

import numpy as np

from .airy2 import TWO_23, TWO_133, f_closed, marginal_w
from .errors import (IntegrationFailureError, MisconfigurationError, RangeError,
                     TailRegularizationError)
from .painleve import tracy_widom_f1
from .special import QuadratureRule, airy_both, neville_at_zero, oscillatory_rule, simpson

_SQ3_12 = np.sqrt(3.0) / 12.0
_PHASE_PER_STEP = 0.3     # phase of the zeta sweep per Magnus sub-step


def _pauli_apply(a, b, c, u1, u2):
    """(u1, u2) <- exp(a sigma3 + b J + c S) (u1, u2), elementwise."""
    mu2 = a * a + c * c - b * b
    m = np.sqrt(np.abs(mu2))
    small = m < 1e-7
    with np.errstate(over="raise"):
        ch = np.where(mu2 >= 0.0, np.cosh(np.where(mu2 >= 0, m, 0.0)),
                      np.cos(np.where(mu2 < 0, m, 0.0)))
        sh_h = np.where(small, 1.0 + mu2 / 6.0, np.sinh(np.where(mu2 >= 0, m, 0.0)) / np.where(m == 0, 1.0, m))
        sh_t = np.where(small, 1.0 + mu2 / 6.0, np.sin(np.where(mu2 < 0, m, 0.0)) / np.where(m == 0, 1.0, m))
    sh = np.where(mu2 >= 0.0, sh_h, sh_t)
    w1 = ch * u1 + sh * (a * u1 + (b + c) * u2)
    w2 = ch * u2 + sh * ((c - b) * u1 - a * u2)
    return w1, w2


def solve_psi_column(zeta, sol, s_step=0.005, keep_every=1):
    """Integrate the s-ODE downward from s_max for one or many zeta values.

    Returns (s_out, phi1, phi2); phi arrays have shape (n_zeta, n_s) with s
    ascending.  Local error per unit s is far below 1e-10 at the default
    step (Magnus-Gauss2: the large rotation rate commutes with itself, so
    the error scale is set by derivatives of q).
    """
    zarr = np.atleast_1d(np.asarray(zeta, dtype=float))
    if np.any(zarr < 0):
        raise RangeError("zeta must be nonnegative; negative values follow by parity")
    s_max, s_min = sol.s_max, sol.s_min
    n = int(round((s_max - s_min) / s_step))
    if n % keep_every:
        raise MisconfigurationError("keep_every must divide the step count")
    h = -(s_max - s_min) / n
    g = np.sqrt(3.0) / 6.0
    s_nodes = s_max + h * np.arange(n)
    q1 = sol.q_at(s_nodes + h * (0.5 - g))
    q2 = sol.q_at(s_nodes + h * (0.5 + g))

    phase = (4.0 / 3.0) * zarr ** 3 + s_max * zarr
    u1 = np.cos(phase)
    u2 = -np.sin(phase)
    n_keep = n // keep_every + 1
    p1 = np.empty((len(zarr), n_keep))
    p2 = np.empty((len(zarr), n_keep))
    p1[:, -1], p2[:, -1] = u1, u2
    col = n_keep - 2
    b = h * zarr
    for k in range(n):
        a = 0.5 * h * (q1[k] + q2[k])
        c = (_SQ3_12 * h * h) * 2.0 * (q2[k] - q1[k]) * zarr
        try:
            u1, u2 = _pauli_apply(a, b, c, u1, u2)
        except FloatingPointError as exc:
            raise IntegrationFailureError(s_max + k * h) from exc
        if (k + 1) % keep_every == 0:
            p1[:, col], p2[:, col] = u1, u2
            col -= 1
    s_out = np.linspace(s_min, s_max, n_keep)
    return s_out, p1, p2


def psi_at_s(s_values, zeta_nodes, sol):
    """Integrate the zeta-ODE outward from zeta = 0 at fixed s (batched).

    Seeds with the exact zeta = 0 value (exp(-int_s^inf q), 0) and returns
    (phi1, phi2) of shape (n_nodes, n_s) at the requested zeta nodes.

    Each node is reached by nsub Magnus-Gauss2 sub-steps.  Every step's
    coefficients are known before the sweep, so the sub-step sequence and
    the closed-form step matrices are built as arrays, and their prefix
    products come from a Hillis-Steele doubling scan (M[d:] <- M[d:] M[:-d]
    for d = 1, 2, 4, ...) over the four matrix components.  The product at
    each node's last sub-step is applied to the seed.  The s columns are
    swept one at a time: every array is one (n_steps,) vector, which bounds
    the working set whatever the number of s values.
    """
    sarr = np.atleast_1d(np.asarray(s_values, dtype=float))
    zeta_nodes = np.asarray(zeta_nodes, dtype=float)
    if np.any(zeta_nodes <= 0) or np.any(np.diff(zeta_nodes) <= 0):
        raise MisconfigurationError("zeta nodes must be positive and increasing")
    q = sol.q_at(sarr)
    r = sol.q_prime_at(sarr)
    q2 = q * q
    smax_abs = float(np.max(np.abs(sarr)))
    u0 = np.exp(-sol.integral_q(sarr))
    g = np.sqrt(3.0) / 6.0

    prev = np.concatenate(([0.0], zeta_nodes[:-1]))
    gap = zeta_nodes - prev
    nsub = np.maximum(np.ceil(gap * (4.0 * zeta_nodes * zeta_nodes + smax_abs + 2.0) / _PHASE_PER_STEP),
                      np.ceil(gap / 0.02))
    nsub = np.maximum(nsub, 1).astype(np.int64)
    last = np.cumsum(nsub) - 1
    hh = np.repeat(gap / nsub, nsub)
    k = np.arange(len(hh)) - np.repeat(last + 1 - nsub, nsub)
    z0 = np.repeat(prev, nsub) + k * hh
    t1 = z0 + hh * (0.5 - g)
    t2 = z0 + hh * (0.5 + g)
    f = _SQ3_12 * hh * hh

    out1 = np.empty((len(zeta_nodes), len(sarr)))
    out2 = np.empty_like(out1)
    fail = len(z0)
    for j, s in enumerate(sarr):
        pa1, pa2 = 4.0 * t1 * q[j], 4.0 * t2 * q[j]
        qb1 = 4.0 * t1 * t1 + s + 2.0 * q2[j]
        qb2 = 4.0 * t2 * t2 + s + 2.0 * q2[j]
        rc = 2.0 * r[j]
        a = 0.5 * hh * (pa1 + pa2)
        b = 0.5 * hh * (qb1 + qb2)
        c = 0.5 * hh * (rc + rc)
        a += f * 2.0 * (qb2 * rc - qb1 * rc)
        b += f * 2.0 * (pa2 * rc - pa1 * rc)
        c += f * 2.0 * (pa2 * qb1 - pa1 * qb2)
        try:
            w1, w2 = _pauli_apply(a[:, None], b[:, None], c[:, None],
                                  np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        except FloatingPointError:
            # locate the first step whose cosh (>= its sinh) overflowed
            with np.errstate(over="ignore"):
                over = np.isinf(np.cosh(np.sqrt(np.maximum(a * a + c * c - b * b, 0.0))))
            fail = min(fail, int(np.argmax(over)))
            continue
        m11, m12 = np.ascontiguousarray(w1.T)
        m21, m22 = np.ascontiguousarray(w2.T)
        d = 1
        with np.errstate(over="ignore", invalid="ignore"):
            while d < len(z0):
                n11 = m11[d:] * m11[:-d] + m12[d:] * m21[:-d]
                n12 = m11[d:] * m12[:-d] + m12[d:] * m22[:-d]
                n21 = m21[d:] * m11[:-d] + m22[d:] * m21[:-d]
                n22 = m21[d:] * m12[:-d] + m22[d:] * m22[:-d]
                m11[d:], m12[d:], m21[d:], m22[d:] = n11, n12, n21, n22
                d *= 2
        finite = np.isfinite(m11) & np.isfinite(m12) & np.isfinite(m21) & np.isfinite(m22)
        if not finite.all():
            fail = min(fail, int(np.argmin(finite)))
            continue
        out1[:, j] = m11[last] * u0[j]
        out2[:, j] = m21[last] * u0[j]
    if fail < len(z0):
        raise IntegrationFailureError(z0[fail])
    return out1, out2


@dataclass(frozen=True)
class PsiGrid:
    """Phi1, Phi2 tabulated on (zeta nodes) x (s grid), plus the rule weights.

    Parity is realized at query time: phi(-zeta, s) = (phi1, -phi2)(zeta, s).
    """

    zeta_nodes: np.ndarray
    zeta_weights: np.ndarray
    s_grid: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    painleve: object = field(repr=False, compare=False)

    @property
    def rule(self):
        return QuadratureRule(self.zeta_nodes, self.zeta_weights)

    def s_index(self, s):
        idx = int(round((s - self.s_grid[0]) / (self.s_grid[1] - self.s_grid[0])))
        if idx < 0 or idx >= len(self.s_grid) or abs(self.s_grid[idx] - s) > 1e-9:
            raise RangeError(f"s = {s} is not on the stored grid")
        return idx

    def column_at(self, s):
        """(phi1, phi2) over zeta nodes at a stored grid point s."""
        idx = self.s_index(s)
        return self.phi1[:, idx], self.phi2[:, idx]

    def phi_at(self, zeta, s):
        """Pointwise (phi1, phi2) honoring the parity in zeta."""
        sign = -1.0 if zeta < 0 else 1.0
        iz = int(np.argmin(np.abs(self.zeta_nodes - abs(zeta))))
        if abs(self.zeta_nodes[iz] - abs(zeta)) > 1e-9:
            raise RangeError(f"zeta = {zeta} is not a stored node")
        idx = self.s_index(s)
        return self.phi1[iz, idx], sign * self.phi2[iz, idx]


def build_psi_grid(rule, sol, s_step=0.05, integration_step=0.005):
    """solve_psi_column across all rule nodes; immutable grid."""
    keep = int(round(s_step / integration_step))
    s_out, p1, p2 = solve_psi_column(rule.nodes, sol, s_step=integration_step,
                                     keep_every=keep)
    if not (np.all(np.isfinite(p1)) and np.all(np.isfinite(p2))):
        bad = np.argwhere(~np.isfinite(p2))
        raise IntegrationFailureError(rule.nodes[bad[0][0]])
    return PsiGrid(zeta_nodes=rule.nodes, zeta_weights=rule.weights, s_grid=s_out,
                   phi1=p1, phi2=p2, painleve=sol)


def default_zeta_rule():
    """The zeta rule of the f oracle: up to zeta = 18, panels sized for s = 12."""
    return oscillatory_rule(18.0, freq_offset=12.0)


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


def f_quadrature(s_values, w_values, sol, zeta_nodes, zeta_weights):
    """f at the (s, w) product set by the regularized quadrature of its
    defining zeta-integral on the rule (zeta_nodes, zeta_weights), e.g.
    default_zeta_rule().  Returns (values, error_estimates), each (n_s, n_w).
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
    and w = 18, with f from f_quadrature on the default zeta rule and each
    derivative by the 5-point stencil of step 0.2; the closed form carries
    the identical Gaussian-moment structure, so the ratio isolates the
    zeta -> 0 normalization, and the finite-w corrections cancel between
    numerator and denominator (residual ~ q(x), below 1e-8 here).
    """
    h, w = 0.2, 18.0
    coef = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
    xs = 10.0 + np.array([-2.0, -1.0, 1.0, 2.0]) * h
    rule = default_zeta_rule()
    dnum = float(coef @ f_quadrature(xs, [w], sol, rule.nodes, rule.weights)[0][:, 0]) / h
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
