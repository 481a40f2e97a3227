"""Scalar special functions and reusable quadrature primitives.

Airy Ai and Ai' have three ranges; against mpmath at 40 digits:
- -11.25 <= x < 10: a Taylor series of 16 terms about the nearest node of a
  frozen table of Ai and Ai' at x = -11.25 + k/8 (scripts/airy_nodes.py
  writes it from mpmath at 40 digits).  At 3000 points the absolute error is
  at most 2.2e-16 (Ai) and 4.4e-16 (Ai'), and on [0, 10) the relative error
  is at most 6.7e-16 for both (scipy.special.airy: 7.7e-15 and 1.3e-14
  absolute at 3001 points of |x| <= 15).
- x >= 10: the asymptotic series of DLMF 9.7.5 and 9.7.6, 24 terms in
  1/zeta with zeta = (2/3) x^{3/2}: at 200 points of 10 <= x <= 100 its
  relative error is at most 1.5e-13 for both, and 8.7e-15 on 10 <= x <= 16
  (scipy: 1.4e-13 and 7.4e-15; both are limited by the rounding of
  e^{-zeta}).
- x < -11.25: the same series in the oscillatory form of DLMF 9.7.9 and
  9.7.10, where the rounding of the phase zeta bounds the error: at most
  1.8e-15 (Ai) and 6.7e-15 (Ai') absolute on [-15, -11.25], 4.8e-15 and
  2.6e-14 on [-30, -11.25].  The table starts where neither Ai nor Ai' is
  near a zero, so the switch is continuous to 4e-15 relative.
Ai is continuous across x = 10 to 4e-15 relative.  No value is subnormal: a
result below the smallest normal double (2.2e-308, past x ~ 104) is returned
as exactly 0, and from x = 110 on both are 0 without evaluating the series,
so no intermediate overflows.  Non-finite x and x < -2**20 raise DomainError.

axis is the one builder of a tabulated axis from a (lo, hi, step) triple.
simpson and cumulative_simpson are numpy ports of the scipy.integrate
functions of the same names for strictly increasing sample points; they
give the same floating-point results.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _airy_nodes as _NODES
from .errors import DomainError, MisconfigurationError

_X_ASYMPTOTIC = 10.0
_X_ZERO = 110.0
_ASYMPTOTIC_TERMS = 24
_TINY = np.finfo(float).tiny
_SQRT_HALF = np.sqrt(0.5)
_TAYLOR_TERMS = 16
_NODE_AI, _NODE_AIP = np.array(_NODES.AI), np.array(_NODES.AI_PRIME)
AXIS_MAX_POINTS = 2 ** 24


def _asymptotic_coefficients(n):
    """(-1)^k u_k and (-1)^k v_k of DLMF 9.7.5-9.7.6, k < n, rounded once
    from exact rationals."""
    u = [Fraction(1)]
    for k in range(1, n):
        u.append(u[-1] * Fraction((6 * k - 5) * (6 * k - 3) * (6 * k - 1), (2 * k - 1) * 216 * k))
    v = [Fraction(1)] + [-Fraction(6 * k + 1, 6 * k - 1) * u[k] for k in range(1, n)]
    return ([float((-1) ** k * a) for k, a in enumerate(u)],
            [float((-1) ** k * b) for k, b in enumerate(v)])


_U, _V = _asymptotic_coefficients(_ASYMPTOTIC_TERMS)


def _airy_asymptotic(x):
    """Ai and Ai' for 10 <= x < 110 by their asymptotic series, Horner in
    1/zeta; a result below the smallest normal double is returned as 0."""
    zeta = (2.0 / 3.0) * x * np.sqrt(x)
    r = 1.0 / zeta
    su, sv = _U[-1], _V[-1]
    for a, b in zip(_U[-2::-1], _V[-2::-1]):
        su = su * r + a
        sv = sv * r + b
    e = (0.5 / np.sqrt(np.pi)) * np.exp(-zeta)
    x4 = np.sqrt(np.sqrt(x))
    ai, aip = e / x4 * su, -e * x4 * sv
    return np.where(ai < _TINY, 0.0, ai), np.where(-aip < _TINY, 0.0, aip)


def _airy_oscillatory(x):
    """Ai and Ai' for x < -11.25 by DLMF 9.7.9-9.7.10: the series of
    _airy_asymptotic split into even and odd powers, Horner in -1/zeta^2,
    with zeta = (2/3) |x|^{3/2}."""
    z = -x
    zeta = 2.0 * z * np.sqrt(z) / 3.0        # one rounding fewer than (2/3) z^{3/2}
    r = 1.0 / zeta
    t = -r * r
    sums = []
    for coeffs in (_U[0::2], _U[1::2], _V[0::2], _V[1::2]):
        acc = coeffs[-1]
        for a in coeffs[-2::-1]:
            acc = acc * t + a
        sums.append(acc)
    u_even, u_odd, v_even, v_odd = sums
    # cos and sin of zeta - pi/4, without rounding the shifted phase
    c, s = np.cos(zeta), np.sin(zeta)
    cos_phase, sin_phase = (c + s) * _SQRT_HALF, (s - c) * _SQRT_HALF
    x4 = np.sqrt(np.sqrt(z)) * np.sqrt(np.pi)
    return ((cos_phase * u_even - sin_phase * r * u_odd) / x4,
            x4 / np.pi * (sin_phase * v_even + cos_phase * r * v_odd))


def _airy_taylor(x):
    """Ai and Ai' for -11.25 <= x < 10 from the nearest node c of the frozen
    table: the Taylor series in h = x - c (|h| <= 1/16), whose coefficients
    follow from Ai'' = x Ai as a_{n+2} = (c a_n + a_{n-1}) / ((n+2)(n+1)).
    Arrays are updated in place; a 0-d x runs on NumPy scalars."""
    i = np.rint((x - _NODES.X_MIN) * _NODES.NODES_PER_UNIT).astype(np.intp)
    c = _NODES.X_MIN + i / _NODES.NODES_PER_UNIT
    prev, a, nxt = 0.0 * c, _NODE_AI[i], _NODE_AIP[i]     # a_{n-1}, a_n, a_{n+1} at n = 0
    h = x - c
    ai, aip, hk = a + nxt * h, nxt.copy(), h.copy()
    for n in range(_TAYLOR_TERMS - 2):
        prev += c * a
        prev /= (n + 2) * (n + 1)
        prev, a, nxt = a, nxt, prev
        aip += (n + 2) * nxt * hk
        hk *= h
        ai += nxt * hk
    return ai, aip


def _airy_zero(x):
    """Ai and Ai' for x >= 110, where both are below the smallest normal
    double and _airy_asymptotic would return 0."""
    return np.zeros_like(x), np.zeros_like(x)


_AIRY_RANGES = ((-np.inf, _NODES.X_MIN, _airy_oscillatory),
                (_NODES.X_MIN, _X_ASYMPTOTIC, _airy_taylor),
                (_X_ASYMPTOTIC, _X_ZERO, _airy_asymptotic),
                (_X_ZERO, np.inf, _airy_zero))


def _airy_pair(x):
    x = np.asarray(x, dtype=float)
    if not np.all((x >= -2.0 ** 20) & (x < np.inf)):     # NaN fails both
        raise DomainError("Ai and Ai' need finite x >= -2**20")
    ai = aip = None
    for lo, hi, evaluate in _AIRY_RANGES:
        inside = (x >= lo) & (x < hi)
        if inside.all():
            ai, aip = evaluate(x)
            break
        if inside.any():
            if ai is None:
                ai, aip = np.empty_like(x), np.empty_like(x)
            ai[inside], aip[inside] = evaluate(x[inside])
    return ai[()], aip[()]


def airy_ai(x):
    """Airy function Ai(x) for real x (scalar or array)."""
    return _airy_pair(x)[0]


def airy_ai_prime(x):
    """Derivative Ai'(x) for real x (scalar or array)."""
    return _airy_pair(x)[1]


def airy_both(x):
    """(Ai(x), Ai'(x)) with one evaluation pass."""
    return _airy_pair(x)


def axis(lo, hi, step, max_points=AXIS_MAX_POINTS):
    """lo + k step, k = 0, 1, ..., rounded to 12 digits, up to hi and never
    past it: a point within 1e-12 relative of hi is hi, and -0 is 0.
    DomainError, before anything is allocated, unless lo, hi and step are
    finite, step > 0, lo <= hi and the axis has at most max_points points."""
    if not all(map(math.isfinite, (lo, hi, step))):
        raise DomainError(f"axis bounds and step must be finite, got ({lo}, {hi}, {step})")
    if not (step > 0.0 and lo <= hi):
        raise DomainError(f"an axis needs step > 0 and lo <= hi, got ({lo}, {hi}, {step})")
    count = (hi - lo) / step * (1.0 + 1e-12)
    if not count < max_points:
        raise DomainError(f"the axis from {lo} to {hi} by {step} has more than {max_points} points")
    return np.minimum(np.round(lo + np.arange(math.floor(count) + 1) * step, 12), hi) + 0.0


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights pair."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise MisconfigurationError("nodes and weights must be matching 1-d arrays")
        if np.any(np.diff(nodes) <= 0):
            raise MisconfigurationError("nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise MisconfigurationError("weights must be strictly positive")

    def __len__(self):
        return len(self.nodes)


@functools.lru_cache(maxsize=None)
def legendre_nodes(n):
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], computed once
    per n and returned as read-only arrays."""
    t, w = np.polynomial.legendre.leggauss(n)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def gauss_legendre_rule(a, b, n):
    """Single-panel Gauss-Legendre rule on [a, b]."""
    t, w = legendre_nodes(n)
    half = 0.5 * (b - a)
    return QuadratureRule((a + b) / 2.0 + half * t, half * w)


def half_line_rule(n, scale=1.0):
    """Rule for integrals over [0, inf) via the algebraic map x = L(1+t)/(1-t)."""
    t, w = legendre_nodes(n)
    x = scale * (1.0 + t) / (1.0 - t)
    wx = w * 2.0 * scale / (1.0 - t) ** 2
    return QuadratureRule(x, wx)


def oscillatory_rule(zeta_max, freq_offset=12.0):
    """Composite 12-point Gauss-Legendre rule resolving the phase
    4 zeta^3/3 + s zeta up to zeta_max.

    Panels shrink like 5.5 / (4 zeta^2 + |freq_offset| + 2), at most 0.35, so
    a panel spans at most ~one oscillation period.
    """
    edges = [0.0]
    while edges[-1] < zeta_max:
        z = edges[-1]
        dz = min(0.35, 5.5 / (4.0 * z * z + abs(freq_offset) + 2.0))
        edges.append(min(z + dz, zeta_max))
    edges = np.array(edges)
    t, w = legendre_nodes(12)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return QuadratureRule((mid[:, None] + half[:, None] * t[None, :]).ravel(),
                          (half[:, None] * w[None, :]).ravel())


def neville_at_zero(eps, vals):
    """Polynomial extrapolation of (eps_j, vals_j) to eps = 0.

    Returns the highest-order extrapolant and |last diagonal correction| as
    the error estimate.
    """
    eps = np.asarray(eps, dtype=float)
    P = [np.asarray(v, dtype=float) for v in vals]
    n = len(P)
    diag = [P[-1]]
    for k in range(1, n):
        for j in range(n - 1, k - 1, -1):
            P[j] = P[j] + (P[j] - P[j - 1]) * eps[j] / (eps[j - k] - eps[j])
        diag.append(P[-1])
    err = np.abs(diag[-1] - diag[-2]) if n > 1 else np.full_like(np.asarray(diag[-1]), np.inf)
    return diag[-1], err


def simpson(y, x, axis=-1):
    """Composite Simpson rule for y sampled at the strictly increasing 1-d x
    along axis.  With an even number of points the rule covers all but the
    last interval, which gets Cartwright's three-point correction; two
    points get the trapezoid rule.  A port of scipy.integrate.simpson."""
    y = np.asarray(y, dtype=float)
    n = y.shape[axis]
    shape = [1] * y.ndim
    shape[axis] = n
    h = np.diff(np.asarray(x, dtype=float).reshape(shape), axis=axis)

    def along(a, index):
        return a[(slice(None),) * (axis % y.ndim) + (index,)]

    if n == 2:
        return 0.5 * along(h, -1) * (along(y, -1) + along(y, -2))

    stop = n - 2 if n % 2 else n - 3
    h0, h1 = along(h, slice(0, stop, 2)), along(h, slice(1, stop + 1, 2))
    hsum = h0 + h1
    h0divh1 = h0 / h1
    result = np.sum(hsum / 6.0 * (along(y, slice(0, stop, 2)) * (2.0 - 1.0 / h0divh1)
                                  + along(y, slice(1, stop + 1, 2)) * (hsum * (hsum / (h0 * h1)))
                                  + along(y, slice(2, stop + 2, 2)) * (2.0 - h0divh1)), axis=axis)
    if n % 2 == 0:
        g0, g1 = along(h, -2), along(h, -1)
        alpha = (2 * g1 ** 2 + 3 * g0 * g1) / (6 * (g1 + g0))
        beta = (g1 ** 2 + 3.0 * g0 * g1) / (6 * g0)
        eta = g1 ** 3 / (6 * g0 * (g0 + g1))
        result += alpha * along(y, -1) + beta * along(y, -2) - eta * along(y, -3)
    return result


def cumulative_simpson(y, x, initial):
    """Running Simpson integrals of y sampled at the strictly increasing 1-d
    x along the last axis, with initial prepended.  Each interval's integral
    is the quadratic through it and its right-hand neighbour (its left-hand
    one for the last interval), and the intervals are summed in order; with
    fewer than three points the intervals are trapezoids.  A port of
    scipy.integrate.cumulative_simpson."""
    y = np.asarray(y, dtype=float)
    dx = np.broadcast_to(np.diff(np.asarray(x, dtype=float)), y.shape[:-1] + (y.shape[-1] - 1,))

    def first_of_pairs(f, d):
        # integral over [x_i, x_{i+1}] of the quadratic through x_i, x_{i+1}, x_{i+2}
        x21, x32 = d[..., :-1], d[..., 1:]
        x31 = x21 + x32
        x21_x31 = x21 / x31
        x21x21_x31x32 = x21_x31 * (x21 / x32)
        return x21 / 6 * ((3 - x21_x31) * f[..., :-2] + (3 + x21x21_x31x32 + x21_x31) * f[..., 1:-1]
                          - x21x21_x31x32 * f[..., 2:])

    if y.shape[-1] < 3:
        pieces = dx * (y[..., 1:] + y[..., :-1]) / 2.0
    else:
        left = first_of_pairs(y, dx)
        right = first_of_pairs(y[..., ::-1], dx[..., ::-1])[..., ::-1]
        pieces = np.empty(dx.shape)
        pieces[..., :-1:2] = left[..., ::2]
        pieces[..., 1::2] = right[..., ::2]
        pieces[..., -1] = right[..., -1]
    res = np.cumsum(pieces, axis=-1) + initial
    return np.concatenate([np.broadcast_to(initial, res.shape[:-1] + (1,)), res], axis=-1)
