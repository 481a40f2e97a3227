"""Scalar special functions and reusable quadrature primitives.

Airy Ai and Ai' have two ranges.  For x < 10 they come from
`scipy.special.airy`: against mpmath at 40 digits (scipy 1.17) its absolute
error is at most 7.7e-15 for Ai and 1.3e-14 for Ai' at 3001 equispaced
points of |x| <= 15.  For x >= 10 they come from the asymptotic series of
DLMF 9.7.5 and 9.7.6, 24 terms in 1/zeta with zeta = (2/3) x^{3/2}: at 200
points of 10 <= x <= 100 its relative error is at most 1.5e-13 for both, and
8.7e-15 on 10 <= x <= 16 (scipy: 1.4e-13 and 7.4e-15; both are limited by
the rounding of e^{-zeta}).  Ai is continuous across x = 10 to 4e-15
relative.  No value is subnormal: a result below the smallest normal double
(2.2e-308, past x ~ 104) is returned as exactly 0, and the series is
evaluated at min(x, 110) so that no intermediate overflows.  Non-finite x and
x < -2**20 (where scipy returns NaN) raise DomainError.

simpson and cumulative_simpson are numpy ports of the scipy.integrate
functions of the same names for strictly increasing sample points; they
give the same floating-point results.
"""

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import airy as _scipy_airy

from .errors import DomainError, MisconfigurationError

_X_ASYMPTOTIC = 10.0
_ASYMPTOTIC_TERMS = 24
_TINY = np.finfo(float).tiny


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
    """Ai and Ai' for x >= 10 by their asymptotic series, Horner in 1/zeta.
    Both are 0 past x = 110, so larger x is evaluated there; zeta cannot
    overflow."""
    x = np.minimum(x, 110.0)
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


def _airy_pair(x):
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("Ai and Ai' need finite x >= -2**20")
    far = x >= _X_ASYMPTOTIC
    ai, aip = np.empty_like(x), np.empty_like(x)
    ai[~far], aip[~far], _, _ = _scipy_airy(x[~far])
    ai[far], aip[far] = _airy_asymptotic(x[far])
    if not (np.all(np.isfinite(ai)) and np.all(np.isfinite(aip))):
        raise DomainError("Ai and Ai' need finite x >= -2**20")
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
