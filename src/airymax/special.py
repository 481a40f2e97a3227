"""Scalar special functions and reusable quadrature primitives.

Airy Ai and Ai' come from `scipy.special.airy`.  Against mpmath at 40 digits
(scipy 1.17) its absolute error is at most 7.7e-15 for Ai and 1.3e-14 for
Ai' at 3001 equispaced points of |x| <= 15, and its relative error at most
1.5e-13 at 841 points of 16 <= x <= 100.  Ai underflows to 0 beyond
x ~ 104.  scipy returns NaN for non-finite x and for x < -2**20; both raise
DomainError here.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import airy as _scipy_airy

from .errors import DomainError, MisconfigurationError


def _airy_pair(x):
    ai, aip, _, _ = _scipy_airy(np.asarray(x, dtype=float))
    if not (np.all(np.isfinite(ai)) and np.all(np.isfinite(aip))):
        raise DomainError("Ai and Ai' need finite x >= -2**20")
    return ai, aip


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
    """Nodes/weights pair over a descriptor domain."""

    nodes: np.ndarray
    weights: np.ndarray
    domain: tuple

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


def gauss_legendre_rule(a, b, n):
    """Single-panel Gauss-Legendre rule on [a, b]."""
    t, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return QuadratureRule((a + b) / 2.0 + half * t, half * w, (a, b))


def composite_gauss_rule(edges, pts=12):
    """Composite Gauss-Legendre rule over consecutive panels."""
    edges = np.asarray(edges, dtype=float)
    t, w = np.polynomial.legendre.leggauss(pts)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * t[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return QuadratureRule(nodes, weights, (edges[0], edges[-1]))


def half_line_rule(n, scale=1.0):
    """Rule for integrals over [0, inf) via the algebraic map x = L(1+t)/(1-t)."""
    t, w = np.polynomial.legendre.leggauss(n)
    x = scale * (1.0 + t) / (1.0 - t)
    wx = w * 2.0 * scale / (1.0 - t) ** 2
    return QuadratureRule(x, wx, (0.0, np.inf))


def oscillatory_rule(zeta_max, freq_offset=12.0, pts=12, phase_per_panel=5.5, max_panel=0.35):
    """Composite rule resolving the phase 4 zeta^3/3 + s zeta up to zeta_max.

    Panels shrink like phase_per_panel / (4 zeta^2 + |freq_offset| + 2) so a
    pts-point Gauss panel spans at most ~one oscillation period.
    """
    edges = [0.0]
    while edges[-1] < zeta_max:
        z = edges[-1]
        dz = min(max_panel, phase_per_panel / (4.0 * z * z + abs(freq_offset) + 2.0))
        edges.append(min(z + dz, zeta_max))
    return composite_gauss_rule(np.array(edges), pts)


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
