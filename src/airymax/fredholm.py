"""Independent oracles built on the Airy-kernel integral operator.

F1 as a Fredholm determinant det(I - B_s) on [0, inf) with kernel
Ai(x + y + s), and the Moreno Flores-Quastel-Remenik double-integral form of
the joint (max, argmax) density.  Both use the same Nystrom discretization:
an algebraic half-line map concentrating nodes near the origin and a
square-root-weight symmetrization of the kernel.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DiscretizationFailureError, DomainError, OracleUnavailableError
from .special import airy_both, half_line_rule

_PHI_ARG_CUT = 34.0   # beyond this the e^{xt} Ai(..) product is below 1e-130


@dataclass(frozen=True)
class AiryKernelDiscretization:
    """Symmetrized Nystrom matrix for the operator with kernel Ai(x+y+s)."""

    n: int
    nodes: np.ndarray
    weights: np.ndarray
    s: float
    matrix: np.ndarray

    @property
    def identity_minus(self):
        return np.eye(self.n) - self.matrix


def airy_kernel(s, n=80):
    """Build the discretization at shift s with n Gauss nodes mapped to the
    half line at scale 4."""
    if not 20 <= n <= 400:
        raise DomainError("node count n must lie in [20, 400]")
    rule = half_line_rule(n, 4.0)
    x, wx = rule.nodes, rule.weights
    rw = np.sqrt(wx)
    # Ai(x_i + x_j + s) is symmetric: evaluate the upper triangle, mirror it
    i, j = np.triu_indices(n)
    a = np.empty((n, n))
    a[i, j], _ = airy_both(x[i] + x[j] + s)
    a[j, i] = a[i, j]
    K = rw[:, None] * a * rw[None, :]
    return AiryKernelDiscretization(n=n, nodes=x, weights=wx, s=float(s), matrix=K)


def f1_fredholm(s, n=80):
    """GOE Tracy-Widom CDF as det(I - B_s) on [0, inf)."""
    disc = airy_kernel(s, n)
    sign, logdet = np.linalg.slogdet(disc.identity_minus)
    if sign <= 0:
        raise DiscretizationFailureError(f"non-positive determinant at s = {s}")
    return float(np.exp(logdet))


def _phi_factor(t, m, x):
    """Phi_{t,m}(x) = 2 e^{x t} [t Ai(t^2+m+x) + Ai'(t^2+m+x)], guarded so the
    (huge) exponential never multiplies an underflowed Airy value."""
    z = t * t + m + x
    out = np.zeros_like(x)
    mask = z < _PHI_ARG_CUT
    if np.any(mask):
        a, ap = airy_both(z[mask])
        out[mask] = 2.0 * np.exp(x[mask] * t) * (t * a + ap)
    return out


def mfqr_jpdf(m, t, n=140):
    """Joint density of (max, argmax) of the Airy2 process minus a parabola,
    by the resolvent double integral; the strongest independent oracle."""
    if m < -4.0 or abs(t) > 2.0:
        raise DomainError("oracle validated for m >= -4 and |t| <= 2")
    disc = airy_kernel(2.0 ** (2.0 / 3.0) * m, n)
    A = disc.identity_minus
    cond = np.linalg.cond(A)
    if cond > 1e12:
        raise OracleUnavailableError(cond)
    x = disc.nodes
    rw = np.sqrt(disc.weights)
    u = rw * _phi_factor(-t, m, 2.0 ** (1.0 / 3.0) * x)
    v = rw * _phi_factor(t, m, 2.0 ** (1.0 / 3.0) * x)
    y = np.linalg.solve(A, v)
    sign, logdet = np.linalg.slogdet(A)
    if sign <= 0:
        raise DiscretizationFailureError(f"non-positive determinant at m = {m}")
    return float(2.0 ** (1.0 / 3.0) * np.exp(logdet) * (u @ y))

