"""Monte-Carlo sampler of N = 1, 2, 3 non-intersecting Brownian excursions
on [0, 1], and the exact finite-N marginals it is tested against.

The sampler uses an exact-in-law matrix realization: the ordered positive
eigenvalues of a (2N+1) x (2N+1) real antisymmetric matrix whose entries
are independent scalar Brownian bridges evolve as N non-intersecting
excursions (Katori-Tanemura, J. Math. Phys. 45, 2004; for N = 1 this is the
classical |3-d Brownian bridge| = excursion identity; the fixed-time
eigenvalue density reproduces the prod x^2 * Vandermonde(x^2)^2 slice
law).  For N = 1 the top eigenvalue is the norm of the three entries.  For
N = 2, 3 the squared eigenvalues are the roots of a polynomial whose k-th
coefficient sums the squared Pfaffians of the 2k x 2k principal blocks;
one recursion builds every Pfaffian from those two sizes smaller, along its
first row, at each grid time.

Only the windows near the top path's maximum decide (M, tau_M), so the
matrix path is sampled coarse to fine.  Every entry is drawn at about
sqrt(60 steps) coarse points first.  The top eigenvalue is the spectral
norm, so along a window it is at most the larger of its end values plus
the norm of the entries' bridge deviations from their linear interpolation
(_select_windows).  A window is filled in at the fine steps only where that
bound could reach the coarse maximum, except with probability 1e-12 (a
gap of sqrt(y* T) on a window of duration T, y* = 16.9, 21.7 and 27.8 for
N = 1, 2, 3); the other windows' bounds add up to the miss bound each
ensemble reports.

Randomness is counter-based: sample i draws from Philox keyed by (seed, i),
so results are reproducible and independent of batching order.

The exact side integrates P_N(M, tau) once: the op tables of all
Gauss-Legendre nodes in M come from one run of the Stieltjes kernel, each
gives F_N and the tau-row there, and the M-CDF is the polynomial
interpolant of F_N on those nodes.
"""

import functools
import math
import struct
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import finite_n
from .errors import DomainError, PrecisionError, StatisticsError
from .special import legendre_nodes

DUMP_MAGIC = b"AMCE"
DUMP_VERSION = 1
_HEADER = struct.Struct("<4sIIIQQdQ")   # magic, version, N, steps, n, seed, rate, attempts
M_NODES = 96        # Gauss-Legendre nodes in M of exact_marginals
TAU_POINTS = 241    # trapezoid points in tau of exact_marginals
HIST_BINS = 24      # bins per axis of the extreme_stats histogram
CHI2_CELLS = 4      # quantile cells per axis of the compare_to_exact chi^2
CHI2_MIN_EXPECTED = 5.0   # least expected count per chi^2 cell
COARSE_RATIO = 60.0       # C ~ sqrt(COARSE_RATIO steps) coarse windows per matrix path
WINDOW_MISS = 1e-12       # bound on the chance that an unrefined window holds the maximum
MISS_CUTOFF = 40.0        # windows past y* + this share one bound in the miss sum
BLOCK_ELEMENTS = 1 << 15  # coarse entry values per block of matrix draws


@dataclass(frozen=True)
class PathEnsemble:
    """Accepted (M, tau_M) samples of the top path."""

    N: int
    steps: int
    samples: np.ndarray          # shape (n, 2): columns M, tau_M
    seed: int
    acceptance_rate: float       # 1.0: every draw is accepted
    attempts: int = 0
    # bound on the chance that some draw's maximum lies in a window the
    # sampler did not refine, and the share of windows it refined; NaN from
    # a dump, which does not store them
    miss_bound: float = math.nan
    refined_fraction: float = math.nan

    def __len__(self):
        return len(self.samples)

    @property
    def method(self):        # perfbench's tracer counts Gaussians from this label
        return "matrix"

    @property
    def maxima(self):
        return self.samples[:, 0]

    @property
    def argmax_times(self):
        return self.samples[:, 1]


def _rng_for(seed, index):
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _top_eigenpath(a, dim):
    """Top positive eigenvalue path of the dim x dim (dim = 3, 5, 7)
    antisymmetric bridge matrix whose upper triangle a holds row by row.

    For dim 3 it is the norm of the three entries (0 at the pinned ends).
    Otherwise mu = lam^2 solves sum_k (-1)^k e_k mu^{n-k} = 0, n = (dim -
    1) / 2, where e_k sums the squared Pfaffians of the 2k x 2k principal
    blocks.  Each is expanded along its first row into Pfaffians two sizes
    smaller, computed once.  The roots are the quadratic (dim 5) and
    trigonometric cubic (dim 7) formulas.
    """
    if dim == 3:
        return np.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])
    pf = dict(zip(combinations(range(dim), 2), a))
    e = []
    for size in range(2, dim, 2):
        total = np.zeros(a.shape[1])
        for block in combinations(range(dim), size):
            if size > 2:
                head, rest = block[0], block[1:]
                value = pf[head, rest[0]] * pf[rest[1:]]
                for pos in range(1, size - 1):
                    term = pf[head, rest[pos]] * pf[rest[:pos] + rest[pos + 1:]]
                    value = value - term if pos % 2 else value + term
                pf[block] = value
            total += pf[block] * pf[block]
        e.append(total)
    alpha, beta = e[0], e[1]
    if dim == 5:
        disc = np.sqrt(np.maximum(alpha * alpha - 4.0 * beta, 0.0))
        return np.sqrt(0.5 * (alpha + disc))
    # depressed cubic for mu: mu^3 - alpha mu^2 + beta mu - e[2] = 0
    p = beta - alpha * alpha / 3.0
    q = -e[2] + alpha * beta / 3.0 - 2.0 * alpha ** 3 / 27.0
    r = np.sqrt(np.maximum(-p / 3.0, 1e-300))
    arg = np.clip(-q / (2.0 * r ** 3), -1.0, 1.0)
    mu_top = alpha / 3.0 + 2.0 * r * np.cos(np.arccos(arg) / 3.0)
    return np.sqrt(np.maximum(mu_top, 0.0))


def _coarse_edges(steps):
    """Fine-grid indices of the coarse points: C + 1 of them, C about
    sqrt(COARSE_RATIO steps), so the C windows hold floor(steps / C) or
    ceil(steps / C) fine steps each, whatever the divisors of steps."""
    C = min(steps, int(round(math.sqrt(COARSE_RATIO * steps))))
    return np.arange(C + 1) * steps // C


def _window_log_bound(y, E, alpha):
    """-log of a bound on P(sup_t |d(t)|^2 >= y T) for an E-dimensional
    Brownian bridge d of duration T, any alpha in (0, 1/2).

    d(t) = (1 - t/T) W(u) with u = t T/(T - t), so |d| >= r means
    |W(u)| >= r (1 + u/T).  The positive martingale (alpha T/(u + alpha T))^{E/2}
    exp(|W(u)|^2 / (2 (u + alpha T))), the mean of exp(theta.W - |theta|^2 u/2)
    over theta ~ N(0, I/(alpha T)), starts at 1 and is at least exp(h(v)) at
    such a crossing, v = u/T; the bound is exp(-min_v h), where
    h(v) = y (1 + v)^2 / (2 (v + alpha)) - (E/2) log(1 + v/alpha).  The
    minimizer is the root of a quadratic.
    """
    b = 2.0 * alpha * y - E
    v = np.maximum((np.sqrt(b * b - 4.0 * y * ((2.0 * alpha - 1.0) * y - E * alpha)) - b)
                   / (2.0 * y), 0.0)
    return y * (1.0 + v) ** 2 / (2.0 * (v + alpha)) - 0.5 * E * np.log1p(v / alpha)


@functools.lru_cache(maxsize=None)
def _window_rule(E):
    """(alpha, y*) with y* the least y whose _window_log_bound reaches
    log(1 / WINDOW_MISS), over a grid of alpha; a window is refined when
    its gap to the coarse maximum is at most sqrt(y* T)."""
    alpha = np.arange(0.02, 0.5, 0.01)
    lo, hi = np.zeros_like(alpha), np.full_like(alpha, 1e3)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        reached = _window_log_bound(mid, E, alpha) >= -math.log(WINDOW_MISS)
        hi, lo = np.where(reached, mid, hi), np.where(reached, lo, mid)
    best = int(np.argmin(hi))
    return float(alpha[best]), float(hi[best])


def _coarse_pass(dim, edges, rngs):
    """Entries (E, draws, C + 1) of the bridge matrix at the coarse points
    edges (fine indices, edges[-1] = steps), from E C normals of each draw's
    stream, and their top eigenvalues (draws, C + 1).  At the coarse points
    a bridge of steps fine steps is a Gaussian walk with window-length
    variances, pinned at 1."""
    E = dim * (dim - 1) // 2
    C, steps = len(edges) - 1, edges[-1]
    w = np.stack([rng.standard_normal((E, C)) for rng in rngs], axis=1)
    w *= np.sqrt(np.diff(edges) / steps)
    np.cumsum(w, axis=2, out=w)
    coarse = np.zeros((E, len(rngs), C + 1))
    np.multiply(w[:, :, -1:], -edges[1:] / steps, out=coarse[:, :, 1:])
    coarse[:, :, 1:] += w
    return coarse, _top_eigenpath(coarse.reshape(E, -1), dim).reshape(len(rngs), C + 1)


def _select_windows(lam, edges, E):
    """Windows to refine (draws, C) from the coarse top eigenvalues, and the
    run's miss bound: the sum over the other windows of the bound that
    their interior reaches the coarse maximum.

    On a window of duration T the entries are their linear interpolation
    plus bridges d from 0 to 0.  The norm is convex and the spectral norm is
    at most the Frobenius norm over the upper triangle, so lam(t) <=
    max(lam_a, lam_b) + |d(t)|: the interior can reach the coarse maximum
    only if sup |d|^2 >= gap^2, gap = maximum - max(lam_a, lam_b).  At
    the fine times d is a Brownian bridge sampled there, so its sup is at
    most the continuous one that _window_log_bound bounds.
    """
    alpha, y_star = _window_rule(E)
    T = np.diff(edges) / edges[-1]
    gap = lam.max(axis=1)[:, None] - np.maximum(lam[:, :-1], lam[:, 1:])
    y = gap * gap / T
    refine = y <= y_star
    # the bound falls with y; past y* + MISS_CUTOFF a window counts as that
    near = ~refine & (y < y_star + MISS_CUTOFF)
    far = np.count_nonzero(~refine) - np.count_nonzero(near)
    miss = (np.sum(np.exp(-_window_log_bound(y[near], E, alpha)))
            + far * math.exp(-_window_log_bound(y_star + MISS_CUTOFF, E, alpha)))
    return refine, float(miss)


def _fill_windows(lo, hi, z, lengths, steps):
    """Interior points (windows, E, width - 1) of Gaussian random-walk
    bridges of the given lengths (fine steps of variance 1/steps) from the
    entries lo to hi (windows, E), built from normals z (windows, E, width),
    width >= lengths; points past a window's own length are filler."""
    s = np.cumsum(z, axis=2)
    s *= math.sqrt(1.0 / steps)
    end = s[np.arange(len(z)), :, lengths - 1]
    inner = (np.arange(1, z.shape[2]) / lengths[:, None, None]) * (hi - lo - end)[:, :, None]
    inner += s[:, :, :-1]
    inner += lo[:, :, None]
    return inner


def _matrix_samples(dim, edges, rngs):
    """(M, tau_M) of one draw per stream in rngs, the number of refined
    windows and the miss bound; see sample_ensemble."""
    E = dim * (dim - 1) // 2
    steps, lengths = edges[-1], np.diff(edges)
    width = int(lengths.max())
    coarse, lam = _coarse_pass(dim, edges, rngs)
    refine, miss = _select_windows(lam, edges, E)
    draw, window = refine.nonzero()
    z = np.concatenate([rng.standard_normal((k, E, width))
                        for rng, k in zip(rngs, np.count_nonzero(refine, axis=1))])
    inner = _fill_windows(coarse[:, draw, window].T, coarse[:, draw, window + 1].T,
                          z, lengths[window], steps)
    lam_in = _top_eigenpath(inner.transpose(1, 0, 2).reshape(E, -1), dim).reshape(len(draw), width - 1)
    lam_in[np.arange(width - 1) >= lengths[window, None] - 1] = -np.inf
    # candidates per draw: its coarse maximum and each refined window's;
    # the first fine index of the largest value wins, as np.argmax would
    first = lam.argmax(axis=1)
    value = np.concatenate([lam[np.arange(len(rngs)), first], lam_in.max(axis=1)])
    index = np.concatenate([edges[first], edges[window] + 1 + lam_in.argmax(axis=1)])
    owner = np.concatenate([np.arange(len(rngs)), draw])
    order = np.lexsort((index, -value, owner))
    head = order[np.searchsorted(owner[order], np.arange(len(rngs)))]
    return np.column_stack([value[head], index[head] / steps]), len(draw), miss


def _check_walkers(N, steps):
    if N not in (1, 2, 3):
        raise DomainError(f"samplers exist for N = 1, 2, 3, not N = {N}")
    if steps < 2000:
        raise DomainError("steps >= 2000 required")


def sample_ensemble(N, steps, n_samples, seed):
    """Draw n_samples (M, tau_M) pairs of the top path on the grid of steps
    fine steps; see the module docstring.

    Every N uses the matrix realization of dimension 2N + 1, with E =
    N (2N + 1) entries, coarse to fine, in blocks of draws of about
    BLOCK_ELEMENTS coarse entries:

    - Coarse pass: every entry at C + 1 coarse points (_coarse_edges),
      C ~ sqrt(COARSE_RATIO steps), and the top eigenvalue there.
    - Window test: a window is refined iff its gap, the coarse maximum
      minus the larger top eigenvalue at its ends, is at most sqrt(y* T),
      T its duration.  Its interior can pass the coarse maximum only if
      the E bridge deviations reach gap^2 in squared norm; by a martingale
      bound (_window_log_bound) an unrefined window does so with
      probability at most WINDOW_MISS.  y* is 16.9 for N = 1 (E = 3),
      21.7 for N = 2 (E = 10) and 27.8 for N = 3 (E = 21); a Chernoff
      bound on the sum of the E entries' squared suprema, (2 sqrt 2)^E
      exp(-y), would need 30.8, 38.0 and 49.5: 92 refined windows of 693
      per N = 2 draw at 8,000 steps, against 60.
    - Refinement: each selected window is filled with Gaussian random-walk
      bridges between its end entries, which is the fine-grid law given the
      coarse points, and (M, tau_M) is the max and first argmax over the
      coarse points and the refined interiors.

    Draw i reads Philox stream (seed, i): its E C coarse normals first,
    then E x max-window-length normals per selected window in ascending
    order.  Selection depends on the coarse values alone, so the law is the
    fine-grid law up to the miss bound, and a draw's sample does not depend
    on which other draws share its block.  The ensemble's miss_bound sums
    the bounds of every unrefined window of every draw (about 1.2e-12 per
    N = 2 draw at 8,000 steps), and refined_fraction is the share of
    windows refined.

    Any other N, steps < 2000, n_samples < 1 and a seed outside [0, 2^64)
    raise DomainError at entry.
    Non-finite samples raise PrecisionError; every N = 3 draw still does,
    since the top eigenvalue is 0/0 at the coarse point t = 0.
    """
    _check_walkers(N, steps)
    if n_samples < 1:
        raise DomainError("n_samples >= 1 required")
    if not 0 <= seed < 2 ** 64:
        raise DomainError(f"seed {seed} outside [0, 2^64)")
    dim = 2 * N + 1
    E = dim * (dim - 1) // 2
    edges = _coarse_edges(steps)
    block = max(1, BLOCK_ELEMENTS // (E * len(edges)))
    parts, n_refined, miss = [], 0, 0.0
    for start in range(0, n_samples, block):
        rngs = [_rng_for(seed, i) for i in range(start, min(start + block, n_samples))]
        part, count, part_miss = _matrix_samples(dim, edges, rngs)
        parts.append(part)
        n_refined += count
        miss += part_miss
    samples = np.concatenate(parts)
    refined = n_refined / (n_samples * (len(edges) - 1))
    bad = np.count_nonzero(~np.all(np.isfinite(samples), axis=1))
    if bad:
        raise PrecisionError(f"{bad} of {n_samples} samples are not finite")
    return PathEnsemble(N=N, steps=steps, samples=samples, seed=int(seed),
                        acceptance_rate=1.0, attempts=n_samples,
                        miss_bound=miss, refined_fraction=refined)


@dataclass(frozen=True)
class EnsembleSummary:
    n: int
    mean_max: float
    std_max: float
    stderr_max: float
    mean_tau: float
    std_tau: float
    stderr_tau: float
    correlation: float
    hist_counts: np.ndarray = field(repr=False)
    hist_edges_m: np.ndarray = field(repr=False)
    hist_edges_tau: np.ndarray = field(repr=False)


def extreme_stats(ensemble):
    """Unbiased moments with standard errors plus the 2-d histogram."""
    if len(ensemble) == 0:
        raise StatisticsError("empty ensemble")
    m, t, n = ensemble.maxima, ensemble.argmax_times, len(ensemble)
    counts, em, et = np.histogram2d(m, t, bins=HIST_BINS)
    corr = float(np.corrcoef(m, t)[0, 1]) if n > 1 else np.nan
    return EnsembleSummary(
        n=n,
        mean_max=float(np.mean(m)), std_max=float(np.std(m, ddof=1)),
        stderr_max=float(np.std(m, ddof=1) / np.sqrt(n)),
        mean_tau=float(np.mean(t)), std_tau=float(np.std(t, ddof=1)),
        stderr_tau=float(np.std(t, ddof=1) / np.sqrt(n)),
        correlation=corr,
        hist_counts=counts, hist_edges_m=em, hist_edges_tau=et,
    )


def ks_statistic(samples, cdf):
    """Kolmogorov-Smirnov sup-distance of the empirical CDF from cdf;
    StatisticsError on no samples or non-finite ones."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n == 0:
        raise StatisticsError("no samples")
    bad = np.count_nonzero(~np.isfinite(x))
    if bad:
        raise StatisticsError(f"{bad} non-finite samples")
    F = np.asarray(cdf(x), dtype=float)
    up = np.max(np.arange(1, n + 1) / n - F)
    dn = np.max(F - np.arange(0, n) / n)
    return float(max(up, dn))


def exact_marginals(N):
    """Marginals of the exact finite-N joint density P_N(M, tau).

    M runs over M_NODES Gauss-Legendre nodes on [m_lo, m_cap], m_cap =
    4 sqrt(2N); one law_table call gives F_N and the tau-row there.
    The scan M = 0.5, 0.55, ... stops at the first M where log F_N > -40;
    m_lo is the last point before it at which log F_N <= -40, or
    build_op_table's floor 0.5 when the scan stops at once.  The mass
    F_N(m_lo) below m_lo is dropped: 5.3e-7 for N = 1, < e^-40 for N = 2, 3.
    The tau-density integrates the rows over M and is cumulated by the
    trapezoid rule on TAU_POINTS points.

    Returns (cdf_m, cdf_tau, meta).  cdf_m is the degree M_NODES - 1
    interpolant of F_N on the nodes, summed as a Legendre series, 0 below
    m_lo and 1 above m_cap.  cdf_tau is normalized; meta["raw_mass"] is the
    mass before that, so raw_mass + F_N(m_lo) = 1 up to the quadrature.
    """
    m_cap = 4.0 * np.sqrt(2.0 * N)
    m_lo = 0.5
    for m_try in np.arange(0.5, 0.25 * m_cap, 0.05):
        try:
            if finite_n.log_cdf_max(m_try, N) > -40.0:
                break
        except (DomainError, PrecisionError):
            continue
        m_lo = m_try
    t_quad, w_quad = legendre_nodes(M_NODES)
    m_nodes = 0.5 * (m_lo + m_cap) + 0.5 * (m_cap - m_lo) * t_quad
    m_weights = 0.5 * (m_cap - m_lo) * w_quad
    # symmetric in floating point: tau - 1/2 on the left half is exactly minus
    # its mirror's, so G runs once per |tau - 1/2| and the density is symmetric
    right = 0.5 + np.arange(TAU_POINTS // 2 + 1) / (TAU_POINTS - 1)
    tau_grid = np.concatenate([1.0 - right[:0:-1], right])
    log_f, rows = finite_n.law_table(m_nodes, N, tau_grid[1:-1])
    f_nodes = np.array([math.exp(v) for v in log_f])
    pdf_tau = np.zeros((M_NODES, TAU_POINTS))
    pdf_tau[:, 1:-1] = rows

    # Legendre coefficients of the interpolant; the Gauss rule is exact on
    # (interpolant x P_k), of degree <= 2 M_NODES - 2
    legendre = np.polynomial.legendre
    coef = (np.arange(M_NODES) + 0.5) * (legendre.legvander(t_quad, M_NODES - 1).T
                                         @ (w_quad * f_nodes))

    def cdf_m(x):
        x = np.asarray(x, dtype=float)
        t = (2.0 * x - (m_lo + m_cap)) / (m_cap - m_lo)
        inside = (x >= m_lo) & (x <= m_cap)
        vals = legendre.legval(np.where(inside, t, 0.0), coef)
        return np.where(inside, vals, np.where(x > m_cap, 1.0, 0.0))

    tau_density = m_weights @ pdf_tau
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (tau_density[1:] + tau_density[:-1])
                                           * np.diff(tau_grid))])
    raw_mass = float(cum[-1])
    if raw_mass > 0:
        cum = cum / raw_mass

    def cdf_tau(x):
        return np.interp(np.asarray(x, dtype=float), tau_grid, cum)

    return cdf_m, cdf_tau, {"m_nodes": m_nodes, "m_lo": float(m_lo),
                            "tau_grid": tau_grid, "tau_density": tau_density,
                            "raw_mass": raw_mass}


def compare_to_exact(ensemble):
    """KS statistics for both marginals and a chi^2 on the 2-d histogram
    against the exact finite-N density (N = 1, 2, 3)."""
    _check_walkers(ensemble.N, ensemble.steps)
    cdf_m, cdf_tau, meta = exact_marginals(ensemble.N)
    ks_m = ks_statistic(ensemble.maxima, cdf_m)
    ks_t = ks_statistic(ensemble.argmax_times, cdf_tau)

    n = len(ensemble)
    qs = np.linspace(0.0, 1.0, CHI2_CELLS + 1)
    edges_m = np.quantile(ensemble.maxima, qs)
    edges_t = np.quantile(ensemble.argmax_times, qs)
    edges_m[0], edges_m[-1] = 0.0, max(edges_m[-1] * 1.5, edges_m[-1] + 1.0)
    edges_t[0], edges_t[-1] = 0.0, 1.0
    counts, _, _ = np.histogram2d(ensemble.maxima, ensemble.argmax_times,
                                  bins=(edges_m, edges_t))

    # expected cell masses by 4 x 4 midpoint quadrature of the exact jpdf;
    # midpoints outside the op tables' M range [0.5, 4 sqrt(2N)] hold
    # density ~ e^-40 and contribute 0
    tt = np.array([np.linspace(edges_t[j], edges_t[j + 1], 9)[1::2] for j in range(CHI2_CELLS)])
    inner = (tt > 0.0) & (tt < 1.0)
    mids = np.array([np.linspace(edges_m[i], edges_m[i + 1], 9)[1::2] for i in range(CHI2_CELLS)])
    in_range = (mids >= 0.5) & (mids <= 4.0 * math.sqrt(2.0 * ensemble.N) + 1e-9)
    dens = np.zeros(mids.shape + tt.shape)
    dens[in_range[..., None, None] & inner] = finite_n.law_table(
        mids[in_range], ensemble.N, tt[inner])[1].ravel()
    expected = np.empty_like(counts)
    for i in range(CHI2_CELLS):
        cell = np.zeros(CHI2_CELLS)
        for row in dens[i]:
            cell += row.sum(axis=1)
        area = (edges_m[i + 1] - edges_m[i]) * (edges_t[1:] - edges_t[:-1]) / 16.0
        expected[i] = cell * area * n
    if np.any(expected < CHI2_MIN_EXPECTED):
        raise StatisticsError("expected counts below the chi^2 validity floor")
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    return {"ks_max": ks_m, "ks_tau": ks_t, "chi2": chi2, "dof": CHI2_CELLS ** 2 - 1,
            "acceptance_rate": ensemble.acceptance_rate,
            "mean_tau": float(np.mean(ensemble.argmax_times)),
            "stderr_tau": float(np.std(ensemble.argmax_times, ddof=1) / np.sqrt(n))}


def save_ensemble(ensemble, path):
    """Binary dump: versioned header + little-endian samples; seed recorded."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(DUMP_MAGIC, DUMP_VERSION, ensemble.N, ensemble.steps,
                              len(ensemble), ensemble.seed, ensemble.acceptance_rate,
                              ensemble.attempts))
        fh.write(np.ascontiguousarray(ensemble.samples, dtype="<f8").tobytes())


def load_ensemble(path):
    """Read a save_ensemble dump; DomainError unless it has the magic, the
    version, a sampled N and steps, and exactly the n samples of its header."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != DUMP_MAGIC:
        raise DomainError("not an ensemble dump")
    if len(raw) < _HEADER.size:
        raise DomainError(f"truncated ensemble dump: {len(raw)} of {_HEADER.size} header bytes")
    _, version, N, steps, n, seed, rate, attempts = _HEADER.unpack_from(raw)
    if version != DUMP_VERSION:
        raise DomainError(f"unsupported dump version {version}")
    _check_walkers(N, steps)
    size = _HEADER.size + 16 * n
    if len(raw) != size:
        kind = "truncated" if len(raw) < size else "overlong"
        raise DomainError(f"{kind} ensemble dump: {len(raw)} of {size} bytes")
    samples = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(n, 2).astype(float)
    return PathEnsemble(N=N, steps=steps, samples=samples, seed=seed,
                        acceptance_rate=rate, attempts=attempts)
