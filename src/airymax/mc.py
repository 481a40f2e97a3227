"""Monte-Carlo sampler of N = 1, 2, 3 non-intersecting Brownian excursions
on [0, 1], and the exact finite-N marginals it is tested against.

A single excursion is generated by the cycle-shift construction: a Brownian
bridge rotated at its minimum is an excursion in law (Vervaat).  On the
grid, the rotated walk is exactly a Gaussian random-walk excursion, by the
cycle lemma applied to the exchangeable increments, but not a sampled
Brownian excursion: its maximum is the bridge's discrete range, which
misses the continuous range by about 2 beta sqrt(dt), beta ~ 0.5826 (the
discrete-monitoring shift of Broadie-Glasserman-Kou at each end).

For N = 2, 3 the sampler uses an exact-in-law matrix realization: the
ordered positive eigenvalues of a (2N+1) x (2N+1) real antisymmetric matrix
whose entries are independent scalar Brownian bridges evolve as N
non-intersecting excursions (for N = 1 this is the classical |3-d Brownian
bridge| = excursion identity; the fixed-time eigenvalue density reproduces
the prod x^2 * Vandermonde(x^2)^2 slice law).

Randomness is counter-based: sample i draws from Philox keyed by (seed, i),
so results are reproducible and independent of batching order.

The exact side integrates P_N(M, tau) once: one op table per Gauss-Legendre
node in M gives F_N and the tau-row there, and the M-CDF is the polynomial
interpolant of F_N on those nodes.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PrecisionError, StatisticsError
from .special import legendre_nodes

DUMP_MAGIC = b"AMCE"
DUMP_VERSION = 1
M_NODES = 96        # Gauss-Legendre nodes in M of exact_marginals
TAU_POINTS = 241    # trapezoid points in tau of exact_marginals


@dataclass(frozen=True)
class PathEnsemble:
    """Accepted (M, tau_M) samples of the top path."""

    N: int
    steps: int
    samples: np.ndarray          # shape (n, 2): columns M, tau_M
    seed: int
    acceptance_rate: float       # 1.0: every draw is accepted
    attempts: int = 0
    method: str = "auto"         # "rejection" (N = 1 cycle shift) or "matrix"

    def __len__(self):
        return len(self.samples)

    @property
    def maxima(self):
        return self.samples[:, 0]

    @property
    def argmax_times(self):
        return self.samples[:, 1]


def _rng_for(seed, index):
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _bridges(rng, count, steps):
    """count independent Brownian bridges on the (steps+1)-point grid."""
    g = rng.standard_normal((count, steps))
    w = np.cumsum(g, axis=1) * np.sqrt(1.0 / steps)
    frac = np.arange(1, steps + 1) / steps
    b = w - w[:, -1:] * frac[None, :]
    return np.concatenate([np.zeros((count, 1)), b], axis=1)


def _excursion(seed, index, steps):
    """One Gaussian random-walk excursion: the bridge of Philox stream
    (seed, index), cycle-shifted to start at its minimum."""
    bridge = _bridges(_rng_for(seed, index), 1, steps)[0]
    m = int(np.argmin(bridge[:-1]))
    exc = np.empty_like(bridge)
    exc[:-1] = np.concatenate([bridge[m:-1], bridge[:m]]) - bridge[m]
    exc[-1] = 0.0
    return exc


# 4-subsets of {0..4} and their Pfaffians index the 5x5 antisymmetric
# characteristic polynomial; pair/triple index helpers below
_PAIRS5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
_PAIR_INDEX5 = {p: k for k, p in enumerate(_PAIRS5)}
_PAIRS7 = [(i, j) for i in range(7) for j in range(i + 1, 7)]
_PAIR_INDEX7 = {p: k for k, p in enumerate(_PAIRS7)}


def _pfaffian4_terms(subset, pair_index):
    i, j, k, l = subset
    return (pair_index[(i, j)], pair_index[(k, l)],
            pair_index[(i, k)], pair_index[(j, l)],
            pair_index[(i, l)], pair_index[(j, k)])


def _top_eigenpaths_n2(a):
    """Ordered positive eigenvalue paths of the 5x5 antisymmetric bridge.

    a has shape (10, n_times); char poly is -lam (lam^4 - alpha lam^2 + beta)
    with alpha = sum a_ij^2 and beta = sum of squared 4x4 principal Pfaffians.
    """
    from itertools import combinations
    alpha = np.sum(a * a, axis=0)
    beta = np.zeros_like(alpha)
    for subset in combinations(range(5), 4):
        p = _pfaffian4_terms(subset, _PAIR_INDEX5)
        pf = a[p[0]] * a[p[1]] - a[p[2]] * a[p[3]] + a[p[4]] * a[p[5]]
        beta += pf * pf
    disc = np.sqrt(np.maximum(alpha * alpha - 4.0 * beta, 0.0))
    mu_hi = 0.5 * (alpha + disc)
    return np.sqrt(mu_hi)


def _top_eigenpaths_n3(a):
    """Top positive eigenvalue path of the 7x7 antisymmetric bridge.

    Char poly: -lam (lam^6 - alpha lam^4 + beta lam^2 - gamma); the cubic in
    mu = lam^2 is solved by the trigonometric formula (three real roots).
    """
    from itertools import combinations
    alpha = np.sum(a * a, axis=0)
    beta = np.zeros_like(alpha)
    for subset in combinations(range(7), 4):
        p = _pfaffian4_terms(subset, _PAIR_INDEX7)
        pf = a[p[0]] * a[p[1]] - a[p[2]] * a[p[3]] + a[p[4]] * a[p[5]]
        beta += pf * pf
    gamma = np.zeros_like(alpha)
    for subset in combinations(range(7), 6):
        pf = _pfaffian6(a, subset, _PAIR_INDEX7)
        gamma += pf * pf
    # depressed cubic for mu: mu^3 - alpha mu^2 + beta mu - gamma = 0
    p = beta - alpha * alpha / 3.0
    q = -gamma + alpha * beta / 3.0 - 2.0 * alpha ** 3 / 27.0
    r = np.sqrt(np.maximum(-p / 3.0, 1e-300))
    arg = np.clip(-q / (2.0 * r ** 3), -1.0, 1.0)
    mu_top = alpha / 3.0 + 2.0 * r * np.cos(np.arccos(arg) / 3.0)
    return np.sqrt(np.maximum(mu_top, 0.0))


def _pfaffian6(a, subset, pair_index):
    """Pfaffian of the 6x6 principal block, by expansion along the first row."""
    i0 = subset[0]
    rest = subset[1:]
    total = 0.0
    for pos, j in enumerate(rest):
        others = [x for x in rest if x != j]
        s4 = tuple(others)
        p = _pfaffian4_terms(s4, pair_index)
        pf4 = a[p[0]] * a[p[1]] - a[p[2]] * a[p[3]] + a[p[4]] * a[p[5]]
        total = total + (-1.0) ** pos * a[pair_index[(i0, j)]] * pf4
    return total


def _top_path(N, seed, index, steps):
    """Top path of draw index: the cycle-shifted excursion for N = 1, the
    top eigenvalue path of the antisymmetric bridge matrix for N = 2, 3."""
    if N == 1:
        return _excursion(seed, index, steps)
    dim = 2 * N + 1
    a = _bridges(_rng_for(seed, index), dim * (dim - 1) // 2, steps)
    return _top_eigenpaths_n2(a) if N == 2 else _top_eigenpaths_n3(a)


def sample_ensemble(N, steps, n_samples, seed):
    """Draw n_samples (M, tau_M) pairs of the top path; see module docstring.

    N = 1 uses the cycle shift, N = 2, 3 the matrix realization; any other N
    raises DomainError at entry.  Non-finite samples raise PrecisionError.
    """
    if N not in (1, 2, 3):
        raise DomainError(f"samplers exist for N = 1, 2, 3, not N = {N}")
    if steps < 2000:
        raise DomainError("steps >= 2000 required")
    samples = np.empty((n_samples, 2))
    for i in range(n_samples):
        path = _top_path(N, seed, i, steps)
        j = int(np.argmax(path))
        samples[i] = path[j], j / steps
    bad = np.count_nonzero(~np.all(np.isfinite(samples), axis=1))
    if bad:
        raise PrecisionError(f"{bad} of {n_samples} samples are not finite")
    return PathEnsemble(N=N, steps=steps, samples=samples, seed=int(seed),
                        acceptance_rate=1.0, attempts=n_samples,
                        method="rejection" if N == 1 else "matrix")


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


def extreme_stats(ensemble, bins_m=24, bins_tau=24):
    """Unbiased moments with standard errors plus the 2-d histogram."""
    if len(ensemble) == 0:
        raise StatisticsError("empty ensemble")
    m = ensemble.maxima
    t = ensemble.argmax_times
    n = len(m)
    counts, em, et = np.histogram2d(m, t, bins=(bins_m, bins_tau))
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
    StatisticsError on non-finite samples."""
    x = np.sort(np.asarray(samples, dtype=float))
    bad = np.count_nonzero(~np.isfinite(x))
    if bad:
        raise StatisticsError(f"{bad} non-finite samples")
    n = len(x)
    F = np.asarray(cdf(x), dtype=float)
    up = np.max(np.arange(1, n + 1) / n - F)
    dn = np.max(F - np.arange(0, n) / n)
    return float(max(up, dn))


def exact_marginals(N):
    """Marginals of the exact finite-N joint density P_N(M, tau).

    M runs over M_NODES Gauss-Legendre nodes on [m_lo, m_cap], m_cap =
    4 sqrt(2N); one op table per node gives F_N and the tau-row there.
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
    from .finite_n import build_op_table, cdf_max_finite_n, jpdf_finite_n, log_cdf_max

    m_cap = 4.0 * np.sqrt(2.0 * N)
    m_lo = 0.5
    for m_try in np.arange(0.5, 0.25 * m_cap, 0.05):
        try:
            if log_cdf_max(m_try, N) > -40.0:
                break
        except (DomainError, PrecisionError):
            continue
        m_lo = m_try
    t_quad, w_quad = legendre_nodes(M_NODES)
    m_nodes = 0.5 * (m_lo + m_cap) + 0.5 * (m_cap - m_lo) * t_quad
    m_weights = 0.5 * (m_cap - m_lo) * w_quad
    tau_grid = np.linspace(0.0, 1.0, TAU_POINTS)
    f_nodes = np.empty(M_NODES)
    pdf_tau = np.zeros((M_NODES, TAU_POINTS))
    for i, M in enumerate(m_nodes):
        model = build_op_table(M, N)
        f_nodes[i] = cdf_max_finite_n(M, N, model=model)
        pdf_tau[i, 1:-1] = jpdf_finite_n(M, tau_grid[1:-1], N, model=model)

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


def compare_to_exact(ensemble, n_cells=4, min_expected=5.0):
    """KS statistics for both marginals and a chi^2 on the 2-d histogram
    against the exact finite-N density (N <= 3)."""
    if ensemble.N > 3:
        raise DomainError("exact comparison supported for N <= 3")
    from .finite_n import build_op_table, jpdf_finite_n

    cdf_m, cdf_tau, meta = exact_marginals(ensemble.N)
    ks_m = ks_statistic(ensemble.maxima, cdf_m)
    ks_t = ks_statistic(ensemble.argmax_times, cdf_tau)

    n = len(ensemble)
    qs = np.linspace(0.0, 1.0, n_cells + 1)
    edges_m = np.quantile(ensemble.maxima, qs)
    edges_t = np.quantile(ensemble.argmax_times, qs)
    edges_m[0], edges_m[-1] = 0.0, max(edges_m[-1] * 1.5, edges_m[-1] + 1.0)
    edges_t[0], edges_t[-1] = 0.0, 1.0
    counts, _, _ = np.histogram2d(ensemble.maxima, ensemble.argmax_times,
                                  bins=(edges_m, edges_t))

    # expected cell masses by 4 x 4 midpoint quadrature of the exact jpdf:
    # one op table per M midpoint serves every tau midpoint
    tt = np.array([np.linspace(edges_t[j], edges_t[j + 1], 9)[1::2] for j in range(n_cells)])
    inner = (tt > 0.0) & (tt < 1.0)
    expected = np.empty_like(counts)
    for i in range(n_cells):
        cell = np.zeros(n_cells)
        for M in np.linspace(edges_m[i], edges_m[i + 1], 9)[1::2]:
            dens = np.zeros_like(tt)
            try:
                model = build_op_table(M, ensemble.N)
                dens[inner] = jpdf_finite_n(M, tt[inner], ensemble.N, model=model)
            except (DomainError, PrecisionError):
                continue  # density ~ e^-40 there
            cell += dens.sum(axis=1)
        area = (edges_m[i + 1] - edges_m[i]) * (edges_t[1:] - edges_t[:-1]) / 16.0
        expected[i] = cell * area * n
    if np.any(expected < min_expected):
        raise StatisticsError("expected counts below the chi^2 validity floor")
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    dof = n_cells * n_cells - 1
    return {"ks_max": ks_m, "ks_tau": ks_t, "chi2": chi2, "dof": dof,
            "acceptance_rate": ensemble.acceptance_rate,
            "mean_tau": float(np.mean(ensemble.argmax_times)),
            "stderr_tau": float(np.std(ensemble.argmax_times, ddof=1) / np.sqrt(n))}


def save_ensemble(ensemble, path):
    """Binary dump: versioned header + little-endian samples; seed recorded."""
    with open(path, "wb") as fh:
        fh.write(DUMP_MAGIC)
        fh.write(struct.pack("<I", DUMP_VERSION))
        fh.write(struct.pack("<IIQ", ensemble.N, ensemble.steps, len(ensemble)))
        fh.write(struct.pack("<QdQ", ensemble.seed, ensemble.acceptance_rate,
                             ensemble.attempts))
        fh.write(np.ascontiguousarray(ensemble.samples, dtype="<f8").tobytes())


def _read_exact(fh, count):
    raw = fh.read(count)
    if len(raw) != count:
        raise DomainError(f"truncated ensemble dump: {len(raw)} of {count} bytes")
    return raw


def load_ensemble(path):
    with open(path, "rb") as fh:
        if fh.read(4) != DUMP_MAGIC:
            raise DomainError("not an ensemble dump")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != DUMP_VERSION:
            raise DomainError(f"unsupported dump version {version}")
        N, steps, n = struct.unpack("<IIQ", _read_exact(fh, 16))
        seed, rate, attempts = struct.unpack("<QdQ", _read_exact(fh, 24))
        samples = np.frombuffer(_read_exact(fh, 16 * n), dtype="<f8").reshape(n, 2).astype(float)
    return PathEnsemble(N=N, steps=steps, samples=samples, seed=seed,
                        acceptance_rate=rate, attempts=attempts)
