"""Monte-Carlo sampler of N non-intersecting Brownian excursions on [0, 1].

A single excursion is generated by the cycle-shift construction: a Brownian
bridge rotated at its minimum is an excursion in law (exact for the
discretely observed bridge as well, by the cycle lemma applied to the
exchangeable Gaussian increments).

For N >= 2 whole-tuple rejection of independent excursions is hopeless: the
paths share both endpoints, so the non-crossing event degenerates and the
measured acceptance falls like 1/steps^2 (about 1e-6 already at the minimal
steps = 2000).  The production sampler instead uses an exact-in-law matrix
realization: the ordered positive eigenvalues of a (2N+1) x (2N+1) real
antisymmetric matrix whose entries are independent scalar Brownian bridges
evolve as N non-intersecting excursions (for N = 1 this is the classical
|3-d Brownian bridge| = excursion identity; the fixed-time eigenvalue
density reproduces the prod x^2 * Vandermonde(x^2)^2 slice law).  The
rejection scheme is kept as an explicit method and raises the documented
infeasible-configuration error when its acceptance collapses.

Randomness is counter-based: sample/attempt i draws from Philox keyed by
(seed, i), so results are reproducible and independent of batching order.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InfeasibleConfigurationError, PrecisionError, StatisticsError

DUMP_MAGIC = b"AMCE"
DUMP_VERSION = 1


@dataclass(frozen=True)
class PathEnsemble:
    """Accepted (M, tau_M) samples of the top path."""

    N: int
    steps: int
    samples: np.ndarray          # shape (n, 2): columns M, tau_M
    seed: int
    acceptance_rate: float
    attempts: int = 0
    method: str = "auto"

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


def _excursions_for_attempt(seed, attempt, N, steps):
    bridge = _bridges(_rng_for(seed, attempt), N, steps)
    mins = np.argmin(bridge[:, :-1], axis=1)
    exc = np.empty_like(bridge)
    for i in range(N):
        m = mins[i]
        rolled = np.concatenate([bridge[i, m:-1], bridge[i, :m]])
        exc[i, :-1] = rolled - bridge[i, m]
        exc[i, -1] = 0.0
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


def _sample_matrix(N, steps, n_samples, seed):
    dim = 2 * N + 1
    n_entries = dim * (dim - 1) // 2
    top_fn = {2: _top_eigenpaths_n2, 3: _top_eigenpaths_n3}[N]
    out = np.empty((n_samples, 2))
    for i in range(n_samples):
        a = _bridges(_rng_for(seed, i), n_entries, steps)
        lam = top_fn(a)
        j = int(np.argmax(lam))
        out[i, 0] = lam[j]
        out[i, 1] = j / steps
    return out


def _sample_rejection(N, steps, n_samples, seed, max_attempt_factor):
    out = np.empty((n_samples, 2))
    got = 0
    attempt = 0
    cap = max(20000, max_attempt_factor * n_samples)
    while got < n_samples:
        if attempt >= cap:
            rate = got / max(attempt, 1)
            raise InfeasibleConfigurationError(
                f"acceptance rate {max(rate, 0.0):.2e} below feasibility "
                f"(budget {cap} attempts); reduce N or use method='matrix'")
        exc = _excursions_for_attempt(seed, attempt, N, steps)
        attempt += 1
        if N > 1:
            order = np.argsort(exc[:, steps // 2])
            exc = exc[order]
            if np.any(np.diff(exc[:, 1:-1], axis=0) <= 0.0):
                continue
        top = exc[-1]
        j = int(np.argmax(top))
        out[got, 0] = top[j]
        out[got, 1] = j / steps
        got += 1
    return out, attempt


def sample_ensemble(N, steps, n_samples, seed, method="auto", max_attempt_factor=400):
    """Draw n_samples (M, tau_M) pairs of the top path; see module docstring.

    method: "auto" picks cycle-shift for N = 1 and the matrix realization for
    N in {2, 3}; "rejection" forces whole-tuple rejection (N <= 4) and raises
    the documented infeasibility error when acceptance collapses.
    """
    if not 1 <= N <= 4:
        raise DomainError("supported walker counts are 1 <= N <= 4")
    if steps < 2000:
        raise DomainError("steps >= 2000 required")
    if method not in ("auto", "rejection", "matrix"):
        raise DomainError(f"unknown method {method!r}")
    if method == "auto":
        method = "rejection" if N == 1 else ("matrix" if N <= 3 else "rejection")
    if method == "matrix" and not 2 <= N <= 3:
        raise DomainError("matrix realization implemented for N in {2, 3}")
    if method == "matrix":
        samples = _sample_matrix(N, steps, n_samples, seed)
        attempts = n_samples
        rate = 1.0
    else:
        samples, attempts = _sample_rejection(N, steps, n_samples, seed,
                                              max_attempt_factor)
        rate = n_samples / attempts
    return PathEnsemble(N=N, steps=steps, samples=samples, seed=int(seed),
                        acceptance_rate=float(rate), attempts=attempts,
                        method=method)


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
    """Kolmogorov-Smirnov sup-distance of the empirical CDF from cdf."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    F = np.asarray(cdf(x), dtype=float)
    up = np.max(np.arange(1, n + 1) / n - F)
    dn = np.max(F - np.arange(0, n) / n)
    return float(max(up, dn))


def exact_marginals(N, m_cap=None, n_m=96, n_tau=241):
    """Quadrature marginals of the exact finite-N joint density.

    Returns (cdf_M callable, cdf_tau callable, pdf grid metadata).
    """
    from .finite_n import build_op_table, cdf_max_finite_n, g_function_vector, log_cdf_max

    if m_cap is None:
        m_cap = 4.0 * np.sqrt(2.0 * N)
    # start where F_N is numerically alive; the dropped mass is < e^-40
    m_lo = 0.5
    for m_try in np.arange(0.5, 0.25 * m_cap, 0.05):
        try:
            if log_cdf_max(m_try, N) > -40.0:
                break
        except (DomainError, PrecisionError):
            continue
        m_lo = m_try
    t_quad, w_quad = np.polynomial.legendre.leggauss(n_m)
    m_nodes = 0.5 * (m_lo + m_cap) + 0.5 * (m_cap - m_lo) * t_quad
    m_weights = 0.5 * (m_cap - m_lo) * w_quad
    tau_grid = np.linspace(0.0, 1.0, n_tau)
    u_inner = tau_grid[1:-1] - 0.5
    u_edge = float(np.max(np.abs(u_inner)))
    pdf_tau = np.zeros((n_m, n_tau))
    for i, M in enumerate(m_nodes):
        model = build_op_table(M, N, u_edge=u_edge)
        acc = np.zeros(len(u_inner))
        for k in range(1, N + 1):
            acc += (g_function_vector(model, k, u_inner)
                    * g_function_vector(model, k, -u_inner))
        pref = np.exp(log_cdf_max(M, N, model=model)) * np.pi ** 2 / (2.0 * M ** 3)
        pdf_tau[i, 1:-1] = pref * acc

    m_table = np.linspace(m_lo, m_cap, 600)
    f_table = np.array([cdf_max_finite_n(v, N) for v in m_table])

    def cdf_m(x):
        x = np.asarray(x, dtype=float)
        return np.interp(x, m_table, f_table, left=0.0, right=1.0)

    tau_density = m_weights @ pdf_tau
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (tau_density[1:] + tau_density[:-1])
                                           * np.diff(tau_grid))])
    if cum[-1] > 0:
        cum = cum / cum[-1]

    def cdf_tau(x):
        return np.interp(np.asarray(x, dtype=float), tau_grid, cum)

    return cdf_m, cdf_tau, {"m_nodes": m_nodes, "tau_grid": tau_grid,
                            "tau_density": tau_density}


def compare_to_exact(ensemble, n_cells=4, min_expected=5.0):
    """KS statistics for both marginals and a chi^2 on the 2-d histogram
    against the exact finite-N density (N <= 3)."""
    if ensemble.N > 3:
        raise DomainError("exact comparison supported for N <= 3")
    from .finite_n import build_op_table, g_function, log_cdf_max

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

    # expected cell masses by midpoint quadrature of the exact jpdf
    from .errors import PrecisionError
    expected = np.empty_like(counts)
    for i in range(n_cells):
        mm = np.linspace(edges_m[i], edges_m[i + 1], 9)[1::2]
        for j in range(n_cells):
            tt = np.linspace(edges_t[j], edges_t[j + 1], 9)[1::2]
            acc = 0.0
            for M in mm:
                try:
                    model = build_op_table(M, ensemble.N, u_edge=0.49)
                except (DomainError, PrecisionError):
                    continue  # density ~ e^-40 there
                pref = np.exp(log_cdf_max(M, ensemble.N, model=model)) \
                    * np.pi ** 2 / (2.0 * M ** 3)
                for tau in tt:
                    if 0.0 < tau < 1.0:
                        s = sum(g_function(model, k, tau - 0.5)
                                * g_function(model, k, 0.5 - tau)
                                for k in range(1, ensemble.N + 1))
                        acc += pref * s
            area = (edges_m[i + 1] - edges_m[i]) * (edges_t[j + 1] - edges_t[j]) / 16.0
            expected[i, j] = acc * area * n
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


def load_ensemble(path):
    with open(path, "rb") as fh:
        if fh.read(4) != DUMP_MAGIC:
            raise DomainError("not an ensemble dump")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != DUMP_VERSION:
            raise DomainError(f"unsupported dump version {version}")
        N, steps, n = struct.unpack("<IIQ", fh.read(16))
        seed, rate, attempts = struct.unpack("<QdQ", fh.read(24))
        samples = np.frombuffer(fh.read(16 * n), dtype="<f8").reshape(n, 2).astype(float)
    return PathEnsemble(N=N, steps=steps, samples=samples, seed=seed,
                        acceptance_rate=rate, attempts=attempts)
