import hashlib

import numpy as np
import pytest

from airymax import finite_n, mc
from airymax.errors import DomainError, PrecisionError, StatisticsError

from _oracles import matrix_samples_full_path


def _dkw(n, alpha=1e-6):
    # sup |F_n - F| exceeds this with probability at most alpha
    return np.sqrt(np.log(2.0 / alpha) / (2.0 * n))


def _ks_two_sample(x, y):
    grid = np.concatenate([x, y])
    fx = np.searchsorted(np.sort(x), grid, side="right") / len(x)
    fy = np.searchsorted(np.sort(y), grid, side="right") / len(y)
    return float(np.max(np.abs(fx - fy)))


def _completed_paths(steps, n, seed, fill_seed):
    """(M, tau_M) of the whole fine path of draws 0..n-1 of the N = 2
    sampler: its coarse points and refined windows as sample_ensemble draws
    them from stream (seed, i), and every window it did not refine filled
    from the independent stream (fill_seed, i).  Also returns how many
    maxima fell inside a refined window rather than on a coarse point."""
    dim, E = 5, 10
    edges = mc._coarse_edges(steps)
    lengths = np.diff(edges)
    C, width = len(lengths), int(lengths.max())
    pos = edges[:-1, None] + 1 + np.arange(width - 1)
    keep = np.arange(width - 1) < lengths[:, None] - 1
    out, interior = np.empty((n, 2)), 0
    for i in range(n):
        rng = mc._rng_for(seed, i)
        coarse, lam = mc._coarse_pass(dim, edges, [rng])
        sel = mc._select_windows(lam, edges, E)[0][0]
        z = np.empty((C, E, width))
        z[sel] = rng.standard_normal((np.count_nonzero(sel), E, width))
        z[~sel] = mc._rng_for(fill_seed, i).standard_normal((C - np.count_nonzero(sel), E, width))
        inner = mc._fill_windows(coarse[:, 0, :-1].T, coarse[:, 0, 1:].T, z, lengths, steps)
        full = np.empty((E, steps + 1))
        full[:, edges] = coarse[:, 0]
        full[:, pos[keep]] = inner.transpose(1, 0, 2)[:, keep]
        path = mc._top_eigenpath(full, dim)
        j = int(np.argmax(path))
        out[i] = path[j], j / steps
        interior += j not in edges
    return out, interior


@pytest.mark.parametrize("steps", [2000, 8000])
def test_coarse_to_fine_misses_no_maximum(steps):
    # the unrefined windows, filled from another stream, never hold the
    # maximum: the sampler's (M, tau) is that of the completed fine path
    n = 1000
    ens = mc.sample_ensemble(2, steps, n, seed=61)
    full, interior = _completed_paths(steps, n, seed=61, fill_seed=62)
    assert np.array_equal(ens.samples, full)
    assert interior >= n // 2        # the refined windows decide most draws
    assert 0.0 < ens.miss_bound <= 1e-9 * n
    assert 0.0 < ens.refined_fraction < 0.25


def test_prime_steps():
    # 2003 has no divisor: windows of 5 and 6 fine steps
    steps = 2003
    assert set(np.diff(mc._coarse_edges(steps))) == {5, 6}
    ens = mc.sample_ensemble(2, steps, 200, seed=63)
    full, _ = _completed_paths(steps, 200, seed=63, fill_seed=64)
    assert np.array_equal(ens.samples, full)


def test_coarse_to_fine_matches_full_path_oracle():
    # two-sample KS against the whole-path sampler: each empirical CDF is
    # within its DKW bound at alpha = 1e-6 of the common law
    n = 3000
    new = mc.sample_ensemble(2, 2000, n, seed=65).samples
    old = matrix_samples_full_path(2, 2000, n, seed=66)
    for column in (0, 1):
        assert _ks_two_sample(new[:, column], old[:, column]) <= 2.0 * _dkw(n)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_samples_do_not_depend_on_blocks(monkeypatch, offset):
    # block - 1, block and block + 1 draws against a run of one draw per block
    steps = 2000
    block = mc.BLOCK_ELEMENTS // (10 * len(mc._coarse_edges(steps)))
    n = block + offset
    blocked = mc.sample_ensemble(2, steps, n, seed=67)
    assert np.array_equal(blocked.samples, mc.sample_ensemble(2, steps, 2 * block + 1, seed=67).samples[:n])
    monkeypatch.setattr(mc, "BLOCK_ELEMENTS", 1)
    single = mc.sample_ensemble(2, steps, n, seed=67)
    assert np.array_equal(blocked.samples, single.samples)
    assert single.refined_fraction == blocked.refined_fraction
    assert single.miss_bound == pytest.approx(blocked.miss_bound, rel=1e-12)


def test_window_rule_reaches_its_bound():
    # y* is where the martingale bound reaches 1e-12, below the Chernoff
    # bound (2 sqrt 2)^E exp(-y) on the sum of the entries' squared suprema
    for E in (10, 21):
        alpha, y_star = mc._window_rule(E)
        assert mc._window_log_bound(y_star, E, alpha) >= np.log(1e12)
        assert mc._window_log_bound(y_star - 1e-6, E, alpha) < np.log(1e12)
        assert y_star < E * np.log(2.0 * np.sqrt(2.0)) + np.log(1e12)


def test_window_bound_covers_simulated_bridges():
    # P(sup |d|^2 >= y T) for a 10-dimensional random-walk bridge, against
    # the bound at y = 5 and 6 (it is about twice the simulated value)
    rng = np.random.default_rng(5)
    sup = []
    for _ in range(4):
        w = np.cumsum(rng.standard_normal((500, 200, 10)) / np.sqrt(200), axis=1)
        d = w - np.arange(1, 201)[None, :, None] / 200 * w[:, -1:, :]
        sup.append(np.max(np.sum(d * d, axis=2), axis=1))
    sup = np.concatenate(sup)
    alpha, _ = mc._window_rule(10)
    for y in (5.0, 6.0):
        bound = np.exp(-mc._window_log_bound(y, 10, alpha))
        assert np.mean(sup >= y) + 3.0 * np.sqrt(bound / len(sup)) <= bound


def test_determinism_and_order_independence():
    a = mc.sample_ensemble(1, 2000, 500, seed=42)
    b = mc.sample_ensemble(1, 2000, 500, seed=42)
    assert np.array_equal(a.samples, b.samples)
    # first half of a longer run matches: per-sample streams
    c = mc.sample_ensemble(2, 2000, 200, seed=9)
    d = mc.sample_ensemble(2, 2000, 100, seed=9)
    assert np.array_equal(c.samples[:100], d.samples)


@pytest.mark.parametrize("args, digest", [
    ((1, 2000, 50, 42), "e9cc0a20654e8f35d6fd59ffcff70932312e67945e5d0e40622dc6b1a89bdfb2"),
    ((2, 2000, 20, 9), "633f56141650e9bc14d7ed35fc9d2f1f9b70cdb3a239cc5f8c22cfb87de76a2d"),
])
def test_samples_match_frozen_fingerprints(args, digest):
    # sha256 of the little-endian samples; any change to the Philox streams
    # or the path constructions shows here
    N, steps, n, seed = args
    samples = mc.sample_ensemble(N, steps, n, seed=seed).samples
    assert hashlib.sha256(samples.astype("<f8").tobytes()).hexdigest() == digest


def test_excursion_paths_positive_and_pinned():
    exc = mc._excursion(7, 3, 2000)
    assert exc.shape == (2001,)
    assert np.all(exc[1:-1] > 0.0)
    assert exc[0] == 0.0 and exc[-1] == 0.0


def test_matrix_paths_ordered_nonnegative():
    a = mc._bridges(mc._rng_for(3, 0), 10, 2000)
    lam_top = mc._top_eigenpath(a, 5)
    assert np.all(lam_top >= 0.0)
    # top eigenvalue dominates the second root
    alpha = np.sum(a * a, axis=0)
    assert np.all(lam_top ** 2 >= alpha / 2.0 - 1e-12)


@pytest.mark.parametrize("dim", [5, 7])
def test_top_eigenpath_against_eigensolve(dim):
    # the Pfaffian recursion against a batched symmetric eigensolve of A^T A,
    # at the interior times (the ends are the zero matrix)
    a = mc._bridges(mc._rng_for(21, dim), dim * (dim - 1) // 2, 2000)
    A = np.zeros((a.shape[1], dim, dim))
    rows, cols = np.triu_indices(dim, 1)
    A[:, rows, cols] = a.T
    A[:, cols, rows] = -a.T
    top = np.sqrt(np.linalg.eigvalsh(np.swapaxes(A, 1, 2) @ A)[:, -1])
    assert np.max(np.abs(mc._top_eigenpath(a, dim)[1:-1] - top[1:-1])) <= 1e-13


def test_dim7_paths_match_frozen_fingerprint():
    # sha256 of the little-endian N = 3 top paths of draws (3, 0..4), NaN
    # ends included, as the hand-expanded 7 x 7 Pfaffians gave them
    digest = hashlib.sha256()
    with np.errstate(invalid="ignore"):
        for i in range(5):
            path = mc._top_eigenpath(mc._bridges(mc._rng_for(3, i), 21, 2000), 7)
            digest.update(path.astype("<f8").tobytes())
    assert digest.hexdigest() == "ccbad17e0a05ef921479173dabfc602c77cda108452d3011b114dde80e1e1e98"


def test_samples_in_range():
    ens = mc.sample_ensemble(2, 2000, 300, seed=5)
    assert np.all(ens.maxima > 0.0)
    assert np.all((ens.argmax_times > 0.0) & (ens.argmax_times < 1.0))


def test_tau_reflection_symmetry():
    ens = mc.sample_ensemble(1, 4000, 20000, seed=100)
    mean = ens.argmax_times.mean()
    stderr = ens.argmax_times.std(ddof=1) / np.sqrt(len(ens))
    assert abs(mean - 0.5) <= 3.0 * stderr


def test_ks_against_exact_small_run(sol):
    ens = mc.sample_ensemble(1, 4000, 8000, seed=17)
    cdf_m, cdf_tau, _ = mc.exact_marginals(1)
    assert mc.ks_statistic(ens.maxima, cdf_m) <= 0.05
    assert mc.ks_statistic(ens.argmax_times, cdf_tau) <= 0.05


def test_mean_max_against_quadrature_oracle():
    # E[M] at N = 2 from the exact law via E[M] = int (1 - F) dM
    import numpy as np
    from airymax.finite_n import cdf_max_finite_n
    m_lo, m_cap = 0.5, 4.0 * np.sqrt(4.0)
    grid = np.linspace(m_lo, m_cap, 1200)
    F = np.array([cdf_max_finite_n(v, 2) for v in grid])
    exact_mean = m_lo + np.trapezoid(1.0 - F, grid)
    ens = mc.sample_ensemble(2, 6000, 4000, seed=23)
    st = mc.extreme_stats(ens)
    # allow the residual steps-discretization bias on top of 3 stderr
    assert abs(st.mean_max - exact_mean) <= 3.0 * st.stderr_max + 0.012


def test_step_refinement_reduces_bias():
    cdf_m, _, _ = mc.exact_marginals(1)
    coarse = mc.sample_ensemble(1, 2000, 20000, seed=31)
    fine = mc.sample_ensemble(1, 20000, 20000, seed=31)
    assert mc.ks_statistic(fine.maxima, cdf_m) <= mc.ks_statistic(coarse.maxima, cdf_m)


def test_extreme_stats_and_histogram():
    ens = mc.sample_ensemble(2, 2000, 3000, seed=77)
    st = mc.extreme_stats(ens)
    assert st.n == 3000
    assert st.hist_counts.sum() == 3000
    assert np.isfinite(st.correlation)
    # the exact law is symmetric under tau -> 1 - tau, so corr(M, tau) = 0;
    # seed replicates must agree within sampling error around that value
    st2 = mc.extreme_stats(mc.sample_ensemble(2, 2000, 3000, seed=78))
    noise = 1.0 / np.sqrt(st.n)
    assert abs(st.correlation) <= 4 * noise
    assert abs(st.correlation - st2.correlation) <= 6 * noise


def test_compare_to_exact_structure():
    ens = mc.sample_ensemble(2, 2000, 4000, seed=13)
    rep = mc.compare_to_exact(ens)
    assert rep["ks_max"] < 0.08 and rep["ks_tau"] < 0.08
    assert rep["dof"] == 15 and np.isfinite(rep["chi2"])


def test_compare_to_exact_caps_walker_count():
    ens = mc.sample_ensemble(1, 2000, 10, seed=1)
    object.__setattr__(ens, "N", 4)
    with pytest.raises(DomainError):
        mc.compare_to_exact(ens)


def test_chi2_validity_floor():
    ens = mc.sample_ensemble(2, 2000, 60, seed=2)
    with pytest.raises(StatisticsError):
        mc.compare_to_exact(ens)


@pytest.mark.xfail(strict=True, raises=PrecisionError,
                   reason="ROADMAP item 2(a): _top_eigenpath(a, 7) divides 0/0 at t = 0 and "
                          "t = 1, so every N = 3 sample is (nan, 0.0)")
def test_n3_samples_are_finite():
    ens = mc.sample_ensemble(3, 2000, 5, seed=3)
    assert np.all(np.isfinite(ens.samples))


def test_non_finite_samples_raise(monkeypatch):
    # a NaN path (as every N = 3 path is today) is refused, not returned
    monkeypatch.setattr(mc, "_excursion",
                        lambda seed, i, steps: np.full(steps + 1, np.nan if i % 2 else 1.0))
    with pytest.raises(PrecisionError, match="2 of 4 samples are not finite"):
        mc.sample_ensemble(1, 2000, 4, seed=1)


@pytest.mark.parametrize("column", [0, 1])
def test_ks_statistic_refuses_non_finite_samples(column):
    samples = np.column_stack([np.linspace(0.5, 2.0, 10), np.linspace(0.1, 0.9, 10)])
    samples[3, column] = np.nan
    with pytest.raises(StatisticsError, match="1 non-finite"):
        mc.ks_statistic(samples[:, column], lambda x: np.clip(x, 0.0, 1.0))


def test_ks_statistic_refuses_no_samples():
    with pytest.raises(StatisticsError, match="no samples"):
        mc.ks_statistic(np.array([]), lambda x: np.clip(x, 0.0, 1.0))


def test_parameter_guards(monkeypatch):
    def no_draws(*args):
        raise AssertionError("sample_ensemble drew paths")

    monkeypatch.setattr(mc, "_rng_for", no_draws)
    for N in (0, 4, 5):
        with pytest.raises(DomainError):
            mc.sample_ensemble(N, 2000, 10, seed=1)
    with pytest.raises(DomainError):
        mc.sample_ensemble(1, 500, 10, seed=1)
    for n in (0, -1):
        with pytest.raises(DomainError):
            mc.sample_ensemble(1, 2000, n, seed=1)
    for N in (1, 2):
        for seed in (-1, 2 ** 64):
            with pytest.raises(DomainError):
                mc.sample_ensemble(N, 2000, 10, seed=seed)


def test_dump_roundtrip(tmp_path):
    ens = mc.sample_ensemble(2, 2000, 120, seed=55)
    path = str(tmp_path / "ens.bin")
    mc.save_ensemble(ens, path)
    loaded = mc.load_ensemble(path)
    assert loaded.N == 2 and loaded.steps == 2000 and loaded.seed == 55
    assert np.array_equal(loaded.samples, ens.samples)


@pytest.mark.parametrize("keep", [-8, 20])
def test_truncated_dump_is_typed(tmp_path, keep):
    # cut inside the samples, then inside the header
    ens = mc.sample_ensemble(1, 2000, 20, seed=5)
    path = tmp_path / "ens.bin"
    mc.save_ensemble(ens, str(path))
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(DomainError, match="truncated"):
        mc.load_ensemble(str(path))


@pytest.mark.parametrize("N, steps, extra, match", [
    (1, 2000, 40, "overlong ensemble dump: 408 of 368 bytes"),
    (4, 2000, 0, "not N = 4"),
    (0, 2000, 0, "not N = 0"),
    (2, 1999, 0, "steps >= 2000"),
], ids=["trailing_bytes", "N4", "N0", "steps1999"])
def test_dump_length_and_header_are_checked(tmp_path, N, steps, extra, match):
    # trailing bytes past the n samples, and a header no sampler could write
    ens = mc.PathEnsemble(N=N, steps=steps, samples=np.ones((20, 2)), seed=5,
                          acceptance_rate=1.0, attempts=20)
    path = tmp_path / "ens.bin"
    mc.save_ensemble(ens, str(path))
    path.write_bytes(path.read_bytes() + bytes(extra))
    with pytest.raises(DomainError, match=match):
        mc.load_ensemble(str(path))


def test_empty_ensemble_stats():
    ens = mc.PathEnsemble(N=1, steps=2000, samples=np.empty((0, 2)), seed=0,
                          acceptance_rate=0.0)
    with pytest.raises(StatisticsError):
        mc.extreme_stats(ens)


@pytest.mark.parametrize("module, scan", [
    (finite_n, lambda: mc.exact_marginals(2)),
])
def test_m_lo_scan_propagates_unexpected_errors(monkeypatch, module, scan):
    # the scan for the lower M limit skips only DomainError and PrecisionError
    calls = []
    real = finite_n.log_cdf_max

    def first_call_fails(M, N):
        calls.append(M)
        if len(calls) == 1:
            raise ValueError("injected")
        return real(M, N)

    monkeypatch.setattr(module, "log_cdf_max", first_call_fails)
    with pytest.raises(ValueError, match="injected"):
        scan()


@pytest.mark.parametrize("N", [1, 2, 3])
def test_exact_cdf_m_matches_finite_n(N):
    # the interpolant on the quadrature nodes against F_N itself, between
    # the nodes and beyond both ends
    cdf_m, _, meta = mc.exact_marginals(N)
    m_lo, m_cap = meta["m_lo"], 4.0 * np.sqrt(2.0 * N)
    m = np.linspace(m_lo, m_cap, 301)
    exact = np.array([finite_n.cdf_max_finite_n(v, N) for v in m])
    assert np.max(np.abs(cdf_m(m) - exact)) <= 1e-10
    assert np.array_equal(cdf_m(np.array([0.0, m_lo - 1e-6, m_cap + 1e-6, 50.0])),
                          [0.0, 0.0, 1.0, 1.0])


@pytest.mark.parametrize("N", [1, 2, 3])
def test_exact_marginals_mass_closes(N):
    # the quadrature carries all the mass above m_lo; for N = 1 the mass
    # F_1(0.5) = 5.3e-7 below build_op_table's floor is what is missing
    _, _, meta = mc.exact_marginals(N)
    below = finite_n.cdf_max_finite_n(meta["m_lo"], N)
    assert abs(meta["raw_mass"] + below - 1.0) <= 1e-12


@pytest.mark.parametrize("N", [1, 2, 3])
def test_exact_tau_density_symmetric(N):
    # tau - 1/2 on the grid is exactly minus its mirror's, so P_N(M, tau) and
    # P_N(M, 1 - tau) come from the same G products
    _, _, meta = mc.exact_marginals(N)
    tau, dens = meta["tau_grid"], meta["tau_density"]
    assert tau[0] == 0.0 and tau[-1] == 1.0 and len(tau) == mc.TAU_POINTS
    assert np.array_equal(tau - 0.5, -(tau[::-1] - 0.5))
    assert np.array_equal(dens, dens[::-1])
