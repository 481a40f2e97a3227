import numpy as np
import pytest

from airymax import finite_n, mc, validation
from airymax.errors import DomainError, InfeasibleConfigurationError, StatisticsError


def test_determinism_and_order_independence():
    a = mc.sample_ensemble(1, 2000, 500, seed=42)
    b = mc.sample_ensemble(1, 2000, 500, seed=42)
    assert np.array_equal(a.samples, b.samples)
    # first half of a longer run matches: per-sample streams
    c = mc.sample_ensemble(2, 2000, 200, seed=9)
    d = mc.sample_ensemble(2, 2000, 100, seed=9)
    assert np.array_equal(c.samples[:100], d.samples)


def test_excursion_paths_positive_and_pinned():
    exc = mc._excursions_for_attempt(7, 3, 2, 2000)
    assert exc.shape == (2, 2001)
    assert np.all(exc[:, 1:-1] > 0.0)
    assert np.all(exc[:, 0] == 0.0) and np.all(exc[:, -1] == 0.0)


def test_matrix_paths_ordered_nonnegative():
    a = mc._bridges(mc._rng_for(3, 0), 10, 2000)
    lam_top = mc._top_eigenpaths_n2(a)
    assert np.all(lam_top >= 0.0)
    # top eigenvalue dominates the second root
    alpha = np.sum(a * a, axis=0)
    assert np.all(lam_top ** 2 >= alpha / 2.0 - 1e-12)


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


def test_rejection_mode_infeasible_for_shared_endpoints():
    with pytest.raises(InfeasibleConfigurationError):
        mc.sample_ensemble(2, 2000, 200, seed=3, method="rejection",
                           max_attempt_factor=50)


def test_auto_method_refuses_four_walkers_at_entry(monkeypatch):
    def no_draws(*args):
        raise AssertionError("sample_ensemble drew paths for N = 4")

    monkeypatch.setattr(mc, "_excursions_for_attempt", no_draws)
    with pytest.raises(InfeasibleConfigurationError, match="method='rejection'"):
        mc.sample_ensemble(4, 2000, 10, seed=1)


def test_parameter_guards():
    with pytest.raises(DomainError):
        mc.sample_ensemble(5, 2000, 10, seed=1)
    with pytest.raises(DomainError):
        mc.sample_ensemble(1, 500, 10, seed=1)
    with pytest.raises(DomainError):
        mc.sample_ensemble(2, 2000, 10, seed=1, method="bogus")


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


def test_empty_ensemble_stats():
    ens = mc.PathEnsemble(N=1, steps=2000, samples=np.empty((0, 2)), seed=0,
                          acceptance_rate=0.0)
    with pytest.raises(StatisticsError):
        mc.extreme_stats(ens)


@pytest.mark.parametrize("module, scan", [
    (finite_n, lambda: mc.exact_marginals(2)),
    (validation, lambda: validation._normalization_finite_n(2)),
])
def test_m_lo_scan_propagates_unexpected_errors(monkeypatch, module, scan):
    # the scan for the lower M limit skips only DomainError and PrecisionError
    calls = []
    real = finite_n.log_cdf_max

    def first_call_fails(M, N, model=None):
        calls.append(M)
        if len(calls) == 1:
            raise ValueError("injected")
        return real(M, N, model=model)

    monkeypatch.setattr(module, "log_cdf_max", first_call_fails)
    with pytest.raises(ValueError, match="injected"):
        scan()
