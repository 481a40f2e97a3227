import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from airymax import finite_n as fn
from airymax.errors import DomainError, PrecisionError
from airymax.oracles import brute_force_jpdf
from airymax.special import airy_ai

from _oracles import (OP_TABLE_REFERENCES, RECURRENCE_10_200, RECURRENCE_30_904, g_mp,
                      stieltjes_mp)


def test_h0_asymptotic():
    model = fn.build_op_table(10.0, 4)
    assert math.exp(model.log_h[0]) == pytest.approx(10.0 * math.sqrt(2.0 / math.pi),
                                                     rel=1e-12)


def test_recursion_coefficient_asymptotic():
    gam = fn.recurrence_table(20.0, 4)
    assert gam[3] ** 2 == pytest.approx(3.0 * (20.0 / math.pi) ** 2, rel=1e-10)


def test_recurrence_table_past_double_range():
    # at degree ~M^2 the wave functions reach |n| ~ 600, where the half weight
    # exp(-pi^2 n^2/(4 M^2)) is below the double range; plain doubles are off
    # by 2-4 % at k >= 800
    gam = fn.recurrence_table(30.0, 904)
    for k, ref in RECURRENCE_30_904.items():
        assert gam[k] == pytest.approx(ref, rel=1e-13)


def test_recurrence_table_matches_mp_oracle():
    M, deg = 10.0, 120
    n_max = max(fn.suggested_n_max(M, deg), int(math.ceil(0.66 * deg + 60.0)))
    ref = stieltjes_mp(M, deg, n_max)
    gam = fn.recurrence_table(M, deg)
    assert np.all(np.abs(gam[1:] / ref[1:] - 1.0) <= 1e-13)


def test_recurrence_table_past_twice_m_squared():
    # past ~M^2 + 3M plain Stieltjes loses orthogonality in doubles (at M = 10
    # its gammas were off by O(1) from degree ~150); partial
    # reorthogonalization keeps the table to degree 200 = 2 M^2
    gam = fn.recurrence_table(10.0, 200)
    for k, ref in RECURRENCE_10_200.items():
        assert gam[k] == pytest.approx(ref, rel=1e-13), k


def test_recurrence_table_refuses_unstable_degrees():
    # at M = 1 the weight exp(-pi^2 n^2/4) spans too few lattice points in
    # double precision for degree 35: Lanczos breakdown
    with pytest.raises(PrecisionError):
        fn.recurrence_table(1.0, 40)


@pytest.mark.parametrize("M, degree", [(1e-3, 1), (0.05, 1), (0.1, 3)])
def test_recurrence_table_tiny_m_breaks_down_cleanly(M, degree):
    # gamma_1 ~ sqrt(2) exp(-pi^2/(4 M^2)) is below the range of doubles at
    # M = 1e-3 and 0.05, and gamma_3 is at M = 0.1; their residual norms were
    # divided by zero, with RuntimeWarnings and a "did not converge" error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PrecisionError,
                           match=f"breakdown at degree {degree} for M = {M}"):
            fn.recurrence_table(M, 3)
        gam = fn.recurrence_table(0.2, 3)
    assert np.all(np.isfinite(gam[1:])) and np.all(gam[1:] > 0.0)


@pytest.mark.parametrize("M, deg_max", [(np.nan, 10), (np.inf, 10), (-5.0, 10), (0.0, 10),
                                        (5.0, 0)])
def test_recurrence_table_entry_checks(M, deg_max):
    # nan raised Python's ValueError, and M = -5 returned the M = 5 table
    with pytest.raises(DomainError):
        fn.recurrence_table(M, deg_max)


def test_gamma_h_consistency():
    model = fn.build_op_table(5.0, 6)
    for k in range(1, 12):
        assert model.gamma[k] ** 2 == pytest.approx(
            math.exp(model.log_h[k] - model.log_h[k - 1]), rel=1e-12)


def test_g_truncation_certified():
    # against the direct sum on a lattice twice as wide as the op table's:
    # (M, k, u) = (4, 2, 0.2) takes the dual route, (2, 3, 0.2) the direct one
    for M, k, u in ((4.0, 2, 0.2), (2.0, 3, 0.2)):
        model = fn.build_op_table(M, 3)
        g1 = fn.g_function(model, k, u)
        n = np.arange(-2 * model.n_max, 2 * model.n_max + 1, dtype=float)
        wide = fn._g_terms(n, model.gamma, model.log_h[0], model.M, k, np.array([u]))
        assert abs(g1 - wide[k - 1].sum()) <= 1e-13 * max(abs(g1), 1e-30)


def test_g_closed_form_bulk():
    model = fn.build_op_table(8.0, 4)
    assert fn.g_function(model, 3, 0.0) == pytest.approx(
        fn.g_closed_form(8.0, 3, 0.0), rel=1e-4)
    assert fn.g_function(model, 3, 0.1) == pytest.approx(
        fn.g_closed_form(8.0, 3, 0.1), rel=1e-3)


def test_g_cancelling_point_matches_mp_oracle():
    # the alternating lattice sum cancels from O(1) terms down to ~4e-21 here
    model = fn.build_op_table(8.0, 4)
    ref = g_mp(8.0, 4, 0.0)[2]
    assert abs(ref) < 1e-18
    assert abs(fn.g_function(model, 3, 0.0) / ref - 1.0) <= 1e-12


def _oracle_points():
    pts = []
    for N, Ms in ((1, (1.0, 2.0, 3.0)), (2, (1.5, 4.0, 8.0)), (3, (2.0, 5.0)),
                  (4, (2.0, 6.0)), (8, (4.0, 16.0))):
        for M in Ms:
            for u in (-0.45, -0.2, 0.0, 0.2, 0.45):
                # eta^2 >= 2; up to 300 keeps the oracle below ~0.1 s a point
                if 2.0 <= M * M / (1.0 + 2.0 * u) <= 300.0:
                    pts.append((M, N, u))
    return pts


def test_g_matches_mp_oracle():
    pts = _oracle_points()
    assert len(pts) >= 30
    for M, N, u in pts:
        ref = g_mp(M, N, u)
        model = fn.build_op_table(M, N)
        vec = fn.g_function_vector(model, range(1, N + 1), [u, -0.1])[:, 0]
        scalar = np.array([fn.g_function(model, k, u) for k in range(1, N + 1)])
        for got in (vec, scalar):
            assert np.max(np.abs(got / ref - 1.0)) <= 1e-12, (M, N, u)


@pytest.mark.xfail(strict=True, reason="G_15 here moves by ~1e-10 when the gammas are "
                   "rounded to double; no double-gamma sum can pin it to 1e-12")
def test_g_limited_by_double_gammas():
    model = fn.build_op_table(3.0, 8)
    ref = g_mp(3.0, 8, 0.45)[7]
    assert abs(fn.g_function(model, 8, 0.45) / ref - 1.0) <= 1e-12


def test_jpdf_matches_mp_oracle():
    # the direct sum gave -2.9e-45 here
    g_minus, g_plus = g_mp(8.0, 2, -0.3), g_mp(8.0, 2, 0.3)
    ref = fn.cdf_max_finite_n(8.0, 2) * math.pi ** 2 / (2.0 * 8.0 ** 3) * float(g_minus @ g_plus)
    assert ref > 0.0
    assert abs(fn.jpdf_finite_n(8.0, 0.2, 2) / ref - 1.0) <= 1e-12


def test_jpdf_nonnegative_grid():
    # wherever F_N(M) is alive, the cutoff exact_marginals uses
    taus = np.arange(0.02, 0.99, 0.04)
    for N in (1, 2, 3, 4):
        M = np.arange(0.5, 4.0 * math.sqrt(2.0 * N), 0.2)
        log_f, dens = fn.law_table(M, N, taus)
        alive = log_f > -40.0
        assert np.all(dens[alive] >= 0.0), N


def test_g_vector_entry_checks():
    model = fn.build_op_table(3.0, 2)
    for bad in ([0.1, np.nan], [np.inf], [-0.5], [0.7]):
        with pytest.raises(DomainError):
            fn.g_function_vector(model, 1, bad)
    assert fn.g_function_vector(model, 1, []).shape == (0,)
    assert fn.g_function_vector(model, [1, 2], np.empty(0)).shape == (2, 0)
    with pytest.raises(DomainError):
        fn.g_function_vector(model, [1, 3], [0.1])
    both = fn.g_function_vector(model, [1, 2], [0.1, -0.2])
    assert abs(both[1, 1] / fn.g_function(model, 2, -0.2) - 1.0) <= 1e-14


@pytest.mark.parametrize("N, M_values, taus", [
    (1, [0.5, 1.2, 5.5], [0.35]),
    (2, np.linspace(1.0, 8.0, 15), np.arange(0.05, 0.96, 0.1)),
    (3, [3.0, 2.0, 9.5], [[0.05, 0.3], [0.5, 0.95]]),
])
def test_law_table_rows_equal_one_m_calls(N, M_values, taus):
    log_f, dens = fn.law_table(M_values, N, taus)
    assert log_f.shape == (len(M_values),)
    assert dens.shape == (len(M_values),) + np.shape(taus)
    for M, lf, row in zip(M_values, log_f, dens):
        assert lf == fn.log_cdf_max(M, N)
        assert np.array_equal(row, fn.jpdf_finite_n(M, taus, N))
    # no tau, no G pass; the same F_N
    only_f, empty = fn.law_table(M_values, N)
    assert np.array_equal(only_f, log_f) and empty.shape == (len(M_values), 0)


def test_law_table_refuses_before_any_table(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a table was built")
    monkeypatch.setattr(fn, "_stieltjes", fail)
    for M_values, N, taus in (([3.0, 8.1], 2, [0.5]), ([3.0], 0, [0.5]),
                              ([3.0], 2, [0.5, 1.0]), ([3.0], 2, [0.0]),
                              ([3.0], 2, [np.nan]), ([0.4], 2, [1.5])):
        with pytest.raises(DomainError):
            fn.law_table(M_values, N, taus)
    log_f, dens = fn.law_table([], 2, [0.5])
    assert log_f.shape == (0,) and dens.shape == (0, 1)


@pytest.mark.parametrize("N,M_values", [
    (3, np.linspace(1.0, 9.5, 18)),
    (32, 8.0 * (1.0 + np.arange(-4.0, 2.001, 0.4) / (2.0 ** (7.0 / 3.0) * 32.0 ** (2.0 / 3.0)))),
    (64, np.linspace(8.0, 20.0, 7)),
])
def test_op_tables_match_one_row_builds(monkeypatch, N, M_values):
    # blocks of three rows, so rows on both sides of block boundaries take part
    n_max = max(fn.suggested_n_max(M, 2 * N - 1) for M in M_values)
    monkeypatch.setattr(fn, "_HISTORY_BYTES", 3 * 8 * 2 * N * (n_max + 1))
    batch = fn.build_op_tables(M_values, N)
    assert [m.M for m in batch] == [float(M) for M in M_values]
    for M, model in zip(M_values, batch):
        alone = fn.build_op_table(M, N)
        assert np.array_equal(model.gamma, alone.gamma, equal_nan=True), M
        assert np.array_equal(model.log_h, alone.log_h), M
        assert model.n_max == alone.n_max


def test_op_tables_refuse_before_building(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a table was built")
    monkeypatch.setattr(fn, "_stieltjes", fail)
    for M_values in ([3.0, 8.1], [0.4, 3.0], [3.0, np.nan]):
        with pytest.raises(DomainError):
            fn.build_op_tables(M_values, 2)
    assert fn.build_op_tables([], 2) == []


def test_g_product_sum_on_asymmetric_and_repeated_u():
    model = fn.build_op_table(3.0, 3)
    u = np.array([0.3, -0.1, 0.3, 0.0, -0.45, 0.101, -0.3, 0.2])
    g = fn.g_function_vector(model, [1, 2, 3], np.concatenate([u, -u]))
    ref = np.sum(g[:, :len(u)] * g[:, len(u):], axis=0)
    assert np.array_equal(fn.g_product_sum(model, u), ref)


def test_jpdf_exactly_symmetric_on_a_symmetric_tau_grid():
    taus = 0.5 + np.arange(-7, 8) / 16.0
    for M, N in ((1.5, 1), (3.0, 2), (8.0, 3)):
        dens = fn.jpdf_finite_n(M, taus, N)
        assert np.array_equal(dens, dens[::-1]), (M, N)


def test_jpdf_array_tau_matches_scalar():
    taus = np.array([[0.05, 0.3], [0.5, 0.95]])
    dens = fn.jpdf_finite_n(2.5, taus, 3)
    assert dens.shape == taus.shape
    for tau, d in zip(taus.ravel(), dens.ravel()):
        one = fn.jpdf_finite_n(2.5, tau, 3)
        assert isinstance(one, float)
        assert abs(d / one - 1.0) <= 1e-13
    with pytest.raises(DomainError):
        fn.jpdf_finite_n(2.5, [0.5, 1.0], 3)


def test_plancherel_rotach_tail_window():
    # the edge form holds in the large-x tail of the double-scaling zone
    M, k = 15.0, 109
    u = 0.2 * M ** (-2.0 / 3.0)
    g = fn.g_function(fn.build_op_table(M, k), k, u)
    assert g == pytest.approx(fn.g_plancherel_rotach(M, k, u), rel=0.05)


def test_edge_limit_is_f(sol):
    # at x ~ 0 the correct limit object is f(2^{2/3} x, 2^{7/3} v), not the
    # tail form; agreement at the expected O(M^{-2/3}) accuracy
    from airymax import airy2
    M, k = 15.0, 113
    u = 0.2 * M ** (-2.0 / 3.0)
    x = fn.ScalingCoordinates.x_of(2 * k, M)
    v = u * M ** (2.0 / 3.0)
    g = fn.g_function(fn.build_op_table(M, k), k, u)
    f_val = airy2.f_function(2.0 ** (2.0 / 3.0) * x, 2.0 ** (7.0 / 3.0) * v, sol=sol)
    assert g / M ** (5.0 / 3.0) == pytest.approx(-f_val, rel=2.0 * M ** (-2.0 / 3.0))


def test_jpdf_matches_brute_force():
    ours = fn.jpdf_finite_n(2.0, 0.5, 2)
    brute = brute_force_jpdf(2.0, 0.5, 2, cutoff=40)
    assert ours == pytest.approx(brute, rel=1e-8)
    ours1 = fn.jpdf_finite_n(1.2, 0.35, 1)
    assert ours1 == pytest.approx(brute_force_jpdf(1.2, 0.35, 1, cutoff=60), rel=1e-10)
    # an op table built for M = 2 once gave 9.0e-5 here
    assert fn.jpdf_finite_n(3.0, 0.3, 3) == pytest.approx(0.0252, rel=2e-3)


def test_jpdf_time_reversal_symmetry():
    # tau and 1 - tau chosen exactly representable so the G products match
    # factor for factor
    a = fn.jpdf_finite_n(2.2, 0.25, 2)
    b = fn.jpdf_finite_n(2.2, 0.75, 2)
    assert a == b


def test_jpdf_nonnegative_sampled():
    for tau in np.arange(0.05, 0.951, 0.1):
        assert fn.jpdf_finite_n(2.5, tau, 3) >= 0.0


def test_cdf_limits_and_monotonicity():
    for N in (1, 3):
        cap = 4.0 * math.sqrt(2.0 * N)
        assert fn.cdf_max_finite_n(cap, N) >= 1.0 - 1e-10
        vals = [fn.cdf_max_finite_n(M, N) for M in np.linspace(1.0, cap, 16)]
        # nondecreasing up to roundoff wiggle in the saturated region
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_cdf_extended_precision_spot_check():
    # log-space product against an mpmath rebuild at (N, M) = (8, 4)
    import mpmath as mp
    M, N = 4.0, 8
    with mp.workdps(40):
        nmax = fn.suggested_n_max(M, 2 * N - 1)
        n = [mp.mpf(i) for i in range(-nmax, nmax + 1)]
        wgt = [mp.e ** (-mp.pi ** 2 * x * x / (2 * M * M)) for x in n]
        h0 = mp.fsum(wgt)
        psi = [mp.sqrt(v / h0) for v in wgt]
        prev = [mp.mpf(0)] * len(n)
        g_prev = mp.mpf(0)
        log_h = [mp.log(h0)]
        for k in range(1, 2 * N):
            y = [n[i] * psi[i] - g_prev * prev[i] for i in range(len(n))]
            g = mp.sqrt(mp.fsum([v * v for v in y]))
            prev, psi = psi, [v / g for v in y]
            g_prev = g
            log_h.append(log_h[-1] + 2 * mp.log(g))
        total = mp.log(mp.factorial(N))
        for j in range(N):
            total -= mp.log(mp.gamma(2 + j)) + mp.log(mp.gamma(mp.mpf(3) / 2 + j))
        total += (2 * N * N + N) * mp.log(mp.pi) - (N * N + N / mp.mpf(2)) * mp.log(2)
        total -= (2 * N * N + N) * mp.log(M)
        total += mp.fsum([log_h[2 * i - 1] for i in range(1, N + 1)])
        ref = float(total)
    assert fn.log_cdf_max(M, N) == pytest.approx(ref, abs=1e-12 * abs(ref))


def test_large_deviation_values():
    p = fn.large_deviation_eval(1.0, 0.0, 10.0)
    assert p.varphi == 0.0
    small = fn.large_deviation_eval(1.0, 1e-2, 10.0)
    assert small.varphi / 1e-6 == pytest.approx(32.0 / 3.0, rel=1e-2)
    phis = [fn.large_deviation_eval(c, 0.1, 10.0).varphi
            for c in (0.2, 0.4, 0.6, 0.8, 1.0)]
    assert all(b < a for a, b in zip(phis, phis[1:]))
    assert fn.large_deviation_eval(0.5, 0.1, 10.0).phi_pp < 0.0
    with pytest.raises(DomainError):
        fn.large_deviation_eval(1.2, 0.0, 10.0)


@pytest.mark.parametrize("u", [0.5, -0.5, 0.6, np.nan])
def test_large_deviation_needs_u_inside_half(u):
    # |u| >= 1/2 made rho <= 0, and math.sqrt raised a bare ValueError
    with pytest.raises(DomainError):
        fn.large_deviation_eval(0.5, u, 10.0)


def test_jpdf_approaches_large_deviation_rate():
    # for M >> sqrt(2N), log P_N(M, tau) ~ -M^2 varphi(c, u), c = 2N/M^2,
    # u = tau - 1/2; the ratio rises to 0.992-0.997 at M = 4 sqrt(2N)
    for N in (2, 4, 8):
        for tau in (0.5, 0.35):
            ratios = []
            for M in np.linspace(1.5, 4.0, 11) * math.sqrt(2.0 * N):
                est = fn.large_deviation_eval(2.0 * N / M ** 2, tau - 0.5, M)
                ratios.append(math.log(fn.jpdf_finite_n(M, tau, N)) / est.log_jpdf_estimate)
            assert np.all(np.diff(ratios) > 0.0), (N, tau)
            assert ratios[-1] >= 0.99, (N, tau)


def test_double_scaling_signs_and_f1(sol):
    rep = fn.double_scaling_check(15.0, 113, sol)
    assert rep.signs_alternate
    assert abs(rep.rel_even) <= 2.5 * 15.0 ** (-2.0 / 3.0)
    # f1 right tail against the Airy decay
    target = -(2.0 ** (5.0 / 3.0) / np.pi ** 2) * airy_ai(2.0 ** (2.0 / 3.0) * 2.0)
    assert fn.f1_scaling_function(2.0, sol) == pytest.approx(target, rel=1e-3)


def test_build_preconditions():
    with pytest.raises(DomainError):
        fn.build_op_table(2.0, 0)
    with pytest.raises(DomainError):
        fn.build_op_table(20.0, 257)
    with pytest.raises(DomainError):
        fn.build_op_table(100.0, 2)
    with pytest.raises(DomainError):
        fn.build_op_table(0.1, 2)


@pytest.mark.parametrize("M,N", [(0.5, 8)])
def test_op_table_refuses_unresolvable_weights(M, N):
    # the top gammas hang on weights below 1e-300 of the bulk, and the
    # projected residual on less than 1e-18 of its norm (300 and 600 digits
    # agree); the once refused (0.9, 11) to (5.3, 64) are frozen pins below
    with pytest.raises(PrecisionError):
        fn.build_op_table(M, N)


@pytest.mark.parametrize("M,N,dps", sorted(OP_TABLE_REFERENCES))
def test_op_table_matches_frozen_references(M, N, dps):
    # high-precision gammas where a 300-digit Stieltjes is itself wrong, where
    # the float kernel refused (0.9-11 to 5.3-64), and at N = 128 and 256 near
    # M = sqrt(2N)
    model = fn.build_op_table(M, N)
    tol = 2e-13 if (M, N) == (4.25, 64) else 1e-13
    for k, ref in OP_TABLE_REFERENCES[(M, N, dps)].items():
        assert abs(model.gamma[k] / ref - 1.0) <= tol, k


@pytest.mark.parametrize("M,N,dps", [
    (6.0, 48, 60), (8.0, 64, 60),          # rows past 63, once off by 120x and 19x
    (8.0, 32, 60),                         # once checked by its orthonormality defect
    (0.5, 3, 300), (0.5, 4, 300), (1.0, 8, 300), (2.5, 16, 300),  # once refused
    (0.8, 4, 300), (1.6, 8, 300),          # once rerun in double-double
])
def test_op_table_matches_mp_oracle(M, N, dps):
    model = fn.build_op_table(M, N)
    ref = stieltjes_mp(M, 2 * N - 1, fn.suggested_n_max(M, 2 * N - 1), dps=dps)
    assert np.max(np.abs(model.gamma[1:] / ref[1:] - 1.0)) <= 1e-13


def test_op_table_small_m_matches_mp_or_refuses():
    # test_op_table_finite_or_refused sees only finite gammas; without its
    # projections the kernel returns tables up to 4e31 x off at 29 of these
    # points, where the three-term step cancels, and 7 it should refuse
    refused = []
    for N in (3, 8, 16):
        for M in np.arange(0.5, 2.0001, 0.1):
            try:
                model = fn.build_op_table(M, N)
            except PrecisionError:
                refused.append((N, round(M, 1)))
                continue
            ref = stieltjes_mp(M, 2 * N - 1, fn.suggested_n_max(M, 2 * N - 1), dps=300)
            assert np.max(np.abs(model.gamma[1:] / ref[1:] - 1.0)) <= 1e-13, (N, M)
    assert (8, 0.5) in refused


def test_op_table_finite_or_refused():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for N, step in ((3, 0.1), (8, 0.1), (16, 0.1), (48, 0.1), (64, 0.1),
                        (128, 1.0), (256, 1.0)):
            for M in np.arange(0.5, 4.0 * math.sqrt(2.0 * N), step):
                try:
                    model = fn.build_op_table(M, N)
                except PrecisionError:
                    continue
                assert np.all(np.isfinite(model.gamma[1:])), (N, M)
                assert np.all(np.isfinite(model.log_h)), (N, M)


def test_g_domain_guards():
    model = fn.build_op_table(3.0, 2)
    with pytest.raises(DomainError):
        fn.g_function(model, 1, 0.6)
    with pytest.raises(DomainError):
        fn.g_function(model, 5, 0.1)


@settings(max_examples=50)
@given(st.floats(min_value=0.3, max_value=6.0),
       st.floats(min_value=0.01, max_value=0.99))
def test_scaling_roundtrip(M, tau):
    coords = fn.ScalingCoordinates(N=16)
    s, w = coords.to_sw(M, tau)
    M2, tau2 = coords.from_sw(s, w)
    assert M2 == pytest.approx(M, rel=1e-12)
    assert tau2 == pytest.approx(tau, abs=1e-12)


def test_scaling_domain_relations():
    coords = fn.ScalingCoordinates(N=8)
    assert coords.rho_of(0.0) == 1.0
    assert 0.0 < coords.rho_of(0.49) < 1.0
    assert coords.c_of(4, 4.0) == pytest.approx(0.5)
