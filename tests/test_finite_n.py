import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from airymax import finite_n as fn
from airymax.errors import DomainError, PrecisionError
from airymax.oracles import brute_force_jpdf
from airymax.special import airy_ai

from _oracles import RECURRENCE_30_904, stieltjes_mp


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


def test_recurrence_table_refuses_unstable_degrees():
    # past ~M^2 + 3M the Stieltjes recursion loses orthogonality in doubles
    # (at M = 10 the gammas are off by O(1) from degree ~150)
    with pytest.raises(PrecisionError):
        fn.recurrence_table(10.0, 200)


def test_odd_wavefunction_vanishes_at_origin():
    model = fn.build_op_table(6.0, 3)
    i0 = model.n_max  # index of n = 0
    for k in (1, 3, 5):
        assert model.psi(k)[i0] == 0.0


def test_orthonormality_defect_at_n32():
    model = fn.build_op_table(8.0, 32)
    assert model.orthonormality_defect <= 1e-10


def test_gamma_h_consistency():
    model = fn.build_op_table(5.0, 6)
    for k in range(1, 12):
        assert model.gamma[k] ** 2 == pytest.approx(
            math.exp(model.log_h[k] - model.log_h[k - 1]), rel=1e-12)


def test_g_truncation_certified():
    model = fn.build_op_table(4.0, 3)
    g1 = fn.g_function(model, 2, 0.2)
    wide = fn._g_terms_combined(np.arange(-2 * model.n_max, 2 * model.n_max + 1,
                                          dtype=float),
                                model.gamma, model.log_h[0], model.M, 2, 0.2)
    assert abs(g1 - wide.sum()) <= 1e-13 * max(abs(g1), 1e-30)


def test_g_closed_form_bulk():
    model = fn.build_op_table(8.0, 4)
    assert fn.g_function(model, 3, 0.0) == pytest.approx(
        fn.g_closed_form(8.0, 3, 0.0), rel=1e-4)
    assert fn.g_function(model, 3, 0.1) == pytest.approx(
        fn.g_closed_form(8.0, 3, 0.1), rel=1e-3)


def test_g_dd_fallback_engages():
    # the float alternating sum is pure noise here (answer ~ 4e-21, terms O(1));
    # a correct value proves the extended-precision path ran
    model = fn.build_op_table(8.0, 4)
    val = fn.g_function(model, 3, 0.0)
    n = fn._g_lattice(model, 3, 0.0)
    float_sum = float(np.sum(fn._g_terms_combined(n, model.gamma, model.log_h[0],
                                                  model.M, 3, 0.0)))
    assert abs(val) < 1e-18
    assert abs(float_sum) > 100.0 * abs(val)


def test_plancherel_rotach_tail_window():
    # the edge form holds in the large-x tail of the double-scaling zone
    M, k = 15.0, 109
    u = 0.2 * M ** (-2.0 / 3.0)
    n_max = fn.suggested_n_max(M, 2 * k - 1)
    n = np.arange(-n_max, n_max + 1, dtype=float)
    w = np.exp(-np.pi ** 2 * n ** 2 / (2.0 * M * M))
    _, _, table = fn._stieltjes_float(n, w, 2 * k - 1)
    signs = 1.0 - 2.0 * (np.abs(n).astype(int) % 2)
    g = float(np.sum(signs * n * table[2 * k - 1]
                     * np.exp(-u * np.pi ** 2 * n ** 2 / (2.0 * M * M))))
    assert g == pytest.approx(fn.g_plancherel_rotach(M, k, u), rel=0.05)


def test_edge_limit_is_f(sol, psi):
    # at x ~ 0 the correct limit object is f(2^{2/3} x, 2^{7/3} v), not the
    # tail form; agreement at the expected O(M^{-2/3}) accuracy
    from airymax import airy2
    M, k = 15.0, 113
    u = 0.2 * M ** (-2.0 / 3.0)
    x = fn.ScalingCoordinates.x_of(2 * k, M)
    v = u * M ** (2.0 / 3.0)
    n_max = fn.suggested_n_max(M, 2 * k - 1)
    n = np.arange(-n_max, n_max + 1, dtype=float)
    w = np.exp(-np.pi ** 2 * n ** 2 / (2.0 * M * M))
    _, _, table = fn._stieltjes_float(n, w, 2 * k - 1)
    signs = 1.0 - 2.0 * (np.abs(n).astype(int) % 2)
    g = float(np.sum(signs * n * table[2 * k - 1]
                     * np.exp(-u * np.pi ** 2 * n ** 2 / (2.0 * M * M))))
    f_val = airy2.f_function(2.0 ** (2.0 / 3.0) * x, 2.0 ** (7.0 / 3.0) * v, psi)
    assert g / M ** (5.0 / 3.0) == pytest.approx(-f_val, rel=2.0 * M ** (-2.0 / 3.0))


def test_jpdf_matches_brute_force():
    ours = fn.jpdf_finite_n(2.0, 0.5, 2)
    brute = brute_force_jpdf(2.0, 0.5, 2, cutoff=40)
    assert ours == pytest.approx(brute, rel=1e-8)
    ours1 = fn.jpdf_finite_n(1.2, 0.35, 1)
    assert ours1 == pytest.approx(brute_force_jpdf(1.2, 0.35, 1, cutoff=60), rel=1e-10)


def test_jpdf_time_reversal_symmetry():
    # tau and 1 - tau chosen exactly representable so the G products match
    # factor for factor
    model = fn.build_op_table(2.2, 2)
    a = fn.jpdf_finite_n(2.2, 0.25, 2, model=model)
    b = fn.jpdf_finite_n(2.2, 0.75, 2, model=model)
    assert a == b


def test_jpdf_nonnegative_sampled():
    model = fn.build_op_table(2.5, 3, u_edge=0.45)
    for tau in np.arange(0.05, 0.951, 0.1):
        assert fn.jpdf_finite_n(2.5, tau, 3, model=model) >= 0.0


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
        fn.build_op_table(100.0, 2)
    with pytest.raises(DomainError):
        fn.build_op_table(0.1, 2)


def test_precision_error_when_weight_support_collapses():
    # degree-5 system on a weight alive at ~5 lattice points cannot hold
    # orthogonality even in extended precision
    with pytest.raises(PrecisionError):
        fn.build_op_table(0.5, 3)


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
