import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from scipy import integrate

from airymax import _airy_nodes, special
from airymax.errors import DomainError, MisconfigurationError

from _oracles import airy_maclaurin_reference, airy_reference


def test_airy_at_zero():
    assert special.airy_ai(0.0) == pytest.approx(0.3550280538878172, abs=1e-16)
    assert special.airy_ai_prime(0.0) == pytest.approx(-0.2588194037928068, abs=1e-16)


def test_airy_against_independent_series():
    # brute-force Maclaurin oracle in extended precision
    ref = airy_maclaurin_reference(5.0)
    assert abs(special.airy_ai(5.0) / ref - 1.0) < 1e-10


@pytest.mark.parametrize("x", [-14.5, -9.3, -6.0, -2.2, 0.7, 4.4, 8.9, 9.1, 13.0])
def test_airy_absolute_accuracy(x):
    ai_ref, aip_ref = airy_reference(x)
    assert abs(special.airy_ai(x) - ai_ref) < 1e-13
    assert abs(special.airy_ai_prime(x) - aip_ref) < 1e-13


@pytest.mark.parametrize("x", [16.0, 25.0, 60.0, 100.0])
def test_airy_relative_accuracy_far_right(x):
    ai_ref, aip_ref = airy_reference(x)
    assert abs(special.airy_ai(x) / ai_ref - 1.0) < 1e-10
    assert abs(special.airy_ai_prime(x) / aip_ref - 1.0) < 1e-10


def test_airy_switch_point_overlap():
    # accuracy probes on both sides of the switch from the oscillatory series
    # to the node table at x = -11.25, and between two nodes near |x| = 9
    for x in [-11.22, -11.28, 8.97, 9.03, -8.97, -9.03]:
        ai_ref, aip_ref = airy_reference(x)
        assert abs(special.airy_ai(x) - ai_ref) < 1e-13
        assert abs(special.airy_ai_prime(x) - aip_ref) < 1e-13


def test_airy_ode_residual():
    # |Ai'' - x Ai| via a 4th-order stencil on the implementation itself.
    # The stencil amplifies the ~5e-15 absolute value error by ~5/h^2, so the
    # attainable residual floor is ~2e-9; the pointwise 1e-13 agreement with
    # the extended-precision oracle pins the values themselves much tighter.
    h = 0.004
    xs = np.linspace(-10.0, 10.0, 81)
    for x in xs:
        pts = special.airy_ai(x + h * np.arange(-2, 3))
        d2 = (-pts[0] + 16 * pts[1] - 30 * pts[2] + 16 * pts[3] - pts[4]) / (12 * h * h)
        assert abs(d2 - x * pts[2]) < 3e-9


def test_airy_domain_error():
    with pytest.raises(DomainError):
        special.airy_ai(np.nan)


@pytest.mark.parametrize("x", [np.inf, -np.inf, -2.0 ** 21])
def test_airy_domain_error_beyond_finite_range(x):
    for fn in (special.airy_ai, special.airy_ai_prime, special.airy_both):
        with pytest.raises(DomainError):
            fn(x)


def test_airy_both_keeps_shape():
    x = np.linspace(-14.0, 14.0, 80).reshape(8, 10)
    ai, aip = special.airy_both(x)
    assert ai.shape == aip.shape == x.shape
    assert np.array_equal(ai, [[special.airy_ai(v) for v in row] for row in x])
    assert np.array_equal(aip, [[special.airy_ai_prime(v) for v in row] for row in x])
    assert special.airy_ai(x).shape == special.airy_ai_prime(x).shape == x.shape


def test_airy_scalar_in_scalar_out():
    for x in (1.5, 15.0):      # both sides of the switch to the asymptotic series
        for value in (special.airy_ai(x), special.airy_ai_prime(x), *special.airy_both(x)):
            assert isinstance(value, float) and np.ndim(value) == 0


def test_airy_asymptotic_series_against_mpmath():
    xs = np.linspace(10.0, 100.0, 200)
    ai, aip = special.airy_both(xs)
    with mp.workdps(40):
        ref = [(mp.airyai(mp.mpf(x)), mp.airyai(mp.mpf(x), 1)) for x in xs]
    err_ai = max(abs(float((a - r) / r)) for a, (r, _) in zip(ai, ref))
    err_aip = max(abs(float((a - r) / r)) for a, (_, r) in zip(aip, ref))
    assert err_ai <= 3e-13 and err_aip <= 3e-13


@pytest.fixture(scope="module")
def mpmath_airy_grid():
    """Ai and Ai' by mpmath at 40 digits at 3001 points of [-15, 15]."""
    x = np.linspace(-15.0, 15.0, 3001)
    with mp.workdps(40):
        ref = [(float(mp.airyai(mp.mpf(v))), float(mp.airyai(mp.mpf(v), 1))) for v in x]
    return x, np.array(ref)


def test_airy_node_table_is_mpmath_rounded_once():
    assert len(_airy_nodes.AI) == len(_airy_nodes.AI_PRIME) == 171
    with mp.workdps(40):
        for k, (ai, aip) in enumerate(zip(_airy_nodes.AI, _airy_nodes.AI_PRIME)):
            c = mp.mpf(_airy_nodes.X_MIN) + mp.mpf(k) / _airy_nodes.NODES_PER_UNIT
            assert ai == float(mp.airyai(c)) and aip == float(mp.airyai(c, 1))


def test_airy_absolute_accuracy_against_mpmath(mpmath_airy_grid):
    x, ref = mpmath_airy_grid
    ai, aip = special.airy_both(x)
    assert np.max(np.abs(ai - ref[:, 0])) <= 1.5e-14
    assert np.max(np.abs(aip - ref[:, 1])) <= 1.5e-14


def test_airy_relative_accuracy_from_zero_to_ten(mpmath_airy_grid):
    x, ref = mpmath_airy_grid
    keep = (x >= 0.0) & (x < 10.0)
    ai, aip = special.airy_both(x[keep])
    assert np.max(np.abs(ai / ref[keep, 0] - 1.0)) <= 1e-14
    assert np.max(np.abs(aip / ref[keep, 1] - 1.0)) <= 1e-14


def test_airy_continuous_across_table_start():
    start = _airy_nodes.X_MIN
    at = special.airy_both(start)
    below = special.airy_both(np.nextafter(start, -np.inf))
    assert abs(below[0] / at[0] - 1.0) <= 1e-14
    assert abs(below[1] / at[1] - 1.0) <= 1e-14


def test_airy_continuous_across_ten():
    below = special.airy_both(np.nextafter(10.0, 0.0))
    at = special.airy_both(10.0)
    assert abs(at[0] / below[0] - 1.0) <= 1e-14
    assert abs(at[1] / below[1] - 1.0) <= 1e-14


def test_airy_never_subnormal():
    x = np.concatenate([np.linspace(95.0, 120.0, 5001), [1e200, 1e300, np.finfo(float).max]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ai, aip = special.airy_both(x)
    for v in (ai, aip):
        assert np.all((v == 0.0) | (np.abs(v) >= np.finfo(float).tiny))
    assert np.all(ai[-4:] == 0.0) and np.all(aip[-4:] == 0.0)


@pytest.mark.parametrize("x", [np.inf, -np.inf, np.nan, np.array([1.0, 20.0, np.inf])])
def test_airy_non_finite_raises_without_warning(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            special.airy_both(x)


def test_airy_underflow_is_silent_zero():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert special.airy_ai(200.0) == 0.0
        assert special.airy_ai_prime(200.0) == 0.0


@pytest.mark.parametrize("x", [110.0, 200.0, 1e6])
def test_airy_zero_from_110_without_the_series(x, monkeypatch):
    # the series flushes to 0 from x = 110 on, so that range returns zeros
    # without summing it; the values are the series' own, bit for bit
    series_at_110 = special._airy_asymptotic(np.array([110.0]))
    assert series_at_110[0][0] == 0.0 and series_at_110[1][0] == 0.0

    def no_series(x):
        raise AssertionError("asymptotic series evaluated at x >= 110")
    series = special._airy_asymptotic
    monkeypatch.setattr(special, "_airy_asymptotic", no_series)
    monkeypatch.setattr(special, "_AIRY_RANGES",
                        tuple((lo, hi, no_series if fn is series else fn)
                              for lo, hi, fn in special._AIRY_RANGES))
    for arg in (x, np.array([x, x])):
        ai, aip = special.airy_both(arg)
        assert np.all(ai == 0.0) and np.all(aip == 0.0)
        assert not np.any(np.signbit(ai)) and not np.any(np.signbit(aip))


def test_quadrature_rule_invariants():
    rule = special.gauss_legendre_rule(-1.5, 2.5, 40)
    assert rule.weights @ np.ones_like(rule.nodes) == pytest.approx(4.0, rel=1e-13)
    with pytest.raises(MisconfigurationError):
        special.QuadratureRule(np.array([0.0, 0.0, 1.0]), np.ones(3))
    with pytest.raises(MisconfigurationError):
        special.QuadratureRule(np.array([0.0, 1.0]), np.array([1.0, -1.0]))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=9))
def test_gauss_rule_poly_exactness(degree):
    rule = special.gauss_legendre_rule(0.0, 1.0, 8)   # exact through degree 15
    val = rule.weights @ ((degree + 1) * rule.nodes ** degree)
    assert val == pytest.approx(1.0, rel=1e-12)


def test_half_line_rule():
    rule = special.half_line_rule(60)
    assert rule.weights @ np.exp(-rule.nodes) == pytest.approx(1.0, abs=1e-10)


def test_gauss_legendre_nodes_cached_read_only_and_unchanged():
    t, w = special.legendre_nodes(80)
    assert special.legendre_nodes(80)[0] is t
    assert not t.flags.writeable and not w.flags.writeable
    ref_t, ref_w = np.polynomial.legendre.leggauss(80)
    rule = special.half_line_rule(80, 4.0)
    assert np.array_equal(rule.nodes, 4.0 * (1.0 + ref_t) / (1.0 - ref_t))
    assert np.array_equal(rule.weights, ref_w * 2.0 * 4.0 / (1.0 - ref_t) ** 2)
    rule = special.gauss_legendre_rule(-1.5, 2.5, 80)
    assert np.array_equal(rule.nodes, 0.5 + 2.0 * ref_t) and np.array_equal(rule.weights, 2.0 * ref_w)


def _simpson_samples(n, seed=7):
    x = np.sort(np.random.default_rng([seed, n]).uniform(-2.0, 3.0, n))
    return x, np.exp(-x) * np.cos(5.0 * x)


@pytest.mark.parametrize("n", [2, 3, 4, 123, 361, 362, 1401])
def test_simpson_port_equals_scipy(n):
    x, y = _simpson_samples(n)
    assert np.array_equal(special.simpson(y, x), integrate.simpson(y, x=x))
    table = np.stack([y, y * y, np.sin(x)], axis=1)
    assert np.array_equal(special.simpson(table, x, axis=0), integrate.simpson(table, x=x, axis=0))
    assert np.array_equal(special.simpson(table.T, x), integrate.simpson(table.T, x=x))


@pytest.mark.parametrize("n", [2, 3, 4, 123, 362, 1401])
def test_cumulative_simpson_port_equals_scipy(n):
    x, y = _simpson_samples(n)
    assert np.array_equal(special.cumulative_simpson(y, x, 0.0),
                          integrate.cumulative_simpson(y, x=x, initial=0.0))
    table = np.stack([y, y * y])
    assert np.array_equal(special.cumulative_simpson(table, x, 1.5),
                          integrate.cumulative_simpson(table, x=x, initial=1.5))


def test_simpson_ports_on_the_hastings_mcleod_grid(sol):
    s, q = sol.s_grid, sol.q
    for y in (q, q * q, s * q * q):
        assert np.array_equal(special.simpson(y, s), integrate.simpson(y, x=s))
        assert np.array_equal(special.simpson(y[1:], s[1:]), integrate.simpson(y[1:], x=s[1:]))
        assert np.array_equal(special.cumulative_simpson(y, s, 0.0),
                              integrate.cumulative_simpson(y, x=s, initial=0.0))


def _damped_ladder(f, eps, rule):
    """Neville-at-zero extrapolation of the rule applied to f e^{-eps t^3}
    over the epsilon ladder; returns (value, error estimate)."""
    y = f(rule.nodes)
    vals = [rule.weights @ (y * np.exp(-e * rule.nodes ** 3)) for e in eps]
    val, err = special.neville_at_zero(eps, vals)
    return float(val), float(err)


def test_oscillatory_regularized_integral():
    # int_0^inf t sin(t^3/3 + 2 t) dt = -pi Ai'(2)
    rule = special.oscillatory_rule(29.0, freq_offset=2.0)
    val, err = _damped_ladder(lambda t: t * np.sin(t ** 3 / 3.0 + 2.0 * t),
                              (2e-2, 1e-2, 5e-3, 2.5e-3, 1.25e-3), rule)
    target = -np.pi * special.airy_ai_prime(2.0)
    assert err <= 1e-5 * abs(val)     # the ladder settles (relative tolerance 1e-6, x10)
    assert abs(val - target) < 1e-8
    assert abs(val - target) < 10.0 * max(err, 1e-12)


def test_oscillatory_stable_under_zeta_max_doubling():
    eps = (2e-2, 1e-2, 5e-3)
    f = lambda t: t * np.sin(t ** 3 / 3.0 + 1.0 * t)
    v1, e1 = _damped_ladder(f, eps, special.oscillatory_rule(25.0, freq_offset=1.0))
    v2, e2 = _damped_ladder(f, eps, special.oscillatory_rule(50.0, freq_offset=1.0))
    assert e1 <= 1e-2 * abs(v1) and e2 <= 1e-2 * abs(v2)   # relative tolerance 1e-3, x10
    assert abs(v1 - v2) <= 3.0 * (e1 + e2) + 1e-10
