import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from airymax import painleve
from airymax.errors import DomainError, RangeError, SolverFailureError
from airymax.special import airy_ai

from _oracles import HASTINGS_MCLEOD_AT_ZERO, zeta_prime_minus_one_reference


def test_solution_invariants(sol):
    assert np.all(sol.q > 0)
    assert np.all(np.diff(sol.q) < 0)
    assert sol.achieved_residual <= 1e-8


def test_right_edge_matches_airy(sol):
    assert abs(sol.q_at(8.0) / airy_ai(8.0) - 1.0) <= 1e-6


def test_left_edge_matches_parabolic_branch(sol):
    assert abs(sol.q_at(-8.0) / 2.0 - 1.0) <= 2e-2


def test_value_at_zero_against_independent_oracle(sol):
    # frozen output of the coarse-stencil Richardson oracle in tests/_oracles.py
    assert abs(sol.q_at(0.0) - HASTINGS_MCLEOD_AT_ZERO) <= 1e-8


def test_zeta_prime_constant():
    assert painleve.ZETA_PRIME_MINUS_ONE == pytest.approx(
        zeta_prime_minus_one_reference(), abs=1e-15)


def test_f1_right_limit(sol):
    assert painleve.tracy_widom_f1(6.0, sol) >= 1.0 - 1e-5


def test_f1_left_value_small_and_positive(sol):
    v = painleve.tracy_widom_f1(-6.0, sol)
    assert 0.0 < v <= 5e-3


def test_f1_monotone(sol):
    s = np.linspace(-8.0, 4.0, 61)
    f = painleve.tracy_widom_f1(s, sol)
    assert np.all(np.diff(f) > 0)


def test_f1_left_tail_envelope(sol):
    for s in np.arange(-10.0, -5.999, 0.5):
        lhs = painleve.log_tracy_widom_f1(s, sol)
        rhs = painleve.left_tail_log_f1(s)
        assert abs(lhs - rhs) <= 0.05


def test_grid_halving_stability(sol):
    fine = painleve.solve_hastings_mcleod(step=0.0025)
    s = np.arange(-6.0, 4.01, 0.5)
    d = np.max(np.abs(painleve.tracy_widom_f1(s, sol)
                      - painleve.tracy_widom_f1(s, fine)))
    assert d <= 1e-8


def test_preconditions():
    with pytest.raises(DomainError):
        painleve.solve_hastings_mcleod(s_min=-3.0)


def test_range_guards(sol):
    with pytest.raises(RangeError):
        sol.q_at(13.0)
    with pytest.raises(RangeError):
        painleve.log_tracy_widom_f1(11.0, sol)


@pytest.mark.parametrize("call", [
    lambda sol: sol.q_at(np.nan),
    lambda sol: sol.integral_q([np.nan, 0.0]),
    lambda sol: painleve.tracy_widom_f1(np.nan, sol),
])
def test_non_finite_s_raises(sol, call):
    # NaN fails both range comparisons; it used to come back as a NaN value
    with pytest.raises(RangeError):
        call(sol)


def test_export_table(sol):
    table = painleve.export_table(sol, np.array([-2.0, 0.0, 2.0]))
    assert table.shape == (3, 4)
    assert table[1, 1] == pytest.approx(sol.q_at(0.0))


def test_splines_equal_scipy_cubic_spline(sol):
    s, q, qp = sol.s_grid, sol.q, sol.q_prime
    pts = np.concatenate([np.linspace(-12.0, 12.0, 100001), s, [-12.5, 12.5]])
    assert np.array_equal(sol._q_spline(pts), CubicSpline(s, q)(pts))
    assert np.array_equal(sol._qp_spline(pts), CubicSpline(s, qp)(pts))
    for ours, y in ((sol._aq, q), (sol._aq2, q * q), (sol._atq2, s * q * q)):
        assert np.array_equal(ours(pts), CubicSpline(s, y).antiderivative()(pts))
    assert np.shape(sol.q_at(0.5)) == () and sol.q_at(np.ones((2, 3))).shape == (2, 3)


@pytest.mark.parametrize("n", [4, 5, 123])
def test_spline_equals_scipy_on_uneven_knots(n):
    x = np.sort(np.random.default_rng(n).uniform(-1.0, 2.0, n))
    y = np.sin(3.0 * x) + x ** 3
    if n == 123:
        # these knots need row interchanges, which the gtsv port refuses
        with pytest.raises(SolverFailureError, match="interchanges"):
            painleve._cubic_splines(x, [y])
        return
    pts = np.linspace(-1.5, 2.5, 2001)
    ours, = painleve._cubic_splines(x, [y])
    assert np.array_equal(ours(pts), CubicSpline(x, y)(pts))
    assert np.array_equal(ours.antiderivative()(pts), CubicSpline(x, y).antiderivative()(pts))


@pytest.mark.parametrize("dominant", [True, False])
def test_tridiagonal_equals_solve_banded(dominant):
    # a dominant diagonal needs no row interchanges; a random one needs many,
    # and the gtsv port refuses it
    rng = np.random.default_rng(11)
    n = 300
    lower, upper = rng.uniform(-1.0, 1.0, n - 1), rng.uniform(-1.0, 1.0, n - 1)
    diag = rng.uniform(-1.0, 1.0, n) + (3.0 if dominant else 0.0)
    if not dominant:
        with pytest.raises(SolverFailureError, match="interchanges"):
            painleve._Tridiagonal(lower, diag, upper)
        return
    ab = np.zeros((3, n))
    ab[0, 1:], ab[1], ab[2, :-1] = upper, diag, lower
    system = painleve._Tridiagonal(lower, diag, upper)
    for b in rng.normal(size=(3, n)):
        assert np.array_equal(system.solve(b), solve_banded((1, 1), ab, b))


def test_tridiagonal_singular_raises():
    with pytest.raises(SolverFailureError):
        painleve._Tridiagonal(np.array([0.0, 1.0]), np.array([0.0, 1.0, 1.0]), np.array([1.0, 1.0]))
