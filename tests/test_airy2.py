import numpy as np
import pytest

from airymax import airy2, fredholm, lax, special
from airymax.errors import (AirymaxError, DomainError, MisconfigurationError, RangeError,
                            ResolutionError)
from airymax.special import airy_ai_prime

from _oracles import transport_profile_sequential


@pytest.fixture(scope="module")
def zeta_rule():
    return lax.default_zeta_rule()


def test_f_large_s_closed_form(sol):
    # at s = 8 the psi-function corrections are ~1e-12
    val = airy2.f_function(8.0, 1.0, sol=sol)
    assert val == pytest.approx(float(airy2.f_closed(8.0, 1.0)), rel=1e-2)


def test_f_at_w_zero_large_s(sol):
    target = -(8.0 / np.pi) * airy_ai_prime(8.0 / 2.0 ** (2.0 / 3.0))
    assert airy2.f_function(8.0, 0.0, sol=sol) == pytest.approx(target, rel=5e-3)


@pytest.mark.parametrize("s,w,tol", [
    (2.0, 0.0, 1e-7), (0.0, 0.5, 1e-6), (-2.0, 1.26, 1e-5),
    (0.0, -0.25, 5e-6), (-2.0, -0.5, 2e-3),
])
def test_route_cross_validation(sol, zeta_rule, s, w, tol):
    # the regularized-quadrature oracle against the transport of f_function
    vals, errs = lax.f_quadrature([s], [w], sol, zeta_rule.nodes, zeta_rule.weights)
    assert abs(vals[0, 0] - airy2.f_function(s, w, sol=sol)) <= max(tol, 5 * errs[0, 0])


@pytest.mark.xfail(strict=True,
                   reason="below s ~ -7 the downward transport amplifies rounding-level "
                          "changes of the Painleve potential; gaps today are 0.13, 3.7e-3, "
                          "1.2e-4, 4.3e-4 and 4.9e-3")
def test_deep_corner_f_matches_quadrature(sol, zeta_rule):
    # the gate of the deep corner: f by transport within 1e-6 relative of the
    # regularized-quadrature oracle, which moves by at most 1.6e-7 there when
    # its sub-steps are halved
    points = [(-10.0, 3.0), (-9.0, 3.0), (-8.0, 3.0), (-8.0, 4.0), (-10.0, 2.0)]
    gaps = []
    for s, w in points:
        quad = float(lax.f_quadrature([s], [w], sol, zeta_rule.nodes, zeta_rule.weights)[0][0, 0])
        gaps.append(abs(airy2.f_function(s, w, sol=sol) / quad - 1.0))
    assert max(gaps) <= 1e-6, gaps


def test_f_function_has_one_route(sol, zeta_rule):
    # the five f points of the benchmark's edge_points workload, against the
    # quadrature oracle; airy2 imports no oracle (test_dependencies), so the
    # transport is the only route f_function can take
    points = [(0.4, 0.9), (0.5, -0.3), (6.0, -1.0), (7.0, -2.0), (0.5, 5.5)]
    oracle = [float(lax.f_quadrature([s], [w], sol, zeta_rule.nodes, zeta_rule.weights)[0][0, 0])
              for s, w in points]
    for (s, w), ref in zip(points, oracle):
        assert abs(airy2.f_function(s, w, sol=sol) - ref) <= 2e-4


@pytest.mark.parametrize("s,w", [(-11.75, 6.0), (-10.75, 5.0), (-8.0, 3.0),
                                 (0.0, -0.4), (6.0, -1.0)])
def test_f_function_error_estimate(sol, s, w):
    # the estimate covers the change to a quarter-step transport, also at
    # depth with large w, where reseeding moves f by more than 3e-6 |f|
    val, err = airy2.f_function(s, w, sol=sol, with_error=True)
    fine = airy2.transport_profile([w], sol, s_lo=s, step=0.000625)
    assert abs(val - fine.f[0, 0]) <= err


def test_transport_seed_insensitivity(sol):
    a = airy2.transport_profile([-2.0, 3.0], sol, s_hi=12.0)
    b = airy2.transport_profile([-2.0, 3.0], sol, s_hi=10.0)
    ia = int(np.argmin(np.abs(a.s_grid)))
    ib = int(np.argmin(np.abs(b.s_grid)))
    assert np.allclose(a.f[ia], b.f[ib], rtol=1e-8, atol=1e-10)


def test_transport_matches_sequential(sol):
    # the chunked two-pass transport against the step-by-step RK4 loop,
    # relative to each column's scale; rounding grows with depth as the ODE
    # amplifies it (the loop's own step-halving change is ~1e-11 at s = -5,
    # ~2e-7 at -10.5).
    # Measured: f 5.3e-12 / 2.2e-7, f_s 3.0e-11 / 1.8e-6, f_ss 9.0e-11 / 7.6e-6.
    w_pos = np.round(np.arange(0.0, 6.05, 0.1), 12)   # build_joint_density_grid's 121 columns
    w = np.concatenate([w_pos, -w_pos[1:]])
    new = airy2.transport_profile(w, sol, s_lo=-10.5)
    ref = transport_profile_sequential(w, sol, s_lo=-10.5)
    assert np.array_equal(new.s_grid, ref.s_grid)
    shallow = new.s_grid >= -5.0
    for name, ratio in (("f", 1.0), ("f_s", 10.0), ("f_ss", 40.0)):
        a, b = getattr(new, name), getattr(ref, name)
        rel = np.abs(a - b) / np.max(np.abs(b), axis=0)
        assert rel[shallow].max() <= 1e-10 * ratio, name
        assert rel.max() <= 1e-6 * ratio, name


def test_transport_columns_independent(sol):
    w = np.array([0.0, 0.35, -0.35, 1.2, -2.0, 2.75, -3.25, 4.1, -4.9, 5.5, -6.0, 0.05])
    many = airy2.transport_profile(w, sol, s_lo=-4.0)
    for j in (0, 4, 11):
        alone = airy2.transport_profile([w[j]], sol, s_lo=-4.0)
        for name in ("f", "f_s", "f_ss"):
            assert np.array_equal(getattr(alone, name)[:, 0], getattr(many, name)[:, j])
    # full depth with 1, 2, 85 and 121 columns: each column is bitwise the
    # same in every call, so no chunking may follow the column count
    w_pos = np.round(np.arange(0.0, 6.05, 0.1), 12)   # build_joint_density_grid's 121 columns
    w = np.concatenate([w_pos, -w_pos[1:]])
    full = airy2.transport_profile(w, sol, s_lo=-10.5)
    marginal = np.r_[0:43, 61:103]                     # cmd_marginal's 85: |w| <= 4.2
    for cols in ([120], [5, 65], marginal):
        part = airy2.transport_profile(w[cols], sol, s_lo=-10.5)
        for name in ("f", "f_s", "f_ss"):
            assert np.array_equal(getattr(part, name), getattr(full, name)[:, cols])


def test_profile_value_outside_range_raises(sol):
    prof = airy2.transport_profile([-1.0], sol, s_lo=-0.75)
    assert prof.value(12.0, -1.0) == prof.f[-1, 0]
    for s in (14.0, 20.0, -1.0):
        with pytest.raises(RangeError):
            prof.value(s, -1.0)
    # the transport route of f_function must not return the s = 12 seed
    with pytest.raises(RangeError):
        airy2.f_function(14.0, -1.0, sol=sol)


@pytest.mark.parametrize("s", [11.0, 12.5, -11.9, np.nan])
def test_joint_pdf_checks_s_at_entry(sol, monkeypatch, s):
    def no_transport(*a, **k):
        raise AssertionError("transport called")
    monkeypatch.setattr(airy2, "transport_profile", no_transport)
    monkeypatch.setattr(airy2, "_Sweep", no_transport)
    with pytest.raises(AirymaxError):
        airy2.joint_pdf(s, 0.5, sol=sol)


@pytest.mark.parametrize("s", [11.0, 12.5, -11.9, np.nan])
@pytest.mark.parametrize("w", [1.0, -1.0])
def test_f_function_checks_s_at_entry(sol, monkeypatch, s, w):
    def no_work(*a, **k):
        raise AssertionError("f evaluated outside its domain")
    monkeypatch.setattr(airy2, "transport_profile", no_work)
    with pytest.raises(RangeError):
        airy2.f_function(s, w, sol=sol)


def test_s_above_transport_seed_raises():
    # a solution reaching past s = 14 admits s up to s_max - 2 for F1, but the
    # transport starts at S_SEED = 12; numpy's ValueError came out before
    from airymax.painleve import solve_hastings_mcleod
    wide = solve_hastings_mcleod(s_max=16.0)
    for fn in (airy2.joint_pdf, airy2.f_function):
        with pytest.raises(RangeError):
            fn(13.0, 0.5, sol=wide)
    assert airy2.f_function(11.5, 0.5, sol=wide) > 0.0


def test_density_grid_above_transport_seed_raises():
    # s_max - 2 = 14 admits s_hi = 13, but the transport starts at S_SEED = 12;
    # numpy's IndexError came out before
    from airymax.painleve import solve_hastings_mcleod
    wide = solve_hastings_mcleod(s_max=16.0)
    with pytest.raises(RangeError):
        airy2.build_joint_density_grid(wide, s_lo=-2.0, s_hi=13.0)


def test_joint_pdf_on_a_two_node_transport():
    # s = 11.998 transports one 0.0025 step down from S_SEED = 12, so the
    # inner integral runs over two nodes (a trapezoid)
    from airymax.painleve import solve_hastings_mcleod
    wide = solve_hastings_mcleod(s_max=16.0)
    closed = float(airy2.joint_pdf_large_s(11.998, 0.5))
    assert abs(airy2.joint_pdf(11.998, 0.5, sol=wide) / closed - 1.0) <= 1e-6


@pytest.mark.parametrize("s", [11.9995, 12.0])
def test_transport_within_half_a_step_of_the_seed(s):
    # s within half a 0.0025 step of S_SEED = 12 must still take one step;
    # with none, f divides by zero and P is NaN
    from airymax.painleve import solve_hastings_mcleod
    wide = solve_hastings_mcleod(s_max=16.0)
    f = airy2.f_function(s, 0.5, sol=wide)
    assert f == pytest.approx(float(airy2.f_closed(s, 0.5)), rel=1e-12)
    P = airy2.joint_pdf(s, 0.5, sol=wide)
    assert P == pytest.approx(float(airy2.joint_pdf_large_s(s, 0.5)), rel=1e-6)


def test_w_cap(sol):
    with pytest.raises(DomainError):
        airy2.f_function(0.0, 6.5, sol=sol)
    with pytest.raises(DomainError):
        airy2.transport_profile([7.0], sol)
    with pytest.raises(DomainError):           # NaN fails the cap too, not a NaN column
        airy2.transport_profile([0.5, np.nan], sol)


def test_formulation_identity():
    # (4/pi^2) F1 int h(x, w) h(x, -w) dx with h = H_FROM_F f is P(s, w)
    ratio = 4.0 / np.pi ** 2 * airy2.H_FROM_F ** 2 / airy2.JOINT_PREFACTOR
    assert abs(ratio - 1.0) <= 1e-12


def test_grid_symmetry_and_positivity(joint_grid):
    assert np.max(np.abs(joint_grid.values - joint_grid.values[:, ::-1])) <= 1e-12
    assert joint_grid.values.min() >= -1e-10


def test_grid_equals_joint_pdf_at_nodes(sol, joint_grid):
    # one assembly: the grid's columns are joint_pdf's, also where P is tiny
    # (s >= 5 with |w| >= 3.5, down to ~1e-22)
    for s in (-9.5, -2.0, 0.0, 5.0, 6.5, 8.0):
        i = int(np.argmin(np.abs(joint_grid.s_grid - s)))
        for w in (-6.0, -4.5, -3.5, 0.0, 0.7, 3.5, 5.0, 6.0):
            j = int(np.argmin(np.abs(joint_grid.w_grid - w)))
            ref = airy2.joint_pdf(joint_grid.s_grid[i], joint_grid.w_grid[j], sol=sol)
            assert abs(joint_grid.values[i, j] - ref) <= 1e-12 * ref, (s, w)


def test_grid_exact_off_the_transport_lattice(sol):
    # s_step = 0.049 puts the grid's s between the 0.0025-step transport
    # nodes from S_SEED; each s was read at the node above it (3.6e-3 off)
    grid = airy2.build_joint_density_grid(sol, s_lo=-3.0, s_hi=3.0, s_step=0.049,
                                          w_max=1.0, w_step=0.5)
    for i in range(0, len(grid.s_grid), 4):
        for j in range(2, len(grid.w_grid)):
            ref = airy2.joint_pdf(grid.s_grid[i], grid.w_grid[j], sol=sol)
            assert abs(grid.values[i, j] - ref) <= 1e-10 * ref, (grid.s_grid[i], grid.w_grid[j])


def test_grid_large_s_matches_closed_form(joint_grid):
    # every entry with s >= 5 against the factorized large-s form; at s = 5
    # the psi-function corrections are ~1e-5 (measured: <= 6.7e-6)
    rows = joint_grid.s_grid >= 5.0
    s, w = np.meshgrid(joint_grid.s_grid[rows], joint_grid.w_grid, indexing="ij")
    closed = airy2.joint_pdf_large_s(s, w)
    assert np.all(np.abs(joint_grid.values[rows] / closed - 1.0) <= 1e-4)


def _record_sweeps(monkeypatch):
    """Patch airy2._Sweep to log one list per sweep: the columns of its runs."""
    sweeps = []
    sweep = airy2._Sweep

    class Logged(sweep):
        def __init__(self, *a):
            super().__init__(*a)
            sweeps.append([])

        def run(self, w):
            sweeps[-1].append(sorted(w))
            return super().run(w)

    monkeypatch.setattr(airy2, "_Sweep", Logged)
    return sweeps


def test_one_transport_per_density_call(sol, monkeypatch):
    # one step build per call; every +-w column transported once, in blocks
    # of at most _BLOCK_COLUMNS that keep -w beside w
    sweeps = _record_sweeps(monkeypatch)
    airy2.build_joint_density_grid(sol, s_lo=-2.0, s_hi=2.0, w_max=1.0, w_step=0.25)
    assert sweeps == [[[-1.0, -0.75, -0.5, -0.25, 0.25, 0.5, 0.75, 1.0], [0.0]]]
    sweeps.clear()
    airy2.joint_pdf(0.3, 0.7, sol=sol)
    assert sweeps == [[[-0.7, 0.7]]]
    sweeps.clear()
    airy2.build_joint_density_grid(sol, s_lo=-2.0, s_hi=2.0, w_max=6.0, w_step=0.05)
    (runs,) = sweeps
    cols = [w for run in runs for w in run]
    assert sorted(cols) == sorted(set(cols)) and len(cols) == 241
    assert all(len(run) <= airy2._BLOCK_COLUMNS and run == sorted(-w for w in run) for run in runs)


def test_density_columns_do_not_depend_on_the_call(sol):
    # one call over a w set (several blocks, the last one partial; repeats,
    # both signs, an off-lattice s grid) equals one call per w, bit for bit
    w = np.array([0.0, 0.35, -0.35, 1.2, -2.0, 2.75, 3.25, -4.1, 4.9, 5.5, -6.0, 0.05, 1.2])
    s = np.round(np.arange(-3.0, 3.0, 0.049), 12)
    together = airy2._density_columns(w, sol, s)
    for j, wj in enumerate(w):
        assert np.array_equal(together[:, j], airy2._density_columns([wj], sol, s)[:, 0]), wj


def test_density_grid_memory_bounded(sol):
    # 241 columns; one transport of all of them peaked at 63 MB
    import tracemalloc
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        airy2.build_joint_density_grid(sol, w_step=0.05)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


def test_marginal_checks_grid_step(joint_grid):
    coarse = airy2.JointDensityGrid(s_grid=joint_grid.s_grid[::2], w_grid=joint_grid.w_grid,
                                    values=joint_grid.values[::2], normalization_estimate=1.0,
                                    painleve=joint_grid.painleve)
    with pytest.raises(ResolutionError):
        airy2.marginal_w(0.5, coarse)


def test_grid_normalization(joint_grid):
    assert 0.99 <= joint_grid.normalization_estimate <= 1.01


def test_large_s_factorized_limit(sol):
    for (s, w) in [(5.0, 0.5), (6.0, 1.0), (8.0, 2.0)]:
        closed = float(airy2.joint_pdf_large_s(s, w))
        assert airy2.joint_pdf(s, w, sol=sol) == pytest.approx(closed, rel=1e-2)


def test_marginal_symmetry(joint_grid):
    for w in (0.5, 1.0, 2.0):
        assert airy2.marginal_w(w, joint_grid) == pytest.approx(
            airy2.marginal_w(-w, joint_grid), rel=1e-12)


def test_marginal_array_matches_pointwise(joint_grid, monkeypatch):
    ws = np.array([0.5, 2.75, -3.25, 3.0, 3.75, -1.0])   # on- and off-grid
    pointwise = np.array([airy2.marginal_w(w, joint_grid) for w in ws])
    sweeps = _record_sweeps(monkeypatch)
    batched = airy2.marginal_w(ws, joint_grid)
    assert sweeps == [[[-3.75, -3.25, -2.75, 2.75, 3.25, 3.75]]]   # the off-grid +-w, once
    assert batched.shape == ws.shape
    assert np.all(np.abs(batched - pointwise) <= 1e-13 * np.abs(pointwise))


def test_marginal_normalization(joint_grid):
    from scipy.integrate import simpson
    ws = joint_grid.w_grid
    pw = np.array([airy2.marginal_w(w, joint_grid) for w in ws])
    total = simpson(pw, x=ws)
    assert 0.99 <= total <= 1.005


def test_marginal_tail_slope(joint_grid):
    ws = np.arange(2.5, 4.001, 0.25)
    pw = airy2.marginal_w(ws, joint_grid)
    slope = np.polyfit(ws ** 3, -np.log(pw), 1)[0]
    assert 0.85 / 12.0 <= slope <= 1.15 / 12.0


def test_rescaling_constants():
    assert airy2.TWO_23 * airy2.TWO_43 == 4.0


def test_airy2_jpdf_symmetry_in_t(sol):
    a = airy2.airy2_jpdf(0.5, 0.3, sol=sol)
    b = airy2.airy2_jpdf(0.5, -0.3, sol=sol)
    assert a == pytest.approx(b, rel=1e-12)


def test_argmax_marginal_tail(joint_grid):
    ts = np.arange(1.0, 1.6001, 0.1)
    pt = airy2.argmax_marginal(ts, joint_grid)
    slope = np.polyfit(ts ** 3, -np.log(pt), 1)[0]
    assert abs(slope / (4.0 / 3.0) - 1.0) <= 0.15


@pytest.mark.parametrize("t, tol", [(1.0, 2e-6), (1.5, 1e-5), (2.0, 5e-5)])
def test_argmax_marginal_matches_integrated_mfqr(joint_grid, t, tol):
    # the resolvent density integrated over m in [-4, 5] by a 30-point Gauss
    # rule (40 and 60 points move it by < 1e-13 relative); the gaps measured
    # with scipy's Airy below x = 10 were 8.2e-7, 3.7e-6 and 2.4e-5 relative
    rule = special.gauss_legendre_rule(-4.0, 5.0, 30)
    ref = rule.weights @ np.array([fredholm.mfqr_jpdf(m, t) for m in rule.nodes])
    assert abs(airy2.argmax_marginal(t, joint_grid) / ref - 1.0) <= tol


def test_inner_integral_convergence(sol, monkeypatch):
    # refining the transport leaves P(0, 0.5) unchanged at the 1e-6 level
    base = airy2.joint_pdf(0.0, 0.5, sol=sol)
    with monkeypatch.context() as m:
        m.setattr(airy2, "_STEP", 0.00125)
        fine = airy2.joint_pdf(0.0, 0.5, sol=sol)
    assert fine != base
    assert abs(base - fine) <= 1e-6


@pytest.mark.parametrize("w", [0.0, 2.5, 6.0])
def test_tail_product_against_mpmath_quadrature(w):
    # the closed-form tail int_12^inf f_closed(x, w) f_closed(x, -w) dx
    # against a 20-digit quadrature of the product itself; the integrand is
    # scaled to 1 at x = 12, because mpmath's stopping rule is absolute.
    # Measured: 4.2e-15, 7.0e-15 and 1.1e-14 relative (the 1401-point
    # Simpson rule on [12, 26] that it replaced was off by 7e-9 to 2.3e-8).
    mp = pytest.importorskip("mpmath")

    def f_closed(x, w):
        theta = x / mp.cbrt(4) + w * w / mp.mpf(2) ** (mp.mpf(8) / 3)
        return (-mp.mpf(2) ** (mp.mpf(11) / 3) / mp.pi * mp.exp(w ** 3 / 24 + w * x / 4)
                * (w / 4 * mp.airyai(theta) + mp.airyai(theta, derivative=1) / mp.cbrt(4)))

    with mp.workdps(20):
        w_mp = mp.mpf(w)
        scale = f_closed(12, w_mp) * f_closed(12, -w_mp)
        ref = scale * mp.quad(lambda x: f_closed(x, w_mp) * f_closed(x, -w_mp) / scale,
                              [12, 14, 18, mp.inf])
    for v in (w, -w):
        assert abs(float(airy2._tail_product(v)) / float(ref) - 1.0) <= 1e-12


def test_tail_constants(sol, joint_grid):
    const, report = lax.tail_analysis(sol, joint_grid)
    assert const.C == pytest.approx(np.sqrt(np.pi), abs=1e-6)
    assert const.D > 0.0
    assert const.c_tilde > 0.0 and const.C_tilde > 0.0
    assert set(report) == {3.0, 3.5, 4.0}


@pytest.mark.xfail(strict=True,
                   reason="the leading-order right-tail envelope underestimates the "
                          "measured marginal by a large structural factor on w in "
                          "[3, 4]; see the decisions ledger")
def test_tail_envelope_band(sol, joint_grid):
    const, report = lax.tail_analysis(sol, joint_grid)
    assert all(0.5 <= r <= 2.0 for r in report.values())


def test_joint_pdf_needs_a_solution():
    with pytest.raises(MisconfigurationError):
        airy2.f_function(0.0, 0.5)
    with pytest.raises(MisconfigurationError):
        airy2.joint_pdf(0.0, 0.5)
    with pytest.raises(MisconfigurationError):
        airy2.airy2_jpdf(0.0, 0.5)
