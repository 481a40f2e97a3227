import numpy as np
import pytest

from airymax import airy2
from airymax.errors import DomainError
from airymax.special import airy_ai_prime


def test_f_large_s_closed_form(psi):
    # at s = 8 the psi-function corrections are ~1e-12
    val = airy2.f_function(8.0, 1.0, psi)
    assert val == pytest.approx(float(airy2.f_closed(8.0, 1.0)), rel=1e-2)


def test_f_at_w_zero_large_s(psi):
    target = -(8.0 / np.pi) * airy_ai_prime(8.0 / 2.0 ** (2.0 / 3.0))
    assert airy2.f_function(8.0, 0.0, psi) == pytest.approx(target, rel=5e-3)


@pytest.mark.parametrize("s,w,tol", [
    (2.0, 0.0, 1e-7), (0.0, 0.5, 1e-6), (-2.0, 1.26, 1e-5),
    (0.0, -0.25, 5e-6), (-2.0, -0.5, 2e-3),
])
def test_route_cross_validation(psi, sol, s, w, tol):
    # regularized quadrature against the downward ODE transport
    vals, errs = airy2._quad_f_batch([s], [w], sol, psi.zeta_nodes, psi.zeta_weights)
    prof = airy2.transport_profile([w], sol, s_lo=s - 0.3)
    assert abs(vals[0, 0] - prof.value(s, w)) <= max(tol, 5 * errs[0, 0])


def test_f_function_error_estimate(psi, sol):
    val, err = airy2.f_function(0.0, -0.4, psi, with_error=True)
    prof = airy2.transport_profile([-0.4], sol, s_lo=-0.5)
    assert abs(val - prof.value(0.0, -0.4)) <= 10 * err + 1e-7


def test_transport_seed_insensitivity(sol):
    a = airy2.transport_profile([-2.0, 3.0], sol, s_hi=12.0)
    b = airy2.transport_profile([-2.0, 3.0], sol, s_hi=10.0)
    ia = int(np.argmin(np.abs(a.s_grid)))
    ib = int(np.argmin(np.abs(b.s_grid)))
    assert np.allclose(a.f[ia], b.f[ib], rtol=1e-8, atol=1e-10)


def test_w_cap(psi):
    with pytest.raises(DomainError):
        airy2.f_function(0.0, 6.5, psi)
    with pytest.raises(DomainError):
        airy2.transport_profile([7.0], psi.painleve)


def test_formulation_identity(psi):
    a = airy2.joint_pdf(0.0, 0.5, psi)
    b = airy2.joint_pdf_h_form(0.0, 0.5, psi)
    assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)


def test_grid_symmetry_and_positivity(joint_grid):
    assert np.max(np.abs(joint_grid.values - joint_grid.values[:, ::-1])) <= 1e-12
    assert joint_grid.values.min() >= -1e-10


def test_grid_normalization(joint_grid):
    assert 0.99 <= joint_grid.normalization_estimate <= 1.01


def test_large_s_factorized_limit(psi):
    for (s, w) in [(5.0, 0.5), (6.0, 1.0), (8.0, 2.0)]:
        closed = float(airy2.joint_pdf_large_s(s, w))
        assert airy2.joint_pdf(s, w, psi) == pytest.approx(closed, rel=1e-2)


def test_marginal_symmetry(joint_grid):
    for w in (0.5, 1.0, 2.0):
        assert airy2.marginal_w(w, joint_grid) == pytest.approx(
            airy2.marginal_w(-w, joint_grid), rel=1e-12)


def test_marginal_array_matches_pointwise(joint_grid, monkeypatch):
    ws = np.array([0.5, 2.75, -3.25, 3.0, 3.75, -1.0])   # on- and off-grid
    pointwise = np.array([airy2.marginal_w(w, joint_grid) for w in ws])
    calls = []
    transport = airy2.transport_profile
    monkeypatch.setattr(airy2, "transport_profile",
                        lambda w, *a, **k: calls.append(len(w)) or transport(w, *a, **k))
    batched = airy2.marginal_w(ws, joint_grid)
    assert calls == [6]   # one transport for the three off-grid +-w pairs
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
    pw = np.array([airy2.marginal_w(w, joint_grid) for w in ws])
    slope = np.polyfit(ws ** 3, -np.log(pw), 1)[0]
    assert 0.85 / 12.0 <= slope <= 1.15 / 12.0


def test_rescaling_constants():
    r = airy2.AiryRescaling()
    assert r.alpha * r.beta == pytest.approx(4.0, abs=0.0)
    assert r.jacobian == 4.0


def test_airy2_jpdf_symmetry_in_t(psi):
    a = airy2.airy2_jpdf(0.5, 0.3, psi)
    b = airy2.airy2_jpdf(0.5, -0.3, psi)
    assert a == pytest.approx(b, rel=1e-12)


def test_argmax_marginal_tail(joint_grid):
    ts = np.arange(1.0, 1.6001, 0.1)
    pt = np.array([airy2.argmax_marginal(t, joint_grid) for t in ts])
    slope = np.polyfit(ts ** 3, -np.log(pt), 1)[0]
    assert abs(slope / (4.0 / 3.0) - 1.0) <= 0.15


def test_inner_integral_convergence(psi, sol):
    # doubling the analytic tail window or refining the transport leaves
    # P(0, 0.5) unchanged at the 1e-6 level
    base = airy2.joint_pdf(0.0, 0.5, psi)
    prof_fine = airy2.transport_profile([0.5, -0.5], sol, s_lo=-0.75, step=0.00125)
    fine = airy2.joint_pdf(0.0, 0.5, psi, profile_pair=prof_fine)
    wide_tail = airy2.JOINT_PREFACTOR * (
        airy2._inner_product_integral(0.0, 0.5, sol)
        + (airy2._tail_product(0.5, x_hi=38.0) - airy2._tail_product(0.5)))
    from airymax.painleve import tracy_widom_f1
    wide = wide_tail * tracy_widom_f1(0.0, sol)
    assert abs(base - fine) <= 1e-6
    assert abs(base - wide) <= 1e-6


def test_tail_constants(sol, joint_grid):
    const, report = airy2.tail_analysis(sol, joint_grid)
    assert const.C == pytest.approx(np.sqrt(np.pi), abs=1e-6)
    assert const.D > 0.0
    assert const.c_tilde > 0.0 and const.C_tilde > 0.0
    assert set(report) == {3.0, 3.5, 4.0}


@pytest.mark.xfail(strict=True,
                   reason="the leading-order right-tail envelope underestimates the "
                          "measured marginal by a large structural factor on w in "
                          "[3, 4]; see the decisions ledger")
def test_tail_envelope_band(sol, joint_grid):
    const, report = airy2.tail_analysis(sol, joint_grid)
    assert all(0.5 <= r <= 2.0 for r in report.values())
