import numpy as np
import pytest

from airymax import lax
from airymax.errors import IntegrationFailureError, RangeError

from _oracles import psi_at_s_sequential


class _ZeroPotential:
    """Test hook: the Lax system with q forced to zero."""

    s_min, s_max = -12.0, 12.0

    def q_at(self, s):
        return np.zeros_like(np.asarray(s, dtype=float))

    def q_prime_at(self, s):
        return np.zeros_like(np.asarray(s, dtype=float))

    def integral_q(self, s):
        return np.zeros_like(np.asarray(s, dtype=float))


class _HugePotential(_ZeroPotential):
    """Test hook: q forced to 1e5, so the zeta-step exponential overflows."""

    def q_at(self, s):
        return np.full_like(np.asarray(s, dtype=float), 1e5)


class _SteepPotential(_ZeroPotential):
    """Test hook: q' forced to 1e3, so the product of zeta-steps overflows."""

    def q_prime_at(self, s):
        return np.full_like(np.asarray(s, dtype=float), 1e3)


def test_zero_potential_preserves_norm():
    s_out, p1, p2 = lax.solve_psi_column(np.array([0.7, 3.0]), _ZeroPotential(),
                                         s_step=0.005)
    norm = p1 ** 2 + p2 ** 2
    assert np.max(np.abs(norm - 1.0)) <= 1e-12


def test_schrodinger_residual(sol):
    s_grid, p1, p2 = lax.solve_psi_column(np.array([0.5, 1.0, 2.0]), sol, s_step=0.005)
    h = s_grid[1] - s_grid[0]
    pot = sol.potential(s_grid)
    for j, z in enumerate([0.5, 1.0, 2.0]):
        f2 = p2[j]
        d2 = (-f2[:-4] + 16 * f2[1:-3] - 30 * f2[2:-2] + 16 * f2[3:-1] - f2[4:]) / (12 * h * h)
        res = d2 - pot[2:-2] * f2[2:-2] + z * z * f2[2:-2]
        mask = (s_grid[2:-2] >= -6.0) & (s_grid[2:-2] <= 6.0)
        assert np.max(np.abs(res[mask])) <= 1e-6


def test_zeta_compatibility(sol):
    # FD d/dzeta of Psi against the zeta-direction coefficient matrix
    dz = 1e-3
    nodes = 1.0 + dz * np.arange(-2, 3)
    p1, p2 = lax.psi_at_s(np.array([0.0]), nodes, sol)
    d1 = (p1[0, 0] - 8 * p1[1, 0] + 8 * p1[3, 0] - p1[4, 0]) / (12 * dz)
    d2 = (p2[0, 0] - 8 * p2[1, 0] + 8 * p2[3, 0] - p2[4, 0]) / (12 * dz)
    q = float(sol.q_at(0.0)); r = float(sol.q_prime_at(0.0))
    v1, v2 = p1[2, 0], p2[2, 0]
    t1 = 4.0 * q * v1 + (4.0 + 2 * q * q + 2 * r) * v2
    t2 = (-4.0 - 2 * q * q + 2 * r) * v1 - 4.0 * q * v2
    rel = max(abs(d1 - t1), abs(d2 - t2)) / max(abs(t1), abs(t2))
    assert rel <= 1e-4


def test_two_constructions_agree(sol):
    # s-direction sweep (seeded by the oscillatory asymptotics at s_max)
    # vs zeta-direction sweep (seeded by the exact zeta = 0 value)
    zeta = np.array([0.5, 1.0, 4.0])
    s_grid, p1s, p2s = lax.solve_psi_column(zeta, sol, s_step=0.005)
    p1z, p2z = lax.psi_at_s(np.array([0.0, -3.0]), zeta, sol)
    tol = {0.5: 1e-8, 1.0: 1e-7, 4.0: 2e-7}
    for j, z in enumerate(zeta):
        for col, sval in enumerate([0.0, -3.0]):
            i = int(np.argmin(np.abs(s_grid - sval)))
            assert p1s[j, i] == pytest.approx(p1z[j, col], abs=tol[z])
            assert p2s[j, i] == pytest.approx(p2z[j, col], abs=tol[z])


def test_psi_grid_invariants(psi):
    assert np.all(np.isfinite(psi.phi1)) and np.all(np.isfinite(psi.phi2))
    norm = psi.phi1 ** 2 + psi.phi2 ** 2
    assert np.all(norm > 0.0)
    # boundary seeding at s_max
    phase = (4.0 / 3.0) * psi.zeta_nodes ** 3 + psi.s_grid[-1] * psi.zeta_nodes
    assert np.max(np.abs(psi.phi1[:, -1] - np.cos(phase))) <= 1e-4
    assert np.max(np.abs(psi.phi2[:, -1] + np.sin(phase))) <= 1e-4


def test_parity_at_query(psi):
    z = psi.zeta_nodes[100]
    s = psi.s_grid[40]
    f1p, f2p = psi.phi_at(z, s)
    f1m, f2m = psi.phi_at(-z, s)
    assert f1p == f1m and f2p == -f2m


def test_norm_evolution_law(sol):
    # d/ds (phi1^2 + phi2^2) = 2 q (phi1^2 - phi2^2), 4th-order stencil
    s_grid, p1, p2 = lax.solve_psi_column(np.array([1.0]), sol, s_step=0.005)
    h = s_grid[1] - s_grid[0]
    norm = (p1[0] ** 2 + p2[0] ** 2)
    lhs = (norm[:-4] - 8 * norm[1:-3] + 8 * norm[3:-1] - norm[4:]) / (12 * h)
    rhs = 2.0 * sol.q_at(s_grid[2:-2]) * (p1[0, 2:-2] ** 2 - p2[0, 2:-2] ** 2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-6


def test_determinism(sol):
    a = lax.solve_psi_column(np.array([1.3]), sol, s_step=0.01)
    b = lax.solve_psi_column(np.array([1.3]), sol, s_step=0.01)
    assert np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])


def test_s_resolution_self_convergence(sol):
    # doubling the s-resolution moves phi2(1, 0) by less than 1e-8
    _, _, coarse = lax.solve_psi_column(np.array([1.0]), sol, s_step=0.01)
    _, _, fine = lax.solve_psi_column(np.array([1.0]), sol, s_step=0.005,
                                      keep_every=2)
    assert coarse.shape == fine.shape
    i = coarse.shape[1] // 2
    assert abs(coarse[0, i] - fine[0, i]) <= 1e-8


def test_phase_advance_at_large_s(sol):
    s_grid, p1, p2 = lax.solve_psi_column(np.array([1.0]), sol, s_step=0.005)
    i = int(np.argmin(np.abs(s_grid - 10.0)))
    h = s_grid[1] - s_grid[0]
    d = (p2[0, i + 1] - p2[0, i - 1]) / (2 * h)
    phase = (4.0 / 3.0) + 10.0
    assert abs(d - (-1.0) * np.cos(phase)) <= 1e-3


def test_negative_zeta_rejected(sol):
    with pytest.raises(RangeError):
        lax.solve_psi_column(np.array([-1.0]), sol)


def test_grid_query_guards(psi):
    with pytest.raises(RangeError):
        psi.phi_at(0.123456789, psi.s_grid[0])
    with pytest.raises(RangeError):
        psi.column_at(psi.s_grid[0] + 0.001)


@pytest.mark.parametrize("s_values", [[0.4], [-10.5], [-10.5, -3.0, 0.0, 12.0]])
def test_psi_at_s_matches_sequential_sweep(sol, s_values):
    # the prefix-product scan reorders the products of the step-by-step
    # sweep; the batch case shares smax_abs, and so the sub-steps, across s
    nodes = lax.default_zeta_rule().nodes[:2000]
    p1, p2 = lax.psi_at_s(np.array(s_values), nodes, sol)
    o1, o2 = psi_at_s_sequential(np.array(s_values), nodes, sol)
    assert p1.shape == o1.shape == (2000, len(s_values))
    assert np.max(np.abs(p1 - o1)) <= 1e-12
    assert np.max(np.abs(p2 - o2)) <= 1e-12


def test_psi_at_s_overflow_is_typed():
    # the step exponential overflows; both sweeps name the same first step
    nodes = lax.default_zeta_rule().nodes[:2000]
    locations = []
    for sweep in (lax.psi_at_s, psi_at_s_sequential):
        with pytest.raises(IntegrationFailureError) as info:
            sweep(np.array([0.0, 1.0]), nodes, _HugePotential())
        locations.append(info.value.location)
    assert locations[0] == locations[1]


def test_psi_at_s_nonfinite_product_is_typed():
    # every step is finite but their product overflows: the step-by-step
    # sweep returns inf/nan from the first node past the overflow, the scan
    # raises with a location inside that node's interval
    nodes = lax.default_zeta_rule().nodes[:2000]
    with np.errstate(over="ignore", invalid="ignore"):
        o1, o2 = psi_at_s_sequential(np.array([0.0]), nodes, _SteepPotential())
    first_bad = int(np.argmin(np.isfinite(o1[:, 0]) & np.isfinite(o2[:, 0])))
    assert first_bad > 0
    with pytest.raises(IntegrationFailureError) as info:
        lax.psi_at_s(np.array([0.0]), nodes, _SteepPotential())
    assert nodes[first_bad - 1] <= info.value.location < nodes[first_bad]
