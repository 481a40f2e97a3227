"""The acceptance suite: each criterion is a callable returning a record,
shared between the pytest acceptance module and the CLI validate command."""

import time
from dataclasses import dataclass, field

import numpy as np

from . import airy2, fredholm, mc
from .finite_n import (ScalingCoordinates, build_op_table, double_scaling_check,
                       edge_law_convergence, f1_scaling_function, g_closed_form,
                       g_function, g_plancherel_rotach, jpdf_finite_n,
                       large_deviation_eval)
from .lax import default_zeta_rule, f_quadrature, psi_at_s, solve_psi_column
from .painleve import tracy_widom_f1
from .special import airy_ai


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    runtime: float = 0.0

    def __post_init__(self):
        self.passed = bool(self.passed)

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.index:2d} {self.name}: {self.details}"


def _timed(fn):
    def wrapper(*args, **kwargs):
        t0 = time.time()
        res = fn(*args, **kwargs)
        res.runtime = time.time() - t0
        return res
    return wrapper


@_timed
def criterion_1_dual_route_f1(ctx):
    sol = ctx["sol"]
    s = np.round(np.arange(-6.0, 4.0001, 0.1), 10)
    pl = tracy_widom_f1(s, sol)
    fr = np.array([fredholm.f1_fredholm(v) for v in s])
    dmax = float(np.max(np.abs(pl - fr)))
    return CriterionResult(1, "dual-route F1", dmax <= 1e-6,
                           {"max_abs_diff": dmax, "tolerance": 1e-6})


@_timed
def criterion_2_hm_asymptotics(ctx):
    sol = ctx["sol"]
    right = abs(sol.q_at(8.0) / airy_ai(8.0) - 1.0)
    left = abs(sol.q_at(-8.0) / 2.0 - 1.0)
    return CriterionResult(2, "Hastings-McLeod asymptotics",
                           right <= 1e-6 and left <= 0.02,
                           {"right_rel": float(right), "left_rel": float(left)})


@_timed
def criterion_3_lax_validity(ctx):
    sol = ctx["sol"]
    worst_schrod = 0.0
    s_grid, p1, p2 = solve_psi_column(np.array([0.5, 1.0, 2.0]), sol, s_step=0.005)
    h = s_grid[1] - s_grid[0]
    pot = sol.potential(s_grid)
    for j, z in enumerate([0.5, 1.0, 2.0]):
        f2 = p2[j]
        d2 = (-f2[:-4] + 16 * f2[1:-3] - 30 * f2[2:-2] + 16 * f2[3:-1] - f2[4:]) / (12 * h * h)
        res = d2 - pot[2:-2] * f2[2:-2] + z * z * f2[2:-2]
        mask = (s_grid[2:-2] >= -6.0) & (s_grid[2:-2] <= 6.0)
        worst_schrod = max(worst_schrod, float(np.max(np.abs(res[mask]))))
    # zeta-compatibility at (1, 0): FD in zeta against the A-matrix action
    dz = 1e-3
    nodes = np.array([1.0 - 2 * dz, 1.0 - dz, 1.0, 1.0 + dz, 1.0 + 2 * dz])
    ph1, ph2 = psi_at_s(np.array([0.0]), nodes, sol)
    dphi1 = (ph1[0, 0] - 8 * ph1[1, 0] + 8 * ph1[3, 0] - ph1[4, 0]) / (12 * dz)
    dphi2 = (ph2[0, 0] - 8 * ph2[1, 0] + 8 * ph2[3, 0] - ph2[4, 0]) / (12 * dz)
    q = float(sol.q_at(0.0)); r = float(sol.q_prime_at(0.0))
    a11, a12 = 4.0 * q, 4.0 + 0.0 + 2 * q * q + 2 * r
    a21, a22 = -4.0 - 2 * q * q + 2 * r, -4.0 * q
    v1, v2 = ph1[2, 0], ph2[2, 0]
    t1, t2 = a11 * v1 + a12 * v2, a21 * v1 + a22 * v2
    rel = max(abs(dphi1 - t1), abs(dphi2 - t2)) / max(abs(t1), abs(t2))
    ok = worst_schrod <= 1e-6 and rel <= 1e-4
    return CriterionResult(3, "Lax-pair validity", ok,
                           {"schrodinger_residual": worst_schrod,
                            "zeta_compatibility_rel": float(rel)})


_D1 = np.array([0.0, 1.0, -8.0, 0.0, 8.0, -1.0, 0.0]) / 12.0
_D2 = np.array([0.0, -1.0, 16.0, -30.0, 16.0, -1.0, 0.0]) / 12.0
_D3 = np.array([1.0, -8.0, 13.0, 0.0, -13.0, 8.0, -1.0]) / 8.0


def third_order_residual(sol, w, s_points):
    """Scaled residual of the third-order ODE for f(., w) from the
    regularized-quadrature oracle on the default zeta rule, derivatives by
    4th-order stencils of step 0.3."""
    h = 0.3
    rule = default_zeta_rule()
    offsets = np.arange(-3, 4) * h
    s_all = np.unique(np.round(np.add.outer(np.asarray(s_points), offsets).ravel(), 10))
    vals, _ = f_quadrature(s_all, [w], sol, rule.nodes, rule.weights)
    table = dict(zip(np.round(s_all, 10), vals[:, 0]))
    worst = 0.0
    for s0 in s_points:
        f = np.array([table[round(s0 + o, 10)] for o in offsets])
        f1 = float(_D1 @ f) / h
        f2 = float(_D2 @ f) / h ** 2
        f3 = float(_D3 @ f) / h ** 3
        u, up = map(float, sol.potentials(s0))
        terms = np.array([4.0 * f3, -2.0 * w * f2, -f1 * (6.0 * u + s0),
                          -f[3] * (3.0 * up + 2.0 - 2.0 * w * u)])
        resid = abs(terms.sum())
        scale = max(np.max(np.abs(terms)), 0.1)
        worst = max(worst, resid / scale)
    return worst


def heat_pde_residual(sol):
    """Scaled residual of d_w f = (d_ss - u) f using transported profiles, at
    w = -1, -0.9, ..., 1 and s = -4, -3.75, ..., 4: s-derivatives come from
    the transport state, the w-derivative from a centered 5-point stencil of
    step 0.1 across independently transported columns."""
    w_inner, hw = np.round(np.arange(-1.0, 1.0001, 0.1), 10), 0.1
    s_lo, s_hi, s_step = -4.0, 4.0, 0.25
    w_all = np.round(np.arange(w_inner[0] - 2 * hw, w_inner[-1] + 2 * hw + hw / 2, hw), 10)
    prof = airy2.transport_profile(w_all, sol, s_lo=s_lo - 0.5)
    idx_s = np.searchsorted(prof.s_grid, np.arange(s_lo, s_hi + s_step / 2, s_step) - 1e-9)
    u_pot = sol.potential(prof.s_grid[idx_s])
    worst = 0.0
    for w in w_inner:
        j = int(np.where(np.isclose(w_all, w))[0][0])
        fw = (prof.f[idx_s, j - 2] - 8 * prof.f[idx_s, j - 1]
              + 8 * prof.f[idx_s, j + 1] - prof.f[idx_s, j + 2]) / (12 * hw)
        fss = prof.f_ss[idx_s, j]
        f0 = prof.f[idx_s, j]
        resid = np.abs(fw - fss + u_pot * f0)
        scale = np.maximum(np.maximum(np.abs(fw), np.abs(fss)), 0.1)
        worst = max(worst, float(np.max(resid / scale)))
    return worst


@_timed
def criterion_4_f_structure(ctx):
    sol = ctx["sol"]
    r0 = third_order_residual(sol, 0.0, np.arange(-4.0, 4.01, 1.0))
    rp = third_order_residual(sol, 0.5, np.arange(0.5, 3.01, 0.5))
    rm = third_order_residual(sol, -0.5, np.arange(0.5, 3.01, 0.5))
    rpde = heat_pde_residual(sol)
    ok = max(r0, rp, rm) <= 1e-3 and rpde <= 1e-3
    return CriterionResult(4, "f(s,w) structure", ok,
                           {"ode_w0": r0, "ode_w+0.5": rp, "ode_w-0.5": rm,
                            "heat_pde": rpde, "tolerance": 1e-3})


@_timed
def criterion_5_joint_density(ctx):
    sol, grid = ctx["sol"], ctx["grid"]
    # (4/pi^2) F1 int h h with h = H_FROM_F f is P(s, w) when this ratio is 1
    ident = abs(4.0 / np.pi ** 2 * airy2.H_FROM_F ** 2 / airy2.JOINT_PREFACTOR - 1.0)
    sym = float(np.max(np.abs(grid.values - grid.values[:, ::-1])))
    norm = grid.normalization_estimate
    worst_rel = 0.0
    for (s, w) in [(5.0, 0.5), (6.0, 1.0), (8.0, 2.0)]:
        closed = float(airy2.joint_pdf_large_s(s, w))
        worst_rel = max(worst_rel, abs(airy2.joint_pdf(s, w, sol=sol) / closed - 1.0))
    ok = (ident <= 1e-12 and sym <= 1e-12 and 0.99 <= norm <= 1.01
          and worst_rel <= 1e-2)
    return CriterionResult(5, "joint density", ok,
                           {"formulation_identity": ident, "w_symmetry": sym,
                            "normalization": norm, "large_s_rel": worst_rel})


@_timed
def criterion_6_mfqr(ctx):
    sol = ctx["sol"]
    worst = 0.0
    vals = {}
    for (m, t) in [(0.0, 0.0), (0.5, 0.5), (1.0, 0.25)]:
        lhs = fredholm.mfqr_jpdf(m, t)
        rhs = airy2.airy2_jpdf(m, t, sol=sol)
        vals[f"({m},{t})"] = (lhs, rhs)
        worst = max(worst, abs(lhs - rhs))
    return CriterionResult(6, "MFQR equivalence", worst <= 1e-3,
                           {"max_abs_diff": worst, "points": vals})


@_timed
def criterion_7_tails(ctx):
    grid = ctx["grid"]
    ws = np.arange(2.5, 4.001, 0.25)
    pw = airy2.marginal_w(ws, grid)
    coef = np.polyfit(ws ** 3, -np.log(pw), 1)[0]
    ratio_w = coef * 12.0
    ts = np.arange(1.0, 1.6001, 0.1)
    pt = airy2.argmax_marginal(ts, grid)
    coef_t = np.polyfit(ts ** 3, -np.log(pt), 1)[0]
    ratio_t = coef_t / (4.0 / 3.0)
    ok = abs(ratio_w - 1.0) <= 0.15 and abs(ratio_t - 1.0) <= 0.15
    return CriterionResult(7, "marginal tails", ok,
                           {"w_slope_over_1_12": float(ratio_w),
                            "t_slope_over_4_3": float(ratio_t)})


@_timed
def criterion_8_finite_n_exact(ctx):
    from .oracles import brute_force_jpdf
    ours = jpdf_finite_n(2.0, 0.5, 2)
    brute = brute_force_jpdf(2.0, 0.5, 2, cutoff=40)
    rel = abs(ours / brute - 1.0)
    # mass of the quadrature of exact_marginals; for N = 1 it misses the
    # F_1(0.5) = 5.3e-7 below build_op_table's floor M = 0.5
    norms = {N: mc.exact_marginals(N)[2]["raw_mass"] for N in (1, 2, 3)}
    ok = rel <= 1e-8 and all(abs(v - 1.0) <= 1e-4 for v in norms.values())
    return CriterionResult(8, "finite-N exactness", ok,
                           {"brute_force_rel": float(rel), "normalizations": norms})


@_timed
def criterion_9_asymptotic_ladder(ctx):
    model8 = build_op_table(8.0, 4)
    rel_u0 = abs(g_function(model8, 3, 0.0) / g_closed_form(8.0, 3, 0.0) - 1.0)
    rel_uf = abs(g_function(model8, 3, 0.1) / g_closed_form(8.0, 3, 0.1) - 1.0)
    # Plancherel-Rotach form, checked inside its validity window (the tail
    # x ~ 1 of the double-scaling zone; see the decisions notes)
    M, k = 15.0, 109
    u = 0.2 * M ** (-2.0 / 3.0)
    g_exact = g_function(build_op_table(M, k), k, u)
    rel_pr = abs(g_exact / g_plancherel_rotach(M, k, u) - 1.0)
    cubic = large_deviation_eval(1.0, 1e-2, 10.0).varphi / 1e-6
    rel_cubic = abs(cubic / (32.0 / 3.0) - 1.0)
    phis = [large_deviation_eval(c, 0.1, 10.0).varphi for c in (0.2, 0.4, 0.6, 0.8, 1.0)]
    mono = bool(np.all(np.diff(phis) < 0))
    ok = rel_u0 <= 1e-4 and rel_uf <= 1e-3 and rel_pr <= 0.05 and rel_cubic <= 0.01 and mono
    return CriterionResult(9, "asymptotic ladder", ok,
                           {"g_closed_u0_rel": float(rel_u0),
                            "g_closed_ufinite_rel": float(rel_uf),
                            "plancherel_rotach_rel": float(rel_pr),
                            "cubic_coefficient_rel": float(rel_cubic),
                            "varphi_monotone": mono})


@_timed
def criterion_10_double_scaling(ctx):
    sol = ctx["sol"]
    rep15 = double_scaling_check(15.0, 113, sol)
    f1_tail_rel = abs(f1_scaling_function(2.0, sol)
                      / (-(2.0 ** (5.0 / 3.0) / np.pi ** 2) * airy_ai(2.0 ** (2.0 / 3.0) * 2.0)) - 1.0)
    # two-M self-consistency of the error order: the M = 30 baseline error is
    # interpolated to the same x as the M = 15 point (the subleading field
    # varies by ~2x across the index-quantized x values, so matching x is part
    # of "scaling appropriately")
    from .finite_n import recurrence_table
    gam30 = recurrence_table(30.0, 904)
    err15 = rep15.deviation_even - (-rep15.f1_even)
    x15 = rep15.x_even
    xs, errs = [], []
    for k2 in (900, 902):
        x = ScalingCoordinates.x_of(k2, 30.0)
        dev = (gam30[k2] ** 2 - 30.0 ** 4 / np.pi ** 2) / 30.0 ** (10.0 / 3.0)
        xs.append(x)
        errs.append(dev - (-float(f1_scaling_function(x, sol))))
    err30 = float(np.interp(x15, sorted(xs), [e for _, e in sorted(zip(xs, errs))]))
    ratio = abs(err15) / max(abs(err30), 1e-12)
    expected = (15.0 / 30.0) ** (-2.0 / 3.0)
    order_ok = 0.5 <= ratio / expected <= 2.0
    ok = rep15.signs_alternate and f1_tail_rel <= 1e-3 and order_ok
    return CriterionResult(10, "double-scaling recursion law", ok,
                           {"signs_alternate": rep15.signs_alternate,
                            "rel_even": rep15.rel_even, "rel_odd": rep15.rel_odd,
                            "f1_tail_rel": float(f1_tail_rel),
                            "error_order_ratio": float(ratio / expected)})


@_timed
def criterion_11_fn_convergence(ctx):
    sol = ctx["sol"]
    _, sups = edge_law_convergence(sol)
    ok = sups[8] > sups[16] > sups[32] and sups[32] <= 0.1
    return CriterionResult(11, "convergence to F1", ok, {"sup_distances": sups})


@_timed
def criterion_12_mc_oracle(ctx):
    n_samples = ctx.get("mc_samples", 100000)
    results = {}
    ok = True
    for N, steps, ks_m_tol, ks_t_tol in ((1, 10000, 0.02, 0.03), (2, 8000, 0.02, 0.03)):
        ens = mc.sample_ensemble(N, steps, n_samples, seed=20240801 + N)
        cdf_m, cdf_tau, _ = mc.exact_marginals(N)
        ks_m = mc.ks_statistic(ens.maxima, cdf_m)
        ks_t = mc.ks_statistic(ens.argmax_times, cdf_tau)
        mean_tau = float(np.mean(ens.argmax_times))
        stderr = float(np.std(ens.argmax_times, ddof=1) / np.sqrt(len(ens)))
        tau_ok = abs(mean_tau - 0.5) <= 3.0 * stderr
        results[N] = {"ks_max": ks_m, "ks_tau": ks_t, "mean_tau": mean_tau,
                      "stderr_tau": stderr, "steps": steps}
        ok = ok and ks_m <= ks_m_tol and ks_t <= ks_t_tol and tau_ok
    return CriterionResult(12, "Monte-Carlo oracle", ok, results)


ALL_CRITERIA = [
    criterion_1_dual_route_f1,
    criterion_2_hm_asymptotics,
    criterion_3_lax_validity,
    criterion_4_f_structure,
    criterion_5_joint_density,
    criterion_6_mfqr,
    criterion_7_tails,
    criterion_8_finite_n_exact,
    criterion_9_asymptotic_ladder,
    criterion_10_double_scaling,
    criterion_11_fn_convergence,
    criterion_12_mc_oracle,
]


def build_context(mc_samples=100000):
    """Shared heavyweight objects for the criteria."""
    from .painleve import solve_hastings_mcleod
    sol = solve_hastings_mcleod()
    grid = airy2.build_joint_density_grid(sol)
    return {"sol": sol, "grid": grid, "mc_samples": mc_samples}


def run_all(ctx, subset=None):
    """Run the criteria of subset (all if None) on ctx, printing each line."""
    results = []
    for i, fn in enumerate(ALL_CRITERIA, start=1):
        if subset is not None and i not in subset:
            continue
        res = fn(ctx)
        results.append(res)
        print(res.line())
    return results
