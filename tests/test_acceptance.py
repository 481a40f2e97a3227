"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines,
or via the CLI: `airymax validate`.
"""

import os

import pytest

from airymax import validation


@pytest.fixture(scope="module")
def ctx(sol, joint_grid):
    samples = int(os.environ.get("AIRYMAX_MC_SAMPLES", "100000"))
    return {"sol": sol, "grid": joint_grid, "mc_samples": samples}


def _run(fn, ctx):
    res = fn(ctx)
    print()
    print(res.line(), f"({res.runtime:.1f}s)")
    assert res.passed, res.details
    return res


def test_criterion_01_dual_route_f1(ctx):
    res = _run(validation.criterion_1_dual_route_f1, ctx)
    assert res.runtime <= 60.0


def test_criterion_02_hastings_mcleod_asymptotics(ctx):
    _run(validation.criterion_2_hm_asymptotics, ctx)


def test_criterion_03_lax_pair_validity(ctx):
    _run(validation.criterion_3_lax_validity, ctx)


def test_criterion_04_f_structure(ctx):
    res = _run(validation.criterion_4_f_structure, ctx)
    assert res.runtime <= 300.0


def test_criterion_05_joint_density(ctx):
    _run(validation.criterion_5_joint_density, ctx)


def test_criterion_06_mfqr_equivalence(ctx):
    _run(validation.criterion_6_mfqr, ctx)


def test_criterion_07_tails(ctx):
    _run(validation.criterion_7_tails, ctx)


def test_criterion_08_finite_n_exactness(ctx):
    _run(validation.criterion_8_finite_n_exact, ctx)


def test_criterion_09_asymptotic_ladder(ctx):
    _run(validation.criterion_9_asymptotic_ladder, ctx)


def test_criterion_10_double_scaling(ctx):
    _run(validation.criterion_10_double_scaling, ctx)


def test_criterion_11_convergence_to_f1(ctx):
    res = _run(validation.criterion_11_fn_convergence, ctx)
    assert res.runtime <= 600.0


def test_criterion_12_monte_carlo_oracle(ctx):
    res = _run(validation.criterion_12_mc_oracle, ctx)
    assert res.runtime <= 900.0


def test_context_builds_no_psi_grid(monkeypatch):
    # f, P(s, w) and the f oracle read only the Hastings-McLeod solution and
    # the zeta rule; the criteria on f and P run without a psi grid
    def fail(*args, **kwargs):
        raise AssertionError("psi grid built")

    monkeypatch.setattr("airymax.lax.build_psi_grid", fail)
    ctx = validation.build_context(mc_samples=10)
    assert "psi" not in ctx
    for fn in (validation.criterion_4_f_structure, validation.criterion_5_joint_density,
               validation.criterion_6_mfqr):
        assert fn(ctx).passed
