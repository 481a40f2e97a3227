import numpy as np
import pytest

from airymax import airy2, fredholm
from airymax.errors import DomainError
from airymax.painleve import tracy_widom_f1
from airymax.special import airy_both


def test_right_limit():
    assert abs(fredholm.f1_fredholm(8.0) - 1.0) <= 1e-8


def test_monotone_in_s():
    vals = [fredholm.f1_fredholm(s) for s in (-6.0, -4.0, -2.0, 0.0, 2.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_node_count_self_convergence():
    for s in (-8.0, -4.0, 0.0, 2.0):
        assert abs(fredholm.f1_fredholm(s, 80) - fredholm.f1_fredholm(s, 120)) <= 1e-8


def test_dual_route_at_zero(sol):
    assert abs(fredholm.f1_fredholm(0.0) - tracy_widom_f1(0.0, sol)) <= 1e-6


def test_kernel_invariants():
    disc = fredholm.airy_kernel(-10.0, 60)
    assert np.max(np.abs(disc.matrix - disc.matrix.T)) <= 1e-14
    radius = np.max(np.abs(np.linalg.eigvalsh(disc.matrix)))
    assert radius < 1.0


@pytest.mark.parametrize("n", [20, 61, 80, 140])
def test_kernel_triangle_matches_full_evaluation(n):
    # Ai is evaluated on the upper triangle only and mirrored; the matrix
    # must equal the one from all n x n arguments bit for bit
    t, wt = np.polynomial.legendre.leggauss(n)
    x = 4.0 * (1.0 + t) / (1.0 - t)
    rw = np.sqrt(wt * 8.0 / (1.0 - t) ** 2)
    for s in (-10.0, -3.3, 0.0, 2.7, 8.0):
        a, _ = airy_both(np.add.outer(x, x) + s)
        disc = fredholm.airy_kernel(s, n)
        assert np.array_equal(disc.nodes, x)
        assert np.array_equal(disc.matrix, rw[:, None] * a * rw[None, :])


def test_resolvent_identity():
    disc = fredholm.airy_kernel(0.0, 80)
    A = disc.identity_minus
    resid = A @ np.linalg.inv(A) - np.eye(disc.n)
    assert np.max(np.abs(resid)) <= 1e-10


def test_node_count_guard():
    with pytest.raises(DomainError):
        fredholm.airy_kernel(0.0, 10)


def test_mfqr_symmetry_in_t():
    a = fredholm.mfqr_jpdf(0.5, 0.5)
    b = fredholm.mfqr_jpdf(0.5, -0.5)
    assert abs(a - b) <= 1e-10


def test_mfqr_large_m_estimate():
    # with the resolvent replaced by the identity, the MFQR density is the
    # large-s form of P(s, w) at s = 2^{2/3} m, w = 2^{4/3} t
    val = fredholm.mfqr_jpdf(6.0, 0.5)
    est = 4.0 * airy2.joint_pdf_large_s(2.0 ** (2.0 / 3.0) * 6.0, 2.0 ** (4.0 / 3.0) * 0.5)
    assert val == pytest.approx(est, rel=1e-2)


def test_mfqr_self_convergence():
    a = fredholm.mfqr_jpdf(0.5, 0.5, 140)
    b = fredholm.mfqr_jpdf(0.5, 0.5, 200)
    assert abs(a - b) <= 1e-7


def test_mfqr_domain():
    with pytest.raises(DomainError):
        fredholm.mfqr_jpdf(-5.0, 0.0)
    with pytest.raises(DomainError):
        fredholm.mfqr_jpdf(0.0, 2.5)
