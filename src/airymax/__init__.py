"""Extreme-value laws for N non-intersecting Brownian excursions and the
(max, argmax) density of the Airy2 process minus a parabola.

Pipeline: Hastings-McLeod Painleve II solve -> Lax-pair psi-functions ->
f(s, w) and the joint density P(s, w) -> rescaled endpoint laws, with
independent Fredholm/resolvent, brute-force and Monte-Carlo oracles.
"""

from .airy2 import (JointDensityGrid, TailConstants, airy2_jpdf, argmax_marginal,
                    build_joint_density_grid, f_closed, f_function, joint_pdf,
                    joint_pdf_large_s, marginal_w, tail_analysis, transport_profile)
from .fredholm import AiryKernelDiscretization, airy_kernel, f1_fredholm, mfqr_jpdf
from .finite_n import (FiniteNModel, LargeDeviationPoint, ScalingCoordinates,
                       build_op_table, cdf_max_finite_n, double_scaling_check,
                       g_closed_form, g_function, g_plancherel_rotach,
                       jpdf_finite_n, large_deviation_eval, recurrence_table)
from .lax import (PsiGrid, build_psi_grid, default_zeta_rule, psi_at_s,
                  solve_psi_column)
from .mc import (PathEnsemble, compare_to_exact, exact_marginals, extreme_stats,
                 ks_statistic, load_ensemble, sample_ensemble, save_ensemble)
from .painleve import (PainleveSolution, left_tail_log_f1, log_tracy_widom_f1,
                       solve_hastings_mcleod, tracy_widom_f1)
from .special import (QuadratureRule, airy_ai, airy_ai_prime, airy_both,
                      gauss_legendre_rule, half_line_rule, oscillatory_rule)

__version__ = "0.1.0"
