"""momentsum: generalized Borel-Laplace (moment) summation of divergent
power series.

The package is organized around an admissible weight gamma (weights), the
entire function E and moment kernel K it generates (kernels), the Borel and
Laplace transforms between coefficient and function space (transforms),
sequence-level Carleman-class machinery (carleman), almost-holomorphic
extension numerics (extensions), and the multi-summation / Euler-equation
pipelines (applications).
"""

__version__ = "0.1.0"

from .weights import (AdmissibilityReport, GammaHatEntry, SaddlePoint,
                      WeightSpec, admissibility_report, eval_L_eps, eval_eps,
                      eval_gamma, gamma_hat_closed,
                      gamma_hat_closed_log, gamma_hat_numeric, moment_weight,
                      rho_of_r, solve_saddle)
from .kernels import (EntireE, KernelK, OmegaDomain, K_closed,
                      kernel_probe_csv, verify_kernel_lemma)
from .transforms import (FormalSeries, FunctionHandle, PadeApproximant,
                         SummationResult, borel_coeffs, borel_contour,
                         laplace_derivative_n, laplace_quadrature, moment_sum,
                         pade_continue, remainder_Rn)
from .carleman import (ClassFit, SequenceM, associated_weight_h,
                       associated_weight_h_log, check_regularity,
                       denjoy_carleman_classify, exp_change_of_variables,
                       fit_class_constant, regular_sequence_facts,
                       stirling_numbers)
from .extensions import (NeighborhoodSet, PlanarField, TaylorField,
                         cauchy_pompeiu_reconstruct, dbar_measure,
                         neighborhood_membership, project_to_interval,
                         split_plus_minus, taylor_extension_PN,
                         v_set_separation)
from .applications import (EulerOperator, EulerSolution, MultiSumPlan,
                           Transseries, euler_apply_P, euler_apply_V,
                           euler_solve, factor_weight_sequence,
                           iterated_log_weight, multisum, shift_laplace_check,
                           transseries_decompose)
