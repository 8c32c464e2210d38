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

from .weights import (GammaHatEntry, SaddlePoint, WeightSpec, eval_eps,
                      gamma_hat_closed_log, gamma_hat_numeric, moment_weight,
                      solve_saddle)
from .kernels import (EntireE, KernelK, OmegaDomain, kernel_probe_csv,
                      verify_E_curve, verify_E_exp, verify_K1_deriv,
                      verify_three_E)
from .transforms import (FormalSeries, FunctionHandle, PadeApproximant,
                         SummationResult, borel_coeffs, borel_contour,
                         laplace_derivative_n, laplace_quadrature, moment_sum,
                         pade_continue, remainder_Rn)
from .carleman import (ClassFit, SequenceM, check_regularity,
                       denjoy_carleman_classify, exp_change_of_variables,
                       fit_class_constant, regular_sequence_facts,
                       stirling_numbers)
from .extensions import (TaylorField, dbar_measure, project_to_interval,
                         taylor_extension_PN)
from .applications import (EulerSolution, MultiSumPlan, Transseries,
                           euler_apply_P, euler_solve, multisum,
                           shift_laplace_check, transseries_decompose)
