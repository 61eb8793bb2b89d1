"""Exact construction and verification of factored conformally invariant
Laplacian-like operators on weighted differential forms over Einstein
manifolds, with flat-torus and simplicial-sphere numerical oracles."""

from .coeffring import CoefficientError, RatJ, ZERO
from .forms import (CD, D, FormAlgebraError, FormContext, FormExpr, InternalConsistencyError,
                    OperatorPoly, proportionality, to_operator_poly)
from .tractor import TractorFormExpr, apply_Mstar, apply_box, extract_slots, make_M
from .factory import (FactoredOperator, build_L_and_G, build_L_definition, build_tmodbox,
                      closed_factors, closed_G1, closed_L1, closed_tmodbox1, closed_tmodbox2,
                      closed_tmodbox2_w1, operator_weight, run_pipeline, sqyam_factors,
                      yam_factor)
from .spectral import (SpectralDataError, SpectralModel, SpectralPoint, eval_scalar,
                       factor_kernel_content, kernel_dim, sphere_preset, synthetic_model,
                       torus_preset)
from .verify import (BezoutError, VerificationReport, bezout, default_grid,
                     lg_second_scalar, predicted_kernel_content, run_sweep,
                     verify_LG, verify_MMstar, verify_bezout_pairs,
                     verify_factorization, verify_kernel_decomposition)

__version__ = "0.1.0"
