"""Exact computer algebra for multicontact fields on Hessenberg slices."""

from .rootsys import Root, RootSystem, OmegaDecomposition, build_root_system
from .hessenberg import (HessenbergSet, HessenbergReport, validate,
                         type_p_subset, enumerate_all, analyze, check_norma)
from .liealg import (SplitLieAlgebra, Chart, build_sl, build_sp,
                     matrix_chart, first_kind_chart, second_kind_chart,
                     three_factor_chart, default_chart, adjoint_of_point)
from .fields import PolyVectorField
from .poly import Poly
from .mcfields import (McSolution, tau, nu,
                       homogeneous_degree, homogeneous_parts,
                       assemble_mc_system, solve_mc, compare_with_normalizer,
                       reduce_by_dark_zones)
from .polybasis import (OmegaComponentBasis, build_basis, gen_sigma_half,
                        gen_cartan, gen_sigma0, gen_neg_sigma_half,
                        gen_neg_omega, solve_H_of_gamma, chart_transport,
                        verify_against_oracle)
from .hessdefs import (HessenbergEquations, defining_equations,
                       smoothness_certificate, graph_map, pushforward_frame)

__version__ = "0.1.0"
