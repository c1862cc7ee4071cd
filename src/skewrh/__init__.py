"""Arbitrary-precision skew-orthogonal families and their verification.

The package computes moment matrices and skew-orthogonal polynomial
families for the beta = 1 and beta = 4 ensemble pairings of an even
polynomial potential, exposes the Pfaffian algebra and lattice flow
underneath them, constructs the associated matrix boundary-value
problems, and checks roots of the families for reality and
interlacing.  Everything runs on mpmath arbitrary-precision floats
under an explicit precision context.
"""
from .errors import (
    DegenerateInnerProduct,
    IntegrabilityError,
    MomentRangeExceeded,
    NoConvergence,
    NotReal,
    QuadratureFailure,
    SingularSystem,
    SkewRHError,
    UnsupportedRegime,
)
from .moments import (
    HankelMatrix,
    SkewMomentMatrix,
    build_hankel_matrix,
    build_skew_moment_matrix,
    inner_2,
    skew_inner,
    skew_inner_1,
    skew_inner_4,
)
from .numerics import CPoly, DEFAULT_CONTEXT, Poly, PrecisionContext
from .pfafflattice import LaxL, build_lax, flow_check, lattice_rhs, project_pik
from .potentials import Potential, WeightTable, get_weight_table, pi_polynomial
from .rhp import (
    RHProblem,
    RHSolution,
    asymptotic_exponents,
    build,
    build_even,
    build_odd,
    det_residual,
    identity_2_1_residual,
    jump_residual,
)
from .skewalg import (
    SkewFamily,
    gram_residual,
    orthogonal_family,
    pfaffian,
    pfaffian_polynomials,
    skew_eliminate,
    skew_orthogonal_family,
)
from .zeros import (
    Histogram,
    RootReport,
    empirical_distribution,
    interlacing,
    roots,
)

__version__ = "0.1.0"

__all__ = [
    "CPoly",
    "DEFAULT_CONTEXT",
    "DegenerateInnerProduct",
    "HankelMatrix",
    "Histogram",
    "IntegrabilityError",
    "LaxL",
    "MomentRangeExceeded",
    "NoConvergence",
    "NotReal",
    "Poly",
    "Potential",
    "PrecisionContext",
    "QuadratureFailure",
    "RHProblem",
    "RHSolution",
    "RootReport",
    "SingularSystem",
    "SkewFamily",
    "SkewMomentMatrix",
    "SkewRHError",
    "UnsupportedRegime",
    "WeightTable",
    "asymptotic_exponents",
    "build",
    "build_even",
    "build_hankel_matrix",
    "build_lax",
    "build_odd",
    "build_skew_moment_matrix",
    "det_residual",
    "empirical_distribution",
    "flow_check",
    "get_weight_table",
    "gram_residual",
    "identity_2_1_residual",
    "inner_2",
    "interlacing",
    "jump_residual",
    "lattice_rhs",
    "orthogonal_family",
    "pfaffian",
    "pfaffian_polynomials",
    "pi_polynomial",
    "project_pik",
    "roots",
    "skew_eliminate",
    "skew_inner",
    "skew_inner_1",
    "skew_inner_4",
    "skew_orthogonal_family",
]
