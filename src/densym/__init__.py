"""densym: exact symmetry calculus for modules of differential operators
acting between spaces of tensor densities on the circle and the line.

The package computes, with exact rational arithmetic throughout, the algebra
of linear maps on the module of order-k differential operators
F_lam -> F_mu that commute with the diffeomorphism action: explicit
generators, multiplication tables, dimension tables over the weight plane,
and the identification with small matrix algebras.
"""

from .rings import (
    CIRCLE,
    LINE,
    CoefficientFunction,
    PolyFn,
    TrigFn,
    circle_mean,
)
from .densities import (
    Density,
    DensityOperator,
    VectorField,
    apply,
    compose,
    lie_derivative_density,
    lie_derivative_operator,
    pairing,
)
from .operators import (
    BilinearOp,
    Projection,
    conjugate,
    delta_compose,
    delta_inverse,
    nonlocal_trace,
    p0,
    s_map,
    s_star,
    symbol,
    symmetry_from_projection,
    wilmod,
)
from .truncation import (
    SymmetryMap,
    TruncatedBasis,
    brute_force_local_symmetries,
    equivariance_defect,
    invariant_functionals_dimension,
    realize,
)
from .recurrence import (
    ClassificationReport,
    build_system,
    classify,
    local_dimension,
    sweep,
)
from .algebras import AlgebraKind, FiniteAlgebra, identify, span_algebra

__version__ = "0.1.0"

__all__ = [
    "AlgebraKind", "BilinearOp", "CIRCLE", "ClassificationReport",
    "CoefficientFunction", "Density", "DensityOperator", "FiniteAlgebra",
    "LINE", "PolyFn", "Projection", "SymmetryMap", "TrigFn",
    "TruncatedBasis", "VectorField", "apply", "brute_force_local_symmetries",
    "build_system", "circle_mean", "classify", "compose", "conjugate",
    "delta_compose", "delta_inverse", "equivariance_defect", "identify",
    "invariant_functionals_dimension", "lie_derivative_density",
    "lie_derivative_operator", "local_dimension", "nonlocal_trace", "p0",
    "pairing", "realize", "s_map", "s_star", "span_algebra", "sweep", "symbol",
    "symmetry_from_projection", "wilmod",
]
