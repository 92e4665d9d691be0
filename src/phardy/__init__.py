"""Numerical verification of Hardy-type inequalities on model manifolds."""

from .geometry import (
    CoordinateRange,
    ModelManifold,
    euclidean_radial,
    hyperbolic_radial,
    interval,
)
from .grids import GridFunction, RadialGrid, build_grid
from .weights import (
    WeightSpec,
    rho_catalog_entry,
    weak_superharmonicity_check,
)
from .functionals import (
    InequalityCase,
    SidePair,
    caccioppoli_case,
    ckn_case,
    gn_case,
    hardy_case,
    hardy_sobolev_case,
    uncertainty_case,
    weighted_hardy_case,
)
from .optimize import (
    MinimizationResult,
    convergence_study,
    minimize_quotient,
    minimize_quotient_general_p,
    minimize_quotient_p2,
)
from .capacity import classify_parabolicity, radial_capacity
from .eigen import EigenPair, first_eigenpair

__version__ = "0.1.0"
