"""Newton-polyhedron invariants and p-adic exponential sums.

Library layout:
  poly        sparse integer polynomials (parser, gradients, face restrictions)
  store       one byte-capped store of read-only tables kept per key
  newton      exact polyhedron, face lattice, sigma / kappa invariants
  sums        brute-force sum kernels and mod-p nondegeneracy scans
  faceformula certified cone sums and the face-decomposition verification
  bounds      inequality scans, decay-ratio tables, exponent fits
  cli         command-line front end and the report schema
"""

from .errors import (
    BudgetExceeded,
    ConstantTermNonzero,
    DimensionTooLarge,
    HypothesisUnmet,
    InsufficientPrimes,
    ModulusTooLarge,
    PadicSumsError,
    PolyParseError,
    WorkBudgetExceeded,
    ZeroPolynomial,
)
from .poly import (
    ExponentVector,
    Polynomial,
    face_restriction,
    gradient,
    homogeneity,
    parse_polynomial,
    render,
)
from .newton import (
    Face,
    Facet,
    NewtonPolyhedron,
    build_polyhedron,
    enumerate_faces,
    enumerate_lattice_points,
    f0_face,
)
from .sums import (
    KERNEL_EPS,
    NondegReport,
    SumValue,
    brute_force_S,
    check_nondegenerate_mod_p,
    torus_E,
)
from .faceformula import (
    ConeSumResult,
    FormulaReport,
    cone_sums_multi,
    rhs_assembly,
    truncation_level,
    verify_formula,
)
from .bounds import (
    EDecayFit,
    NuCheckRecord,
    RatioTable,
    bound_ratio_table,
    check_nu_inequality,
    check_sigma_dim_bound,
    e_decay_fit,
)

__version__ = "0.1.0"
