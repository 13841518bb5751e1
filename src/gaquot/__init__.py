"""Exact polynomial algebra for additive-group quotients of affine space.

Layered API: sparse rational polynomials (poly), a Groebner engine
(groebner), locally nilpotent derivations and their kernels
(derivations), the family constructions with their verification battery
(families), and a batch CLI (cli).
"""

from .derivations import (
    Derivation,
    exp_action,
    fixed_point_ideal,
    kernel_linear,
    kernel_saturation,
    load_derivation_file,
    lower_triangular_derivation,
    make_slice,
)
from .errors import (
    GaquotError,
    MissingAssignmentError,
    NonzeroConstantError,
    NotHypersurfaceError,
    NotLocallyNilpotentError,
    NotUnivariateError,
    ParseError,
    RepeatedRootsError,
    ResourceCapError,
    RingMismatchError,
    RoundCapError,
    UnitIdealError,
    UnknownVariableError,
    UsageError,
    ZeroPolynomialError,
)
from .families import (
    Dims,
    FamilySpec,
    KTheoryRanks,
    VerificationReport,
    build_family,
    check_freeness,
    check_smooth,
    check_stability,
    invariant_presentation,
    run_battery,
)
from .groebner import (
    DEFAULT_CAPS,
    GroebnerBasis,
    Ideal,
    ResourceCaps,
    TermOrder,
    buchberger,
    divide_exact,
    is_squarefree,
    is_unit_ideal,
    krull_dimension,
    load_ideal_file,
    normal_form,
    subalgebra_membership,
    subalgebra_presentation,
)
from .poly import (
    Polynomial,
    VarSet,
    jacobian,
    monic,
    parse,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
