"""Exact computer algebra on the surfaces x*y = p(z).

The coordinate ring Q[x,y,z]/(x*y - p(z)) is represented in a normal form
graded by weight (x has weight 1, y weight -1, z weight 0), one polynomial
in z per weight, stored as {weight: q(z)}; volume-preserving algebraic
vector fields are manipulated through their potentials, and membership of a
potential in the Lie algebra generated by the standard locally nilpotent
fields is decided and certified by explicit bracket expressions.
"""

from .errors import (
    DanielewskiError,
    DegreeGate,
    DivisionByZeroPolynomial,
    InternalInvariantViolation,
    InvalidGenerator,
    MalformedNesting,
    MembershipRejected,
    NegativeExponent,
    NotNilpotent,
    NotOnSurface,
    NotVolumePreserving,
    ParityViolation,
    ParseError,
    PointNotOnSurface,
    RepeatedRoot,
    ResidueObstruction,
    SearchExhausted,
    TangencyViolation,
    WrongSurface,
    ZeroPolynomial,
)
from .ring import (
    SurfaceConfig,
    SurfacePolynomial,
    UniPoly,
    from_chart,
    make_surface,
    to_chart,
)
from .fields import (
    AlgebraicVectorField,
    LndVerdict,
    bracket,
    canonical_potential,
    default_flex_fields,
    flex_check,
    hamiltonian_of,
    interior_product,
    is_volume_preserving,
    lnd_check,
    potential_of,
    shear_x,
    shear_y,
    hyperbolic,
    zero_field,
)
from .automorphisms import (
    FlowMap,
    Hyperbolic,
    Involution,
    PolynomialAutomorphism,
    Symmetry,
    XShear,
    YShear,
    ZDegreeVerdict,
    apply_auto,
    compose,
    conjugate_field,
    flow_group_law,
    flow_of_shear,
    identity_auto,
    invert,
    normalize_word,
    taylor_conjugation,
    taylor_flow_identity,
    volume_factor,
    z_x_degree,
)
from .membership import (
    Bracket,
    Leaf,
    MembershipVerdict,
    Sum,
    avdp_decompose,
    certify_shears_only,
    classify_bracket_potential,
    decide,
    evaluate,
    expression_size,
    make_sum,
    verify_certificate,
)
from .z2 import (
    Z2Grading,
    Z2ReportRow,
    grade,
    invariant_leaves_only,
    is_invariant_field,
    sigma_apply,
    sigma_auto,
    z2_avdp_check,
    z2_certificate,
)
from .parsing import (
    format_field,
    format_surface_polynomial,
    format_unipoly,
    format_word,
    parse_expression,
    parse_field,
    parse_unipoly,
    parse_word,
)

__version__ = "1.0.0"
