"""Exact computer algebra on the surfaces x*y = p(z).

The coordinate ring Q[x,y,z]/(x*y - p(z)) is represented in a normal form
graded by weight (x has weight 1, y weight -1, z weight 0), one polynomial
in z per weight, stored as one flat table of terms; volume-preserving
algebraic vector fields are manipulated through their potentials, and
membership of a potential in the Lie algebra generated by the standard
locally nilpotent fields is decided and certified by explicit bracket
expressions; words in the automorphism generators act on functions and push
fields forward.  The public names are what the command line runs and what a
library user calls; identities that the tests check a second way (flows,
Taylor series of conjugation, the z-degree of shear words, the
sigma-grading) live in the tests.

The public names below are imported on first use (PEP 562): ``import
danielewski`` loads no submodule, and ``danielewski.bracket`` loads
``fields`` and what it imports, so a command-line process pays only for
the modules its subcommand runs.
"""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "DanielewskiError", "DegreeGate", "DivisionByZeroPolynomial", "FileError",
        "InternalInvariantViolation", "InvalidGenerator", "MalformedNesting",
        "MembershipRejected", "NegativeExponent", "NotVolumePreserving",
        "ParityViolation", "ParseError", "PointNotOnSurface", "RepeatedRoot",
        "SearchExhausted", "TangencyViolation", "WrongSurface", "ZeroPolynomial",
    ), "errors"),
    **dict.fromkeys(("SurfaceConfig", "SurfacePolynomial", "UniPoly", "make_surface"), "ring"),
    **dict.fromkeys((
        "AlgebraicVectorField", "LndVerdict", "bracket", "canonical_potential",
        "default_flex_fields", "flex_check", "hamiltonian_of", "is_volume_preserving",
        "lnd_check", "potential_of", "shear_x", "shear_y", "hyperbolic", "zero_field",
    ), "fields"),
    **dict.fromkeys((
        "Hyperbolic", "Involution", "PolynomialAutomorphism", "Symmetry", "XShear",
        "YShear", "apply_auto", "compose", "conjugate_field", "invert", "normalize_word",
        "volume_factor",
    ), "automorphisms"),
    **dict.fromkeys((
        "Bracket", "Leaf", "MembershipVerdict", "Sum", "avdp_decompose",
        "certify_shears_only", "decide", "evaluate", "expression_size", "make_sum",
        "verify_certificate",
    ), "membership"),
    **dict.fromkeys((
        "Z2ReportRow", "invariant_leaves_only", "z2_avdp_check", "z2_certificate",
    ), "z2"),
    **dict.fromkeys((
        "format_field", "format_surface_polynomial", "format_unipoly", "format_word",
        "parse_expression", "parse_field", "parse_unipoly", "parse_word",
    ), "parsing"),
}

__all__ = [*_EXPORTS, "__version__"]
__version__ = "1.0.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
