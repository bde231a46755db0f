"""Equivariant decomposition on the surface x*y = z^2 - 1.

This module is specific to p = z^2 - 1, where sigma(x, y, z) =
(-x, -y, -z) is a fixed-point-free involution of the surface.  It negates
the monomials z^i x^j and z^i y^j with i + j odd; these anti-invariant
potentials are certified as Lie combinations over sigma-invariant
generators only (even-index shears and even-power hyperbolics), by the
recursion

    [SF_0^y, HF(z^i x^(j+1))] = (2j+2+i) z^(i+1) x^j - i z^(i-1) x^j

on potentials, with base case [SF_0^y, SF_2k^x] giving -2 z x^(2k).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DegreeGate,
    InternalInvariantViolation,
    ParityViolation,
    ParseError,
    WrongSurface,
)
from .membership import (
    Bracket,
    BracketExpression,
    Leaf,
    expression_size,
    fold,
    make_sum,
    verified,
)
from .parsing import format_surface_polynomial
from .records import Record
from .ring import SurfaceConfig, SurfacePolynomial, UniPoly

_P_Z2 = UniPoly({2: Fraction(1), 0: Fraction(-1)})


def _gate(surface: SurfaceConfig):
    if surface.p != _P_Z2:
        raise WrongSurface("this construction requires the surface x*y = z^2 - 1")


def is_invariant_leaf(leaf: Leaf) -> bool:
    """Invariant generators: even-index shears, even-power hyperbolics."""
    if leaf.kind in ("SFx", "SFy"):
        return leaf.i % 2 == 0
    return all(e % 2 == 0 for e in leaf.poly.c)


def invariant_leaves_only(expr: BracketExpression) -> bool:
    return fold(
        expr, is_invariant_leaf, lambda terms: all(v for _, v in terms), lambda a, b: a and b
    )


def _cert(i: int, j: int, kind: str) -> BracketExpression:
    """Certificate for the potential z^i x^j (kind 'x') or z^i y^j ('y')."""
    own, other = ("SFx", "SFy") if kind == "x" else ("SFy", "SFx")
    # the helper shear lowers z-degree by raising the own-variable power;
    # its potential action brings the sign +2 on y-targets, -2 on x-targets
    sign = Fraction(-1) if kind == "x" else Fraction(1)
    if j == 0:
        return make_sum([(Fraction(i), Leaf("HF", poly=UniPoly.monomial(i - 1)))])
    if i == 0:
        return make_sum([(sign * j, Leaf(own, j - 1))])
    if i == 1:
        return make_sum([(sign / 2, Bracket(Leaf(other, 0), Leaf(own, j)))])
    ii = i - 1
    terms = [
        (Fraction(1), Bracket(Leaf(other, 0), _cert(ii, j + 1, kind))),
        (Fraction(ii), _cert(ii - 1, j, kind)),
    ]
    return make_sum([(Fraction(1, 2 * j + 2 + ii), make_sum(terms))])


def z2_certificate(target: SurfacePolynomial) -> BracketExpression:
    """Invariant-leaf certificate for a single anti-invariant monomial.

    The certificate is verified before it is returned.  A target that is not
    one monomial raises ParseError, a sigma-invariant one ParityViolation.
    """
    s = target.surface
    _gate(s)
    parts = [
        (v, i, abs(n), "x" if n >= 0 else "y")
        for n, q in target.coeffs.items()
        for i, v in q.c.items()
    ]
    if len(parts) != 1:
        raise ParseError("target must be a single monomial")
    v, i, j, kind = parts[0]
    if (i + j) % 2 == 0:
        raise ParityViolation(
            f"z^{i} {'xy'[kind == 'y']}^{j} is sigma-invariant; no certificate exists"
        )
    expr = verified(make_sum([(v, _cert(i, j, kind))]), target, "equivariant certificate")
    if not invariant_leaves_only(expr):
        raise InternalInvariantViolation("certificate uses a non-invariant leaf")
    return expr


class Z2ReportRow(Record):
    __slots__ = ("monomial", "size", "verified")
    monomial: str
    size: int
    verified: bool


# Ceiling on z2_avdp_check's max_deg.  The targets and their certificates
# grow quickly with the total degree: on z^2 - 1 the check took 0.03 s at 9,
# 0.07 s at 11 and 1.6 s at 19 (CPU time, Python 3.11, shared 2-core Xeon VM).
MAX_Z2_DEGREE = 11


def z2_avdp_check(surface: SurfaceConfig, max_deg: int) -> list[Z2ReportRow]:
    """Certify every anti-invariant monomial potential up to total degree.

    ``max_deg`` outside 1..MAX_Z2_DEGREE raises DegreeGate.
    """
    _gate(surface)
    if not 1 <= max_deg <= MAX_Z2_DEGREE:
        raise DegreeGate(
            f"degree bound {max_deg} is outside 1..MAX_Z2_DEGREE = {MAX_Z2_DEGREE}"
        )
    targets: list[SurfacePolynomial] = []
    for total in range(1, max_deg + 1, 2):
        for j in range(total + 1):
            targets.append(surface.x(j, total - j))  # z^total at j = 0
            if j:
                targets.append(surface.y(j, total - j))
    # z2_certificate verifies each certificate, and raises if one fails
    return [Z2ReportRow(format_surface_polynomial(t), expression_size(z2_certificate(t)), True)
            for t in targets]
