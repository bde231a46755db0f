"""Equivariant decomposition on the surface x*y = z^2 - 1.

This module is specific to p = z^2 - 1, where sigma(x, y, z) =
(-x, -y, -z) is a fixed-point-free involution of the surface.  Functions
split into sigma-invariant and anti-invariant parts; the anti-invariant
potentials are certified as Lie combinations over sigma-invariant
generators only (even-index shears and even-power hyperbolics), by the
recursion

    [SF_0^y, HF(z^i x^(j+1))] = (2j+2+i) z^(i+1) x^j - i z^(i-1) x^j

on potentials, with base case [SF_0^y, SF_2k^x] giving -2 z x^(2k).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .automorphisms import (
    Hyperbolic,
    PolynomialAutomorphism,
    Symmetry,
    apply_auto,
    conjugate_field,
)
from .errors import (
    DegreeGate,
    InternalInvariantViolation,
    ParityViolation,
    ParseError,
    WrongSurface,
)
from .fields import AlgebraicVectorField
from .membership import (
    Bracket,
    BracketExpression,
    Leaf,
    Sum,
    expression_size,
    make_sum,
    verify_certificate,
)
from .ring import SurfaceConfig, SurfacePolynomial, UniPoly

_P_Z2 = UniPoly({2: Fraction(1), 0: Fraction(-1)})


def _gate(surface: SurfaceConfig):
    if surface.p != _P_Z2:
        raise WrongSurface("this construction requires the surface x*y = z^2 - 1")


def sigma_auto(surface: SurfaceConfig) -> PolynomialAutomorphism:
    """The involution (x, y, z) -> (-x, -y, -z) as an automorphism word."""
    _gate(surface)
    return PolynomialAutomorphism(
        surface, [Symmetry(Fraction(-1), Fraction(0)), Hyperbolic(Fraction(-1))]
    )


def sigma_apply(e: SurfacePolynomial) -> SurfacePolynomial:
    _gate(e.surface)
    return apply_auto(sigma_auto(e.surface), e)


@dataclass(frozen=True)
class Z2Grading:
    invariant: SurfacePolynomial
    anti_invariant: SurfacePolynomial


def grade(e: SurfacePolynomial) -> Z2Grading:
    se = sigma_apply(e)
    half = Fraction(1, 2)
    return Z2Grading((e + se).scale(half), (e - se).scale(half))


def is_invariant_field(theta: AlgebraicVectorField) -> bool:
    _gate(theta.surface)
    return conjugate_field(sigma_auto(theta.surface), theta) == theta


def is_invariant_leaf(leaf: Leaf) -> bool:
    """Invariant generators: even-index shears, even-power hyperbolics."""
    if leaf.kind in ("SFx", "SFy"):
        return leaf.i % 2 == 0
    return all(e % 2 == 0 for e in leaf.poly.c)


def invariant_leaves_only(expr: BracketExpression) -> bool:
    if isinstance(expr, Leaf):
        return is_invariant_leaf(expr)
    if isinstance(expr, Sum):
        return all(invariant_leaves_only(t) for _, t in expr.terms)
    return invariant_leaves_only(expr.left) and invariant_leaves_only(expr.right)


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
    expr = make_sum([(v, _cert(i, j, kind))])
    if not verify_certificate(s, expr, target):
        raise InternalInvariantViolation("equivariant certificate failed verification")
    if not invariant_leaves_only(expr):
        raise InternalInvariantViolation("certificate uses a non-invariant leaf")
    return expr


@dataclass(frozen=True)
class Z2ReportRow:
    monomial: str
    size: int
    verified: bool


# Ceiling on z2_avdp_check's max_deg.  The targets and their certificates
# grow quickly with the total degree: the check took 3.3 s at 9 and 7.7 s
# at 11.
MAX_Z2_DEGREE = 11


def z2_avdp_check(surface: SurfaceConfig, max_deg: int) -> list[Z2ReportRow]:
    """Certify every anti-invariant monomial potential up to total degree.

    ``max_deg`` above MAX_Z2_DEGREE raises DegreeGate.
    """
    _gate(surface)
    if max_deg > MAX_Z2_DEGREE:
        raise DegreeGate(
            f"degree bound {max_deg} exceeds the ceiling MAX_Z2_DEGREE = {MAX_Z2_DEGREE}"
        )
    targets: list[tuple[str, SurfacePolynomial]] = []
    for total in range(1, max_deg + 1):
        if total % 2 == 0:
            continue
        for j in range(total + 1):
            i = total - j
            if j == 0:
                targets.append((f"z^{i}", surface.from_unipoly(UniPoly.monomial(i))))
            else:
                targets.append((f"z^{i}*x^{j}" if i else f"x^{j}", surface.x(j, i)))
                targets.append((f"z^{i}*y^{j}" if i else f"y^{j}", surface.y(j, i)))
    # z2_certificate verifies each certificate, and raises if one fails
    return [Z2ReportRow(name, expression_size(z2_certificate(t)), True) for name, t in targets]
