"""Algebraic automorphisms of the surface x*y = p(z) as words in generators.

Generators: x-shears Dx_f (x, y, z) -> (x, p(z + x f(x))/x, z + x f(x)),
y-shears Dy_f, hyperbolic rotations H_lam (x, y, z) -> (lam x, y/lam, z),
the involution I (x, y, z) -> (y, x, z), and affine symmetries of p,
(x, y, z) -> (x, a0 y, c z + b) with p(c z + b) = a0 p(z).

A word is a list in application order: [a1, ..., an] is the point map
an o ... o a1 (a1 acts first).  Words are normalized to the shape
[alternating shears..., symmetry?, hyperbolic?, involution?] using the
commutation relations of the group; normalization never changes the ring
action.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalInvariantViolation, InvalidGenerator
from .fields import AlgebraicVectorField, apply_field, poisson_bracket
from .records import Record
from .ring import SurfaceConfig, SurfacePolynomial, UniPoly, constant_quotient

# -- generators ----------------------------------------------------------------


class XShear(Record):
    __slots__ = ("f",)
    f: UniPoly


class YShear(Record):
    __slots__ = ("f",)
    f: UniPoly


class Hyperbolic(Record):
    __slots__ = ("lam",)
    lam: Fraction

    def __post_init__(self):
        if not self.lam:
            raise InvalidGenerator("hyperbolic parameter must be nonzero")


class Involution(Record):
    __slots__ = ()


class Symmetry(Record):
    """(x, y, z) -> (x, a0*y, c*z + b) where p(c*z + b) = a0*p(z), a0 in {1,-1}."""

    __slots__ = ("c", "b")
    c: Fraction
    b: Fraction

    def __post_init__(self):
        if self.c not in (1, -1):
            raise InvalidGenerator("symmetry slope must be 1 or -1")

    def factor(self, surface: SurfaceConfig) -> Fraction:
        q = surface.p.compose(UniPoly({1: self.c, 0: self.b}))
        if q == surface.p:
            return Fraction(1)
        if q == surface.p.scale(-1):
            return Fraction(-1)
        raise InvalidGenerator(
            f"z -> {self.c}*z + {self.b} is not a symmetry of p (p(c z + b) != +-p(z))"
        )


Generator = XShear | YShear | Hyperbolic | Involution | Symmetry


def _is_identity_gen(g: Generator) -> bool:
    if isinstance(g, (XShear, YShear)):
        return g.f.is_zero()
    if isinstance(g, Hyperbolic):
        return g.lam == 1
    if isinstance(g, Symmetry):
        return g.c == 1 and g.b == 0
    return False


def _gen_images(surface: SurfaceConfig, g: Generator):
    """Coordinate images (pullbacks of x, y, z) of a single generator."""
    s = surface
    if isinstance(g, XShear):
        coeffs = {e + 1: UniPoly.const(v) for e, v in g.f.c.items()}
        img_z = SurfacePolynomial(s, {0: UniPoly.var(), **coeffs})
        # p(img_z) - p(z) has only weights >= 1: lowering each by one divides by x
        rest = s.p.eval_generic(img_z, s.const(1)) - s.from_unipoly(s.p)
        img_y = s.y() + SurfacePolynomial(s, {n - 1: q for n, q in rest.coeffs.items()})
        return s.x(), img_y, img_z
    if isinstance(g, YShear):
        _, img_y, img_z = _gen_images(s, XShear(g.f))
        return img_y.swap_xy(), s.y(), img_z.swap_xy()
    if isinstance(g, Hyperbolic):
        return s.x(v=g.lam), s.y(v=1 / g.lam), s.z()
    if isinstance(g, Involution):
        return s.y(), s.x(), s.z()
    if isinstance(g, Symmetry):
        a0 = g.factor(s)
        return s.x(), s.y(v=a0), s.from_unipoly(UniPoly({1: g.c, 0: g.b}))
    raise InvalidGenerator(f"unknown generator {g!r}")


def substitute(
    e: SurfacePolynomial,
    img_x: SurfacePolynomial,
    img_y: SurfacePolynomial,
    img_z: SurfacePolynomial,
) -> SurfacePolynomial:
    """e(img_x, img_y, img_z), reduced to normal form: the weight-n part
    u_n q(z) becomes u_n(img) * q(img_z), by Horner's scheme in img_z."""
    s = e.surface
    acc = s.zero()
    for n, q in e.coeffs.items():
        base = (img_x if n > 0 else img_y) ** abs(n) if n else s.const(1)
        acc = acc + q.eval_generic(img_z, base)
    return acc


# -- word normalization --------------------------------------------------------


def _rewrite_pair(a: Generator, b: Generator, s: SurfaceConfig):
    """Rewrite the adjacent subword [a, b] (a applied first) or return None."""
    # merges
    if isinstance(a, XShear) and isinstance(b, XShear):
        return [XShear(a.f + b.f)]
    if isinstance(a, YShear) and isinstance(b, YShear):
        return [YShear(a.f + b.f)]
    if isinstance(a, Hyperbolic) and isinstance(b, Hyperbolic):
        return [Hyperbolic(a.lam * b.lam)]
    if isinstance(a, Involution) and isinstance(b, Involution):
        return []
    if isinstance(a, Symmetry) and isinstance(b, Symmetry):
        return [Symmetry(b.c * a.c, b.c * a.b + b.b)]
    # push symmetry / hyperbolic / involution to the right of shears; a shear
    # by f(u) conjugated by u -> t*u is the shear by t*f(t*u)
    if isinstance(a, Hyperbolic):
        if isinstance(b, XShear):
            return [XShear(b.f.compose(UniPoly.monomial(1, a.lam)).scale(a.lam)), a]
        if isinstance(b, YShear):
            return [YShear(b.f.compose(UniPoly.monomial(1, 1 / a.lam)).scale(1 / a.lam)), a]
    if isinstance(a, Involution):
        if isinstance(b, XShear):
            return [YShear(b.f), a]
        if isinstance(b, YShear):
            return [XShear(b.f), a]
        if isinstance(b, Hyperbolic):
            return [Hyperbolic(1 / b.lam), a]
        if isinstance(b, Symmetry):
            return [b, Hyperbolic(b.factor(s)), a]
    if isinstance(a, Symmetry):
        a0 = a.factor(s)
        if isinstance(b, XShear):
            return [XShear(b.f.scale(a.c)), a]
        if isinstance(b, YShear):
            return [YShear(b.f.compose(UniPoly.monomial(1, a0)).scale(a.c * a0)), a]
    if isinstance(a, Hyperbolic) and isinstance(b, Symmetry):
        return [b, a]
    return None


def normalize_word(surface: SurfaceConfig, word: list) -> list:
    """Rewrite adjacent pairs until none applies, in one pass: the pairs left
    of i stay irreducible, since a rewrite at i steps the scan back to i - 1."""
    word = [g for g in word if not _is_identity_gen(g)]
    i = 0
    while i + 1 < len(word):
        r = _rewrite_pair(word[i], word[i + 1], surface)
        if r is None:
            i += 1
        else:
            word[i : i + 2] = [g for g in r if not _is_identity_gen(g)]
            i = max(i - 1, 0)
    return word


class PolynomialAutomorphism:
    """Normalized word of generators with its cached ring action."""

    __slots__ = ("surface", "word", "img_x", "img_y", "img_z")

    def __init__(self, surface: SurfaceConfig, word: list):
        self.surface = surface
        self.word = normalize_word(surface, list(word))
        # Pullback along an o ... o a1 is subst_a1 o ... o subst_an.
        images = surface.x(), surface.y(), surface.z()
        for g in reversed(self.word):
            gen = _gen_images(surface, g)
            images = [substitute(e, *gen) for e in images]
        self.img_x, self.img_y, self.img_z = x, y, z = images
        relation = x * y - substitute(surface.from_unipoly(surface.p), x, y, z)
        if not relation.is_zero():
            raise InternalInvariantViolation("automorphism breaks the surface relation")

    def is_identity(self) -> bool:
        return not self.word

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolynomialAutomorphism)
            and self.surface == other.surface
            and self.img_x == other.img_x
            and self.img_y == other.img_y
            and self.img_z == other.img_z
        )

    def __repr__(self):
        return f"Automorphism({self.word!r})"


def apply_auto(phi: PolynomialAutomorphism, e: SurfacePolynomial) -> SurfacePolynomial:
    """Pullback e o phi (substitute phi's coordinate images)."""
    return substitute(e, phi.img_x, phi.img_y, phi.img_z)


def compose(
    phi: PolynomialAutomorphism, psi: PolynomialAutomorphism
) -> PolynomialAutomorphism:
    """phi o psi (psi acts first)."""
    return PolynomialAutomorphism(phi.surface, psi.word + phi.word)


def _invert_gen(g: Generator) -> Generator:
    if isinstance(g, XShear):
        return XShear(-g.f)
    if isinstance(g, YShear):
        return YShear(-g.f)
    if isinstance(g, Hyperbolic):
        return Hyperbolic(1 / g.lam)
    if isinstance(g, Involution):
        return g
    if isinstance(g, Symmetry):
        return Symmetry(g.c, -g.c * g.b)
    raise InvalidGenerator(f"unknown generator {g!r}")


def invert(phi: PolynomialAutomorphism) -> PolynomialAutomorphism:
    return PolynomialAutomorphism(
        phi.surface, [_invert_gen(g) for g in reversed(phi.word)]
    )


def conjugate_field(
    phi: PolynomialAutomorphism, theta: AlgebraicVectorField
) -> AlgebraicVectorField:
    """(phi_* Theta)(g) = Theta(g o phi^-1) o phi; for g = x, y, z the
    pullback g o phi^-1 is a coordinate image of phi^-1."""
    inv = invert(phi)
    return AlgebraicVectorField(*(
        apply_auto(phi, apply_field(theta, g)) for g in (inv.img_x, inv.img_y, inv.img_z)
    ))


def volume_factor(phi: PolynomialAutomorphism) -> Fraction:
    """The constant J with phi^* omega = J * omega, for omega = dx/x ^ dz.

    With X, Z the images of x, z, phi^* omega = dX/X ^ dZ, and in terms of
    E = x d/dx and D = x d/dz (see ``fields``) J = (E X D Z - D X E Z)/(x X),
    that is J X = H_Z(X), the un-normalised Poisson bracket {Z, X}.
    """
    return constant_quotient(poisson_bracket(phi.img_z, phi.img_x), phi.img_x)
