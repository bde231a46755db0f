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
from .fields import AlgebraicVectorField, hamiltonian_images
from .records import Record
from .ring import SurfaceConfig, SurfacePolynomial, UniPoly, shared

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
        # an int lam would make 1 / lam a float
        object.__setattr__(self, "lam", Fraction(self.lam))


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
        return s.x(), s.p.eval_generic(img_z, s.const(1)).div_x(), img_z
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
    # by f(u) conjugated by u -> t*u, z -> c*z + b is the shear by c*t*f(t*u),
    # (t, c) = (lam, 1) for H(lam) on an x-shear, (1/lam, 1) on a y-shear, and
    # (1, c), (a0, c) for Sym(c, b) (y -> a0*y)
    if isinstance(a, (Hyperbolic, Symmetry)) and isinstance(b, (XShear, YShear)):
        on_x = isinstance(b, XShear)
        if isinstance(a, Hyperbolic):
            t, c = (a.lam if on_x else 1 / a.lam), 1
        else:
            t, c = (1 if on_x else a.factor(s)), a.c
        return [type(b)(UniPoly({e: c * t ** (e + 1) * v for e, v in b.f.c.items()})), a]
    if isinstance(a, Involution):
        if isinstance(b, XShear):
            return [YShear(b.f), a]
        if isinstance(b, YShear):
            return [XShear(b.f), a]
        if isinstance(b, Hyperbolic):
            return [Hyperbolic(1 / b.lam), a]
        if isinstance(b, Symmetry):
            return [b, Hyperbolic(b.factor(s)), a]
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
    """Normalized word of generators; its ring action is built on first read.

    The constructor checks every Sym against p, then normalizes the word.
    The images img_x, img_y, img_z are built on the first read of any of
    them, checked against the surface relation and held with shared
    small-integer coefficients (``SurfacePolynomial.with_shared``), since an
    automorphism is often kept long after it is built.
    """

    __slots__ = ("surface", "word", "img_x", "img_y", "img_z")

    def __init__(self, surface: SurfaceConfig, word: list):
        for g in word:  # a Sym that merges away or stands last is refused too
            if isinstance(g, Symmetry):
                g.factor(surface)
        self.surface = surface
        self.word = normalize_word(surface, list(word))

    def __getattr__(self, name: str):
        """The images, on the first read of an unset image slot."""
        if name not in ("img_x", "img_y", "img_z"):
            raise AttributeError(name)
        s = self.surface
        # Pullback along an o ... o a1 is subst_a1 o ... o subst_an.
        images = s.x(), s.y(), s.z()
        for g in reversed(self.word):
            gen = _gen_images(s, g)
            images = [substitute(e, *gen) for e in images]
        x, y, z = images
        relation = x * y - substitute(s.from_unipoly(s.p), x, y, z)
        if not relation.is_zero():
            raise InternalInvariantViolation("automorphism breaks the surface relation")
        self.img_x, self.img_y, self.img_z = (e.with_shared() for e in images)
        return getattr(self, name)

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
    """The push-forward phi_* Theta, with (phi_* Theta)(g) = Theta(g o phi^-1) o phi.

    omega = dx/x ^ dz vanishes nowhere, so Theta -> i_Theta omega is an
    isomorphism from tangent fields to 1-forms (Kaliman-Kutzschebauch,
    Invent. Math. 181, 2010), and i_Theta omega = a dx + b dy + c dz gives
    Theta = a H_x + b H_y + c H_z.  With H_x = (0, -p', -x), H_y = (p', 0, y)
    and H_z = (x, -y, 0), the images Z = -a x + b y and X = b p' + c x give

        a = -Z_{>0} / x,   b = Z_{<=0} / y,   c = (X - b p') / x,

    where Z_{>0} is the part of Z of positive weight and Z_{<=0} the rest;
    tangency makes each division exact.  Since phi^* omega = J omega, with
    J = volume_factor(phi), phi_* H_g = J H_{g o phi}, and so

        phi_* Theta = J sum (k o phi) H_{g o phi}  over (k, g) = (a, x), (b, y), (c, z).

    Each g o phi is an image phi holds: no inverse word, and no image of a
    field.
    """
    s = phi.surface
    z = theta.img_z.coeffs
    a = -SurfacePolynomial(s, {n: q for n, q in z.items() if n > 0}).div_x()
    b = SurfacePolynomial(s, {n: q for n, q in z.items() if n <= 0}).swap_xy().div_x().swap_xy()
    c = (theta.img_x - b * s.from_unipoly(s.p_prime)).div_x()
    images = [s.zero()] * 3
    for k, g in ((a, phi.img_x), (b, phi.img_y), (c, phi.img_z)):
        if not k.is_zero():
            k = apply_auto(phi, k)
            images = [e + k * h for e, h in zip(images, hamiltonian_images(g))]
    j = volume_factor(phi)
    return AlgebraicVectorField(*(e.scale(j).with_shared() for e in images))


def volume_factor(phi: PolynomialAutomorphism) -> Fraction:
    """The constant J with phi^* omega = J * omega, for omega = dx/x ^ dz,
    read off the word: shears and H preserve omega, I sends it to -omega and
    Sym(c, b) to c * omega, so J = (-1)^(number of I) * prod c.  It is +-1,
    as the shared Fraction.
    """
    j = Fraction(1)
    for g in phi.word:
        if isinstance(g, Involution):
            j = -j
        elif isinstance(g, Symmetry):
            j *= g.c
    return shared(j)
