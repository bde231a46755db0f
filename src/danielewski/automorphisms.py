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

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegreeGate,
    InternalInvariantViolation,
    InvalidGenerator,
    NotNilpotent,
)
from .fields import (
    AlgebraicVectorField,
    apply_field,
    bracket,
    lnd_check,
    poisson_bracket,
    shear_x,
    shear_y,
)
from .ring import SurfaceConfig, SurfacePolynomial, UniPoly, constant_quotient

# -- generators ----------------------------------------------------------------


@dataclass(frozen=True)
class XShear:
    f: UniPoly


@dataclass(frozen=True)
class YShear:
    f: UniPoly


@dataclass(frozen=True)
class Hyperbolic:
    lam: Fraction

    def __post_init__(self):
        if not self.lam:
            raise InvalidGenerator("hyperbolic parameter must be nonzero")


@dataclass(frozen=True)
class Involution:
    pass


@dataclass(frozen=True)
class Symmetry:
    """(x, y, z) -> (x, a0*y, c*z + b) where p(c*z + b) = a0*p(z), a0 in {1,-1}."""

    c: Fraction
    b: Fraction

    def __post_init__(self):
        if self.c not in (1, -1):
            raise InvalidGenerator("symmetry slope must be 1 or -1")

    def factor(self, surface: SurfaceConfig) -> Fraction:
        gamma = UniPoly({1: self.c, 0: self.b})
        q = surface.p.compose(gamma)
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
        # p(img_z) - p(z) has only positive weights, so dividing it by x
        # lowers each weight by one.
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
    """e(img_x, img_y, img_z), reduced to normal form."""
    acc = e.surface.zero()
    for n, q in e.coeffs.items():
        base = (img_x if n > 0 else img_y) ** abs(n) if n else None
        for j, v in q.c.items():
            t = img_z**j if base is None else base * img_z**j
            acc = acc + t.scale(v)
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
    # push symmetry / hyperbolic / involution to the right of shears
    if isinstance(a, Hyperbolic):
        lam = a.lam
        if isinstance(b, XShear):
            scaled = UniPoly({e: v * lam ** (e + 1) for e, v in b.f.c.items()})
            return [XShear(scaled), a]
        if isinstance(b, YShear):
            scaled = UniPoly({e: v * lam ** (-(e + 1)) for e, v in b.f.c.items()})
            return [YShear(scaled), a]
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
            f = b.f
            scaled = UniPoly({e: v * a.c * a0 ** (e + 1) for e, v in f.c.items()})
            return [YShear(scaled), a]
    if isinstance(a, Hyperbolic) and isinstance(b, Symmetry):
        return [b, a]
    return None


def normalize_word(surface: SurfaceConfig, word: list) -> list:
    word = [g for g in word if not _is_identity_gen(g)]
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(word):
            r = _rewrite_pair(word[i], word[i + 1], surface)
            if r is not None:
                word[i : i + 2] = [g for g in r if not _is_identity_gen(g)]
                changed = True
                i = max(i - 1, 0)
            else:
                i += 1
    return word


class PolynomialAutomorphism:
    """Normalized word of generators with its cached ring action."""

    __slots__ = ("surface", "word", "img_x", "img_y", "img_z")

    def __init__(self, surface: SurfaceConfig, word: list):
        self.surface = surface
        self.word = normalize_word(surface, list(word))
        # Pullback along an o ... o a1 is subst_a1 o ... o subst_an.
        x, y, z = surface.x(), surface.y(), surface.z()
        for g in reversed(self.word):
            gx, gy, gz = _gen_images(surface, g)
            x = substitute(x, gx, gy, gz)
            y = substitute(y, gx, gy, gz)
            z = substitute(z, gx, gy, gz)
        self.img_x, self.img_y, self.img_z = x, y, z
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


def identity_auto(surface: SurfaceConfig) -> PolynomialAutomorphism:
    return PolynomialAutomorphism(surface, [])


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


@dataclass(frozen=True)
class ZDegreeVerdict:
    degree: int
    identity_word: bool


def z_x_degree(phi: PolynomialAutomorphism) -> ZDegreeVerdict:
    """Largest x- or y-power in the normal form of the word's z-component.

    Positive for every nontrivial shear word when deg(p) >= 3: the
    z-coordinate of such a word is never of the form a*z + b.
    """
    if phi.surface.degree < 3:
        raise DegreeGate("z-degree lemma requires deg(p) >= 3")
    for g in phi.word:
        if not isinstance(g, (XShear, YShear)):
            raise InvalidGenerator("z_x_degree expects a word of shears only")
    if not phi.word:
        return ZDegreeVerdict(0, True)
    return ZDegreeVerdict(max((abs(n) for n in phi.img_z.coeffs), default=0), False)


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


# -- flows of shear fields -----------------------------------------------------


class FlowMap:
    """The flow t -> F_t of a shear field SF_i (x- or y-kind).

    F_t is the single shear with parameter t*u^i (u = x for x-shears, u = y
    for y-shears): in the chart u != 0 it is (u, z) -> (u, z + t u^(i+1)).
    """

    __slots__ = ("surface", "kind", "i")

    def __init__(self, surface: SurfaceConfig, kind: str, i: int):
        if kind not in ("x", "y"):
            raise ValueError("flow kind must be 'x' or 'y'")
        if i < 0:
            raise ValueError("shear index must be >= 0")
        self.surface = surface
        self.kind = kind
        self.i = i

    def _shear(self, t) -> Generator:
        f = UniPoly.monomial(self.i, t)
        return XShear(f) if self.kind == "x" else YShear(f)

    def at(self, t) -> PolynomialAutomorphism:
        """The time-t automorphism (its constructor checks the surface relation)."""
        return PolynomialAutomorphism(self.surface, [self._shear(t)])

    def generator_field(self) -> AlgebraicVectorField:
        return (shear_x if self.kind == "x" else shear_y)(self.surface, self.i)


def flow_of_shear(surface: SurfaceConfig, kind: str, i: int) -> FlowMap:
    return FlowMap(surface, kind, i)


def flow_group_law(flow: FlowMap) -> bool:
    """F_r o F_t = F_(t+r) identically in t and r.

    The composite is formed by substitution, without the merge rule of
    ``normalize_word``: its coordinate images are those of F_r pulled back
    along F_t.  They, like those of F_(t+r), have degree <= d = deg p in t
    and in r separately: u goes to u, z to z + (t + r) u^(i+1), and the
    third coordinate to p(z + (t + r) u^(i+1))/u.  A polynomial of degree
    <= d in each of two variables that vanishes on the grid {0..d}^2 is
    zero, so agreement on that grid proves the identity.
    """
    d = flow.surface.degree
    at = [flow.at(s) for s in range(2 * d + 1)]
    for t in range(d + 1):
        for r in range(d + 1):
            f_r, f_tr = at[r], at[t + r]
            composed = [apply_auto(at[t], g) for g in (f_r.img_x, f_r.img_y, f_r.img_z)]
            if composed != [f_tr.img_x, f_tr.img_y, f_tr.img_z]:
                return False
    return True


# -- polynomial Taylor expansion of flow conjugation ----------------------------


def taylor_conjugation(
    theta: AlgebraicVectorField,
    psi: AlgebraicVectorField,
    max_terms: int = 64,
) -> list[AlgebraicVectorField]:
    """The fields ad_theta^k(psi)/k! until zero; theta must be an LND."""
    verdict = lnd_check(theta)
    if not verdict.nilpotent:
        raise NotNilpotent("flow generator failed the nilpotency check")
    terms = [psi]
    k = 0
    while not terms[-1].is_zero():
        if k >= max_terms:
            raise NotNilpotent("bracket iteration did not terminate within the bound")
        k += 1
        terms.append(bracket(theta, terms[-1]).scale(Fraction(1, k)))
    return terms[:-1] if len(terms) > 1 else terms


def taylor_flow_identity(flow: FlowMap, psi: AlgebraicVectorField) -> bool:
    """(F_t)_* psi = sum_k t^k ad_theta^k(psi)/k! identically in t.

    Both sides are compared exactly at t = 0..B, the left one computed by
    ``conjugate_field`` as psi(g o F_-t) o F_t.  In the chart u != 0 of
    the flow's own variable the coordinates are (u, z) and F_t only sends
    z -> z + t u^(i+1).  Let D be the largest z-degree among the chart
    coefficients of psi(u) and psi(z): a term u^n q(z) has degree deg q for
    n >= 0 and deg q + (-n) deg p for n < 0, since v^m = u^(-m) p^m for the
    other variable v.  Then

        (F_t)_* psi (u) = psi(u) o F_t                          has t-degree <= D,
        (F_t)_* psi (z) = (psi(z) - t (i+1) u^i psi(u)) o F_t   has t-degree <= D + 1,

    and the series has t-degree len(terms) - 1.  On u and z the two sides
    therefore differ by a polynomial in t of degree <= B, with
    B = max(len(terms) - 1, D + 1), which vanishes once it vanishes at
    B + 1 points.  The third image follows from the other two by tangency,
    x*img_y + y*img_x = p'(z)*img_z, since the ring is a domain.
    """
    terms = taylor_conjugation(flow.generator_field(), psi)
    s = flow.surface
    if flow.kind == "x":
        images = (psi.img_x, psi.img_z)
    else:
        images = (psi.img_y.swap_xy(), psi.img_z.swap_xy())
    d = max((q.degree + max(-n, 0) * s.degree for e in images for n, q in e.coeffs.items()),
            default=0)
    for t in range(max(len(terms) - 1, d + 1) + 1):
        lhs = conjugate_field(flow.at(t), psi)
        for name in ("img_x", "img_y", "img_z"):
            rhs = s.zero()
            for k, field in enumerate(terms):
                rhs = rhs + getattr(field, name).scale(t**k)
            if getattr(lhs, name) != rhs:
                return False
    return True
