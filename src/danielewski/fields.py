"""Algebraic vector fields on the surface x*y = p(z).

A field is stored as the images of the coordinate generators under the
derivation; the tangency identity y*imgX + x*imgY - p'(z)*imgZ = 0 (the
derivation annihilates xy - p(z)) is checked at construction.

Volume-preserving fields are in bijection with polynomial functions modulo
constants through the volume form omega = dx/x ^ dz on the chart x != 0:
i_Theta omega = df defines the potential f of Theta.  On the weight grading
this takes two graded operators of the ring, the chart derivations

    E = x d/dx at fixed z:  the weight-n part times n,
    D = x d/dz at fixed x:  x^n q -> x^(n+1) q',  y^m q -> y^(m-1) (m p' q + p q'),

and the involution i = swap_xy.  Since i_Theta omega = (imgX dz - imgZ dx)/x,

    H_f = (D f, -i D i f, -E f),

where the y-image comes from omega = -dy/y ^ dz on the chart y != 0 (it is
also the one tangency allows).  Conversely -E f = imgZ fixes the weight-n
part of f as -(imgZ)_n / n for n != 0, and D f = imgX at weight 1 fixes the
pure-z part as the z-antiderivative of (imgX)_1.  Theta is volume-preserving
exactly when H_f = Theta for that f.  No residue check is needed: the
surface is simply connected, so a closed i_Theta omega is exact, and the f
above is the only candidate with zero constant term.

The Poisson bracket {f, g} = H_f(g), by the Leibniz rule of ``apply_field``,
is a potential of [H_f, H_g]; it depends on f and g only modulo constants.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DegreeGate,
    InternalInvariantViolation,
    NotVolumePreserving,
    PointNotOnSurface,
    TangencyViolation,
)
from .records import Record
from .ring import Echelon, SurfaceConfig, SurfacePolynomial, UniPoly, gcd


class AlgebraicVectorField:
    """Derivation of the coordinate ring, given by its values on x, y, z."""

    __slots__ = ("surface", "img_x", "img_y", "img_z")

    def __init__(
        self,
        img_x: SurfacePolynomial,
        img_y: SurfacePolynomial,
        img_z: SurfacePolynomial,
    ):
        s = img_x.surface
        if img_y.surface != s or img_z.surface != s:
            raise InternalInvariantViolation("field images on different surfaces")
        self.surface = s
        self.img_x = img_x
        self.img_y = img_y
        self.img_z = img_z
        tangency = (
            s.y() * img_x + s.x() * img_y - s.from_unipoly(s.p_prime) * img_z
        )
        if not tangency.is_zero():
            raise TangencyViolation(
                "images do not annihilate xy - p(z): not a derivation of the ring"
            )

    def is_zero(self) -> bool:
        return self.img_x.is_zero() and self.img_y.is_zero() and self.img_z.is_zero()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraicVectorField)
            and self.img_x == other.img_x
            and self.img_y == other.img_y
            and self.img_z == other.img_z
        )

    def __add__(self, other: "AlgebraicVectorField") -> "AlgebraicVectorField":
        return AlgebraicVectorField(
            self.img_x + other.img_x,
            self.img_y + other.img_y,
            self.img_z + other.img_z,
        )

    def __sub__(self, other: "AlgebraicVectorField") -> "AlgebraicVectorField":
        return self + other.scale(-1)

    def scale(self, v) -> "AlgebraicVectorField":
        return AlgebraicVectorField(
            self.img_x.scale(v), self.img_y.scale(v), self.img_z.scale(v)
        )

    def eval_at(self, x0, y0, z0) -> tuple[Fraction, Fraction, Fraction]:
        return (
            self.img_x.eval_at(x0, y0, z0),
            self.img_y.eval_at(x0, y0, z0),
            self.img_z.eval_at(x0, y0, z0),
        )

    def __repr__(self):
        return f"Field(x->{self.img_x!r}, y->{self.img_y!r}, z->{self.img_z!r})"


def zero_field(surface: SurfaceConfig) -> AlgebraicVectorField:
    z = surface.zero()
    return AlgebraicVectorField(z, z, z)


def shear_x(surface: SurfaceConfig, i: int) -> AlgebraicVectorField:
    """SF_i^x = p'(z) x^i d/dy + x^(i+1) d/dz."""
    if i < 0:
        raise ValueError("shear index must be >= 0")
    s = surface
    return AlgebraicVectorField(s.zero(), SurfacePolynomial(s, {i: s.p_prime}), s.x(i + 1))


def shear_y(surface: SurfaceConfig, i: int) -> AlgebraicVectorField:
    """SF_i^y = p'(z) y^i d/dx + y^(i+1) d/dz, the mirror of SF_i^x."""
    if i < 0:
        raise ValueError("shear index must be >= 0")
    s = surface
    return AlgebraicVectorField(SurfacePolynomial(s, {-i: s.p_prime}), s.zero(), s.y(i + 1))


def hyperbolic(surface: SurfaceConfig, f: UniPoly) -> AlgebraicVectorField:
    """HF_f = f(z) (x d/dx - y d/dy)."""
    s = surface
    return AlgebraicVectorField(
        SurfacePolynomial(s, {1: f}), SurfacePolynomial(s, {-1: -f}), s.zero()
    )


def _leibniz(
    f: SurfacePolynomial,
    img_x: SurfacePolynomial,
    img_y: SurfacePolynomial,
    img_z: SurfacePolynomial,
) -> SurfacePolynomial:
    """The derivation with these images of x, y, z applied to f, by the
    Leibniz rule on the normal-form representative."""
    return f.partial_x() * img_x + f.partial_y() * img_y + f.partial_z() * img_z


def apply_field(theta: AlgebraicVectorField, f: SurfacePolynomial) -> SurfacePolynomial:
    """Theta(f)."""
    return _leibniz(f, theta.img_x, theta.img_y, theta.img_z)


def bracket(theta: AlgebraicVectorField, psi: AlgebraicVectorField) -> AlgebraicVectorField:
    return AlgebraicVectorField(
        apply_field(theta, psi.img_x) - apply_field(psi, theta.img_x),
        apply_field(theta, psi.img_y) - apply_field(psi, theta.img_y),
        apply_field(theta, psi.img_z) - apply_field(psi, theta.img_z),
    )


def is_volume_preserving(theta: AlgebraicVectorField) -> bool:
    """True iff Theta has a potential (``potential_of``)."""
    try:
        potential_of(theta)
    except NotVolumePreserving:
        return False
    return True


def canonical_potential(f: SurfacePolynomial) -> SurfacePolynomial:
    """Canonical representative modulo constants."""
    return f.drop_constant()


def potential_of(theta: AlgebraicVectorField) -> SurfacePolynomial:
    """The f with i_Theta omega = df, canonicalized to zero constant term.

    Only one f with zero constant term can have H_f = Theta, and only the x-
    and z-images are compared: Theta and H_f are both tangent, so x*imgY =
    p'*imgZ - y*imgX fixes their y-images, and x is not a zero divisor.
    That spares the construction of H_f and its tangency check.
    """
    coeffs = {n: q.scale(Fraction(-1, n)) for n, q in theta.img_z.coeffs.items() if n}
    coeffs[0] = theta.img_x.coeff(1).antiderivative()
    f = SurfacePolynomial(theta.surface, coeffs)
    if theta.img_x != f.x_dz() or theta.img_z != -f.euler():
        raise NotVolumePreserving("field has no potential: i_Theta omega is not closed")
    return f


def hamiltonian_images(f: SurfacePolynomial):
    """The images (D f, -i D i f, -E f) of x, y, z under H_f."""
    return f.x_dz(), -f.swap_xy().x_dz().swap_xy(), -f.euler()


def hamiltonian_of(f: SurfacePolynomial) -> AlgebraicVectorField:
    """The volume-preserving field with potential f (inverse of potential_of).

    Its images are kept with shared small-integer coefficients
    (``SurfacePolynomial.with_shared``), as the field is a result.
    """
    try:
        return AlgebraicVectorField(*(e.with_shared() for e in hamiltonian_images(f)))
    except TangencyViolation as exc:
        raise InternalInvariantViolation(f"hamiltonian construction failed: {exc}")


def poisson_bracket(f: SurfacePolynomial, g: SurfacePolynomial) -> SurfacePolynomial:
    """{f, g} = H_f(g), not normalised: a potential of [H_f, H_g]."""
    return _leibniz(g, *hamiltonian_images(f))


class LndVerdict(Record):
    __slots__ = ("nilpotent", "degree", "bound")
    nilpotent: bool
    degree: int | None
    bound: int

    def __str__(self):
        if self.nilpotent:
            return f"NilpotentWithDegree({self.degree})"
        return f"NotNilpotentWithinBound({self.bound})"


# Ceiling on lnd_check's max_iter.  The iterates grow in degree, so the
# cost grows faster than the bound: on z^3 - z, HF(z^3 - z + 2) took 0.71 s
# at 256 and 13 s at 1024 (CPU time, Python 3.11, shared 2-core Xeon VM).
MAX_LND_ITER = 256
# The default bound of lnd_check and of the CLI's ``lnd-check --max-iter``.
DEFAULT_LND_ITER = 64


def lnd_check(theta: AlgebraicVectorField, max_iter: int = DEFAULT_LND_ITER) -> LndVerdict:
    """Least N with Theta^N killing all of x, y, z, within the bound.

    ``max_iter`` outside 1..MAX_LND_ITER raises DegreeGate.
    """
    if not 1 <= max_iter <= MAX_LND_ITER:
        raise DegreeGate(
            f"iteration bound {max_iter} is outside 1..MAX_LND_ITER = {MAX_LND_ITER}"
        )
    s = theta.surface
    worst = 0
    for g in (s.x(), s.y(), s.z()):
        e = g
        n = 0
        while not e.is_zero():
            if n >= max_iter:
                return LndVerdict(False, None, max_iter)
            e = apply_field(theta, e)
            n += 1
        worst = max(worst, n)
    return LndVerdict(True, worst, max_iter)


def default_flex_fields(surface: SurfaceConfig) -> list[AlgebraicVectorField]:
    """SF_0^x, SF_0^y and the shear-conjugated fields that cover the
    critical points of p' (one conjugate per distinct root of p')."""
    from .automorphisms import PolynomialAutomorphism, XShear, conjugate_field

    fields = [shear_x(surface, 0), shear_y(surface, 0)]
    p_prime = surface.p_prime
    # p' is not zero (deg p >= 1), so neither is the gcd
    n_roots = p_prime.degree - gcd(p_prime, p_prime.derivative()).degree
    for k in range(1, n_roots + 1):
        alpha = PolynomialAutomorphism(surface, [XShear(UniPoly.const(k))])
        fields.append(conjugate_field(alpha, shear_y(surface, 0)))
    return fields


def flex_check(
    surface: SurfaceConfig,
    point: tuple,
    fields: list[AlgebraicVectorField] | None = None,
) -> bool:
    """True iff the fields' values at the point span the tangent plane."""
    x0, y0, z0 = (Fraction(v) for v in point)
    if x0 * y0 != surface.p.eval(z0):
        raise PointNotOnSurface(f"({x0}, {y0}, {z0}) does not satisfy xy = p(z)")
    if fields is None:
        fields = default_flex_fields(surface)
    values = Echelon()
    for th in fields:
        values.add(dict(enumerate(th.eval_at(x0, y0, z0))))
    return len(values.pivots) == 2
