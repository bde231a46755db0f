"""Algebraic vector fields on the surface x*y = p(z).

A field is stored as the images of the coordinate generators under the
derivation; the tangency identity y*imgX + x*imgY - p'(z)*imgZ = 0 (the
derivation annihilates xy - p(z)) is checked at construction.

Volume-preserving fields are in bijection with polynomial functions modulo
constants through the volume form omega = dx/x ^ dz on the chart x != 0:
i_Theta omega = df defines the potential f of Theta.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InternalInvariantViolation,
    NotOnSurface,
    NotVolumePreserving,
    PointNotOnSurface,
    ResidueObstruction,
    TangencyViolation,
)
from .ring import (
    ChartElement,
    SurfaceConfig,
    SurfacePolynomial,
    UniPoly,
    from_chart,
    row_reduce,
    to_chart,
)


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
    pprime_xi = SurfacePolynomial(
        surface,
        {(i, j): v for j, v in surface.p_prime.c.items()} if i > 0 else {},
        {},
        surface.p_prime if i == 0 else UniPoly(),
    )
    return AlgebraicVectorField(surface.zero(), pprime_xi, surface.x(i + 1))


def shear_y(surface: SurfaceConfig, i: int) -> AlgebraicVectorField:
    """SF_i^y = p'(z) y^i d/dx + y^(i+1) d/dz."""
    if i < 0:
        raise ValueError("shear index must be >= 0")
    pprime_yi = SurfacePolynomial(
        surface,
        {},
        {(i, j): v for j, v in surface.p_prime.c.items()} if i > 0 else {},
        surface.p_prime if i == 0 else UniPoly(),
    )
    return AlgebraicVectorField(pprime_yi, surface.zero(), surface.y(i + 1))


def hyperbolic(surface: SurfaceConfig, f: UniPoly) -> AlgebraicVectorField:
    """HF_f = f(z) (x d/dx - y d/dy)."""
    img_x = SurfacePolynomial(surface, {(1, j): v for j, v in f.c.items()}, {}, UniPoly())
    img_y = SurfacePolynomial(surface, {}, {(1, j): -v for j, v in f.c.items()}, UniPoly())
    return AlgebraicVectorField(img_x, img_y, surface.zero())


def apply_field(theta: AlgebraicVectorField, f: SurfacePolynomial) -> SurfacePolynomial:
    """Theta(f) by the Leibniz rule on the normal-form representative."""
    return (
        f.partial_x() * theta.img_x
        + f.partial_y() * theta.img_y
        + f.partial_z() * theta.img_z
    )


def bracket(theta: AlgebraicVectorField, psi: AlgebraicVectorField) -> AlgebraicVectorField:
    return AlgebraicVectorField(
        apply_field(theta, psi.img_x) - apply_field(psi, theta.img_x),
        apply_field(theta, psi.img_y) - apply_field(psi, theta.img_y),
        apply_field(theta, psi.img_z) - apply_field(psi, theta.img_z),
    )


@dataclass(frozen=True)
class ChartOneForm:
    """The 1-form gX dx + gZ dz on the chart x != 0."""

    g_x: ChartElement
    g_z: ChartElement


def interior_product(theta: AlgebraicVectorField) -> ChartOneForm:
    """i_Theta omega for omega = dx/x ^ dz: gX = -imgZ/x, gZ = imgX/x."""
    g_x = (-to_chart(theta.img_z)).shift(-1)
    g_z = to_chart(theta.img_x).shift(-1)
    return ChartOneForm(g_x, g_z)


def is_volume_preserving(theta: AlgebraicVectorField) -> bool:
    """Exact closedness test for i_Theta omega."""
    form = interior_product(theta)
    return form.g_x.diff_z() == form.g_z.diff_x()


def canonical_potential(f: SurfacePolynomial) -> SurfacePolynomial:
    """Canonical representative modulo constants."""
    return f.drop_constant()


def potential_of(theta: AlgebraicVectorField) -> SurfacePolynomial:
    """The f with i_Theta omega = df, canonicalized to zero constant term."""
    if not is_volume_preserving(theta):
        raise NotVolumePreserving("field has no potential: i_Theta omega is not closed")
    form = interior_product(theta)
    # Integrate gZ in z (zero integration constants), then fix up in x: the
    # difference h = gX - dF/dx is independent of z by closedness.
    f_chart = form.g_z.integrate_z()
    h = form.g_x - f_chart.diff_x()
    extra: dict = {}
    for k, q in h.coeffs.items():
        if q.degree > 0:
            raise InternalInvariantViolation("closedness fix-up term depends on z")
        if k == -1:
            raise ResidueObstruction(
                "nonzero x^-1 residue: the 1-form is closed but not exact"
            )
        extra[k + 1] = q.scale(Fraction(1, k + 1))
    f_chart = f_chart + ChartElement(theta.surface, extra)
    return from_chart(f_chart).drop_constant()


def hamiltonian_of(f: SurfacePolynomial) -> AlgebraicVectorField:
    """The volume-preserving field with potential f (inverse of potential_of)."""
    s = f.surface
    f_chart = to_chart(f)
    c_x = f_chart.diff_z().shift(1)
    c_z = (-f_chart.diff_x()).shift(1)
    # Tangency determines imgY: x*imgY = p'(z)*imgZ - y*imgX.
    p_prime = ChartElement(s, {0: s.p_prime})
    y_chart = ChartElement(s, {-1: s.p})
    c_y = (p_prime * c_z - y_chart * c_x).shift(-1)
    try:
        return AlgebraicVectorField(from_chart(c_x), from_chart(c_y), from_chart(c_z))
    except (NotOnSurface, TangencyViolation) as exc:
        raise InternalInvariantViolation(f"hamiltonian construction failed: {exc}")


def function_bracket(f: SurfacePolynomial, g: SurfacePolynomial) -> SurfacePolynomial:
    """Poisson-type bracket {f, g}: the potential of [H_f, H_g]."""
    return canonical_potential(apply_field(hamiltonian_of(f), g))


@dataclass(frozen=True)
class LndVerdict:
    nilpotent: bool
    degree: int | None
    bound: int

    def __str__(self):
        if self.nilpotent:
            return f"NilpotentWithDegree({self.degree})"
        return f"NotNilpotentWithinBound({self.bound})"


def lnd_check(theta: AlgebraicVectorField, max_iter: int = 64) -> LndVerdict:
    """Least N with Theta^N killing all of x, y, z, within the bound."""
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
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
    from .ring import poly_gcd

    fields = [shear_x(surface, 0), shear_y(surface, 0)]
    p_prime = surface.p_prime
    g = poly_gcd(p_prime, p_prime.derivative())
    n_roots = int(p_prime.degree - (g.degree if not g.is_zero() else 0))
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
    rows = [list(th.eval_at(x0, y0, z0)) for th in fields]
    return len(row_reduce(rows, 3)) == 2
