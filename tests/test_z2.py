"""The involution sigma(x, y, z) = (-x, -y, -z) on the surface xy = z^2 - 1.

Oracle: sigma's action on points, the hand-computed grading of monomials,
and independent verification of every produced certificate.
"""

from fractions import Fraction

import pytest

from danielewski import (
    ParityViolation,
    UniPoly,
    WrongSurface,
    apply_auto,
    conjugate_field,
    hyperbolic,
    invariant_leaves_only,
    make_surface,
    shear_x,
    shear_y,
    verify_certificate,
    z2_avdp_check,
    z2_certificate,
)

from conftest import P_CUBIC, upoly
from oracles import sigma


def test_gate_on_other_surfaces():
    cubic = make_surface(P_CUBIC)
    with pytest.raises(WrongSurface):
        z2_certificate(cubic.z())
    with pytest.raises(WrongSurface):
        z2_avdp_check(cubic, 3)


def test_sigma_is_an_involution(quad):
    for e in (quad.x(2, 3), quad.y(1, 1), quad.z(), quad.x() + quad.z() ** 2):
        assert apply_auto(sigma(quad), apply_auto(sigma(quad), e)) == e


def test_sigma_point_action(quad):
    # sigma: (x, y, z) -> (-x, -y, -z); check on a point of the surface
    e = quad.x(1, 2) + quad.y(2, 1) + quad.z() ** 3
    x0, z0 = Fraction(2), Fraction(3)
    y0 = quad.p.eval(z0) / x0
    assert apply_auto(sigma(quad), e).eval_at(x0, y0, z0) == e.eval_at(-x0, -y0, -z0)


def test_grading_splits_correctly(quad):
    e = quad.z() + quad.z() ** 2 + quad.x(1, 1) + quad.x(2, 0)
    se = apply_auto(sigma(quad), e)
    invariant, anti = (e + se).scale(Fraction(1, 2)), (e - se).scale(Fraction(1, 2))
    assert invariant + anti == e
    assert apply_auto(sigma(quad), invariant) == invariant
    assert apply_auto(sigma(quad), anti) == -anti
    # invariant monomials are those of even total degree
    assert anti == quad.z()


def test_invariant_fields(quad):
    def invariant(theta):
        return conjugate_field(sigma(quad), theta) == theta

    assert invariant(hyperbolic(quad, UniPoly.const(1)))
    assert invariant(shear_x(quad, 0))   # even index
    assert not invariant(shear_x(quad, 1))
    assert invariant(shear_y(quad, 2))
    assert not invariant(shear_y(quad, 3))
    assert invariant(hyperbolic(quad, upoly({2: 1})))
    assert not invariant(hyperbolic(quad, upoly({1: 1})))


def test_certificate_for_anti_invariant_monomials(quad):
    cases = [quad.z(), quad.x(1, 0), quad.x(2, 1), quad.y(1, 2),
             quad.from_unipoly(upoly({3: 1})), quad.x(3, 0), quad.y(2, 1)]
    for f in cases:
        cert = z2_certificate(f)
        assert verify_certificate(quad, cert, f)
        assert invariant_leaves_only(cert)


def test_certificate_rejects_invariant_input(quad):
    with pytest.raises(ParityViolation):
        z2_certificate(quad.z() ** 2)
    with pytest.raises(ParityViolation):
        z2_certificate(quad.x(1, 1))


def test_report_all_verified(quad):
    rows = z2_avdp_check(quad, 5)
    assert rows and all(r.verified for r in rows)
    # every odd-total-degree monomial in x^i z^j / y^i z^j / z^j appears
    names = {r.monomial for r in rows}
    assert len(names) == len(rows)
