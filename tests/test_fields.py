"""Vector fields, potentials, Hamiltonians, nilpotency and flexibility.

Oracles: point evaluation for derivation identities, hand-computed bracket
tables for the standard fields, and explicit potentials which were derived
independently by integrating the interior-product one-form by hand:

    potential(SFx(i)) = -x^(i+1)/(i+1)      potential(SFy(i)) = y^(i+1)/(i+1)
    potential(HF(q))  = antiderivative(q)(z)
"""

import inspect
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from danielewski import (
    AlgebraicVectorField,
    NotVolumePreserving,
    PointNotOnSurface,
    TangencyViolation,
    UniPoly,
    bracket,
    canonical_potential,
    default_flex_fields,
    flex_check,
    hamiltonian_of,
    hyperbolic,
    is_volume_preserving,
    lnd_check,
    make_surface,
    potential_of,
    shear_x,
    shear_y,
    zero_field,
)
from danielewski import fields
from danielewski.fields import apply_field, poisson_bracket
from danielewski.ring import SurfacePolynomial

from conftest import P_CUBIC, P_QUAD, P_QUARTIC2, random_surface_polynomial, upoly
from oracles import poisson_by_quotient

RNG_SEED = 31415


def random_vp_field(surface, rng, max_deg=5):
    """Random volume-preserving field, built as a Hamiltonian field."""
    return hamiltonian_of(random_surface_polynomial(surface, rng, max_deg))


# ---- construction and tangency ---------------------------------------------------


def test_tangency_enforced(quad):
    with pytest.raises(TangencyViolation):
        AlgebraicVectorField(quad.const(1), quad.zero(), quad.zero())
    # SFx(0): x d/dz + p'(z) d/dy is tangent
    shear_x(quad, 0)


def test_standard_field_images(quad):
    sf = shear_x(quad, 1)
    assert sf.img_x == quad.zero()
    assert sf.img_z == quad.x(2)  # x^(i+1) d/dz
    hf = hyperbolic(quad, UniPoly.const(1))
    assert hf.img_x == quad.x() and hf.img_y == -quad.y()
    assert hf.img_z.is_zero()


def test_apply_field_is_a_derivation(cubic):
    rng = random.Random(RNG_SEED)
    th = shear_x(cubic, 1)
    for _ in range(10):
        f = random_surface_polynomial(cubic, rng, 4)
        g = random_surface_polynomial(cubic, rng, 4)
        assert apply_field(th, f * g) == apply_field(th, f) * g + f * apply_field(th, g)


def test_bracket_axioms(cubic):
    rng = random.Random(RNG_SEED + 1)
    fields = [shear_x(cubic, 0), shear_y(cubic, 1),
              hyperbolic(cubic, upoly({1: 1})), random_vp_field(cubic, rng, 3)]
    for a in fields:
        assert bracket(a, a).is_zero()
        for b in fields:
            assert bracket(a, b) == bracket(b, a).scale(-1)
    a, b, c = fields[:3]
    jac = (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
           + bracket(c, bracket(a, b)))
    assert jac.is_zero()


def test_bracket_matches_commutator_on_functions(cubic):
    rng = random.Random(RNG_SEED + 2)
    a, b = shear_x(cubic, 0), shear_y(cubic, 2)
    for _ in range(8):
        f = random_surface_polynomial(cubic, rng, 4)
        lhs = apply_field(bracket(a, b), f)
        rhs = apply_field(a, apply_field(b, f)) - apply_field(b, apply_field(a, f))
        assert lhs == rhs


# ---- divergence / volume form ------------------------------------------------------


def test_standard_fields_are_volume_preserving(quad, cubic):
    for s in (quad, cubic):
        for th in (shear_x(s, 0), shear_x(s, 3), shear_y(s, 2),
                   hyperbolic(s, upoly({2: 1, 0: -1}))):
            assert is_volume_preserving(th)


def test_non_volume_preserving_detected(quad):
    # z * SFx(0) is tangent but its one-form -z dx/x is not closed
    th = shear_x(quad, 0)
    bad = AlgebraicVectorField(th.img_x * quad.z(), th.img_y * quad.z(),
                               th.img_z * quad.z())
    assert not is_volume_preserving(bad)
    with pytest.raises(NotVolumePreserving):
        potential_of(bad)


# ---- potentials ---------------------------------------------------------------------


def test_potentials_of_standard_fields(quad, cubic):
    for s in (quad, cubic):
        for i in range(4):
            assert potential_of(shear_x(s, i)) == s.x(i + 1, 0, Fraction(-1, i + 1))
            assert potential_of(shear_y(s, i)) == s.y(i + 1, 0, Fraction(1, i + 1))
        for q in (UniPoly.const(1), upoly({1: 1}), upoly({2: 3, 0: -2})):
            assert potential_of(hyperbolic(s, q)) == s.from_unipoly(
                q.antiderivative())


def test_potential_hamiltonian_roundtrip(quad, cubic):
    rng = random.Random(RNG_SEED + 3)
    for s in (quad, cubic):
        for _ in range(20):
            f = canonical_potential(random_surface_polynomial(s, rng, 6))
            assert potential_of(hamiltonian_of(f)) == f
        for _ in range(10):
            th = random_vp_field(s, rng, 5)
            assert hamiltonian_of(potential_of(th)) == th


def test_canonical_potential_drops_constant(quad):
    f = quad.z() + quad.const(7)
    assert canonical_potential(f) == quad.z()


def test_bracket_potential_is_field_applied_to_potential(cubic):
    # potential([Psi, Theta]) = Psi(potential(Theta)) for volume-preserving
    # Psi, Theta -- the key identity behind certificate verification.
    rng = random.Random(RNG_SEED + 4)
    for _ in range(10):
        psi = random_vp_field(cubic, rng, 4)
        th = random_vp_field(cubic, rng, 4)
        lhs = potential_of(bracket(psi, th))
        rhs = canonical_potential(apply_field(psi, potential_of(th)))
        assert lhs == rhs


def test_function_bracket_matches_field_bracket(quad):
    rng = random.Random(RNG_SEED + 5)
    for s in (quad, make_surface(P_QUARTIC2)):
        for _ in range(8):
            f = canonical_potential(random_surface_polynomial(s, rng, 4))
            g = canonical_potential(random_surface_polynomial(s, rng, 4))
            lhs = hamiltonian_of(poisson_bracket(f, g))
            rhs = bracket(hamiltonian_of(f), hamiltonian_of(g))
            assert lhs == rhs


_SURFACES = [make_surface(p) for p in (P_QUAD, P_CUBIC, P_QUARTIC2, upoly({5: 1, 1: -1, 0: 1}))]
_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_unipolys = st.dictionaries(st.integers(0, 3), _fractions, max_size=3).map(UniPoly)


@st.composite
def _potential_pairs(draw):
    """Two elements of one surface over weights -3..3, constant terms included."""
    s = draw(st.sampled_from(_SURFACES))
    elements = st.dictionaries(st.integers(-3, 3), _unipolys, max_size=4)
    return SurfacePolynomial(s, draw(elements)), SurfacePolynomial(s, draw(elements))


@settings(max_examples=200, deadline=None)
@given(_potential_pairs())
def test_poisson_bracket_matches_the_chart_quotient(pair):
    f, g = pair
    assert poisson_bracket(f, g) == poisson_by_quotient(f, g)


def test_one_leibniz_rule_and_no_division_by_x():
    """Every derivation is applied by ``_leibniz``, and the field calculus
    divides by x nowhere: the Poisson bracket is H_f(g), not a chart
    quotient.  The one exact quotient by x is ``ring``'s ``div_x``."""
    src = Path(__file__).parents[1] / "src" / "danielewski"
    partials = re.compile(r"\.partial_[xyz]\(")
    in_leibniz = len(partials.findall(inspect.getsource(fields._leibniz)))
    assert in_leibniz == 3
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        expected = in_leibniz if path.name == "fields.py" else 0
        assert len(partials.findall(text)) == expected, path.name
        assert not re.search(r"\bfunction_bracket\b", text), path.name
        assert ("def div_x(" in text) == (path.name == "ring.py"), path.name
    assert not re.search(r"\bdiv_x\b", (src / "fields.py").read_text())


def test_bracket_table_x_shears_commute(cubic):
    for i in range(3):
        for j in range(3):
            assert bracket(shear_x(cubic, i), shear_x(cubic, j)).is_zero()
            assert bracket(shear_y(cubic, i), shear_y(cubic, j)).is_zero()


def test_bracket_shear_x_shear_y_same_index(quad, cubic):
    # [SFx(i), SFy(i)] = HF((p^i p')')
    for s in (quad, cubic):
        for i in range(3):
            lhs = bracket(shear_x(s, i), shear_y(s, i))
            assert lhs == hyperbolic(s, ((s.p ** i) * s.p_prime).derivative())


# ---- nilpotency ----------------------------------------------------------------------


def test_shears_are_nilpotent(quad, cubic):
    for s in (quad, cubic):
        for i in range(3):
            v = lnd_check(shear_x(s, i))
            assert v.nilpotent and v.degree <= s.degree + 2
            assert lnd_check(shear_y(s, i)).nilpotent


def test_hyperbolic_is_not_nilpotent(quad):
    v = lnd_check(hyperbolic(quad, UniPoly.const(1)), max_iter=20)
    assert not v.nilpotent and v.bound == 20


# ---- flexibility ------------------------------------------------------------------------


def test_flex_at_smooth_points(quad, cubic):
    assert flex_check(quad, (Fraction(1), Fraction(0), Fraction(1)))
    assert flex_check(cubic, (Fraction(1), Fraction(0), Fraction(1)))


def test_flex_rejects_offsurface_point(quad):
    with pytest.raises(PointNotOnSurface):
        flex_check(quad, (Fraction(1), Fraction(1), Fraction(1)))


def test_single_field_cannot_span(quad):
    fields = [shear_x(quad, 0)]
    assert not flex_check(quad, (Fraction(1), Fraction(0), Fraction(1)), fields)


def test_default_flex_fields_are_volume_preserving(quad, cubic):
    for s in (quad, cubic):
        for th in default_flex_fields(s):
            assert is_volume_preserving(th)


def test_zero_field_basics(quad):
    z = zero_field(quad)
    assert z.is_zero()
    assert bracket(z, shear_x(quad, 0)).is_zero()
    assert potential_of(z) == quad.zero()
