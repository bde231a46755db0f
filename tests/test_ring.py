"""Ring arithmetic in the normal form x-part + y-part + z-part.

Independent oracle: evaluation at random rational points of the surface,
parametrized as (x0, p(z0)/x0, z0) with x0 != 0.
"""

import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from danielewski import (
    DegreeGate,
    InternalInvariantViolation,
    RepeatedRoot,
    UniPoly,
    ZeroPolynomial,
    make_surface,
)
from danielewski.ring import (
    _P_TABLE_MAX,
    MAX_DIGITS,
    bezout,
    formal_add,
    formal_mul,
    from_chart,
    poly_divrem,
    reduce,
    to_chart,
)

from conftest import P_CUBIC, P_QUAD, P_QUARTIC2, random_surface_polynomial, upoly

RNG_SEED = 20260826


def surface_points(surface, rng, n):
    pts = []
    while len(pts) < n:
        x0 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        z0 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if x0 == 0:
            continue
        pts.append((x0, surface.p.eval(z0) / x0, z0))
    return pts


# ---- UniPoly ------------------------------------------------------------------

coeff = st.fractions(max_denominator=6, min_value=-9, max_value=9)
unipolys = st.dictionaries(st.integers(0, 6), coeff, max_size=5).map(UniPoly)


@given(unipolys, unipolys, unipolys)
def test_unipoly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a - a == UniPoly()


@given(unipolys, unipolys)
def test_unipoly_eval_is_homomorphism(a, b):
    for t in (Fraction(0), Fraction(2), Fraction(-3, 2)):
        assert (a * b).eval(t) == a.eval(t) * b.eval(t)
        assert (a + b).eval(t) == a.eval(t) + b.eval(t)


@given(unipolys, unipolys)
def test_unipoly_compose_eval(a, b):
    for t in (Fraction(1), Fraction(-1, 2)):
        assert a.compose(b).eval(t) == a.eval(b.eval(t))


@given(unipolys)
def test_derivative_antiderivative(a):
    assert a.antiderivative().derivative() == a
    # Leibniz rule
    b = upoly({2: 1, 0: 3})
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


@given(unipolys, unipolys)
def test_divrem_and_gcd(a, b):
    if b.is_zero():
        return
    q, r = poly_divrem(a, b)
    assert q * b + r == a
    assert r.degree < b.degree
    u, v, g = bezout(a, b)
    assert g.lead() == 1
    if not a.is_zero():
        assert poly_divrem(a, g)[1].is_zero()
    assert poly_divrem(b, g)[1].is_zero()
    assert u * a + v * b == g


# ---- surface construction ------------------------------------------------------


def test_surface_rejects_zero_and_repeated_roots():
    with pytest.raises(ZeroPolynomial):
        make_surface(UniPoly())
    with pytest.raises(RepeatedRoot):
        make_surface(upoly({2: 1, 1: -2, 0: 1}))  # (z-1)^2
    with pytest.raises(ZeroPolynomial):
        make_surface(upoly({0: 5}))  # constants are rejected too


def test_bezout_identity_for_surface(cubic):
    assert cubic.gcd_u * cubic.p + cubic.gcd_v * cubic.p_prime == UniPoly.const(1)


@pytest.mark.parametrize("p", [P_QUAD, P_CUBIC, P_QUARTIC2,
                               upoly({1: Fraction(1, 7), 0: Fraction(1, 2)})],
                         ids=["z^2-1", "z^3-z", "z^4-z", "z/7+1/2"])
def test_p_power_table(p):
    """p_power keeps p^0..p^_P_TABLE_MAX per surface, and the products that
    share its entries leave them intact."""
    powers = [UniPoly.const(1)]
    for _ in range(_P_TABLE_MAX + 3):
        powers.append(powers[-1] * p)
    s = make_surface(p)
    for f, g in ((s.y(5), s.x(3)), (s.y(4), s.y(2)), (s.y(3, 1), s.x(2, 2) + s.y(1))):
        f * g
    assert 6 < len(s._p_powers) and s._p_powers == powers[: len(s._p_powers)]
    order = list(range(_P_TABLE_MAX + 4))
    random.Random(RNG_SEED).shuffle(order)
    for m in order:
        assert s.p_power(m) == powers[m]
        assert len(s._p_powers) <= _P_TABLE_MAX + 1
    assert len(s._p_powers) == _P_TABLE_MAX + 1


def test_p_power_gate_comes_before_the_table():
    s = make_surface(upoly({1: 1, 0: -int("9" * (MAX_DIGITS - 1))}))
    assert s.max_p_power == 1 and s.p_power(1) == s.p
    stored = len(s._p_powers)
    with pytest.raises(DegreeGate):
        s.p_power(s.max_p_power + 1)
    assert len(s._p_powers) == stored


# ---- normal form and evaluation oracle ------------------------------------------


def test_xy_reduces_to_p(quad, cubic):
    for s in (quad, cubic):
        assert s.x() * s.y() == s.from_unipoly(s.p)


def test_normal_form_has_no_mixed_terms(cubic):
    f = (cubic.x(2, 1) + cubic.y(1, 2)) * (cubic.x(1, 0) - cubic.y(3, 1))
    for (i, j) in list(f.xpart) + list(f.ypart):
        assert i >= 1 and j >= 0
    # x^a y^b never survives reduction: multiply and check against the oracle
    rng = random.Random(RNG_SEED)
    for (x0, y0, z0) in surface_points(cubic, rng, 10):
        lhs = (cubic.x(2, 1) + cubic.y(1, 2)).eval_at(x0, y0, z0) * (
            cubic.x(1, 0) - cubic.y(3, 1)
        ).eval_at(x0, y0, z0)
        assert f.eval_at(x0, y0, z0) == lhs


def test_arithmetic_against_point_oracle(quad, cubic):
    rng = random.Random(RNG_SEED + 1)
    for s in (quad, cubic):
        pts = surface_points(s, rng, 8)
        for _ in range(25):
            a = random_surface_polynomial(s, rng)
            b = random_surface_polynomial(s, rng)
            for (x0, y0, z0) in pts:
                va, vb = a.eval_at(x0, y0, z0), b.eval_at(x0, y0, z0)
                assert (a + b).eval_at(x0, y0, z0) == va + vb
                assert (a * b).eval_at(x0, y0, z0) == va * vb
                assert (a - b).eval_at(x0, y0, z0) == va - vb
                assert (a.scale(Fraction(3, 7))).eval_at(x0, y0, z0) == va * Fraction(3, 7)


def test_ring_axioms_in_normal_form(cubic):
    rng = random.Random(RNG_SEED + 2)
    for _ in range(20):
        a = random_surface_polynomial(cubic, rng, 4)
        b = random_surface_polynomial(cubic, rng, 4)
        c = random_surface_polynomial(cubic, rng, 4)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


# ---- charts: {power of x: q(z)} Laurent dicts ---------------------------------


def _laurent(terms) -> dict:
    """Collect (power of x, q) pairs into a chart dict without zero values."""
    c = {}
    for k, q in terms:
        c[k] = c[k] + q if k in c else q
    return {k: q for k, q in c.items() if not q.is_zero()}


def test_chart_roundtrip(quad, cubic):
    rng = random.Random(RNG_SEED + 3)
    for s in (quad, cubic):
        for _ in range(30):
            f = random_surface_polynomial(s, rng)
            assert from_chart(s, to_chart(f)) == f


def test_from_chart_rejects_nonpolynomial(quad):
    # 1/x alone is not regular on the surface: p = z^2 - 1 does not divide 1
    with pytest.raises(InternalInvariantViolation):
        from_chart(quad, {-1: UniPoly.const(1)})


def test_y_in_chart_is_p_over_x(quad):
    ch = to_chart(quad.y())
    assert set(ch) == {-1}
    assert ch[-1] == quad.p


def test_to_chart_is_ring_homomorphism(cubic):
    rng = random.Random(RNG_SEED + 4)
    for _ in range(15):
        a = random_surface_polynomial(cubic, rng, 4)
        b = random_surface_polynomial(cubic, rng, 4)
        ca, cb = to_chart(a), to_chart(b)
        assert to_chart(a * b) == _laurent(
            (k1 + k2, q1 * q2) for k1, q1 in ca.items() for k2, q2 in cb.items()
        )
        assert to_chart(a + b) == _laurent([*ca.items(), *cb.items()])


def test_negative_power_is_rejected(cubic):
    with pytest.raises(ValueError):
        UniPoly.var() ** -1
    with pytest.raises(ValueError):
        cubic.x() ** -1


def test_power_matches_repeated_product(cubic):
    rng = random.Random(RNG_SEED + 5)
    f = random_surface_polynomial(cubic, rng, 3)
    q = upoly({0: 2, 1: -1, 3: Fraction(1, 2)})
    acc_f, acc_q = cubic.const(1), UniPoly.const(1)
    for n in range(6):
        assert f**n == acc_f and q**n == acc_q
        acc_f, acc_q = acc_f * f, acc_q * q


# ---- the weight-graded layout ------------------------------------------------------


def test_graded_layout_and_term_views(cubic):
    f = cubic.x(2, 1) + cubic.y(3, 2, 3) - cubic.z() + cubic.const(1)
    assert f.coeffs == {2: upoly({1: 1}), -3: upoly({2: 3}), 0: upoly({0: 1, 1: -1})}
    # the (power of x or y, power of z) views that external readers use
    assert f.xpart == {(2, 1): 1}
    assert f.ypart == {(3, 2): 3}
    assert f.zpart == upoly({0: 1, 1: -1})
    assert cubic.zero().coeffs == {} and cubic.zero().zpart == UniPoly()


def test_swap_xy_against_point_oracle(quad, cubic):
    rng = random.Random(RNG_SEED + 6)
    for s in (quad, cubic):
        pts = surface_points(s, rng, 6)
        for _ in range(15):
            f = random_surface_polynomial(s, rng)
            g = f.swap_xy()
            assert g.swap_xy() == f
            for (x0, y0, z0) in pts:
                assert g.eval_at(x0, y0, z0) == f.eval_at(y0, x0, z0)


def _random_formal(rng, max_exp, n_terms=5, normal=False):
    """Random formal polynomial; with ``normal``, no monomial has both x and y."""
    f = {}
    for _ in range(n_terms):
        a, b, c = (rng.randint(0, max_exp) for _ in range(3))
        if normal:
            a, b = rng.choice(((a, 0), (0, b)))
        f = formal_add(f, {(a, b, c): Fraction(rng.randint(-9, 9), rng.randint(1, 4))})
    return f


def _formal_diff(f, axis):
    out = {}
    for k, v in f.items():
        if k[axis]:
            lower = tuple(e - (n == axis) for n, e in enumerate(k))
            out = formal_add(out, {lower: v * k[axis]})
    return out


def test_partials_match_formal_derivative(quad, cubic):
    rng = random.Random(RNG_SEED + 7)
    for s in (quad, cubic):
        for _ in range(20):
            raw = _random_formal(rng, 5, normal=True)
            f = reduce(s, raw)
            assert f.partial_x() == reduce(s, _formal_diff(raw, 0))
            assert f.partial_y() == reduce(s, _formal_diff(raw, 1))
            assert f.partial_z() == reduce(s, _formal_diff(raw, 2))


def test_product_matches_formal_reduction(quad, cubic):
    # a chart-free oracle: multiply before reducing x*y to p(z)
    rng = random.Random(RNG_SEED + 8)
    for s in (quad, cubic, make_surface(P_QUARTIC2)):
        for max_exp, n_terms in ((3, 5), (6, 7)):
            for _ in range(20):
                a = _random_formal(rng, max_exp, n_terms)
                b = _random_formal(rng, max_exp, n_terms)
                assert reduce(s, formal_mul(a, b)) == reduce(s, a) * reduce(s, b)


def test_mixing_surfaces_is_an_invariant_violation(quad, cubic):
    with pytest.raises(InternalInvariantViolation):
        quad.x() + cubic.x()
    with pytest.raises(InternalInvariantViolation):
        quad.x() * cubic.x()


def test_only_ring_names_the_term_views():
    src = Path(__file__).parents[1] / "src" / "danielewski"
    for path in sorted(src.glob("*.py")):
        if path.name != "ring.py":
            assert not re.search(r"\b(xpart|ypart|zpart)\b", path.read_text()), path.name


def test_only_p_power_forms_powers_of_p():
    """Every power of p goes through SurfaceConfig.p_power and its table."""
    src = Path(__file__).parents[1] / "src" / "danielewski"
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        if path.name == "ring.py":
            start = text.index("    def p_power(")
            end = text.index("\n    def ", start + 1)
            text = text[:start] + text[end:]
        assert not re.search(r"\bp\s*\*\*", text), path.name


def test_only_ring_names_the_chart():
    src = Path(__file__).parents[1] / "src" / "danielewski"
    for path in sorted(src.glob("*.py")):
        if path.name != "ring.py":
            text = path.read_text()
            assert not re.search(r"\b(ChartElement|to_chart|from_chart)\b", text), path.name
