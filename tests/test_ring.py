"""Ring arithmetic in the normal form x-part + y-part + z-part.

Independent oracle: evaluation at random rational points of the surface,
parametrized as (x0, p(z0)/x0, z0) with x0 != 0.
"""

import gc
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from danielewski import (
    DegreeGate,
    DivisionByZeroPolynomial,
    InternalInvariantViolation,
    RepeatedRoot,
    SurfacePolynomial,
    UniPoly,
    ZeroPolynomial,
    make_surface,
)
from danielewski.parsing import formal_mul, parse_expression, reduce
from danielewski.ring import (
    _P_TABLE_MAX,
    HEIGHT,
    MAX_DIGITS,
    from_chart,
    gcd,
    poly_divrem,
    poly_rem_sparse,
    power,
    shared,
    table_add,
    to_chart,
)

from conftest import P_CUBIC, P_QUAD, P_QUARTIC, P_QUARTIC2, random_surface_polynomial, upoly
from oracles import bezout, divrem_by_products, max_p_power_by_steps

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
    g = gcd(a, b)
    assert g.lead() == 1
    if not a.is_zero():
        assert poly_divrem(a, g)[1].is_zero()
    assert poly_divrem(b, g)[1].is_zero()
    u, v, h = bezout(a, b)
    assert u * a + v * b == h == g


# ---- division against the reference, and the sparse remainder --------------------

nonzero = coeff.filter(bool)
# degree d with a nonzero, mostly non-monic, rational leading coefficient
divisors = st.builds(
    lambda low, d, lead: UniPoly({**{e: v for e, v in low.items() if e < d}, d: lead}),
    st.dictionaries(st.integers(0, 4), coeff, max_size=4),
    st.integers(0, 5),
    nonzero,
)
SURFACE_PS = st.sampled_from([P_QUAD, P_CUBIC, P_QUARTIC, P_QUARTIC2])
# exponents up to 10^6, few terms
sparse = st.dictionaries(st.integers(0, 10**6), nonzero, max_size=4).map(UniPoly)


def below(b: UniPoly, terms: dict) -> UniPoly:
    """The part of ``terms`` below deg b: a valid remainder for b."""
    return UniPoly({e: v for e, v in terms.items() if e < b.degree})


def assert_division(a, b, q, r):
    assert (q, r) == divrem_by_products(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


@given(unipolys, divisors)
def test_divrem_matches_the_reference(a, b):
    """Any dividend, zero and those below the divisor's degree included, by
    a non-monic rational divisor."""
    assert_division(a, b, *poly_divrem(a, b))


@given(SURFACE_PS, st.integers(0, 4), unipolys)
def test_exact_division_by_powers_of_p(p, k, c):
    a = c * p**k
    q, r = poly_divrem(a, p**k)
    assert q == c and r.is_zero()
    assert_division(a, p**k, q, r)


@given(sparse, divisors, st.dictionaries(st.integers(0, 4), coeff))
def test_sparse_dividend_of_high_degree(c, b, rest):
    """a = c*b + r with c sparse up to z^(10^6): the division takes one step
    per term of c, as the reference does."""
    r = below(b, rest)
    a = c * b + r
    q, rem = poly_divrem(a, b)
    assert q == c and rem == r
    assert_division(a, b, q, rem)


@settings(deadline=None)  # z^e mod p has digits in proportion to e on P_QUARTIC
@given(sparse, SURFACE_PS, unipolys)
def test_sparse_remainder_of_high_degree(c, p, rest):
    r = below(p, rest.c)
    assert poly_rem_sparse(c * p + r, p) == r


@given(unipolys, divisors)
def test_sparse_remainder_matches_divrem(a, b):
    assert poly_rem_sparse(a, b) == poly_divrem(a, b)[1]


@given(sparse, st.integers(1, 5), st.sampled_from([1, -1]), nonzero)
def test_sparse_remainder_modulo_a_binomial(a, k, c, lead):
    """z^e = c^(e // k) z^(e % k) modulo z^k - c for c = +-1: a remainder of a
    dividend of degree up to 10^6 that no quotient is needed to check."""
    m = UniPoly({k: lead, 0: -c * lead})
    expect = UniPoly()
    for e, v in a.c.items():
        expect = expect + UniPoly.monomial(e % k, v * c ** (e // k))
    assert poly_rem_sparse(a, m) == expect


def test_division_by_zero_is_refused():
    for f in (poly_divrem, poly_rem_sparse, divrem_by_products):
        with pytest.raises(DivisionByZeroPolynomial):
            f(upoly({1: 1}), UniPoly())


# ---- surface construction ------------------------------------------------------


def test_surface_rejects_zero_and_repeated_roots():
    with pytest.raises(ZeroPolynomial):
        make_surface(UniPoly())
    with pytest.raises(RepeatedRoot):
        make_surface(upoly({2: 1, 1: -2, 0: 1}))  # (z-1)^2
    with pytest.raises(ZeroPolynomial):
        make_surface(upoly({0: 5}))  # constants are rejected too


def test_bezout_identity_for_surface(cubic):
    u, v, g = bezout(cubic.p, cubic.p_prime)
    assert u * cubic.p + v * cubic.p_prime == g == gcd(cubic.p, cubic.p_prime) == UniPoly.const(1)


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


def _root_below(n: int, m: int) -> int:
    """The largest r with r^m <= n, by Newton's method on integers."""
    r = 1 << -(-n.bit_length() // m)
    while True:
        s = ((m - 1) * r + n // r ** (m - 1)) // m
        if s >= r:
            return r
        r = s


# p = z -+ (B - 1) has the bound B, so these draw B at the places where the
# ceiling moves: B = 2, 10^k and its neighbours (10^k itself reaches
# 10^MAX_DIGITS exactly when k divides MAX_DIGITS), and each side of the
# largest B with B^m < 10^MAX_DIGITS.
exact_powers = st.sampled_from([k for k in range(1, MAX_DIGITS + 1) if MAX_DIGITS % k == 0])
integer_bounds = st.one_of(
    st.just(2),
    st.integers(2, 10**6),
    st.builds(lambda k, e: 10**k + e, exact_powers | st.integers(1, MAX_DIGITS + 1),
              st.integers(-1, 1)),
    st.builds(lambda m, e: max(2, _root_below(HEIGHT - 1, m) + e),
              st.integers(1, 3400), st.integers(-1, 2)),
)


@settings(max_examples=80)
@given(integer_bounds, st.sampled_from([1, -1]))
def test_max_p_power_matches_the_stepping_oracle_on_integer_p(b, sign):
    p = upoly({1: 1, 0: sign * (b - 1)})
    m = make_surface(p).max_p_power
    assert m == max_p_power_by_steps(p)
    assert b**m < HEIGHT <= b ** (m + 1)


rational_coeffs = st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**30))


@settings(max_examples=60)
@given(st.lists(rational_coeffs, min_size=2, max_size=5).filter(lambda cs: cs[-1] != 0))
def test_max_p_power_matches_the_stepping_oracle_on_rational_p(cs):
    p = UniPoly(dict(enumerate(cs)))
    try:
        s = make_surface(p)
    except RepeatedRoot:
        return
    assert s.max_p_power == max_p_power_by_steps(p)


def test_max_p_power_of_plus_or_minus_z_is_none():
    for sign in (1, -1):
        p = upoly({1: sign})
        assert make_surface(p).max_p_power is None is max_p_power_by_steps(p)


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


class _Counted:
    """x^n in a ring that logs its products: a squaring when both factors
    are one object, another product otherwise."""

    def __init__(self, n, log):
        self.n, self.log = n, log

    def __mul__(self, other):
        self.log["squarings" if other is self else "products"] += 1
        return _Counted(self.n + other.n, self.log)


def test_power_takes_the_products_of_binary_powering():
    """No squaring after the last bit and no product by one: n.bit_length() - 1
    squarings and popcount(n) - 1 other products."""
    for n in range(65):
        log = {"squarings": 0, "products": 0}
        one = _Counted(0, log)
        result = power(_Counted(1, log), n, one)
        assert result.n == n and (n or result is one)
        assert log == {
            "squarings": max(n.bit_length() - 1, 0),
            "products": max(n.bit_count() - 1, 0),
        }, n


def test_power_matches_repeated_product(cubic):
    rng = random.Random(RNG_SEED + 5)
    f = random_surface_polynomial(cubic, rng, 3)
    q = upoly({0: 2, 1: -1, 3: Fraction(1, 2)})
    acc_f, acc_q = cubic.const(1), UniPoly.const(1)
    for n in range(6):
        assert f**n == acc_f and q**n == acc_q
        acc_f, acc_q = acc_f * f, acc_q * q


class _Modular:
    """An integer modulo the prime 2^61 - 1, in a ring that counts its
    products in ``log[0]``."""

    P = 2**61 - 1

    def __init__(self, v, log):
        self.v, self.log = v % self.P, log

    def __add__(self, other):
        return _Modular(self.v + other.v, self.log)

    def __mul__(self, other):
        self.log[0] += 1
        return _Modular(self.v * other.v, self.log)

    def scale(self, c):
        c = Fraction(c)
        return _Modular(self.v * c.numerator * pow(c.denominator, -1, self.P), self.log)


@pytest.mark.parametrize("a", [
    upoly({10**6: 1, 3: 2, 0: 1}),
    upoly({10**6: 1, 999_999: -1, 2: 1}),
    upoly(dict.fromkeys(range(7), 1)),
], ids=["sparse", "two-high", "dense"])
def test_eval_generic_powers_each_gap(a):
    """Horner's scheme takes each gap between exponents as one power, so it
    makes at most 2 * terms * bit_length(degree) products, and a dense
    polynomial one per degree."""
    log = [0]
    r = a.eval_generic(_Modular(3, log), _Modular(1, log))
    assert r.v == sum(v * pow(3, e, _Modular.P) for e, v in a.c.items()) % _Modular.P
    assert log[0] <= 2 * len(a.c) * a.degree.bit_length()
    if len(a.c) == a.degree + 1:
        assert log[0] == a.degree


# ---- the weight-graded layout ------------------------------------------------------


def test_graded_layout_and_term_views(cubic):
    f = cubic.x(2, 1) + cubic.y(3, 2, 3) - cubic.z() + cubic.const(1)
    assert f.coeffs == {2: upoly({1: 1}), -3: upoly({2: 3}), 0: upoly({0: 1, 1: -1})}
    # the (power of x or y, power of z) views that external readers use
    assert f.xpart == {(2, 1): 1}
    assert f.ypart == {(3, 2): 3}
    assert f.zpart == upoly({0: 1, 1: -1})
    assert cubic.zero().coeffs == {} and cubic.zero().zpart == UniPoly()


def assert_term_table(f):
    """The table is (weight, z-exponent, coefficient) triples, sorted by
    (weight, z-exponent) with no key twice, each coefficient a nonzero Fraction."""
    t = f._terms
    assert type(t) is tuple and len(t) % 3 == 0
    keys = list(zip(t[0::3], t[1::3]))
    assert keys == sorted(set(keys))
    assert all(type(k) is int for key in keys for k in key)
    assert all(type(c) is Fraction and c for c in t[2::3])


SURFACES = st.sampled_from([make_surface(p) for p in (P_QUAD, P_CUBIC, P_QUARTIC)])
formals = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), nonzero, max_size=5)


@settings(deadline=None)
@given(SURFACES, formals, formals, formals)
def test_equal_elements_have_equal_tables(s, a, b, c):
    """Whatever built an element, its value fixes its table and its hash."""
    fa, fb, fc = reduce(s, a), reduce(s, b), reduce(s, c)
    ab = formal_mul(a, b)
    product = reduce(s, ab)
    for f in (
        fa * fb,
        fb * fa,
        sum((reduce(s, {k: v}) for k, v in reversed(ab.items())), s.zero()),
        (fa * fb).swap_xy().swap_xy(),
        SurfacePolynomial(s, product.coeffs),
        (product + fc) - fc,
        product + fc.scale(0),
        -(-product),
    ):
        assert f == product and hash(f) == hash(product)
        assert f._terms == product._terms
        assert_term_table(f)
    for f in (fa, fc, product.swap_xy(), fc.partial_x(), fc.partial_y(), fc.partial_z(),
              fc.euler(), fc.x_dz(), fc.drop_constant(), fa + fc):
        assert_term_table(f)


def test_an_element_holds_one_flat_tuple(cubic):
    """No dict, UniPoly or cached view lives on an element, before or after
    its views are read."""
    f = (cubic.x(2, 1) + cubic.y(3, 2, 3) - cubic.z() + cubic.const(1)) * cubic.y(1)
    f.coeffs, f.xpart, f.ypart, f.zpart, f.coeff(0), hash(f), f.weights()
    assert not hasattr(f, "__dict__")
    held = [r for r in gc.get_referents(f) if r is not cubic and not isinstance(r, type)]
    assert held == [f._terms] and type(f._terms) is tuple
    assert all(type(r) in (int, Fraction) for r in gc.get_referents(f._terms))
    assert_term_table(f)


def test_small_integer_coefficients_are_shared(cubic):
    """``__init__`` and ``with_shared`` store one shared Fraction per small
    integer; an element built so equals, and hashes like, the same element
    built by arithmetic, whose coefficients are fresh Fractions."""
    parsed = [parse_expression(cubic, "2*x^2*z - 12*y + 300*z^2 - 1/2") for _ in range(2)]
    built = (cubic.x(2, 1).scale(Fraction(4)) + cubic.y(1).scale(Fraction(-24))
             + cubic.z() * cubic.z().scale(Fraction(600)) - cubic.const(1)).scale(Fraction(1, 2))
    a, b = (f._terms[2::3] for f in parsed)
    c = built._terms[2::3]
    assert a == b == c == (Fraction(-12), Fraction(-1, 2), Fraction(300), Fraction(2))
    assert [u is v for u, v in zip(a, b)] == [True, False, False, True]  # |v| <= 256 shared
    assert not any(u is v for u, v in zip(a, c))
    assert all(shared(v) is v for v in a) and shared(c[3]) is a[3]
    assert parsed[0] == built and hash(parsed[0]) == hash(built)
    assert {parsed[0]: 1}[built] == 1
    kept = built.with_shared()  # shares the small integers in one pass
    assert [u is v for u, v in zip(kept._terms[2::3], a)] == [True, False, False, True]
    assert kept == built and hash(kept) == hash(built) and {kept: 1}[parsed[1]] == 1


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


def test_div_x_is_the_exact_quotient(quad, cubic):
    """div_x undoes the product by x; 1 and y are not multiples of x."""
    rng = random.Random(RNG_SEED + 9)
    for s in (quad, cubic, make_surface(P_QUARTIC2)):
        for _ in range(15):
            e = random_surface_polynomial(s, rng)
            assert (s.x() * e).div_x() == e
        for e in (s.const(1), s.y()):
            with pytest.raises(InternalInvariantViolation):
                e.div_x()


def _random_formal(rng, max_exp, n_terms=5, normal=False):
    """Random formal polynomial; with ``normal``, no monomial has both x and y."""
    f = {}
    for _ in range(n_terms):
        a, b, c = (rng.randint(0, max_exp) for _ in range(3))
        if normal:
            a, b = rng.choice(((a, 0), (0, b)))
        f = table_add(f, {(a, b, c): Fraction(rng.randint(-9, 9), rng.randint(1, 4))})
    return f


def _formal_diff(f, axis):
    out = {}
    for k, v in f.items():
        if k[axis]:
            lower = tuple(e - (n == axis) for n, e in enumerate(k))
            out = table_add(out, {lower: v * k[axis]})
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


def test_only_ring_names_the_term_table():
    """Other modules read an element through ``coeffs`` and the term views,
    and build one through the constructors, never through ``_new``."""
    src = Path(__file__).parents[1] / "src" / "danielewski"
    for path in sorted(src.glob("*.py")):
        if path.name != "ring.py":
            assert not re.search(r"\b(_terms|_triples|_new)\b", path.read_text()), path.name


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
