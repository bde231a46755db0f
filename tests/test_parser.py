"""Grammar round-trips and error reporting for all textual formats."""

import gc
import json
import random
from fractions import Fraction

import pytest

from danielewski import (
    Bracket,
    DegreeGate,
    Leaf,
    NegativeExponent,
    ParseError,
    UniPoly,
    evaluate,
    format_field,
    format_surface_polynomial,
    format_unipoly,
    format_word,
    hyperbolic,
    make_sum,
    make_surface,
    parse_expression,
    parse_field,
    parse_unipoly,
    parse_word,
    potential_of,
    shear_x,
    verify_certificate,
)
from danielewski.automorphisms import Hyperbolic, Involution, Symmetry, XShear
from danielewski.parsing import (
    MAX_PARSED_TERMS,
    cert_from_obj,
    cert_to_obj,
    certificate_file_obj,
    load_certificate_file,
    parse_formal,
    parse_generator,
    parse_point,
)
from danielewski.ring import MAX_DIGITS

from conftest import random_surface_polynomial, upoly
from oracles import is_identity

RNG_SEED = 14142


# ---- polynomial expressions ---------------------------------------------------


def test_parse_simple(quad):
    assert parse_expression(quad, "x*y") == quad.from_unipoly(quad.p)
    assert parse_expression(quad, "(z-1)*(z+1)") == quad.from_unipoly(quad.p)
    assert parse_expression(quad, "2/3 * x^2 * z") == quad.x(2, 1, Fraction(2, 3))
    assert parse_expression(quad, "-z - -z") == quad.zero()
    assert parse_expression(quad, "0") == quad.zero()


def test_parse_powers_and_parens(quad):
    assert parse_expression(quad, "(x + z)^2") == \
        parse_expression(quad, "x^2 + 2*x*z + z^2")
    assert parse_expression(quad, "z^0") == quad.const(1)
    # a product whose expansion has exactly MAX_PARSED_TERMS terms is read
    rows = 40
    zs = " + ".join(f"z^{j}" for j in range(rows))
    xs = " + ".join(f"x^{i}" for i in range(MAX_PARSED_TERMS // rows))
    assert len(parse_formal(f"({zs}) * ({xs})")) == MAX_PARSED_TERMS


def test_power_of_p_ceiling(cubic):
    # On z^3 - z every coefficient of p^m is at most 2^m, and 2^3321 has
    # 1000 digits.
    assert cubic.max_p_power == 3321
    with pytest.raises(DegreeGate, match="MAX_DIGITS"):
        cubic.p_power(3322)
    with pytest.raises(DegreeGate, match="MAX_DIGITS"):
        parse_expression(cubic, "(x*y)^1000 * (x*y)^1000 * (x*y)^1000 * (x*y)^400")
    with pytest.raises(DegreeGate, match="MAX_DIGITS"):
        cubic.y(3322) * cubic.x()
    # (z/7 + 1/2)^m has denominators up to 14^m
    s = make_surface(upoly({1: Fraction(1, 7), 0: Fraction(1, 2)}))
    assert s.max_p_power == 872
    with pytest.raises(DegreeGate):
        s.p_power(873)
    line = make_surface(upoly({1: 1}))
    assert line.p_power(10**6) == UniPoly.monomial(10**6)


def test_negative_exponent_rejected(quad):
    for src in ("x^(-1)", "z^-2"):
        with pytest.raises(NegativeExponent):
            parse_expression(quad, src)


def test_syntax_errors_have_position(quad):
    for src in ("x +", "* z", "((z)", "x & y", "1/0"):
        with pytest.raises(ParseError):
            parse_expression(quad, src)


def test_print_parse_roundtrip(quad, cubic):
    rng = random.Random(RNG_SEED)
    for s in (quad, cubic):
        for _ in range(40):
            f = random_surface_polynomial(s, rng, 6)
            assert parse_expression(s, format_surface_polynomial(f)) == f
    assert format_surface_polynomial(quad.zero()) == "0"


def test_unipoly_roundtrip():
    rng = random.Random(RNG_SEED + 1)
    for _ in range(30):
        q = UniPoly({e: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                     for e in range(rng.randint(1, 7))})
        assert parse_unipoly(format_unipoly(q)) == q
    assert format_unipoly(UniPoly()) == "0"


def test_unipoly_rejects_mixed_monomials():
    with pytest.raises(ParseError):
        parse_unipoly("x*z")


@pytest.mark.parametrize("src", ["x + z", "y^2 - z", "1 + x + y"])
def test_unipoly_rejects_two_variables(quad, src):
    with pytest.raises(ParseError):
        parse_unipoly(src)
    with pytest.raises(ParseError):
        parse_field(quad, f"HF({src})")
    with pytest.raises(ParseError):
        parse_word(quad, f"Dx({src})")


# ---- field literals -----------------------------------------------------------


def test_field_literals(quad):
    assert parse_field(quad, "SFx(1)") == shear_x(quad, 1)
    assert parse_field(quad, "HF(z^2-1)") == hyperbolic(quad, quad.p)
    th = shear_x(quad, 0)
    assert parse_field(quad, format_field(th)) == th
    for src in ("SFx(-1)", "SFx(1_0)", "SFx(+2)", f"SFy({'1' * (MAX_DIGITS + 1)})", "[x; y]"):
        with pytest.raises(ParseError) as exc:
            parse_field(quad, src)
        assert exc.value.code == "syntax-error", src


# ---- automorphism words ---------------------------------------------------------


def test_generator_parsing():
    assert parse_generator("Dx(2*x - 1)") == XShear(upoly({1: 2, 0: -1}))
    assert parse_generator("H(-3/2)") == Hyperbolic(Fraction(-3, 2))
    assert parse_generator("I") == Involution()
    assert parse_generator("Sym(-1, 1/2)") == Symmetry(Fraction(-1), Fraction(1, 2))
    assert parse_generator("H( 2 )") == Hyperbolic(Fraction(2))
    assert parse_point("1/2, -3/2,0") == (Fraction(1, 2), Fraction(-3, 2), Fraction(0))
    with pytest.raises(ParseError):
        parse_generator("Q(1)")
    # the arguments are RATIONALs of the polynomial grammar, not Fraction(str)
    for bad in ("1e5", "1.5", "1_0", "+2", "--1", "1/0", "", "9" * 1001):
        with pytest.raises(ParseError):
            parse_generator(f"H({bad})")
        with pytest.raises(ParseError):
            parse_point(f"1,0,{bad}")


def test_word_roundtrip(quad):
    w = parse_word(quad, "Dx(1); I; H(2)")
    assert parse_word(quad, format_word(w)).word == w.word
    assert is_identity(parse_word(quad, "id"))
    assert is_identity(parse_word(quad, ""))
    assert format_word(parse_word(quad, "id")) == "id"


# ---- certificate files -------------------------------------------------------------


def test_certificate_json_roundtrip(quad):
    expr = make_sum([
        (Fraction(3, 2), Bracket(Leaf("SFx", 0), Leaf("SFy", 0))),
        (Fraction(-1), Leaf("HF", poly=upoly({1: 1}))),
    ])
    assert cert_from_obj(cert_to_obj(expr)) == expr
    f = potential_of(evaluate(quad, expr))
    text = json.dumps(certificate_file_obj(quad, f, expr))
    s2, claimed, expr2 = load_certificate_file(text)
    assert s2.p == quad.p and claimed == f and expr2 == expr
    assert verify_certificate(s2, expr2, claimed)


@pytest.mark.parametrize("collecting", [True, False])
def test_certificate_read_pauses_the_collector(quad, collecting, monkeypatch):
    """The collector is off during the JSON read and left as it was found,
    after a read that succeeds and after one that fails."""
    loads, during = json.loads, []

    def spy(text):
        during.append(gc.isenabled())
        return loads(text)

    monkeypatch.setattr(json, "loads", spy)
    text = json.dumps(certificate_file_obj(quad, quad.x(), Leaf("SFx", 0)))
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        assert load_certificate_file(text)[0].p == quad.p
        assert gc.isenabled() == collecting
        with pytest.raises(ParseError):
            load_certificate_file("{not json")
        assert gc.isenabled() == collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False, False]


def test_certificate_file_errors(quad):
    with pytest.raises(ParseError):
        load_certificate_file("not json")
    with pytest.raises(ParseError):
        load_certificate_file(json.dumps({"p": "z^2-1"}))
    with pytest.raises(ParseError):
        cert_from_obj({"leaf": {"kind": "bogus"}})
    with pytest.raises(ParseError):
        cert_from_obj({"leaf": {}, "sum": []})
    with pytest.raises(ParseError):
        cert_from_obj({"sum": [["1e5", {"leaf": {"kind": "SFx", "i": 0}}]]})
