"""An independent oracle for the normal form and the field calculus, in sympy.

The normal form of a polynomial in x, y, z is its remainder modulo
x*y - p(z) in lex order with x > y > z: the leading term x*y divides no
monomial of the remainder, which is therefore a sum of x^i q(z), y^i q(z)
and q(z).

For the field calculus, an element of the ring is written as a rational
function of x and z by substituting y = p(z)/x (the chart x != 0).  There
the Hamiltonian field of f for omega = dx/x ^ dz is (x f_z, ., -x f_x), its
y-image follows from tangency, x*imgY = p'(z)*imgZ - y*imgX, and a field
(X, Y, Z) preserves omega iff its divergence x*(d/dx(X/x) + d/dz(Z/x))
vanishes.  None of this uses the graded operators of the library.
"""

import random
from fractions import Fraction

import pytest

from danielewski import AlgebraicVectorField, hamiltonian_of, is_volume_preserving
from danielewski.parsing import parse_expression

from conftest import random_surface_polynomial

sympy = pytest.importorskip("sympy")

X, Y, Z = sympy.symbols("x y z")
RNG_SEED = 2718


def to_sympy(e):
    """The ring element e as a rational function of x and z, with y = p/x."""
    p = unipoly_to_sympy(e.surface.p)
    y = p / X
    return sum(
        (unipoly_to_sympy(q) * (X**n if n >= 0 else y**-n) for n, q in e.coeffs.items()),
        sympy.Integer(0),
    )


def unipoly_to_sympy(q):
    return sum((sympy.Rational(v.numerator, v.denominator) * Z**k for k, v in q.c.items()),
               sympy.Integer(0))


def to_sympy_polynomial(e):
    """The normal form e as a polynomial in x, y, z (y^n kept as it is)."""
    return sum(
        (unipoly_to_sympy(q) * (X**n if n >= 0 else Y**-n) for n, q in e.coeffs.items()),
        sympy.Integer(0),
    )


def random_formal(rng):
    """A random polynomial in x, y, z, as an expression string and in sympy."""
    terms = []
    for _ in range(rng.randint(1, 5)):
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        terms.append((v, rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)))
    src = " + ".join(f"({v})*x^{a}*y^{b}*z^{c}" for v, a, b, c in terms)
    expr = sum(sympy.Rational(v.numerator, v.denominator) * X**a * Y**b * Z**c
               for v, a, b, c in terms)
    return src, expr


def sympy_normal_form(expr, p):
    _, rem = sympy.reduced(expr, [X * Y - p], X, Y, Z, order="lex")
    return rem


@pytest.mark.parametrize("surface", ["quad", "cubic"])
def test_normal_form_is_the_lex_remainder(surface, request):
    s = request.getfixturevalue(surface)
    p = unipoly_to_sympy(s.p)
    rng = random.Random(RNG_SEED + 2)
    for _ in range(20):
        (src_f, f), (src_g, g) = random_formal(rng), random_formal(rng)
        a, b = parse_expression(s, src_f), parse_expression(s, src_g)
        assert sympy.expand(to_sympy_polynomial(a) - sympy_normal_form(f, p)) == 0
        assert sympy.expand(to_sympy_polynomial(a * b) - sympy_normal_form(f * g, p)) == 0


def is_zero(expr) -> bool:
    return sympy.cancel(sympy.together(expr)) == 0


def sample_functions(surface, rng):
    fs = [random_surface_polynomial(surface, rng, 4) for _ in range(6)]
    return fs + [surface.z() ** 2, surface.x(2, 1), surface.y(1, 2)]


@pytest.mark.parametrize("surface", ["quad", "cubic"])
def test_hamiltonian_matches_chart_formula(surface, request):
    s = request.getfixturevalue(surface)
    p = unipoly_to_sympy(s.p)
    rng = random.Random(RNG_SEED)
    for f in sample_functions(s, rng):
        h, g = hamiltonian_of(f), to_sympy(f)
        img_x, img_z = X * sympy.diff(g, Z), -X * sympy.diff(g, X)
        img_y = (sympy.diff(p, Z) * img_z - p / X * img_x) / X
        assert is_zero(to_sympy(h.img_x) - img_x)
        assert is_zero(to_sympy(h.img_y) - img_y)
        assert is_zero(to_sympy(h.img_z) - img_z)


@pytest.mark.parametrize("surface", ["quad", "cubic"])
def test_volume_preservation_matches_chart_divergence(surface, request):
    s = request.getfixturevalue(surface)
    rng = random.Random(RNG_SEED + 1)
    verdicts = set()
    for f in sample_functions(s, rng):
        h = hamiltonian_of(f)
        for g in (s.const(1), s.z(), s.x(), s.y()):
            field = AlgebraicVectorField(g * h.img_x, g * h.img_y, g * h.img_z)
            x_img, z_img = to_sympy(field.img_x), to_sympy(field.img_z)
            div = X * (sympy.diff(x_img / X, X) + sympy.diff(z_img / X, Z))
            verdict = is_volume_preserving(field)
            assert verdict == is_zero(div)
            verdicts.add(verdict)
    assert verdicts == {True, False}
