"""Parsing and printing for polynomial expressions, vector-field literals,
automorphism words and certificate files.

Polynomial grammar (terms over x, y, z):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := '-'* atom ('^' exponent)?
    atom     := RATIONAL | 'x' | 'y' | 'z' | '(' expr ')'
    exponent := INT | '(' '-'? INT ')'     (negative exponents are rejected)
    RATIONAL := INT ('/' INT)?

Field literals: SFx(i), SFy(i), HF(poly), or a triple [ex; ey; ez] of
polynomial expressions.  Automorphism words: generators Dx(f), Dy(f),
H(l), I, Sym(a,b) joined by ';' in application order (leftmost acts
first).
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, prod

from . import membership
from .automorphisms import (
    Generator,
    Hyperbolic,
    Involution,
    PolynomialAutomorphism,
    Symmetry,
    XShear,
    YShear,
)
from .errors import DegreeGate, NegativeExponent, ParseError
from .fields import AlgebraicVectorField, hyperbolic, shear_x, shear_y
from .ring import (
    SurfaceConfig,
    SurfacePolynomial,
    UniPoly,
    formal_add,
    formal_mul,
    formal_scale,
    reduce,
)

# -- tokenizer -----------------------------------------------------------------


# Ceilings on the shape of a literal: the parser recurses four calls deep per
# parenthesis level (the interpreter's limit was hit at about 250 levels), and
# int() refuses strings of more than 4300 digits.
MAX_PAREN_DEPTH = 100
MAX_DIGITS = 1000


class _Tokens:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0
        self.depth = 0  # open parentheses around the current position

    def _skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self._skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def take(self) -> str:
        c = self.peek()
        self.pos += 1
        return c

    def expect(self, c: str):
        got = self.peek()
        if got != c:
            raise ParseError(f"expected {c!r}, found {got or 'end of input'!r}", self.pos)
        self.pos += 1

    def integer(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.src) and self.src[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        n = self.pos - start
        if n > MAX_DIGITS:
            raise ParseError(f"{n} digits exceed the ceiling MAX_DIGITS = {MAX_DIGITS}", start)
        return int(self.src[start : self.pos])

    def rational(self) -> Fraction:
        num = self.integer()
        if self.peek() == "/":
            self.pos += 1
            den = self.integer()
            if den == 0:
                raise ParseError("zero denominator", self.pos)
            return Fraction(num, den)
        return Fraction(num)

    def done(self) -> bool:
        return self.peek() == ""


# -- polynomial expressions ----------------------------------------------------

_VARS = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}

# Ceiling on an exponent: a power is expanded by repeated multiplication, so
# the parse makes as many products as the exponent says (x^100000 took 0.9 s;
# (1 + z)^1000, whose products grow, took 7.4 s).
MAX_EXPONENT = 1000

# Ceiling on the size of a parsed product or power, checked before
# multiplying: the number of terms its expansion can have, bounded by
#     min(|a| |b|, prod_v (deg_v a + deg_v b + 1))   for a * b,
#     min(C(n + k - 1, k - 1), prod_v (n deg_v e + 1))   for e^n, k = |e|,
# where deg_v is the highest power of the variable v.  The exponent alone
# does not bound the work: (1 + x + y + z)^30 (5456 terms) took 1.7 s to
# parse and reduce, ^40 (12341 terms) 10 s and ^80 175 s (Python 3.11, one
# core of a shared 2-core VM).
MAX_PARSED_TERMS = 2000


def _degrees(e: dict) -> list[int]:
    return [max((key[v] for key in e), default=0) for v in range(3)]


def _check_size(terms: int, degrees: list[int], t: _Tokens):
    bound = min(terms, prod(d + 1 for d in degrees))
    if bound > MAX_PARSED_TERMS:
        raise DegreeGate(
            f"the expansion may have {bound} terms, over the ceiling "
            f"MAX_PARSED_TERMS = {MAX_PARSED_TERMS} (at position {t.pos})"
        )


def _parse_exponent(t: _Tokens) -> int:
    if t.peek() == "(":
        t.take()
        neg = False
        if t.peek() == "-":
            t.take()
            neg = True
        n = t.integer()
        t.expect(")")
        if neg:
            raise NegativeExponent("exponents must be non-negative integers", t.pos)
    elif t.peek() == "-":
        raise NegativeExponent("exponents must be non-negative integers", t.pos)
    else:
        n = t.integer()
    if n > MAX_EXPONENT:
        raise ParseError(f"exponent {n} exceeds the ceiling MAX_EXPONENT = {MAX_EXPONENT}", t.pos)
    return n


def _parse_atom(t: _Tokens) -> dict:
    c = t.peek()
    if c == "(":
        t.take()
        t.depth += 1
        if t.depth > MAX_PAREN_DEPTH:
            raise ParseError(
                f"parentheses nested deeper than the ceiling MAX_PAREN_DEPTH = {MAX_PAREN_DEPTH}",
                t.pos,
            )
        e = _parse_sum(t)
        t.expect(")")
        t.depth -= 1
        return e
    if c in _VARS:
        t.take()
        return {_VARS[c]: Fraction(1)}
    if c.isdecimal():
        v = t.rational()
        return {(0, 0, 0): v} if v else {}  # no zero coefficients in a formal dict
    raise ParseError(f"unexpected {c or 'end of input'!r}", t.pos)


def _parse_factor(t: _Tokens) -> dict:
    sign = 1
    while t.peek() == "-":
        t.take()
        sign = -sign
    e = _parse_atom(t)
    if t.peek() == "^":
        t.take()
        n = _parse_exponent(t)
        k = len(e)
        _check_size(comb(n + k - 1, k - 1) if k else 1, [n * d for d in _degrees(e)], t)
        acc = {(0, 0, 0): Fraction(1)}
        for _ in range(n):
            acc = formal_mul(acc, e)
        e = acc
    return formal_scale(e, sign) if sign < 0 else e


def _parse_term(t: _Tokens) -> dict:
    e = _parse_factor(t)
    while t.peek() == "*":
        t.take()
        rhs = _parse_factor(t)
        _check_size(len(e) * len(rhs), [a + b for a, b in zip(_degrees(e), _degrees(rhs))], t)
        e = formal_mul(e, rhs)
    return e


def _parse_sum(t: _Tokens) -> dict:
    e = _parse_term(t)
    while t.peek() in ("+", "-"):
        op = t.take()
        rhs = _parse_term(t)
        e = formal_add(e, formal_scale(rhs, -1) if op == "-" else rhs)
    return e


def parse_formal(src: str) -> dict:
    """Parse to a formal term map (x-power, y-power, z-power) -> Fraction."""
    t = _Tokens(src)
    e = _parse_sum(t)
    if not t.done():
        raise ParseError(f"trailing input {t.peek()!r}", t.pos)
    return e


def parse_expression(surface: SurfaceConfig, src: str) -> SurfacePolynomial:
    return reduce(surface, parse_formal(src))


def parse_unipoly(src: str) -> UniPoly:
    """Parse a univariate polynomial: any one of x, y, z as the variable,
    the same one in every term."""
    formal = parse_formal(src)
    if len({k for key in formal for k, e in enumerate(key) if e}) > 1:
        raise ParseError("expected a polynomial in one variable")
    return UniPoly({sum(key): v for key, v in formal.items()})


def parse_point(src: str) -> tuple[Fraction, Fraction, Fraction]:
    """A rational point written ``x,y,z`` (each part as ``Fraction`` reads it)."""
    try:
        point = tuple(Fraction(c) for c in src.split(","))
    except (ValueError, ZeroDivisionError):
        point = ()
    if len(point) != 3:
        raise ParseError("point must be three rationals: x,y,z")
    return point


# -- printers -------------------------------------------------------------------


def _coeff_prefix(v: Fraction, head: str) -> str:
    if head == "" and v == 1:
        return "1"
    if v == 1:
        return head
    if v == -1 and head:
        return f"-{head}"
    return f"{v}*{head}" if head else str(v)


def _monomial(v: Fraction, parts: list[str]) -> str:
    return _coeff_prefix(v, "*".join(parts))


def _join(terms: list[str]) -> str:
    if not terms:
        return "0"
    out = terms[0]
    for s in terms[1:]:
        out += f" - {s[1:]}" if s.startswith("-") else f" + {s}"
    return out


def _var_power(name: str, e: int) -> str:
    return name if e == 1 else f"{name}^{e}"


def format_unipoly(q: UniPoly, var: str = "z") -> str:
    terms = []
    for e in sorted(q.c):
        parts = [] if e == 0 else [_var_power(var, e)]
        terms.append(_monomial(q.c[e], parts))
    return _join(terms)


def format_surface_polynomial(f: SurfacePolynomial) -> str:
    terms = []
    for n in f.weights():
        q = f.coeffs[n]
        for e in sorted(q.c):
            parts = [_var_power("x" if n > 0 else "y", abs(n))] if n else []
            if e:
                parts.append(_var_power("z", e))
            terms.append(_monomial(q.c[e], parts))
    return _join(terms)


def format_field(theta: AlgebraicVectorField) -> str:
    return "[{}; {}; {}]".format(
        format_surface_polynomial(theta.img_x),
        format_surface_polynomial(theta.img_y),
        format_surface_polynomial(theta.img_z),
    )


# -- field literals --------------------------------------------------------------


def parse_field(surface: SurfaceConfig, src: str) -> AlgebraicVectorField:
    s = src.strip()
    if s.startswith("["):
        if not s.endswith("]"):
            raise ParseError("expected ']' to close the field triple")
        comps = s[1:-1].split(";")
        if len(comps) != 3:
            raise ParseError("field triple must have three ';'-separated components")
        ex, ey, ez = (parse_expression(surface, c) for c in comps)
        return AlgebraicVectorField(ex, ey, ez)
    if s.startswith("SFx(") and s.endswith(")"):
        return shear_x(surface, _parse_index(s[4:-1]))
    if s.startswith("SFy(") and s.endswith(")"):
        return shear_y(surface, _parse_index(s[4:-1]))
    if s.startswith("HF(") and s.endswith(")"):
        return hyperbolic(surface, parse_unipoly(s[3:-1]))
    raise ParseError(f"not a field literal: {src!r}")


def _parse_index(s: str) -> int:
    try:
        n = int(s.strip())
    except ValueError:
        raise ParseError(f"expected an integer index, found {s!r}")
    if n < 0:
        raise ParseError("shear index must be >= 0")
    return n


def _parse_rational(s: str) -> Fraction:
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"expected a rational number, found {s!r}")


# -- automorphism words -----------------------------------------------------------


def parse_generator(src: str) -> Generator:
    s = src.strip()
    if s == "I":
        return Involution()
    if s.startswith("Dx(") and s.endswith(")"):
        return XShear(parse_unipoly(s[3:-1]))
    if s.startswith("Dy(") and s.endswith(")"):
        return YShear(parse_unipoly(s[3:-1]))
    if s.startswith("H(") and s.endswith(")"):
        return Hyperbolic(_parse_rational(s[2:-1]))
    if s.startswith("Sym(") and s.endswith(")"):
        args = s[4:-1].split(",")
        if len(args) != 2:
            raise ParseError("Sym takes two arguments: Sym(a, b)")
        return Symmetry(_parse_rational(args[0]), _parse_rational(args[1]))
    raise ParseError(f"not an automorphism generator: {src!r}")


def parse_word(surface: SurfaceConfig, src: str) -> PolynomialAutomorphism:
    """';'-separated generators, leftmost applied first."""
    s = src.strip()
    word = [] if not s or s == "id" else [parse_generator(g) for g in s.split(";")]
    return PolynomialAutomorphism(surface, word)


def format_generator(g: Generator) -> str:
    if isinstance(g, XShear):
        return f"Dx({format_unipoly(g.f, 'x')})"
    if isinstance(g, YShear):
        return f"Dy({format_unipoly(g.f, 'y')})"
    if isinstance(g, Hyperbolic):
        return f"H({g.lam})"
    if isinstance(g, Involution):
        return "I"
    return f"Sym({g.c}, {g.b})"


def format_word(phi: PolynomialAutomorphism) -> str:
    return ";".join(format_generator(g) for g in phi.word) if phi.word else "id"


# -- certificate files -------------------------------------------------------------


def cert_to_obj(expr) -> dict:
    if isinstance(expr, membership.Leaf):
        if expr.kind == "HF":
            return {"leaf": {"kind": "HF", "poly": format_unipoly(expr.poly)}}
        return {"leaf": {"kind": expr.kind, "i": expr.i}}
    if isinstance(expr, membership.Sum):
        return {"sum": [[str(w), cert_to_obj(t)] for w, t in expr.terms]}
    return {"bracket": [cert_to_obj(expr.left), cert_to_obj(expr.right)]}


# Ceiling on the nesting depth of a certificate read from a file: reading,
# evaluating and printing a certificate recurse once per level, so this
# keeps them far from the interpreter's recursion limit.  The deepest
# certificate that certify or z2-certify emits on the test and benchmark
# inputs has depth 13.
MAX_CERT_DEPTH = 100
_TOO_DEEP = f"certificate is nested deeper than MAX_CERT_DEPTH = {MAX_CERT_DEPTH}"


def cert_from_obj(obj, depth: int = 1) -> "membership.BracketExpression":
    """Inverse of ``cert_to_obj``; raises ParseError on any other shape.

    ``depth`` is the level of ``obj`` in the whole tree; a node below level
    MAX_CERT_DEPTH is rejected.
    """
    if depth > MAX_CERT_DEPTH:
        raise ParseError(_TOO_DEEP)
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ParseError("certificate node must have exactly one of leaf/sum/bracket")
    if "leaf" in obj:
        leaf = obj["leaf"]
        if not isinstance(leaf, dict):
            raise ParseError("'leaf' must be an object with a 'kind'")
        kind = leaf.get("kind")
        if kind == "HF":
            if not isinstance(leaf.get("poly"), str):
                raise ParseError("an HF leaf needs a string 'poly'")
            return membership.Leaf("HF", poly=parse_unipoly(leaf["poly"]))
        if kind in ("SFx", "SFy"):
            i = leaf.get("i")
            if not isinstance(i, int) or isinstance(i, bool):
                raise ParseError(f"an {kind} leaf needs an integer 'i'")
            return membership.Leaf(kind, i)
        raise ParseError(f"unknown leaf kind {kind!r}")
    if "sum" in obj:
        terms = obj["sum"]
        if not isinstance(terms, list) or not all(
            isinstance(t, list) and len(t) == 2 and isinstance(t[0], str) for t in terms
        ):
            raise ParseError("'sum' must be a list of [weight, node] pairs")
        return membership.Sum(
            tuple((_parse_rational(w), cert_from_obj(t, depth + 1)) for w, t in terms)
        )
    if "bracket" in obj:
        pair = obj["bracket"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError("'bracket' must be a list of two nodes")
        return membership.Bracket(
            cert_from_obj(pair[0], depth + 1), cert_from_obj(pair[1], depth + 1)
        )
    raise ParseError("certificate node must have one of leaf/sum/bracket")


def certificate_file_obj(
    surface: SurfaceConfig, claimed: SurfacePolynomial, expr
) -> dict:
    return {
        "p": format_unipoly(surface.p),
        "claimed": format_surface_polynomial(claimed),
        "certificate": cert_to_obj(expr),
    }


def load_certificate_file(text: str):
    """Returns (surface, claimed, expression)."""
    from .ring import make_surface

    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid certificate file: {exc}")
    except RecursionError:
        raise ParseError(_TOO_DEEP)
    if not isinstance(obj, dict):
        raise ParseError("certificate file must hold a JSON object")
    for key in ("p", "claimed", "certificate"):
        if key not in obj:
            raise ParseError(f"certificate file is missing {key!r}")
    for key in ("p", "claimed"):
        if not isinstance(obj[key], str):
            raise ParseError(f"certificate file's {key!r} must be a string")
    surface = make_surface(parse_unipoly(obj["p"]))
    claimed = parse_expression(surface, obj["claimed"])
    return surface, claimed, cert_from_obj(obj["certificate"])
