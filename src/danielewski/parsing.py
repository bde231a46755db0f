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

import gc
import json
import sys
from fractions import Fraction
from math import comb, prod
from typing import TYPE_CHECKING

from .errors import DegreeGate, NegativeExponent, ParseError
from .ring import (
    HEIGHT,
    MAX_DIGITS,
    SurfaceConfig,
    SurfacePolynomial,
    UniPoly,
    formal_mul,
    make_surface,
    reduce,
    table_add,
    table_scale,
)

# The readers and printers of fields, words and certificates import
# ``fields``, ``automorphisms`` or ``membership`` when they run, so that
# reading and printing ring elements loads only ``errors`` and ``ring``.
if TYPE_CHECKING:
    from .automorphisms import Generator, PolynomialAutomorphism
    from .fields import AlgebraicVectorField
    from .membership import BracketExpression

# -- tokenizer -----------------------------------------------------------------


# Ceiling on the nesting of a literal: the parser recurses four calls deep per
# parenthesis level (the interpreter's limit was hit at about 250 levels).
# ring.MAX_DIGITS bounds the digits of an integer literal and the
# coefficients of every parsed product and power step, and so the operands of
# every multiplication of the parse.
MAX_PAREN_DEPTH = 100

# INT's digits: ASCII only (str.isdecimal also takes other scripts'), and a
# set, so that the "" peek() gives at the end of the input is not one.
_DIGITS = frozenset("0123456789")


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
        while self.pos < len(self.src) and self.src[self.pos] in _DIGITS:
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
            f"MAX_PARSED_TERMS = {MAX_PARSED_TERMS}", t.pos
        )


def _check_height(e: dict, t: _Tokens) -> dict:
    """``e``, unless a coefficient has a numerator or denominator of more than
    MAX_DIGITS digits."""
    for v in e.values():
        if abs(v.numerator) >= HEIGHT or v.denominator >= HEIGHT:
            raise DegreeGate(
                f"a coefficient has more than {MAX_DIGITS} digits, over the ceiling "
                f"MAX_DIGITS = {MAX_DIGITS}", t.pos
            )
    return e


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
    if c in _DIGITS:
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
        # One product per unit, not ring.power: each step's height is gated,
        # MAX_EXPONENT rests on this count, and binary powering was slower
        # on powers of small sums ((1 + x + y + z)^20: 0.19 s -> 0.31 s).
        acc = {(0, 0, 0): Fraction(1)}
        for _ in range(n):
            acc = _check_height(formal_mul(acc, e), t)
        e = acc
    return table_scale(e, sign) if sign < 0 else e


def _parse_term(t: _Tokens) -> dict:
    e = _parse_factor(t)
    while t.peek() == "*":
        t.take()
        rhs = _parse_factor(t)
        _check_size(len(e) * len(rhs), [a + b for a, b in zip(_degrees(e), _degrees(rhs))], t)
        e = _check_height(formal_mul(e, rhs), t)
    return e


def _parse_sum(t: _Tokens) -> dict:
    e = _parse_term(t)
    while t.peek() in ("+", "-"):
        op = t.take()
        rhs = _parse_term(t)
        e = table_add(e, table_scale(rhs, -1) if op == "-" else rhs)
    return e


def parse_formal(src: str) -> dict:
    """Parse to a formal term map (x-power, y-power, z-power) -> Fraction."""
    t = _Tokens(src)
    e = _parse_sum(t)
    if not t.done():
        raise ParseError(f"trailing input {t.peek()!r}", t.pos)
    return e


def parse_expression(surface: SurfaceConfig, src: str) -> SurfacePolynomial:
    """The normal form of ``src``: x^a y^b z^c becomes x^(a-b) z^c p^b or
    y^(b-a) z^c p^a, ``p^min(a, b)`` gated by ``SurfaceConfig.p_power``."""
    return reduce(surface, parse_formal(src))


def parse_unipoly(src: str) -> UniPoly:
    """Parse a univariate polynomial: any one of x, y, z as the variable,
    the same one in every term."""
    formal = parse_formal(src)
    if len({k for key in formal for k, e in enumerate(key) if e}) > 1:
        raise ParseError("expected a polynomial in one variable")
    return UniPoly({sum(key): v for key, v in formal.items()})


def parse_point(src: str) -> tuple[Fraction, Fraction, Fraction]:
    """A rational point written ``x,y,z``, each part as ``_parse_rational``
    reads it."""
    parts = src.split(",")
    if len(parts) != 3:
        raise ParseError("point must be three rationals: x,y,z")
    return tuple(_parse_rational(c) for c in parts)


def parse_integer(src: str, name: str) -> int:
    """The value of the integer option ``name``: '-'? INT with no spaces, the
    INT read as in the polynomial grammar (so at most MAX_DIGITS digits)."""
    t = _Tokens(src.removeprefix("-"))
    if t.src[:1] in _DIGITS:
        v = t.integer()
        if t.pos == len(t.src):
            return -v if src[:1] == "-" else v
    raise ParseError(f"{name} expects an integer -?[0-9]+, found {src!r}")


def _parse_rational(src: str) -> Fraction:
    """An optional '-' and a RATIONAL of the polynomial grammar: the form of
    the arguments of H(...) and Sym(...), certificate weights and points."""
    t = _Tokens(src)
    neg = t.peek() == "-"
    if neg:
        t.take()
    if t.peek() in _DIGITS:
        v = t.rational()
        if t.done():
            return -v if neg else v
    raise ParseError(f"expected a rational number, found {src!r}")


# -- printers -------------------------------------------------------------------


def format_rational(v: Fraction) -> str:
    """``str(v)``, the one printer of a rational.  A numerator or denominator
    over Python's integer-string limit (4300 digits by default) is a
    ``degree-gate``."""
    try:
        return str(v)
    except ValueError:
        raise DegreeGate(
            f"a coefficient has more than {sys.get_int_max_str_digits()} digits, "
            "too many to print (Python's integer-string limit)"
        ) from None


def _coeff_prefix(v: Fraction, head: str) -> str:
    if head == "" and v == 1:
        return "1"
    if v == 1:
        return head
    if v == -1 and head:
        return f"-{head}"
    return f"{format_rational(v)}*{head}" if head else format_rational(v)


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
    coeffs = f.coeffs
    for n in f.weights():
        q = coeffs[n]
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


def _inner(offset: int, parse, *args):
    """``parse(*args)`` on a part of an argument that starts at ``offset`` in
    it: the position of a ParseError or of a parse-time DegreeGate is moved
    to count from the argument's start."""
    try:
        return parse(*args)
    except (ParseError, DegreeGate) as exc:
        if exc.position < 0:
            raise
        raise type(exc)(exc.detail, exc.position + offset) from None


def _split(src: str, at: int) -> list[tuple[int, str]]:
    """The ';'-separated parts of ``src``, each with its position, where
    ``src`` starts at position ``at``."""
    parts = []
    for part in src.split(";"):
        parts.append((at, part))
        at += len(part) + 1
    return parts


def _shear_index(src: str) -> int:
    t = _Tokens(src)
    i = t.integer()
    if not t.done():
        raise ParseError("expected ')' after the shear index", t.pos)
    return i


def parse_field(surface: SurfaceConfig, src: str) -> AlgebraicVectorField:
    from .fields import AlgebraicVectorField, hyperbolic, shear_x, shear_y

    s = src.strip()
    lead = len(src) - len(src.lstrip())  # the position of s in src
    if s.startswith("["):
        if not s.endswith("]"):
            raise ParseError("expected ']' to close the field triple")
        comps = _split(s[1:-1], lead + 1)
        if len(comps) != 3:
            raise ParseError("field triple must have three ';'-separated components")
        ex, ey, ez = (_inner(at, parse_expression, surface, c) for at, c in comps)
        return AlgebraicVectorField(ex, ey, ez)
    if s.startswith(("SFx(", "SFy(")) and s.endswith(")"):
        i = _inner(lead + 4, _shear_index, s[4:-1])
        return (shear_x if s[2] == "x" else shear_y)(surface, i)
    if s.startswith("HF(") and s.endswith(")"):
        return hyperbolic(surface, _inner(lead + 3, parse_unipoly, s[3:-1]))
    raise ParseError(f"not a field literal: {src!r}")


# -- automorphism words -----------------------------------------------------------


def parse_generator(src: str) -> Generator:
    from .automorphisms import Hyperbolic, Involution, Symmetry, XShear, YShear

    s = src.strip()
    lead = len(src) - len(src.lstrip())  # the position of s in src
    if s == "I":
        return Involution()
    if s.startswith("Dx(") and s.endswith(")"):
        return XShear(_inner(lead + 3, parse_unipoly, s[3:-1]))
    if s.startswith("Dy(") and s.endswith(")"):
        return YShear(_inner(lead + 3, parse_unipoly, s[3:-1]))
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
    from .automorphisms import PolynomialAutomorphism

    s = src.strip()
    lead = len(src) - len(src.lstrip())  # the position of s in src
    word = [] if not s or s == "id" else [
        _inner(at, parse_generator, g) for at, g in _split(s, lead)]
    return PolynomialAutomorphism(surface, word)


def format_generator(g: Generator) -> str:
    from .automorphisms import Hyperbolic, Involution, XShear, YShear

    if isinstance(g, XShear):
        return f"Dx({format_unipoly(g.f, 'x')})"
    if isinstance(g, YShear):
        return f"Dy({format_unipoly(g.f, 'y')})"
    if isinstance(g, Hyperbolic):
        return f"H({format_rational(g.lam)})"
    if isinstance(g, Involution):
        return "I"
    return f"Sym({format_rational(g.c)}, {format_rational(g.b)})"


def format_word(phi: PolynomialAutomorphism) -> str:
    return ";".join(format_generator(g) for g in phi.word) if phi.word else "id"


# -- certificate files -------------------------------------------------------------


def cert_to_obj(expr: BracketExpression) -> dict:
    from .membership import fold

    def leaf(e) -> dict:
        arg = {"poly": format_unipoly(e.poly)} if e.kind == "HF" else {"i": e.i}
        return {"leaf": {"kind": e.kind, **arg}}

    def sum_(terms) -> dict:
        return {"sum": [[format_rational(w), v] for w, v in terms]}

    return fold(expr, leaf, sum_, lambda a, b: {"bracket": [a, b]})


# Ceiling on the nesting depth of a certificate read from a file: reading,
# evaluating and printing a certificate recurse once per level, so this
# keeps them far from the interpreter's recursion limit.  The deepest
# certificate that certify or z2-certify emits on the test and benchmark
# inputs has depth 13.
MAX_CERT_DEPTH = 100
_TOO_DEEP = f"certificate is nested deeper than MAX_CERT_DEPTH = {MAX_CERT_DEPTH}"


def cert_from_obj(obj) -> BracketExpression:
    """Inverse of ``cert_to_obj``; raises ParseError on any other shape, and
    on a node below level MAX_CERT_DEPTH.  Equal subtrees are interned as they
    are built, so the result has one object per distinct subtree."""
    from .membership import Bracket, Leaf, Sum

    interned: dict = {}

    def node(obj, depth: int) -> BracketExpression:
        e = build(obj, depth)
        return interned.setdefault(e, e)

    def build(obj, depth: int) -> BracketExpression:
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
                return Leaf("HF", poly=parse_unipoly(leaf["poly"]))
            if kind in ("SFx", "SFy"):
                i = leaf.get("i")
                if not isinstance(i, int) or isinstance(i, bool):
                    raise ParseError(f"an {kind} leaf needs an integer 'i'")
                if abs(i) >= HEIGHT:
                    raise ParseError(
                        f"an {kind} leaf's 'i' has more than {MAX_DIGITS} digits, over "
                        f"the ceiling MAX_DIGITS = {MAX_DIGITS}"
                    )
                return Leaf(kind, i)
            raise ParseError(f"unknown leaf kind {kind!r}")
        if "sum" in obj:
            terms = obj["sum"]
            if not isinstance(terms, list) or not all(
                isinstance(t, list) and len(t) == 2 and isinstance(t[0], str) for t in terms
            ):
                raise ParseError("'sum' must be a list of [weight, node] pairs")
            return Sum(tuple((_parse_rational(w), node(t, depth + 1)) for w, t in terms))
        if "bracket" in obj:
            pair = obj["bracket"]
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError("'bracket' must be a list of two nodes")
            return Bracket(node(pair[0], depth + 1), node(pair[1], depth + 1))
        raise ParseError("certificate node must have one of leaf/sum/bracket")

    return node(obj, 1)


# Ceiling on the tree nodes of a certificate that is printed or written: the
# file form is the expanded tree, 150 to 300 bytes per node as indented JSON.
# x on z^6 - z + 1 has 110 nodes at its default bound (a 15 KB file), and
# x on z^9 - z + 1 at bound 32 has 447.  No certificate tried within
# MAX_CERTIFY_DEGREE comes near the ceiling; it stands against an input that
# does.
MAX_CERT_NODES = 10**6


def certificate_file_obj(
    surface: SurfaceConfig, claimed: SurfacePolynomial, expr: BracketExpression
) -> dict:
    """The certificate file of ``expr``; DegreeGate when its tree has more than
    MAX_CERT_NODES nodes, counted over the shared subtrees before anything is
    built."""
    from .membership import expression_size

    nodes = expression_size(expr)
    if nodes > MAX_CERT_NODES:
        raise DegreeGate(
            f"the certificate has {nodes} tree nodes, over the ceiling "
            f"MAX_CERT_NODES = {MAX_CERT_NODES}"
        )
    return {
        "p": format_unipoly(surface.p),
        "claimed": format_surface_polynomial(claimed),
        "certificate": cert_to_obj(expr),
    }


def load_certificate_file(text: str):
    """Returns (surface, claimed, expression).

    The cyclic garbage collector is paused while the JSON is read: the
    containers it creates hold no cycles, and on a large file the collector's
    passes over them took most of the read.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        obj = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer over Python's digit limit
        raise ParseError(f"invalid certificate file: {exc}")
    except RecursionError:
        raise ParseError(_TOO_DEEP)
    finally:
        if collecting:
            gc.enable()
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
