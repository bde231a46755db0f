"""Exact arithmetic in the coordinate ring of the surface x*y = p(z).

The ring is graded by the hyperbolic action (x, y, z) -> (l*x, y/l, z):
x has weight 1, y weight -1 and z weight 0.  Every element has a unique
normal form sum_n u_n q_n(z), one nonzero coefficient q_n in Q[z] per
weight n, where u_n = x^n for n > 0, y^(-n) for n < 0 and 1 for n = 0.  It
is stored as one flat term table, the tuple (n0, e0, c0, n1, e1, c1, ...) of
the terms c u_n z^e sorted by (n, e), each c a nonzero Fraction, so equal
elements have equal tables and an element holds no dict.  Other modules
build elements with the SurfaceConfig constructors or from a dict
{n: q_n} and read them through ``coeffs``, the {n: q_n} view, which is
built afresh on each read; only this module reads the table.  The term
views ``xpart``/``ypart``/``zpart`` are for readers outside the library.

``SurfacePolynomial`` is the only element class.  Sums, scaling, the
partials, ``euler``, ``swap_xy`` and comparison work on the table.  Only
its product uses the chart x != 0, where y = p(z)/x and an element becomes
a Laurent polynomial in x with coefficients in Q[z], a plain dict
{power of x: q(z)} built from ``coeffs``:
``to_chart`` sends y^n q(z) to x^(-n) p^n q(z) and leaves the other weights
alone, and ``from_chart`` divides the coefficient of x^(-n) by p^n, which
is exact for every product of surface elements.  Both take p^n from
``SurfaceConfig.p_power``, which checks the MAX_DIGITS gate on n before it
forms anything and keeps the powers up to a small bound per surface, so
each of them is formed once.

``poly_divrem`` is one pass of long division over one copy of the
dividend's coefficients, visiting only the exponents present, highest
first; ``from_chart`` divides by p^n with it, and ``bezout`` takes its
quotients from it.  ``poly_rem_sparse`` takes a remainder with no quotient,
as ``eval_generic`` at z in Q[z]/(divisor), each gap between exponents one
product by a ``power`` of z, so the membership test's rem(antiderivative(a0),
p) costs the terms present times the log of the degree.

The derivations the field calculus needs, x d/dx and x d/dz of the chart,
and the exact quotient by x are computed on the weights directly
(``euler``, ``x_dz``, ``div_x``).
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import lcm
from operator import neg

from .errors import (
    DegreeGate,
    DivisionByZeroPolynomial,
    InternalInvariantViolation,
    RepeatedRoot,
    ZeroPolynomial,
)

# Ceiling on the digits of a numerator or denominator: the parser holds its
# literals, products and power steps to it, and ``SurfaceConfig.p_power``
# every power of p the library forms, before forming it.  int() refuses
# strings of more than 4300 digits.
MAX_DIGITS = 1000
HEIGHT = 10**MAX_DIGITS

# Largest power of p a surface keeps (``SurfaceConfig.p_power``).  A product
# asks for p^m with m at most its y-degree (12 at most on the workloads in
# bench/); the bound keeps a rare tall power, such as the p^1000 of a parsed
# (x*y)^1000, from filling the table.
_P_TABLE_MAX = 32


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


# One shared Fraction per integer of absolute value at most 256, as CPython
# keeps one int per small integer.  Coefficients of parsed elements and
# weights of certificates are mostly such integers; a held element or
# certificate then points at the shared value instead of owning a copy.
_SMALL_FRACTIONS = {n: Fraction(n) for n in range(-256, 257)}


def shared(v: Fraction) -> Fraction:
    """``v``, or the shared Fraction equal to it when ``v`` is a small integer."""
    return _SMALL_FRACTIONS.get(v.numerator, v) if v.denominator == 1 else v


class UniPoly:
    """Sparse univariate polynomial over Q, keyed by exponent."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                v = _frac(v)
                if v:
                    c[int(e)] = v
        self.c = c

    @classmethod
    def const(cls, v) -> "UniPoly":
        return cls({0: _frac(v)})

    @classmethod
    def monomial(cls, e: int, v=1) -> "UniPoly":
        return cls({e: _frac(v)})

    @classmethod
    def var(cls) -> "UniPoly":
        return cls({1: Fraction(1)})

    @staticmethod
    def _new(c: dict) -> "UniPoly":
        """The polynomial with the table ``c``, which has no zero values."""
        r = object.__new__(UniPoly)
        r.c = c
        return r

    @property
    def degree(self) -> int:
        """The largest exponent present; -1 for the zero polynomial."""
        return max(self.c, default=-1)

    def is_zero(self) -> bool:
        return not self.c

    def coeff(self, e: int) -> Fraction:
        return self.c.get(e, Fraction(0))

    def lead(self) -> Fraction:
        if not self.c:
            raise DivisionByZeroPolynomial("zero polynomial has no leading coefficient")
        return self.c[max(self.c)]

    def __add__(self, other: "UniPoly") -> "UniPoly":
        return UniPoly._new(table_add(self.c, other.c))

    def __neg__(self) -> "UniPoly":
        return UniPoly._new({e: -v for e, v in self.c.items()})

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        c = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                if e in c:
                    w = c[e] + v1 * v2
                    if w:
                        c[e] = w
                    else:
                        del c[e]
                else:
                    c[e] = v1 * v2
        return UniPoly._new(c)

    def scale(self, v) -> "UniPoly":
        return UniPoly._new(table_scale(self.c, v))

    def __pow__(self, n: int) -> "UniPoly":
        return power(self, n, UniPoly.const(1))

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def derivative(self) -> "UniPoly":
        return UniPoly({e - 1: v * e for e, v in self.c.items() if e >= 1})

    def antiderivative(self) -> "UniPoly":
        """Primitive with zero constant term."""
        return UniPoly({e + 1: v / (e + 1) for e, v in self.c.items()})

    def eval(self, x) -> Fraction:
        x = _frac(x)
        acc = Fraction(0)
        for e, v in self.c.items():
            acc += v * x**e
        return acc

    def compose(self, other: "UniPoly") -> "UniPoly":
        """self(other(z))."""
        return self.eval_generic(other, UniPoly.const(1))

    def eval_generic(self, x, one):
        """Evaluate at an element of any commutative ring, by Horner's scheme.

        ``x`` and ``one`` must support ``+``, ``*`` and ``scale``.  Each gap
        between the exponents present costs one product by x^gap (``power``),
        so a dense polynomial costs one product per degree and a sparse one
        its terms times the log of its degree.
        """
        acc = one.scale(0)
        es = sorted(self.c, reverse=True)
        for e, below in zip(es, es[1:] + [0]):
            acc = acc + one.scale(self.c[e])
            if e > below:
                acc = acc * power(x, e - below, one)
        return acc

    def __repr__(self):
        return f"UniPoly({self.c!r})"


def table_add(f: dict, g: dict) -> dict:
    """f + g for coefficient tables {key: Fraction} with no zero values (a
    UniPoly's terms, or a formal polynomial's), as a new such table."""
    r = dict(f)
    for k, v in g.items():
        w = r[k] + v if k in r else v
        if w:
            r[k] = w
        else:
            r.pop(k, None)
    return r


def table_scale(f: dict, v) -> dict:
    """The coefficient table ``f`` times the rational ``v``."""
    v = _frac(v)
    return {k: w * v for k, w in f.items()} if v else {}


def power(base, n: int, one):
    """base**n by binary powering, low bits first; ``one`` is the unit of
    base's ring and is returned for n = 0.

    For n >= 1 it takes n.bit_length() - 1 squarings and popcount(n) - 1
    other products: the lowest set bit starts the result at a power of
    base, and nothing is squared after the highest bit (Knuth, TAOCP
    vol. 2, §4.6.3, Algorithm A).
    """
    if n < 0:
        raise ValueError("negative power of a polynomial")
    if not n:
        return one
    while not n & 1:
        base = base * base
        n >>= 1
    result = base
    n >>= 1
    while n:
        base = base * base
        if n & 1:
            result = result * base
        n >>= 1
    return result


class Echelon:
    """Exact Gaussian elimination over Q, one column at a time.

    A column is a sparse vector {row: value}, rows >= 0.  ``add`` keeps a
    column iff it is independent of the columns kept so far, so the kept
    columns are the pivot columns of a column-order Gauss-Jordan
    elimination.  Each kept column is stored reduced: normalized to 1 at a
    pivot row where every later stored vector is 0, with minus its
    expression in the kept columns in the rows < 0 (the k-th kept column's
    weight at row -1 - k).  One pass of ``_reduce`` over the stored vectors
    thus leaves a residual in the rows >= 0 and, in the rows < 0, the
    weights on the kept columns of the combination it took, so every
    ``split`` against the same columns reuses one elimination.
    """

    __slots__ = ("columns", "pivots", "_basis")

    def __init__(self):
        self.columns = 0  # columns offered
        self.pivots: list[int] = []  # the indices of the kept columns
        self._basis: list[tuple[int, dict]] = []  # (pivot row, stored vector)

    def _reduce(self, vector: dict) -> dict:
        """``vector`` minus its combination of the stored vectors."""
        v = {k: w for k, w in vector.items() if w}
        for row, b in self._basis:
            c = v.get(row)
            if c:  # v -= c * b
                c = -c
                for k, w in b.items():
                    u = v[k] + c * w if k in v else c * w
                    if u:
                        v[k] = u
                    else:
                        del v[k]
        return v

    def add(self, column: dict) -> bool:
        """Offer the next column; True iff it is independent of the kept
        columns, and so kept."""
        self.columns += 1
        v = self._reduce(column)
        row = max(v, default=-1)
        if row < 0:
            return False
        v[-1 - len(self._basis)] = Fraction(-1)  # minus the weight 1 of this column
        inv = 1 / v[row]
        self._basis.append((row, {k: w * inv for k, w in v.items()}))
        self.pivots.append(self.columns - 1)
        return True

    def split(self, target: dict) -> tuple[list[Fraction], dict]:
        """The weights w, one per kept column, and the residual r, with
        target = sum(w_k * kept_k) + r and r zero at every pivot row.  The
        residual is {} iff the columns give ``target``; the weights are then
        the unique ones, since the kept columns are independent."""
        v = self._reduce(target)
        zero = Fraction(0)
        return [v.pop(-1 - k, zero) for k in range(len(self._basis))], v


def _divide(r: dict, b: dict, q: dict | None = None) -> None:
    """Long division of the coefficient dict ``r`` by the nonzero ``b``, in
    place: ``r`` becomes the remainder, and the quotient's terms go into
    ``q`` when one is given.

    One pass of the classical algorithm (Knuth, TAOCP vol. 2, §4.6.1,
    Algorithm D): the exponents of ``r`` at or above deg b are taken highest
    first from a heap, and each quotient term subtracts its shifted multiple
    of b's lower terms from ``r``.  The cost follows the terms visited, not
    deg r - deg b, so a sparse dividend of high degree is cheap.
    """
    db = max(b)
    lb = b[db]
    lower = [(e, v / lb) for e, v in b.items() if e != db]
    heap = [-e for e in r if e >= db]
    heapify(heap)
    while heap:
        e = -heappop(heap)
        v = r.pop(e, None)
        if v is None:  # cancelled, or already taken
            continue
        s = e - db
        if q is not None:
            q[s] = v / lb
        for eb, c in lower:
            k = s + eb
            w = r.get(k)
            if w is None:
                r[k] = -v * c
                if k >= db:
                    heappush(heap, -k)
            else:
                w -= v * c
                if w:
                    r[k] = w
                else:
                    del r[k]


def poly_divrem(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Long division: a = q*b + r with deg r < deg b, over one copy of a's
    coefficients (``_divide``)."""
    if b.is_zero():
        raise DivisionByZeroPolynomial("polynomial division by zero")
    q, r = UniPoly._new({}), UniPoly._new(dict(a.c))
    _divide(r.c, b.c, q.c)
    return q, r


class _Residue:
    """A polynomial modulo the nonzero ``m``, the ring ``poly_rem_sparse``
    evaluates in.  Products are reduced by m (``_divide``); sums and
    multiples are not, since those of reduced residues stay reduced."""

    __slots__ = ("q", "m")

    def __init__(self, q: UniPoly, m: UniPoly):
        self.q, self.m = q, m

    def __add__(self, other: "_Residue") -> "_Residue":
        return _Residue(self.q + other.q, self.m)

    def __mul__(self, other: "_Residue") -> "_Residue":
        r = self.q * other.q
        _divide(r.c, self.m.c)
        return _Residue(r, self.m)

    def scale(self, v) -> "_Residue":
        return _Residue(self.q.scale(v), self.m)


def poly_rem_sparse(a: UniPoly, m: UniPoly) -> UniPoly:
    """poly_divrem(a, m)[1], with no quotient formed: a evaluated at z in
    Q[z]/(m) (``eval_generic``), so its cost follows the terms of a times
    log(deg a), and a sparse a of very high degree is cheap.
    """
    if m.is_zero():
        raise DivisionByZeroPolynomial("polynomial division by zero")
    if not m.degree:
        return UniPoly()
    return a.eval_generic(_Residue(UniPoly.var(), m), _Residue(UniPoly.const(1), m)).q


def bezout(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly, UniPoly]:
    """Extended Euclid: u*a + v*b = g = gcd(a, b), g monic; a and b not both 0."""
    r0, r1 = a, b
    u0, u1 = UniPoly.const(1), UniPoly()
    v0, v1 = UniPoly(), UniPoly.const(1)
    while not r1.is_zero():
        q, r = poly_divrem(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    s = 1 / r0.lead()
    return u0.scale(s), v0.scale(s), r0.scale(s)


class SurfaceConfig:
    """The defining polynomial p together with derived exact data."""

    __slots__ = ("p", "p_prime", "degree", "max_p_power", "_p_powers")

    def __init__(self, p: UniPoly):
        if p.is_zero():
            raise ZeroPolynomial("p must be nonzero")
        if p.degree < 1:
            raise ZeroPolynomial("p must have degree >= 1")
        self.p = p
        self.p_prime = p.derivative()
        self.degree = p.degree
        if bezout(p, self.p_prime)[2].degree != 0:
            raise RepeatedRoot("p has a repeated root: gcd(p, p') = nontrivial")
        # With d the common denominator of p and |d p|_1 the sum of the
        # absolute values of the coefficients of d p, every numerator and
        # denominator of p^m is at most B^m, B = max(d, |d p|_1).  The
        # largest m with B^m < 10^MAX_DIGITS is 3321 on z^3 - z (B = 2).
        # B = 1 only for p = +-z, whose powers are +-z^m: no bound (None).
        cs = p.c.values()
        d = lcm(*(v.denominator for v in cs))
        b = max(d, sum(abs(v.numerator) * (d // v.denominator) for v in cs))
        m, h = None, b
        if b > 1:
            m = 0
            while h < HEIGHT:
                m += 1
                h *= b
        self.max_p_power = m
        self._p_powers = [UniPoly.const(1)]  # [p^0, p^1, ...], up to _P_TABLE_MAX

    def p_power(self, m: int) -> UniPoly:
        """p^m.  Raises DegreeGate before forming it if a coefficient of it may
        have more than MAX_DIGITS digits (``m > max_p_power``).

        Powers up to ``_P_TABLE_MAX`` are formed once per surface, one
        product by p at a time, and kept; callers share the returned
        UniPoly and must not write into it.  Higher powers are formed on
        each call and not kept."""
        if self.max_p_power is not None and m > self.max_p_power:
            raise DegreeGate(
                f"p^{m} may have a coefficient of more than {MAX_DIGITS} digits, "
                f"over the ceiling MAX_DIGITS = {MAX_DIGITS}"
            )
        if not 0 <= m <= _P_TABLE_MAX:
            return self.p**m
        table = self._p_powers
        while len(table) <= m:
            table.append(table[-1] * self.p)
        return table[m]

    def __eq__(self, other) -> bool:
        return isinstance(other, SurfaceConfig) and self.p == other.p

    def __hash__(self):
        return hash(self.p)

    # -- element constructors -------------------------------------------------

    def zero(self) -> "SurfacePolynomial":
        return SurfacePolynomial(self)

    def const(self, v) -> "SurfacePolynomial":
        return SurfacePolynomial(self, {0: UniPoly.const(v)})

    def x(self, i: int = 1, j: int = 0, v=1) -> "SurfacePolynomial":
        """v * x^i * z^j."""
        return SurfacePolynomial(self, {i: UniPoly.monomial(j, v)})

    def y(self, i: int = 1, j: int = 0, v=1) -> "SurfacePolynomial":
        """v * y^i * z^j."""
        return SurfacePolynomial(self, {-i: UniPoly.monomial(j, v)})

    def z(self) -> "SurfacePolynomial":
        return self.from_unipoly(UniPoly.var())

    def from_unipoly(self, q: UniPoly) -> "SurfacePolynomial":
        return SurfacePolynomial(self, {0: q})


def make_surface(p: UniPoly) -> SurfaceConfig:
    return SurfaceConfig(p)


# -- formal polynomials in x, y, z (pre-reduction) ----------------------------
#
# A formal polynomial is a dict (a, b, c) -> Fraction for the monomial
# x^a y^b z^c, with no zero values.  Used by the parser, by ``reduce`` and
# by test oracles; ``table_add`` and ``table_scale`` add and scale them.


def formal_mul(f: dict, g: dict) -> dict:
    r = {}
    for (a1, b1, c1), v1 in f.items():
        for (a2, b2, c2), v2 in g.items():
            k = (a1 + a2, b1 + b2, c1 + c2)
            if k in r:
                w = r[k] + v1 * v2
                if w:
                    r[k] = w
                else:
                    del r[k]
            else:
                r[k] = v1 * v2
    return r


def reduce(surface: SurfaceConfig, raw: dict) -> "SurfacePolynomial":
    """Rewrite every occurrence of x*y to p(z); result is in normal form.

    Order of rewriting does not matter: x^a y^b z^c always collapses to
    weight a - b with coefficient z^c p^m, m = min(a, b).
    """
    coeffs: dict[int, UniPoly] = {}
    for (a, b, c), v in raw.items():
        m = min(a, b)
        q = surface.p_power(m) * UniPoly.monomial(c, v) if m else UniPoly.monomial(c, v)
        n = a - b
        coeffs[n] = coeffs[n] + q if n in coeffs else q
    return SurfacePolynomial(surface, coeffs)


def _flatten(triples) -> tuple:
    """The term table of (weight, z-exponent, coefficient) triples that come
    in table order."""
    # tuple() of a list takes a block of the exact size, so a table reuses
    # the block of one that was freed; tuple() of an iterator resizes a new
    # block, and the freed tables pile up in CPython's tuple free lists
    # (1.2 MB after 1200 conjugate ops of the benchmark).
    return tuple(list(chain.from_iterable(triples)))


def _sorted_table(triples) -> tuple:
    """The term table of (weight, z-exponent, coefficient) triples in any
    order.  Their (weight, z-exponent) pairs are distinct, so the sort
    compares no two coefficients."""
    return _flatten(sorted(triples))


def _with_coefficients(terms: tuple, cs: list) -> tuple:
    """The table ``terms`` with its coefficients, in order, replaced by the
    nonzero ``cs``."""
    t = list(terms)
    t[2::3] = cs
    return tuple(t)


class SurfacePolynomial:
    """Normal-form element of the coordinate ring, graded by weight.

    The element is one flat tuple of its terms, ``(n0, e0, c0, n1, e1, c1,
    ...)``: the term c z^e times x^n (n > 0), y^(-n) (n < 0) or 1 (n = 0),
    sorted by (n, e), each c a nonzero Fraction.  Equal elements have equal
    tables.  ``coeffs`` is the {n: q_n(z)} view of it, built fresh on each
    read, so a loop reads it once.  Operands of a binary operation must lie
    on one surface.
    """

    __slots__ = ("surface", "_terms")

    def __init__(self, surface: SurfaceConfig, coeffs=None):
        """The element sum u_n q_n(z) of ``coeffs = {n: q_n}``; zero q_n are
        dropped."""
        self.surface = surface
        t: list = []
        for n in sorted(coeffs or ()):
            c, k = coeffs[n].c, int(n)
            for e in sorted(c):
                t += (k, e, shared(c[e]))
        self._terms = tuple(t)

    def _new(self, terms: tuple) -> "SurfacePolynomial":
        """An element on the same surface with the term table ``terms``."""
        r = object.__new__(SurfacePolynomial)
        r.surface = self.surface
        r._terms = terms
        return r

    def _triples(self):
        """The terms (n, e, c) in table order."""
        t = self._terms
        return zip(t[0::3], t[1::3], t[2::3])

    def _check(self, other: "SurfacePolynomial"):
        if other.surface is not self.surface and other.surface != self.surface:
            raise InternalInvariantViolation("mixing elements of different surfaces")

    @property
    def coeffs(self) -> dict:
        """{n: q_n}, a fresh dict of fresh UniPolys in ascending n."""
        out: dict = {}
        last = None
        for n, e, v in self._triples():
            if n != last:  # a new weight starts its polynomial
                q = {}
                out[n] = UniPoly._new(q)
                last = n
            q[e] = v
        return out

    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, k: int) -> UniPoly:
        return UniPoly._new({e: v for n, e, v in self._triples() if n == k})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SurfacePolynomial)
            and self.surface == other.surface
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash(self._terms)

    def __add__(self, other: "SurfacePolynomial") -> "SurfacePolynomial":
        self._check(other)
        a, b = self._terms, other._terms
        if not b:
            return self
        if not a:
            return other
        d = table_add(dict(zip(zip(a[0::3], a[1::3]), a[2::3])),
                      dict(zip(zip(b[0::3], b[1::3]), b[2::3])))
        return self._new(_sorted_table((n, e, c) for (n, e), c in d.items()))

    def __neg__(self) -> "SurfacePolynomial":
        return self._new(_with_coefficients(self._terms, [-c for c in self._terms[2::3]]))

    def __sub__(self, other: "SurfacePolynomial") -> "SurfacePolynomial":
        return self + (-other)

    def scale(self, v) -> "SurfacePolynomial":
        v = _frac(v)
        if not v:
            return self._new(())
        return self._new(_with_coefficients(self._terms, [c * v for c in self._terms[2::3]]))

    def __mul__(self, other: "SurfacePolynomial") -> "SurfacePolynomial":
        """The product of the chart images, carried back to the surface."""
        self._check(other)
        a, b = to_chart(self), to_chart(other)
        c: dict = {}
        for k1, q1 in a.items():
            for k2, q2 in b.items():
                k = k1 + k2
                c[k] = c[k] + q1 * q2 if k in c else q1 * q2
        return from_chart(self.surface, c)

    def __pow__(self, n: int) -> "SurfacePolynomial":
        return power(self, n, self.surface.const(1))

    def with_shared(self) -> "SurfacePolynomial":
        """This element with each small-integer coefficient the shared
        Fraction (``shared``), in one pass.  Sums, scaling and the partials
        build their tables (``_new``) with fresh Fractions, since sharing
        there would slow every operation; a result that is kept long is
        passed through this once."""
        return self._new(_with_coefficients(self._terms, list(map(shared, self._terms[2::3]))))

    def weights(self) -> list[int]:
        """The weights present, in printing order: x-terms by ascending power,
        then y-terms by ascending power, then the pure-z part."""
        return sorted(set(self._terms[0::3]), key=lambda n: (n == 0, n < 0, abs(n)))

    # -- read-only views in the (power of x or y, power of z) layout ----------

    @property
    def xpart(self) -> dict:
        """{(i, j): coefficient of x^i z^j}, a fresh dict."""
        return {(n, e): v for n, e, v in self._triples() if n > 0}

    @property
    def ypart(self) -> dict:
        """{(i, j): coefficient of y^i z^j}, a fresh dict."""
        return {(-n, e): v for n, e, v in self._triples() if n < 0}

    @property
    def zpart(self) -> UniPoly:
        return self.coeff(0)

    # -- calculus on the normal-form representative ---------------------------

    def _lower(self, sign: int) -> "SurfacePolynomial":
        """d/du for u = x (sign 1) or u = y (sign -1): u^m q(z) -> m u^(m-1) q(z)."""
        return self._new(
            _flatten((n - sign, e, v * (n * sign)) for n, e, v in self._triples() if n * sign > 0)
        )

    def partial_x(self) -> "SurfacePolynomial":
        """Formal d/dx of the normal-form representative."""
        return self._lower(1)

    def partial_y(self) -> "SurfacePolynomial":
        return self._lower(-1)

    def partial_z(self) -> "SurfacePolynomial":
        return self._new(_flatten((n, e - 1, v * e) for n, e, v in self._triples() if e))

    def euler(self) -> "SurfacePolynomial":
        """E = x d/dx at fixed z in the chart: multiplies the weight-n part by n."""
        return self._new(_flatten((n, e, v * n) for n, e, v in self._triples() if n))

    def x_dz(self) -> "SurfacePolynomial":
        """D = x d/dz at fixed x in the chart: x^n q -> x^(n+1) q' for n >= 0,
        y^m q -> y^(m-1) (m p' q + p q') for m = -n > 0."""
        s = self.surface
        return SurfacePolynomial(s, {
            n + 1: q.derivative() if n >= 0 else s.p_prime * q.scale(-n) + s.p * q.derivative()
            for n, q in self.coeffs.items()
        })

    def swap_xy(self) -> "SurfacePolynomial":
        """Image under the involution (x, y, z) -> (y, x, z)."""
        t = self._terms
        return self._new(_sorted_table(zip(map(neg, t[0::3]), t[1::3], t[2::3])))

    def div_x(self) -> "SurfacePolynomial":
        """The exact quotient by x: x^n q -> x^(n-1) q for n >= 1 and, since
        1/x = y/p, y^m q -> y^(m+1) q/p for m = -n >= 0.  A remainder of q
        by p raises InternalInvariantViolation."""
        s = self.surface
        quotient = {}
        for n, q in self.coeffs.items():
            if n <= 0:
                q, rem = poly_divrem(q, s.p)
                if not rem.is_zero():
                    raise InternalInvariantViolation(f"x does not divide the weight-{n} part")
            quotient[n - 1] = q
        return SurfacePolynomial(s, quotient)

    def eval_at(self, x0, y0, z0) -> Fraction:
        x0, y0, z0 = _frac(x0), _frac(y0), _frac(z0)
        return sum(
            (v * z0**e * (x0**n if n >= 0 else y0**-n) for n, e, v in self._triples()),
            Fraction(0),
        )

    def drop_constant(self) -> "SurfacePolynomial":
        """Canonical representative modulo constants (zero absolute term)."""
        return self._new(_flatten(t for t in self._triples() if t[0] or t[1]))

    def __repr__(self):
        from .parsing import format_surface_polynomial

        return f"<{format_surface_polynomial(self)}>"


def to_chart(e: SurfacePolynomial) -> dict:
    """The chart image {power of x: UniPoly}: x^n q(z) stays, y^n q(z)
    becomes x^(-n) p^n q(z)."""
    s = e.surface
    return {n: q if n >= 0 else s.p_power(-n) * q for n, q in e.coeffs.items()}


def from_chart(surface: SurfaceConfig, c: dict) -> SurfacePolynomial:
    """Inverse of ``to_chart``: the coefficient of x^(-n) is divided by p^n.

    The product is the only caller, and a product of surface elements always
    descends, so a remainder raises InternalInvariantViolation.
    """
    coeffs: dict = {}
    for k, q in c.items():
        if k < 0:
            q, rem = poly_divrem(q, surface.p_power(-k))
            if not rem.is_zero():
                raise InternalInvariantViolation(
                    f"chart product left the surface: the coefficient of x^{k} "
                    f"is not divisible by p^{-k}"
                )
        coeffs[k] = q
    return SurfacePolynomial(surface, coeffs)
