"""Exact arithmetic in the coordinate ring of the surface x*y = p(z).

The ring is graded by the hyperbolic action (x, y, z) -> (l*x, y/l, z):
x has weight 1, y weight -1 and z weight 0.  Every element has a unique
normal form sum_n u_n q_n(z), one nonzero coefficient q_n in Q[z] per
weight n, where u_n = x^n for n > 0, y^(-n) for n < 0 and 1 for n = 0; it
is stored as the dict ``coeffs = {n: q_n}``.  Other modules build elements
with the SurfaceConfig constructors or from such a dict and read them
through ``coeffs``; the term views ``xpart``/``ypart``/``zpart`` are for
readers outside the library.

``SurfacePolynomial`` is the only element class.  Only its product uses
the chart x != 0, where y = p(z)/x and an element becomes a Laurent
polynomial in x with coefficients in Q[z], a plain dict {power of x: q(z)}:
``to_chart`` sends y^n q(z) to x^(-n) p^n q(z) and leaves the other weights
alone, and ``from_chart`` divides the coefficient of x^(-n) by p^n, which
is exact for every product of surface elements.  Both take p^n from
``SurfaceConfig.p_power``, which checks the MAX_DIGITS gate on n before it
forms anything and keeps the powers up to a small bound per surface, so
each of them is formed once.  The derivations the field calculus needs,
x d/dx and x d/dz of the chart, are computed on the weights directly
(``euler``, ``x_dz``).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import (
    DegreeGate,
    DivisionByZeroPolynomial,
    InternalInvariantViolation,
    RepeatedRoot,
    ZeroPolynomial,
)

NEG_INF = float("-inf")

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

    @property
    def degree(self):
        return max(self.c) if self.c else NEG_INF

    def is_zero(self) -> bool:
        return not self.c

    def coeff(self, e: int) -> Fraction:
        return self.c.get(e, Fraction(0))

    def lead(self) -> Fraction:
        if not self.c:
            raise DivisionByZeroPolynomial("zero polynomial has no leading coefficient")
        return self.c[max(self.c)]

    def __add__(self, other: "UniPoly") -> "UniPoly":
        c = dict(self.c)
        for e, v in other.c.items():
            w = c.get(e, Fraction(0)) + v
            if w:
                c[e] = w
            else:
                c.pop(e, None)
        r = UniPoly()
        r.c = c
        return r

    def __neg__(self) -> "UniPoly":
        r = UniPoly()
        r.c = {e: -v for e, v in self.c.items()}
        return r

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        c = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                w = c.get(e, Fraction(0)) + v1 * v2
                if w:
                    c[e] = w
                else:
                    del c[e]
        r = UniPoly()
        r.c = c
        return r

    def scale(self, v) -> "UniPoly":
        v = _frac(v)
        r = UniPoly()
        r.c = {} if not v else {e: w * v for e, w in self.c.items()}
        return r

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

        ``x`` and ``one`` must support ``+``, ``*`` and ``scale``.
        """
        acc = one.scale(0)
        prev = max(self.c, default=0)
        for e in sorted(self.c, reverse=True):
            for _ in range(prev - e):
                acc = acc * x
            acc = acc + one.scale(self.c[e])
            prev = e
        for _ in range(prev):
            acc = acc * x
        return acc

    def __repr__(self):
        return f"UniPoly({self.c!r})"


def power(base, n: int, one):
    """base**n by binary powering; ``one`` is the unit of base's ring."""
    if n < 0:
        raise ValueError("negative power of a polynomial")
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


class Echelon:
    """Exact Gaussian elimination over Q, one column at a time.

    A column is a sparse vector {row: value}.  ``add`` keeps a column iff it
    is independent of the columns kept so far, so the kept columns are the
    pivot columns of a column-order Gauss-Jordan elimination.  Each kept
    column is stored reduced: normalized to 1 at a pivot row where every
    later stored vector is 0, together with its expression in the kept
    columns.  ``solve`` then writes a vector in terms of the kept columns by
    one pass over the stored vectors, so every solve against the same
    columns reuses one elimination.
    """

    __slots__ = ("columns", "pivots", "_basis")

    def __init__(self):
        self.columns = 0  # columns offered
        self.pivots: list[int] = []  # the indices of the kept columns
        # (pivot row, reduced vector, its weights on the kept columns)
        self._basis: list[tuple] = []

    def _reduce(self, vector: dict) -> tuple[dict, list]:
        """``vector`` minus its combination of the stored vectors, and the
        weights of that combination."""
        v = {k: w for k, w in vector.items() if w}
        weights = []
        for row, b, _ in self._basis:
            c = v.get(row)
            weights.append(c)
            if c:
                for k, w in b.items():
                    u = v.get(k, 0) - c * w
                    if u:
                        v[k] = u
                    else:
                        del v[k]
        return v, weights

    def _on_kept(self, weights: list) -> list[Fraction]:
        """The combination of the stored vectors with ``weights``, as weights
        on the kept columns."""
        out = [Fraction(0)] * len(self._basis)
        for c, (_, _, t) in zip(weights, self._basis):
            if c:
                for k, w in enumerate(t):
                    if w:
                        out[k] += c * w
        return out

    def add(self, column: dict) -> bool:
        """Offer the next column; True iff it is independent of the kept
        columns, and so kept."""
        index = self.columns
        self.columns += 1
        v, weights = self._reduce(column)
        if not v:
            return False
        row = max(v)
        inv = 1 / v[row]
        # v = column - sum c_j b_j
        t = [-w * inv for w in self._on_kept(weights)]
        t.append(inv)
        self._basis.append((row, {k: w * inv for k, w in v.items()}, t))
        self.pivots.append(index)
        return True

    def solve(self, target: dict) -> list[Fraction] | None:
        """The weights w, one per kept column, with sum(w_k * kept_k) = target,
        or None if no combination of the columns gives ``target``.  Such
        weights are unique, since the kept columns are independent."""
        v, weights = self._reduce(target)
        return None if v else self._on_kept(weights)


def poly_divrem(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Long division: a = q*b + r with deg r < deg b."""
    if b.is_zero():
        raise DivisionByZeroPolynomial("polynomial division by zero")
    q = UniPoly()
    r = a
    db = b.degree
    lb = b.lead()
    while not r.is_zero() and r.degree >= db:
        e = int(r.degree - db)
        v = r.lead() / lb
        t = UniPoly.monomial(e, v)
        q = q + t
        r = r - t * b
    return q, r


def bezout(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly, UniPoly]:
    """Extended Euclid: u*a + v*b = g = gcd(a, b), g monic."""
    r0, r1 = a, b
    u0, u1 = UniPoly.const(1), UniPoly()
    v0, v1 = UniPoly(), UniPoly.const(1)
    while not r1.is_zero():
        q, r = poly_divrem(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero():
        return u0, v0, r0
    s = 1 / r0.lead()
    return u0.scale(s), v0.scale(s), r0.scale(s)


class SurfaceConfig:
    """The defining polynomial p together with derived exact data."""

    __slots__ = ("p", "p_prime", "degree", "gcd_u", "gcd_v", "max_p_power", "_p_powers")

    def __init__(self, p: UniPoly):
        if p.is_zero():
            raise ZeroPolynomial("p must be nonzero")
        if p.degree < 1:
            raise ZeroPolynomial("p must have degree >= 1")
        self.p = p
        self.p_prime = p.derivative()
        self.degree = int(p.degree)
        u, v, g = bezout(p, self.p_prime)
        if g.degree != 0:
            raise RepeatedRoot("p has a repeated root: gcd(p, p') = nontrivial")
        self.gcd_u, self.gcd_v = u, v
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
# by test oracles.


def formal_add(f: dict, g: dict) -> dict:
    r = dict(f)
    for k, v in g.items():
        w = r.get(k, Fraction(0)) + v
        if w:
            r[k] = w
        else:
            r.pop(k, None)
    return r


def formal_mul(f: dict, g: dict) -> dict:
    r = {}
    for (a1, b1, c1), v1 in f.items():
        for (a2, b2, c2), v2 in g.items():
            k = (a1 + a2, b1 + b2, c1 + c2)
            w = r.get(k, Fraction(0)) + v1 * v2
            if w:
                r[k] = w
            else:
                del r[k]
    return r


def formal_scale(f: dict, v) -> dict:
    v = _frac(v)
    return {k: w * v for k, w in f.items()} if v else {}


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


class SurfacePolynomial:
    """Normal-form element of the coordinate ring, graded by weight.

    ``coeffs[n]`` is q(z) for the term x^n q(z) when n > 0, y^(-n) q(z) when
    n < 0 and the pure-z part when n = 0; every stored q is nonzero.
    Operands of a binary operation must lie on one surface.
    """

    __slots__ = ("surface", "coeffs")

    def __init__(self, surface: SurfaceConfig, coeffs=None):
        self.surface = surface
        self.coeffs = (
            {int(k): q for k, q in coeffs.items() if not q.is_zero()} if coeffs else {}
        )

    def _new(self, coeffs: dict) -> "SurfacePolynomial":
        """An element on the same surface; every value of ``coeffs`` is nonzero."""
        r = object.__new__(SurfacePolynomial)
        r.surface = self.surface
        r.coeffs = coeffs
        return r

    def _check(self, other: "SurfacePolynomial"):
        if other.surface is not self.surface and other.surface != self.surface:
            raise InternalInvariantViolation("mixing elements of different surfaces")

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> UniPoly:
        return self.coeffs.get(k, UniPoly())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SurfacePolynomial)
            and self.surface == other.surface
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "SurfacePolynomial") -> "SurfacePolynomial":
        self._check(other)
        c = dict(self.coeffs)
        for k, q in other.coeffs.items():
            if k in c:
                q = c[k] + q
                if q.is_zero():
                    del c[k]
                    continue
            c[k] = q
        return self._new(c)

    def __neg__(self) -> "SurfacePolynomial":
        return self._new({k: -q for k, q in self.coeffs.items()})

    def __sub__(self, other: "SurfacePolynomial") -> "SurfacePolynomial":
        return self + (-other)

    def scale(self, v) -> "SurfacePolynomial":
        v = _frac(v)
        return self._new({k: q.scale(v) for k, q in self.coeffs.items()} if v else {})

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

    def weights(self) -> list[int]:
        """The weights present, in printing order: x-terms by ascending power,
        then y-terms by ascending power, then the pure-z part."""
        return sorted(self.coeffs, key=lambda n: (n == 0, n < 0, abs(n)))

    # -- read-only views in the (power of x or y, power of z) layout ----------

    @property
    def xpart(self) -> dict:
        """{(i, j): coefficient of x^i z^j}, a fresh dict."""
        return {(n, e): v for n, q in self.coeffs.items() if n > 0 for e, v in q.c.items()}

    @property
    def ypart(self) -> dict:
        """{(i, j): coefficient of y^i z^j}, a fresh dict."""
        return {(-n, e): v for n, q in self.coeffs.items() if n < 0 for e, v in q.c.items()}

    @property
    def zpart(self) -> UniPoly:
        return self.coeff(0)

    # -- calculus on the normal-form representative ---------------------------

    def _lower(self, sign: int) -> "SurfacePolynomial":
        """d/du for u = x (sign 1) or u = y (sign -1): u^m q(z) -> m u^(m-1) q(z)."""
        return self._new(
            {n - sign: q.scale(n * sign) for n, q in self.coeffs.items() if n * sign > 0}
        )

    def partial_x(self) -> "SurfacePolynomial":
        """Formal d/dx of the normal-form representative."""
        return self._lower(1)

    def partial_y(self) -> "SurfacePolynomial":
        return self._lower(-1)

    def partial_z(self) -> "SurfacePolynomial":
        return SurfacePolynomial(
            self.surface, {n: q.derivative() for n, q in self.coeffs.items()}
        )

    def euler(self) -> "SurfacePolynomial":
        """E = x d/dx at fixed z in the chart: multiplies the weight-n part by n."""
        return self._new({n: q.scale(n) for n, q in self.coeffs.items() if n})

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
        return self._new({-n: q for n, q in self.coeffs.items()})

    def eval_at(self, x0, y0, z0) -> Fraction:
        x0, y0, z0 = _frac(x0), _frac(y0), _frac(z0)
        return sum(
            (q.eval(z0) * (x0**n if n >= 0 else y0**-n) for n, q in self.coeffs.items()),
            Fraction(0),
        )

    def drop_constant(self) -> "SurfacePolynomial":
        """Canonical representative modulo constants (zero absolute term)."""
        c = dict(self.coeffs)
        if 0 in c:
            c[0] = UniPoly({e: v for e, v in c[0].c.items() if e})
        return SurfacePolynomial(self.surface, c)

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
        if q.is_zero():
            continue
        if k < 0:
            q, rem = poly_divrem(q, surface.p_power(-k))
            if not rem.is_zero():
                raise InternalInvariantViolation(
                    f"chart product left the surface: the coefficient of x^{k} "
                    f"is not divisible by p^{-k}"
                )
        coeffs[k] = q
    return SurfacePolynomial(surface, coeffs)


def constant_quotient(num: SurfacePolynomial, den: SurfacePolynomial) -> Fraction:
    """The constant J with num = J * den; InternalInvariantViolation otherwise."""
    if den.is_zero():
        raise InternalInvariantViolation("constant quotient by zero")
    if num.is_zero():
        return Fraction(0)
    k = max(den.coeffs)
    q = den.coeffs[k]
    e = max(q.c)
    j = num.coeff(k).coeff(e) / q.c[e]
    if not (num - den.scale(j)).is_zero():
        raise InternalInvariantViolation("quotient is not a constant")
    return j
