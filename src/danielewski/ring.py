"""Exact arithmetic in the coordinate ring of the surface x*y = p(z).

Every element has a unique normal form with three parts: terms x^i z^j
(i >= 1), terms y^i z^j (i >= 1) and a pure-z absolute term.  Products are
computed in the chart x != 0, where elements become Laurent polynomials in
x with coefficients in Q[z]; a Laurent element descends back to the surface
exactly when the coefficient of x^(-i) is divisible by p^i.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DivisionByZeroPolynomial,
    InternalInvariantViolation,
    NotOnSurface,
    RepeatedRoot,
    ZeroPolynomial,
)

Frac = Fraction

NEG_INF = float("-inf")


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


def row_reduce(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Gauss-Jordan elimination, in place, on the first ``ncols`` columns.

    Pivots are taken in column order.  Returns the pivot columns: row k then
    has a 1 in column pivots[k] and 0 in every other pivot column, and the
    rows past the last pivot are zero in the first ``ncols`` columns.
    """
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                fac = rows[i][col]
                rows[i] = [v - fac * w for v, w in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots


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


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd (or zero if both are zero)."""
    while not b.is_zero():
        _, r = poly_divrem(a, b)
        a, b = b, r
    if a.is_zero():
        return a
    return a.scale(1 / a.lead())


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


def antiderivative(q: UniPoly) -> UniPoly:
    return q.antiderivative()


class SurfaceConfig:
    """The defining polynomial p together with derived exact data."""

    __slots__ = ("p", "p_prime", "degree", "gcd_u", "gcd_v", "gcd_g")

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
        self.gcd_u, self.gcd_v, self.gcd_g = u, v, g

    def __eq__(self, other) -> bool:
        return isinstance(other, SurfaceConfig) and self.p == other.p

    def __hash__(self):
        return hash(self.p)

    # -- element constructors -------------------------------------------------

    def zero(self) -> "SurfacePolynomial":
        return SurfacePolynomial(self, {}, {}, UniPoly())

    def const(self, v) -> "SurfacePolynomial":
        return SurfacePolynomial(self, {}, {}, UniPoly.const(v))

    def x(self, i: int = 1, j: int = 0, v=1) -> "SurfacePolynomial":
        return SurfacePolynomial(self, {(i, j): _frac(v)}, {}, UniPoly())

    def y(self, i: int = 1, j: int = 0, v=1) -> "SurfacePolynomial":
        return SurfacePolynomial(self, {}, {(i, j): _frac(v)}, UniPoly())

    def z(self) -> "SurfacePolynomial":
        return self.from_unipoly(UniPoly.var())

    def from_unipoly(self, q: UniPoly) -> "SurfacePolynomial":
        return SurfacePolynomial(self, {}, {}, q)


def make_surface(p: UniPoly) -> SurfaceConfig:
    return SurfaceConfig(p)


# -- formal polynomials in x, y, z (pre-reduction) ----------------------------
#
# A formal polynomial is a dict (a, b, c) -> Fraction for the monomial
# x^a y^b z^c.  Used by the parser, by ``reduce`` and by test oracles.


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
    x^(a-m) y^(b-m) z^c p^m with m = min(a, b).
    """
    xpart: dict = {}
    ypart: dict = {}
    zpart = UniPoly()
    p = surface.p
    for (a, b, c), v in raw.items():
        m = min(a, b)
        zq = (p**m).scale(v) * UniPoly.monomial(c) if m else UniPoly.monomial(c, v)
        i = a - m
        k = b - m
        if i > 0:
            for e, w in zq.c.items():
                key = (i, e)
                u = xpart.get(key, Fraction(0)) + w
                if u:
                    xpart[key] = u
                else:
                    xpart.pop(key, None)
        elif k > 0:
            for e, w in zq.c.items():
                key = (k, e)
                u = ypart.get(key, Fraction(0)) + w
                if u:
                    ypart[key] = u
                else:
                    ypart.pop(key, None)
        else:
            zpart = zpart + zq
    return SurfacePolynomial(surface, xpart, ypart, zpart)


class SurfacePolynomial:
    """Normal-form element of the coordinate ring."""

    __slots__ = ("surface", "xpart", "ypart", "zpart")

    def __init__(self, surface: SurfaceConfig, xpart: dict, ypart: dict, zpart: UniPoly):
        self.surface = surface
        self.xpart = {k: _frac(v) for k, v in xpart.items() if v}
        self.ypart = {k: _frac(v) for k, v in ypart.items() if v}
        self.zpart = zpart
        for (i, _j) in self.xpart:
            if i < 1:
                raise InternalInvariantViolation("x-part exponent must be >= 1")
        for (i, _j) in self.ypart:
            if i < 1:
                raise InternalInvariantViolation("y-part exponent must be >= 1")

    def is_zero(self) -> bool:
        return not self.xpart and not self.ypart and self.zpart.is_zero()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SurfacePolynomial)
            and self.surface == other.surface
            and self.xpart == other.xpart
            and self.ypart == other.ypart
            and self.zpart == other.zpart
        )

    def __hash__(self):
        return hash(
            (
                frozenset(self.xpart.items()),
                frozenset(self.ypart.items()),
                self.zpart,
            )
        )

    def __add__(self, other: "SurfacePolynomial") -> "SurfacePolynomial":
        self._check(other)
        x = dict(self.xpart)
        for k, v in other.xpart.items():
            w = x.get(k, Fraction(0)) + v
            if w:
                x[k] = w
            else:
                x.pop(k, None)
        y = dict(self.ypart)
        for k, v in other.ypart.items():
            w = y.get(k, Fraction(0)) + v
            if w:
                y[k] = w
            else:
                y.pop(k, None)
        return SurfacePolynomial(self.surface, x, y, self.zpart + other.zpart)

    def __neg__(self) -> "SurfacePolynomial":
        return self.scale(-1)

    def __sub__(self, other: "SurfacePolynomial") -> "SurfacePolynomial":
        return self + (-other)

    def scale(self, v) -> "SurfacePolynomial":
        v = _frac(v)
        if not v:
            return self.surface.zero()
        return SurfacePolynomial(
            self.surface,
            {k: w * v for k, w in self.xpart.items()},
            {k: w * v for k, w in self.ypart.items()},
            self.zpart.scale(v),
        )

    def __mul__(self, other: "SurfacePolynomial") -> "SurfacePolynomial":
        self._check(other)
        try:
            return from_chart(to_chart(self) * to_chart(other))
        except NotOnSurface as exc:  # cannot happen for surface elements
            raise InternalInvariantViolation(f"chart product left the surface: {exc}")

    def __pow__(self, n: int) -> "SurfacePolynomial":
        return power(self, n, self.surface.const(1))

    def _check(self, other: "SurfacePolynomial"):
        if self.surface != other.surface:
            raise InternalInvariantViolation("mixing elements of different surfaces")

    # -- calculus on the normal-form representative ---------------------------

    def partial_x(self) -> "SurfacePolynomial":
        """Formal d/dx of the normal-form representative."""
        xp = {}
        zp = UniPoly()
        for (i, j), v in self.xpart.items():
            if i == 1:
                zp = zp + UniPoly.monomial(j, v)
            else:
                xp[(i - 1, j)] = xp.get((i - 1, j), Fraction(0)) + v * i
        return SurfacePolynomial(self.surface, xp, {}, zp)

    def partial_y(self) -> "SurfacePolynomial":
        yp = {}
        zp = UniPoly()
        for (i, j), v in self.ypart.items():
            if i == 1:
                zp = zp + UniPoly.monomial(j, v)
            else:
                yp[(i - 1, j)] = yp.get((i - 1, j), Fraction(0)) + v * i
        return SurfacePolynomial(self.surface, {}, yp, zp)

    def partial_z(self) -> "SurfacePolynomial":
        xp = {}
        for (i, j), v in self.xpart.items():
            if j >= 1:
                xp[(i, j - 1)] = v * j
        yp = {}
        for (i, j), v in self.ypart.items():
            if j >= 1:
                yp[(i, j - 1)] = v * j
        return SurfacePolynomial(self.surface, xp, yp, self.zpart.derivative())

    def swap_xy(self) -> "SurfacePolynomial":
        """Image under the involution (x, y, z) -> (y, x, z)."""
        return SurfacePolynomial(self.surface, dict(self.ypart), dict(self.xpart), self.zpart)

    def eval_at(self, x0, y0, z0) -> Fraction:
        x0, y0, z0 = _frac(x0), _frac(y0), _frac(z0)
        acc = self.zpart.eval(z0)
        for (i, j), v in self.xpart.items():
            acc += v * x0**i * z0**j
        for (i, j), v in self.ypart.items():
            acc += v * y0**i * z0**j
        return acc

    def to_formal(self) -> dict:
        r = {}
        for (i, j), v in self.xpart.items():
            r[(i, 0, j)] = v
        for (i, j), v in self.ypart.items():
            r[(0, i, j)] = v
        for e, v in self.zpart.c.items():
            r[(0, 0, e)] = v
        return r

    def drop_constant(self) -> "SurfacePolynomial":
        """Canonical representative modulo constants (zero absolute term)."""
        z = UniPoly({e: v for e, v in self.zpart.c.items() if e != 0})
        return SurfacePolynomial(self.surface, dict(self.xpart), dict(self.ypart), z)

    def __repr__(self):
        from .parsing import format_surface_polynomial

        return f"<{format_surface_polynomial(self)}>"


class ChartElement:
    """Laurent polynomial in x with coefficients in Q[z].

    General chart functions (one-form components, intermediate products).
    Only descends to the surface when the x^(-i) coefficient is divisible
    by p^i; ``from_chart`` checks that.
    """

    __slots__ = ("surface", "coeffs")

    def __init__(self, surface: SurfaceConfig, coeffs=None):
        self.surface = surface
        c = {}
        if coeffs:
            for k, q in coeffs.items():
                if not q.is_zero():
                    c[int(k)] = q
        self.coeffs = c

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> UniPoly:
        return self.coeffs.get(k, UniPoly())

    @property
    def x_degree(self):
        return max(self.coeffs) if self.coeffs else NEG_INF

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChartElement)
            and self.surface == other.surface
            and self.coeffs == other.coeffs
        )

    def __add__(self, other: "ChartElement") -> "ChartElement":
        c = dict(self.coeffs)
        for k, q in other.coeffs.items():
            c[k] = c[k] + q if k in c else q
        return ChartElement(self.surface, c)

    def __neg__(self) -> "ChartElement":
        return ChartElement(self.surface, {k: -q for k, q in self.coeffs.items()})

    def __sub__(self, other: "ChartElement") -> "ChartElement":
        return self + (-other)

    def __mul__(self, other: "ChartElement") -> "ChartElement":
        c: dict = {}
        for k1, q1 in self.coeffs.items():
            for k2, q2 in other.coeffs.items():
                k = k1 + k2
                c[k] = c[k] + q1 * q2 if k in c else q1 * q2
        return ChartElement(self.surface, c)

    def scale(self, v) -> "ChartElement":
        v = _frac(v)
        if not v:
            return ChartElement(self.surface)
        return ChartElement(self.surface, {k: q.scale(v) for k, q in self.coeffs.items()})

    def shift(self, d: int) -> "ChartElement":
        """Multiply by x^d (d may be negative)."""
        return ChartElement(self.surface, {k + d: q for k, q in self.coeffs.items()})

    def diff_x(self) -> "ChartElement":
        return ChartElement(
            self.surface, {k - 1: q.scale(k) for k, q in self.coeffs.items() if k != 0}
        )

    def diff_z(self) -> "ChartElement":
        return ChartElement(self.surface, {k: q.derivative() for k, q in self.coeffs.items()})

    def integrate_z(self) -> "ChartElement":
        return ChartElement(self.surface, {k: q.antiderivative() for k, q in self.coeffs.items()})

    def __repr__(self):
        return f"ChartElement({self.coeffs!r})"


def to_chart(e: SurfacePolynomial) -> ChartElement:
    """x^i z^j stays; y^i z^j becomes x^(-i) p^i z^j."""
    s = e.surface
    c: dict = {}
    for (i, j), v in e.xpart.items():
        q = UniPoly.monomial(j, v)
        c[i] = c[i] + q if i in c else q
    for (i, j), v in e.ypart.items():
        q = (s.p**i).scale(v) * UniPoly.monomial(j)
        k = -i
        c[k] = c[k] + q if k in c else q
    if not e.zpart.is_zero():
        c[0] = c[0] + e.zpart if 0 in c else e.zpart
    return ChartElement(s, c)


def from_chart(c: ChartElement) -> SurfacePolynomial:
    """Inverse of ``to_chart``; raises NotOnSurface on a divisibility failure."""
    s = c.surface
    xpart: dict = {}
    ypart: dict = {}
    zpart = UniPoly()
    for k, q in c.coeffs.items():
        if k > 0:
            for e, v in q.c.items():
                xpart[(k, e)] = v
        elif k == 0:
            zpart = zpart + q
        else:
            quot, rem = poly_divrem(q, s.p ** (-k))
            if not rem.is_zero():
                raise NotOnSurface(
                    f"coefficient of x^{k} is not divisible by p^{-k}"
                )
            for e, v in quot.c.items():
                ypart[(-k, e)] = v
    return SurfacePolynomial(s, xpart, ypart, zpart)


def chart_constant_quotient(num: ChartElement, den: ChartElement) -> Fraction:
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
