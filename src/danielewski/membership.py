"""Membership in the Lie algebra generated by the complete vector fields.

A volume-preserving field belongs to the Lie algebra generated by the
locally nilpotent derivations iff the absolute term a0(z) of its potential
is, modulo an additive constant, of the form (p*q)'(z).  The decision test
is: accept iff rem(antiderivative(a0), p) has degree <= 1.  (a0 = (pq)' + c
for a constant c iff an antiderivative of a0 lies in p*Q[z] + span{1, z}.)

Certificates are bracket-expression trees over the generator fields
SF_i^x, SF_i^y and HF_q.  Two constructions are provided: a decomposition
over shear and hyperbolic generators that always succeeds (avdp_decompose),
and a shears-only construction (certify_shears_only) driven by a certified
spanning family and exact linear solving over Q; the latter is a
semi-algorithm with a caller-tunable degree bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    DegreeGate,
    InternalInvariantViolation,
    MalformedNesting,
    MembershipRejected,
    SearchExhausted,
)
from .fields import (
    AlgebraicVectorField,
    bracket,
    canonical_potential,
    hyperbolic,
    potential_of,
    shear_x,
    shear_y,
    zero_field,
)
from .ring import (
    SurfaceConfig,
    SurfacePolynomial,
    UniPoly,
    antiderivative,
    poly_divrem,
    row_reduce,
)

# -- bracket expressions ---------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    kind: str  # "SFx" | "SFy" | "HF"
    i: int = 0
    poly: UniPoly | None = None

    def __post_init__(self):
        if self.kind not in ("SFx", "SFy", "HF"):
            raise MalformedNesting(f"unknown generator kind {self.kind!r}")
        if self.kind == "HF" and self.poly is None:
            raise MalformedNesting("HF leaf requires a polynomial")
        if self.kind != "HF" and self.i < 0:
            raise MalformedNesting("shear index must be >= 0")


@dataclass(frozen=True)
class Sum:
    terms: tuple  # of (Fraction, expression)


@dataclass(frozen=True)
class Bracket:
    left: object
    right: object


BracketExpression = Leaf | Sum | Bracket


def make_sum(terms) -> BracketExpression:
    flat = []
    for w, e in terms:
        w = Fraction(w)
        if not w:
            continue
        if isinstance(e, Sum):
            flat.extend((w * w2, e2) for w2, e2 in e.terms)
        else:
            flat.append((w, e))
    if len(flat) == 1 and flat[0][0] == 1:
        return flat[0][1]
    return Sum(tuple(flat))


def evaluate(surface: SurfaceConfig, expr: BracketExpression) -> AlgebraicVectorField:
    memo: dict = {}

    def go(e):
        if e in memo:
            return memo[e]
        if isinstance(e, Leaf):
            if e.kind == "SFx":
                r = shear_x(surface, e.i)
            elif e.kind == "SFy":
                r = shear_y(surface, e.i)
            else:
                r = hyperbolic(surface, e.poly)
        elif isinstance(e, Sum):
            r = zero_field(surface)
            for w, t in e.terms:
                r = r + go(t).scale(w)
        elif isinstance(e, Bracket):
            r = bracket(go(e.left), go(e.right))
        else:
            raise MalformedNesting(f"not a bracket expression: {e!r}")
        memo[e] = r
        return r

    return go(expr)


def mirror_expr(expr: BracketExpression) -> BracketExpression:
    """Conjugation by the involution: SFx <-> SFy, HF_q -> -HF_q.

    The mirrored expression evaluates to the involution-conjugated field;
    its potential is -f(y, x, z) when the original's is f(x, y, z).
    """
    if isinstance(expr, Leaf):
        if expr.kind == "SFx":
            return Leaf("SFy", expr.i)
        if expr.kind == "SFy":
            return Leaf("SFx", expr.i)
        return make_sum([(Fraction(-1), expr)])
    if isinstance(expr, Sum):
        return make_sum([(w, mirror_expr(t)) for w, t in expr.terms])
    return Bracket(mirror_expr(expr.left), mirror_expr(expr.right))


def expression_size(expr: BracketExpression) -> int:
    if isinstance(expr, Leaf):
        return 1
    if isinstance(expr, Sum):
        return 1 + sum(expression_size(t) for _, t in expr.terms)
    return 1 + expression_size(expr.left) + expression_size(expr.right)


# -- the decision test -------------------------------------------------------


@dataclass(frozen=True)
class MembershipVerdict:
    accepted: bool
    witness_remainder: UniPoly
    normalized_potential: SurfacePolynomial


def decide(f: SurfacePolynomial) -> MembershipVerdict:
    """Accept iff rem(antiderivative(a0), p) has degree <= 1."""
    norm = canonical_potential(f)
    a0 = norm.coeff(0)
    _, rem = poly_divrem(antiderivative(a0), f.surface.p)
    return MembershipVerdict(rem.degree <= 1, rem, norm)


def verify_certificate(
    surface: SurfaceConfig, expr: BracketExpression, claimed: SurfacePolynomial
) -> bool:
    return potential_of(evaluate(surface, expr)) == canonical_potential(claimed)


# -- potential shape of pure shear nestings ---------------------------------


@dataclass(frozen=True)
class PotentialShape:
    kind: str  # "x" | "y" | "z"
    j: int  # power of x or y (0 for the pure-z case)
    q: UniPoly


def classify_bracket_potential(
    surface: SurfaceConfig, expr: BracketExpression
) -> PotentialShape:
    """The potential of a nested shear bracket is x^j q(z), y^j q(z) or q(z)."""

    def check(e):
        if isinstance(e, Leaf):
            if e.kind == "HF":
                raise MalformedNesting("hyperbolic leaves are not shear fields")
            return
        if isinstance(e, Bracket):
            if not (isinstance(e.left, Leaf) and e.left.kind in ("SFx", "SFy")):
                raise MalformedNesting("expected a nesting [A_n, [... [A_1, A_0]...]]")
            check(e.right)
            return
        raise MalformedNesting("expected a pure nesting of shear leaves")

    check(expr)
    f = potential_of(evaluate(surface, expr))
    if len(f.coeffs) > 1:
        raise InternalInvariantViolation("nested shear potential has mixed shape")
    n, q = next(iter(f.coeffs.items()), (0, UniPoly()))
    if n:
        return PotentialShape("x" if n > 0 else "y", abs(n), q)
    # q is the canonical (constant-free) representative of some (p*h)', so
    # the antiderivative lies in p*Q[z] + span{1, z}
    _, rem = poly_divrem(antiderivative(q), surface.p)
    if rem.degree > 1:
        raise InternalInvariantViolation(
            "pure-z nested shear potential is not of the form (p*h)'"
        )
    return PotentialShape("z", 0, q)


# -- decomposition over shear and hyperbolic generators ----------------------


def avdp_decompose(f: SurfacePolynomial) -> BracketExpression:
    """A certificate over SF/HF generators for any potential.

    Monomials map to generators: x^i z^j (j>=1) to [SF_{i-1}^x, HF_{z^j}],
    pure powers to scaled leaves; constants correspond to the zero field.
    """
    s = f.surface
    terms = []
    for n in f.weights():
        kind, i = "SFx" if n > 0 else "SFy", abs(n)
        for j, v in sorted(f.coeffs[n].c.items()):
            if n == 0:
                if j >= 1:
                    terms.append((j * v, Leaf("HF", poly=UniPoly.monomial(j - 1))))
            elif j == 0:
                terms.append((-i * v if n > 0 else i * v, Leaf(kind, i - 1)))
            else:
                terms.append((v, Bracket(Leaf(kind, i - 1), Leaf("HF", poly=UniPoly.monomial(j)))))
    expr = make_sum(terms)
    if not verify_certificate(s, expr, f):
        raise InternalInvariantViolation("decomposition failed verification")
    return expr


# -- exact linear solving -----------------------------------------------------


def solve_linear(
    columns: list[UniPoly], target: UniPoly, mod_const: bool = False
) -> list[Fraction] | None:
    """One exact solution of sum(w_i * columns[i]) = target, or None.

    Deterministic: pivots are chosen in column order, free variables are 0.
    With mod_const, constant terms are ignored on both sides.
    """
    exps = set(target.c)
    for c in columns:
        exps |= set(c.c)
    if mod_const:
        exps.discard(0)
    rows = sorted(exps)
    m = len(columns)
    a = [[columns[k].coeff(e) for k in range(m)] + [target.coeff(e)] for e in rows]
    pivots = row_reduce(a, m)
    if any(row[m] for row in a[len(pivots):]):
        return None
    sol = [Fraction(0)] * m
    for row, col in zip(a, pivots):
        sol[col] = row[m]
    return sol


# -- certified spanning family -----------------------------------------------


@dataclass(frozen=True)
class FamilyEntry:
    expr: BracketExpression
    potential: UniPoly  # exact pure-z potential, constant term included
    lifter: object  # callable i2 -> expression with potential exactly x^i2 * potential


class SpanningFamily:
    """Certified shears-only expressions with pure-z potentials.

    Every entry's potential is exactly (p*h)' for some polynomial h; the
    evaluated field is the hyperbolic field with multiplier potential'.
    The `multipliers` map (multiplier -> expression) records, for each
    certified hyperbolic field, one shears-only expression equal to it.
    """

    def __init__(self, surface: SurfaceConfig, max_deg: int):
        if max_deg < surface.degree:
            raise DegreeGate("family degree bound must be >= deg(p)")
        self.surface = surface
        self.max_deg = max_deg
        self.entries: list[FamilyEntry] = []
        self.multipliers: dict[UniPoly, BracketExpression] = {}
        self._seen: set[UniPoly] = set()
        self._build()

    def _add(self, expr: BracketExpression, pot: UniPoly, lifter) -> bool:
        if pot.is_zero() or pot.degree > self.max_deg or pot in self._seen:
            return False
        got = potential_of(evaluate(self.surface, expr))
        want = UniPoly({e: v for e, v in pot.c.items() if e != 0})
        if got != self.surface.from_unipoly(want):
            raise InternalInvariantViolation("spanning-family entry failed verification")
        self._seen.add(pot)
        self.entries.append(FamilyEntry(expr, pot, lifter))
        m = pot.derivative()
        if not m.is_zero() and m not in self.multipliers:
            self.multipliers[m] = expr
        return True

    def _build(self):
        s = self.surface
        p, pp = s.p, s.p_prime
        # [SF_i^x, SF_i^y] with potential p^i p'
        i = 0
        while True:
            pot = p**i * pp
            if pot.degree > self.max_deg:
                break
            expr = Bracket(Leaf("SFx", i), Leaf("SFy", i))

            def lift1(i2, i=i):
                return Bracket(Leaf("SFx", i + i2), Leaf("SFy", i))

            self._add(expr, pot, lift1)
            i += 1
        # [SF_0^x, [SF_0^x, SF_1^y]] with potential (p p')'
        pot2 = (p * pp).derivative()

        def lift2(i2):
            return Bracket(Leaf("SFx", i2), Bracket(Leaf("SFx", 0), Leaf("SFy", 1)))

        self._add(lift2(0), pot2, lift2)
        # closure: derivative towers and product brackets over the seed
        # hyperbolic fields (one round keeps the enumeration small; the
        # multiplier map still grows, which widens the x-chain solves)
        current = list(self.multipliers.items())
        self._towers(current)
        self._products(current)

    def _towers(self, current):
        # [SF_{c-1}^x, [SF_0^y, [... [SF_0^y, E_f]...]]] (c nested SF_0^y)
        # has potential (p^c f^(c-1))'.
        s = self.surface
        for f, ef in current:
            deriv = f
            chain = ef
            c = 1
            while not deriv.is_zero():
                pot = (s.p**c * deriv).derivative()
                if pot.degree > self.max_deg:
                    break
                chain = Bracket(Leaf("SFy", 0), chain)

                def lift(i2, c=c, chain=chain):
                    return Bracket(Leaf("SFx", c - 1 + i2), chain)

                self._add(lift(0), pot, lift)
                deriv = deriv.derivative()
                c += 1

    def _products(self, current):
        # [SF_i^y, [E_{f_k}, ... [SF_i^x, E_{f_1}]...]] has potential
        # (i+1)^(k-1) (p^(i+1) f_1 .. f_k)'; the x-lift mirrors the nesting
        # and carries the sign (-1)^(k-1).
        from itertools import combinations_with_replacement

        s = self.surface
        for k in (1, 2, 3):
            for combo in combinations_with_replacement(range(len(current)), k):
                fs = [current[idx][0] for idx in combo]
                efs = [current[idx][1] for idx in combo]
                prod = fs[0]
                for f in fs[1:]:
                    prod = prod * f
                i = 0
                while True:
                    scale = Fraction(i + 1) ** (k - 1)
                    pot = (s.p ** (i + 1) * prod).derivative().scale(scale)
                    if pot.degree > self.max_deg:
                        break

                    def build(outer_kind, inner_kind, outer_i, i=i, efs=efs):
                        inner = Bracket(Leaf(inner_kind, i), efs[0])
                        for ef in efs[1:]:
                            inner = Bracket(ef, inner)
                        return Bracket(Leaf(outer_kind, outer_i), inner)

                    def lift(i2, k=k, i=i, build=build):
                        e = build("SFx", "SFy", i + i2)
                        sign = Fraction(-1) ** (k - 1)
                        return e if sign == 1 else make_sum([(sign, e)])

                    self._add(build("SFy", "SFx", i), pot, lift)
                    i += 1


@lru_cache(maxsize=16)
def build_spanning_family(surface: SurfaceConfig, max_deg: int) -> SpanningFamily:
    return SpanningFamily(surface, max_deg)


# -- shears-only certification -------------------------------------------------


class _Certifier:
    def __init__(self, surface: SurfaceConfig, max_deg: int):
        self.s = surface
        self.family = build_spanning_family(surface, max_deg)
        self._x_mono: dict[tuple[int, int], BracketExpression] = {}
        self._w1: dict[tuple[int, int], BracketExpression] = {}
        self._w2: dict[tuple[int, int], BracketExpression] = {}

    # potential == g(z) modulo constants
    def pure_z(self, g: UniPoly) -> BracketExpression:
        cols = [e.potential for e in self.family.entries]
        sol = solve_linear(cols, g, mod_const=True)
        if sol is None:
            raise SearchExhausted(
                "no shears-only combination found for the absolute term within "
                f"degree bound {self.family.max_deg}; retry with a larger bound"
            )
        return make_sum(
            [(w, e.expr) for w, e in zip(sol, self.family.entries) if w]
        )

    # potential exactly x^i2 * g, as lifted family entries; g must combine
    # exactly (for g a derivative of a p-multiple this is automatic: a constant
    # discrepancy c would force p | cz + d)
    def lifted(self, g: UniPoly, i2: int) -> BracketExpression:
        cols = [e.potential for e in self.family.entries]
        sol = solve_linear(cols, g, mod_const=True)
        if sol is None:
            raise SearchExhausted(
                "no shears-only combination found for a mixed-term step within "
                f"degree bound {self.family.max_deg}; retry with a larger bound"
            )
        acc = UniPoly()
        for w, e in zip(sol, self.family.entries):
            if w:
                acc = acc + e.potential.scale(w)
        if acc != g:
            raise InternalInvariantViolation(
                "mixed-term lift has a constant discrepancy"
            )
        return make_sum(
            [(w, e.lifter(i2)) for w, e in zip(sol, self.family.entries) if w]
        )

    # potential exactly x^i * g for i >= deg(p): chains of x-shears over
    # certified hyperbolic fields give x^i f^(d) for every derivative order
    # d <= i-1, a triangular family in the degree.
    def x_high(self, i: int, g: UniPoly) -> BracketExpression:
        cols: list[UniPoly] = []
        exprs: list[BracketExpression] = []
        for f, ef in self.family.multipliers.items():
            deriv = f
            d = 0
            while d <= i - 1:
                cols.append(deriv)
                inner = Bracket(Leaf("SFx", i - d - 1), ef)
                for _ in range(d):
                    inner = Bracket(Leaf("SFx", 0), inner)
                exprs.append(inner)
                if deriv.is_zero():
                    break
                deriv = deriv.derivative()
                d += 1
        sol = solve_linear(cols, g, mod_const=False)
        if sol is None:
            raise SearchExhausted(
                "no shears-only combination found for an x-part within "
                f"degree bound {self.family.max_deg}; retry with a larger bound"
            )
        return make_sum([(w, e) for w, e in zip(sol, exprs) if w])

    def x_monomial(self, i: int, j: int) -> BracketExpression:
        key = (i, j)
        if key not in self._x_mono:
            self._x_mono[key] = self.x_part(i, UniPoly.monomial(j))
        return self._x_mono[key]

    # potential exactly x^i p'(z) z^j
    def w1(self, i: int, j: int) -> BracketExpression:
        key = (i, j)
        if key not in self._w1:
            u = Bracket(Leaf("SFy", 0), self.x_monomial(i + 1, j))
            v = self.lifted(
                (self.s.p * UniPoly.monomial(j)).derivative(), i
            )
            self._w1[key] = make_sum([(Fraction(1, i), u), (Fraction(-1, i), v)])
        return self._w1[key]

    # potential exactly x^i p(z) z^j
    def w2(self, i: int, j: int) -> BracketExpression:
        key = (i, j)
        if key not in self._w2:
            u = Bracket(Leaf("SFy", 0), self.x_monomial(i + 1, j + 1))
            v = self.lifted(
                (self.s.p * UniPoly.monomial(j + 1)).derivative(), i
            )
            w = Fraction(1, i * (j + 1))
            self._w2[key] = make_sum([(w * (i + 1), v), (-w, u)])
        return self._w2[key]

    # potential exactly x^i * g, any i >= 1 (downward induction below deg(p)
    # through the Bezout identity 1 = u*p + v*p')
    def x_part(self, i: int, g: UniPoly) -> BracketExpression:
        if i >= self.s.degree:
            return self.x_high(i, g)
        a = g * self.s.gcd_v  # coefficient of p'
        b = g * self.s.gcd_u  # coefficient of p
        terms = [(v, self.w1(i, j)) for j, v in sorted(a.c.items())]
        terms += [(v, self.w2(i, j)) for j, v in sorted(b.c.items())]
        return make_sum(terms)

    def certify(self, f: SurfacePolynomial) -> BracketExpression:
        terms: list = []
        for n in f.weights():
            q = f.coeffs[n]
            if n > 0:
                terms.append((Fraction(1), self.x_part(n, q)))
            elif n < 0:
                # mirroring negates the potential and swaps x with y
                terms.append((Fraction(-1), mirror_expr(self.x_part(-n, q))))
            elif q.degree > 0:
                terms.append((Fraction(1), self.pure_z(q)))
        return make_sum(terms)


@lru_cache(maxsize=16)
def _certifier(surface: SurfaceConfig, max_deg: int) -> _Certifier:
    return _Certifier(surface, max_deg)


# Ceiling on the degree bound of certify_shears_only, the default bound
# included.  The family build dominates and grows steeply with the bound:
# certifying x on z^3 - z took 7 s at 24 and 23 s at 32.
MAX_CERTIFY_DEGREE = 32


def certify_shears_only(
    f: SurfacePolynomial, max_deg: int | None = None
) -> BracketExpression:
    """A verified shears-only certificate for an accepted potential.

    ``max_deg`` defaults to ``default_certify_bound(f)``; a bound above
    MAX_CERTIFY_DEGREE raises DegreeGate.
    """
    s = f.surface
    verdict = decide(f)
    if not verdict.accepted:
        raise MembershipRejected(
            "potential is not a Lie combination of the nilpotent generators: "
            f"witness remainder has degree {verdict.witness_remainder.degree}"
        )
    if max_deg is None:
        max_deg = default_certify_bound(f)
    if max_deg > MAX_CERTIFY_DEGREE:
        raise DegreeGate(
            f"degree bound {max_deg} exceeds the ceiling "
            f"MAX_CERTIFY_DEGREE = {MAX_CERTIFY_DEGREE}"
        )
    expr = _certifier(s, max_deg).certify(f)
    if not verify_certificate(s, expr, f):
        raise InternalInvariantViolation("shears-only certificate failed verification")
    return expr


def default_certify_bound(f: SurfacePolynomial) -> int:
    n = f.surface.degree
    deg = {k: int(q.degree) for k, q in f.coeffs.items()}
    deg_z = deg.pop(0, 0)
    deg_mixed = max(deg.values(), default=0)
    return max(4 * n, deg_z + 2 * n, deg_mixed + 3 * n, 12)
