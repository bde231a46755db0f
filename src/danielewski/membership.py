"""Membership in the Lie algebra generated by the complete vector fields.

A volume-preserving field belongs to the Lie algebra generated by the
locally nilpotent derivations iff the absolute term a0(z) of its potential
is, modulo an additive constant, of the form (p*q)'(z).  The decision test
is: accept iff rem(antiderivative(a0), p) has degree <= 1.  (a0 = (pq)' + c
for a constant c iff an antiderivative of a0 lies in p*Q[z] + span{1, z}.)

Certificates are bracket-expression trees over the generator fields
SF_i^x, SF_i^y and HF_q.  Two constructions are provided: a decomposition
over shear and hyperbolic generators that always succeeds (avdp_decompose),
and a shears-only construction (certify_shears_only) driven by exact linear
solving over Q against a spanning family, a pivot basis of certified
shears-only expressions with pure-z potentials; the latter is a
semi-algorithm with a caller-tunable degree bound.

Certificates are verified in the Poisson algebra of potentials, through the
Lie algebra isomorphism [H_f, H_g] = H_{f, g} (``evaluate_potential``): one
bracket of potentials per bracket node, no field built.  ``evaluate``, which
builds every node as a field, is kept as the independent oracle.
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
    function_bracket,
    hyperbolic,
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
    """The field of a bracket expression, every node built as a field.

    The library verifies in the Poisson algebra (``evaluate_potential``);
    this is the independent oracle that tests compare it against.
    """
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


def evaluate_potential(surface: SurfaceConfig, expr: BracketExpression) -> SurfacePolynomial:
    """The canonical potential of ``evaluate(surface, expr)``.

    Computed in the Poisson algebra of potentials, through the Lie algebra
    isomorphism [H_f, H_g] = H_{f, g}: leaf potentials, sums, and one
    ``function_bracket`` per bracket node; no field is built.
    """
    memo: dict = {}

    def go(e):
        if e in memo:
            return memo[e]
        if isinstance(e, Leaf):
            # the potentials of SF_i^x, SF_i^y and HF_q
            if e.kind == "SFx":
                r = surface.x(e.i + 1, v=Fraction(-1, e.i + 1))
            elif e.kind == "SFy":
                r = surface.y(e.i + 1, v=Fraction(1, e.i + 1))
            else:
                r = surface.from_unipoly(e.poly.antiderivative())
        elif isinstance(e, Sum):
            r = surface.zero()
            for w, t in e.terms:
                r = r + go(t).scale(w)
        elif isinstance(e, Bracket):
            r = function_bracket(go(e.left), go(e.right))
        else:
            raise MalformedNesting(f"not a bracket expression: {e!r}")
        memo[e] = r
        return r

    return go(expr)


# The certifier mirrors its cached sub-certificates over and over; the memo
# makes equal subtrees of the mirrored certificates one shared object.
@lru_cache(maxsize=4096)
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
    """True iff the expression's potential equals ``claimed`` modulo constants.

    The potential is computed in the Poisson algebra (``evaluate_potential``);
    field-level ``evaluate`` is the oracle the tests check that against.
    """
    return evaluate_potential(surface, expr) == canonical_potential(claimed)


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
    f = evaluate_potential(surface, expr)
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
    expr: BracketExpression  # shears-only, potential exactly `potential`
    potential: UniPoly  # pure-z, constant term included
    x_form: BracketExpression  # the same potential as +-[SF_i^x, ...], for _lift


def _lift(x_form: BracketExpression, i2: int) -> BracketExpression:
    """Raise the index of the outer SF^x by i2: the potential gains x^i2."""
    if isinstance(x_form, Sum):
        return make_sum([(w, _lift(t, i2)) for w, t in x_form.terms])
    return Bracket(Leaf("SFx", x_form.left.i + i2), x_form.right)


class SpanningFamily:
    """A pivot basis of certified shears-only expressions with pure-z potentials.

    The candidates are [SF_i^x, SF_i^y], [SF_0^x, [SF_0^x, SF_1^y]], and the
    derivative towers and product brackets over the hyperbolic fields these
    seeds certify; every candidate's potential is (p*h)' for some h.  One
    `row_reduce` over their potentials modulo constants picks the pivot
    candidates in generation order, and only those are evaluated, verified
    and kept, so the entries' potentials are independent modulo constants.
    A dropped candidate is a combination of earlier pivots; `solve_linear`
    takes pivots in column order and sets free variables to 0, so it would
    never have weighted it.  `multipliers` maps each entry's multiplier
    potential' to its expression (a shears-only expression of the hyperbolic
    field with that multiplier); a dropped multiplier's derivative chain in
    `x_high` would likewise be a combination of earlier columns.
    """

    def __init__(self, surface: SurfaceConfig, max_deg: int):
        if max_deg < surface.degree:
            raise DegreeGate("family degree bound must be >= deg(p)")
        self.surface = surface
        self.max_deg = max_deg
        self.entries: list[FamilyEntry] = []
        self.multipliers: dict[UniPoly, BracketExpression] = {}
        seeds = self._seeds()
        # the non-constant seed potentials have distinct degrees, so they
        # are all pivots: their multipliers seed the closure
        current = [(pot.derivative(), expr) for expr, pot, _ in seeds if pot.degree > 0]
        cands = seeds + self._towers(current) + self._products(current)
        pots = [pot for _, pot, _ in cands]
        rows = sorted({e for pot in pots for e in pot.c if e})
        a = [[pot.coeff(e) for pot in pots] for e in rows]
        for k in row_reduce(a, len(pots)):
            expr, pot, x_form = cands[k]
            got = evaluate_potential(surface, expr)
            if got != surface.from_unipoly(pot).drop_constant():
                raise InternalInvariantViolation("spanning-family entry failed verification")
            self.entries.append(FamilyEntry(expr, pot, x_form))
            self.multipliers[pot.derivative()] = expr

    def _seeds(self) -> list:
        # [SF_i^x, SF_i^y] with potential p^i p', and [SF_0^x, [SF_0^x, SF_1^y]]
        # with potential (p p')'
        s = self.surface
        p, pp = s.p, s.p_prime
        out = []
        i = 0
        while (pot := p**i * pp).degree <= self.max_deg:
            e = Bracket(Leaf("SFx", i), Leaf("SFy", i))
            out.append((e, pot, e))
            i += 1
        pot2 = (p * pp).derivative()
        if pot2.degree <= self.max_deg:
            e = Bracket(Leaf("SFx", 0), Bracket(Leaf("SFx", 0), Leaf("SFy", 1)))
            out.append((e, pot2, e))
        return out

    def _towers(self, current) -> list:
        # [SF_{c-1}^x, [SF_0^y, [... [SF_0^y, E_f]...]]] (c nested SF_0^y)
        # has potential (p^c f^(c-1))'.
        s = self.surface
        out = []
        for f, ef in current:
            deriv = f
            chain = ef
            c = 1
            while not deriv.is_zero():
                pot = (s.p**c * deriv).derivative()
                if pot.degree > self.max_deg:
                    break
                chain = Bracket(Leaf("SFy", 0), chain)
                e = Bracket(Leaf("SFx", c - 1), chain)
                out.append((e, pot, e))
                deriv = deriv.derivative()
                c += 1
        return out

    def _products(self, current) -> list:
        # [SF_i^y, [E_{f_k}, ... [SF_i^x, E_{f_1}]...]] has potential
        # (i+1)^(k-1) (p^(i+1) f_1 .. f_k)'; the x-form mirrors the nesting
        # and carries the sign (-1)^(k-1).
        from itertools import combinations_with_replacement

        s = self.surface
        out = []
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

                    def build(outer_kind, inner_kind):
                        inner = Bracket(Leaf(inner_kind, i), efs[0])
                        for ef in efs[1:]:
                            inner = Bracket(ef, inner)
                        return Bracket(Leaf(outer_kind, i), inner)

                    x_form = make_sum([(Fraction(-1) ** (k - 1), build("SFx", "SFy"))])
                    out.append((build("SFy", "SFx"), pot, x_form))
                    i += 1
        return out


# -- shears-only certification -------------------------------------------------


class _Certifier:
    def __init__(self, surface: SurfaceConfig, max_deg: int):
        self.s = surface
        self.family = SpanningFamily(surface, max_deg)
        self._x_mono: dict[tuple[int, int], BracketExpression] = {}
        self._w1: dict[tuple[int, int], BracketExpression] = {}
        self._w2: dict[tuple[int, int], BracketExpression] = {}

    def _combination(self, g: UniPoly) -> list[tuple[Fraction, FamilyEntry]]:
        """Weighted family entries whose potentials sum to g modulo constants."""
        entries = self.family.entries
        sol = solve_linear([e.potential for e in entries], g, mod_const=True)
        if sol is None:
            raise SearchExhausted(
                "no combination of spanning-family entries found for a pure-z "
                f"potential of degree {g.degree} within degree bound "
                f"{self.family.max_deg}; retry with a larger bound"
            )
        return [(w, e) for w, e in zip(sol, entries) if w]

    # potential == g(z) modulo constants
    def pure_z(self, g: UniPoly) -> BracketExpression:
        return make_sum([(w, e.expr) for w, e in self._combination(g)])

    # potential exactly x^i2 * g, as lifted family entries; g must combine
    # exactly (for g a derivative of a p-multiple this is automatic: a constant
    # discrepancy c would force p | cz + d)
    def lifted(self, g: UniPoly, i2: int) -> BracketExpression:
        terms = self._combination(g)
        if sum((e.potential.scale(w) for w, e in terms), UniPoly()) != g:
            raise InternalInvariantViolation(
                "mixed-term lift has a constant discrepancy"
            )
        return make_sum([(w, _lift(e.x_form, i2)) for w, e in terms])

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
# included.  The family build dominates, above all the one row_reduce that
# picks its pivots among the candidates, and grows steeply with the bound:
# certifying x on z^3 - z takes 0.95 s of CPU at 24 and 3.0 s at 32
# (Python 3.11, one core of a shared 2-core VM).
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
