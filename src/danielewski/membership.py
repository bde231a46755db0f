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

A value of a bracket expression (its field, its potential, its size, its
file form) is computed by ``fold``: bottom-up, once per distinct subtree,
from a value per leaf, per sum and per bracket.  Certificates are verified
in the Poisson algebra of potentials, through the Lie algebra isomorphism
[H_f, H_g] = H_{f, g} (``evaluate_potential``): one Poisson bracket
{f, g} = H_f(g) per bracket node, constants dropped once at the root, no
field built.  ``evaluate``, which builds every node as a field, is kept as
the independent oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations_with_replacement
from math import prod

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
    poisson_bracket,
    shear_x,
    shear_y,
    zero_field,
)
from .records import Record
from .ring import (
    Echelon,
    SurfaceConfig,
    SurfacePolynomial,
    UniPoly,
    poly_divrem,
    poly_rem_sparse,
    shared,
)

# -- bracket expressions ---------------------------------------------------


class Leaf(Record):
    __slots__ = ("kind", "i", "poly")
    kind: str  # "SFx" | "SFy" | "HF"
    i: int
    poly: UniPoly | None

    def __init__(self, kind: str, i: int = 0, poly: UniPoly | None = None):
        if kind not in ("SFx", "SFy", "HF"):
            raise MalformedNesting(f"unknown generator kind {kind!r}")
        if kind == "HF" and poly is None:
            raise MalformedNesting("HF leaf requires a polynomial")
        if kind != "HF" and i < 0:
            raise MalformedNesting("shear index must be >= 0")
        super().__init__(kind, i, poly)


class Sum(Record):
    __slots__ = ("terms",)
    terms: tuple  # of (Fraction, expression)


class Bracket(Record):
    __slots__ = ("left", "right")
    left: object
    right: object


BracketExpression = Leaf | Sum | Bracket


def make_sum(terms) -> BracketExpression:
    flat = []
    for w, e in terms:
        w = shared(w if isinstance(w, Fraction) else Fraction(w))
        if not w:
            continue
        if isinstance(e, Sum):
            flat.extend((shared(w * w2), e2) for w2, e2 in e.terms)
        else:
            flat.append((w, e))
    if len(flat) == 1 and flat[0][0] == 1:
        return flat[0][1]
    return Sum(tuple(flat))


def fold(expr: BracketExpression, leaf, sum_, bracket_):
    """The value of a bracket expression, built bottom-up.

    ``leaf(e)`` is the value of a Leaf, ``sum_(terms)`` that of a Sum from
    its (weight, value) pairs, and ``bracket_(a, b)`` that of a Bracket from
    the values of its two sides.  Equal subtrees are evaluated once per call,
    and ``Record`` caches each node's hash, so the memo makes one hash per
    distinct subtree: the cost grows with the distinct subtrees, not with the
    expanded tree.  A node that is not a Leaf, Sum or Bracket raises
    MalformedNesting.
    """
    memo: dict = {}

    def go(e):
        if e in memo:
            return memo[e]
        if isinstance(e, Leaf):
            r = leaf(e)
        elif isinstance(e, Sum):
            r = sum_([(w, go(t)) for w, t in e.terms])
        elif isinstance(e, Bracket):
            r = bracket_(go(e.left), go(e.right))
        else:
            raise MalformedNesting(f"not a bracket expression: {e!r}")
        memo[e] = r
        return r

    return go(expr)


def evaluate(surface: SurfaceConfig, expr: BracketExpression) -> AlgebraicVectorField:
    """The field of a bracket expression, every node built as a field.

    The library verifies in the Poisson algebra (``evaluate_potential``);
    this is the independent oracle that tests compare it against.
    """

    def leaf(e):
        if e.kind == "SFx":
            return shear_x(surface, e.i)
        if e.kind == "SFy":
            return shear_y(surface, e.i)
        return hyperbolic(surface, e.poly)

    def sum_(terms):
        return sum((v.scale(w) for w, v in terms), zero_field(surface))

    return fold(expr, leaf, sum_, bracket)


def evaluate_potential(surface: SurfaceConfig, expr: BracketExpression) -> SurfacePolynomial:
    """The canonical potential of ``evaluate(surface, expr)``.

    Computed in the Poisson algebra of potentials, through the Lie algebra
    isomorphism [H_f, H_g] = H_{f, g}: leaf potentials, sums, and one
    ``poisson_bracket`` per bracket node; no field is built.  A derivation
    kills constants, so the constant term is dropped once, at the root.
    """

    def leaf(e):
        # the potentials of SF_i^x, SF_i^y and HF_q
        if e.kind == "SFx":
            return surface.x(e.i + 1, v=Fraction(-1, e.i + 1))
        if e.kind == "SFy":
            return surface.y(e.i + 1, v=Fraction(1, e.i + 1))
        return surface.from_unipoly(e.poly.antiderivative())

    def sum_(terms):
        return sum((v.scale(w) for w, v in terms), surface.zero())

    return canonical_potential(fold(expr, leaf, sum_, poisson_bracket))


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
    """The number of nodes of the expression, as a tree."""
    return fold(
        expr, lambda e: 1, lambda terms: 1 + sum(v for _, v in terms), lambda a, b: 1 + a + b
    )


# -- the decision test -------------------------------------------------------


class MembershipVerdict(Record):
    __slots__ = ("accepted", "witness_remainder")
    accepted: bool
    witness_remainder: UniPoly


def decide(f: SurfacePolynomial) -> MembershipVerdict:
    """Accept iff rem(antiderivative(a0), p) has degree <= 1.

    The remainder is taken with no quotient (``poly_rem_sparse``), so a
    sparse a0 of high degree costs its terms times the log of its degree."""
    a0 = canonical_potential(f).coeff(0)
    rem = poly_rem_sparse(a0.antiderivative(), f.surface.p)
    return MembershipVerdict(rem.degree <= 1, rem)


def verify_certificate(
    surface: SurfaceConfig, expr: BracketExpression, claimed: SurfacePolynomial
) -> bool:
    """True iff the expression's potential equals ``claimed`` modulo constants.

    The potential is computed in the Poisson algebra (``evaluate_potential``);
    field-level ``evaluate`` is the oracle the tests check that against.
    """
    return evaluate_potential(surface, expr) == canonical_potential(claimed)


def verified(expr: BracketExpression, claimed: SurfacePolynomial, what: str) -> BracketExpression:
    """``expr`` if ``verify_certificate`` accepts it for ``claimed``, else
    InternalInvariantViolation: every certificate the library builds is checked here."""
    if not verify_certificate(claimed.surface, expr, claimed):
        raise InternalInvariantViolation(f"{what} failed verification")
    return expr


# -- decomposition over shear and hyperbolic generators ----------------------


def avdp_decompose(f: SurfacePolynomial) -> BracketExpression:
    """A certificate over SF/HF generators for any potential.

    Monomials map to generators: x^i z^j (j>=1) to [SF_{i-1}^x, HF_{z^j}],
    pure powers to scaled leaves; constants correspond to the zero field.
    """
    terms = []
    coeffs = f.coeffs
    for n in f.weights():
        kind, i = "SFx" if n > 0 else "SFy", abs(n)
        for j, v in sorted(coeffs[n].c.items()):
            if n == 0:
                if j >= 1:
                    terms.append((j * v, Leaf("HF", poly=UniPoly.monomial(j - 1))))
            elif j == 0:
                terms.append((-i * v if n > 0 else i * v, Leaf(kind, i - 1)))
            else:
                terms.append((v, Bracket(Leaf(kind, i - 1), Leaf("HF", poly=UniPoly.monomial(j)))))
    return verified(make_sum(terms), f, "decomposition")


# -- exact linear solving -----------------------------------------------------


def solve_linear(
    columns: list[UniPoly], target: UniPoly, mod_const: bool = False
) -> list[Fraction] | None:
    """One exact solution of sum(w_i * columns[i]) = target, or None.

    Deterministic: pivots are chosen in column order, free variables are 0.
    With mod_const, constant terms are ignored on both sides.  The one-shot
    form of ``Echelon``, which callers solving many targets against the same
    columns keep instead.
    """
    vector = _mod_const if mod_const else (lambda q: q.c)
    echelon = Echelon()
    for c in columns:
        echelon.add(vector(c))
    weights = echelon.solve(vector(target))
    if weights is None:
        return None
    sol = [Fraction(0)] * len(columns)
    for col, w in zip(echelon.pivots, weights):
        sol[col] = w
    return sol


def _mod_const(q: UniPoly) -> dict:
    """The coefficients of q without its constant term."""
    return {e: v for e, v in q.c.items() if e}


# -- certified spanning family -----------------------------------------------


class FamilyEntry(Record):
    __slots__ = ("expr", "potential")
    expr: BracketExpression  # [SF_i^x, ...], potential exactly `potential`
    potential: UniPoly  # pure-z, constant term included


def _lift(expr: Bracket, i2: int) -> Bracket:
    """Raise the index of the outer SF^x by i2: the potential gains x^i2."""
    return Bracket(Leaf("SFx", expr.left.i + i2), expr.right)


class SpanningFamily:
    """A pivot basis of certified shears-only expressions with pure-z potentials.

    The candidates are [SF_i^x, SF_i^y], [SF_0^x, [SF_0^x, SF_1^y]], and the
    derivative towers and product brackets over the hyperbolic fields these
    seeds certify; every candidate's potential is (p*h)' for some h.  The
    candidates are generated lazily, and each one's potential is reduced
    modulo constants against the entries so far (``echelon``); only an
    independent one is evaluated, verified and kept, so the entries are the
    pivots of a column-order elimination over all the candidates' potentials.
    A dropped candidate is a combination of earlier pivots; a solve takes
    pivots in column order and sets free variables to 0, so it would never
    have weighted it.  Every candidate lies in {(p h)' : deg <= bound} modulo
    constants, of dimension bound + 2 - deg(p) (bound when deg(p) = 1, where
    (p c)' is a constant), so the build stops once it holds that many
    entries; short of that (z^5 - z + 1 at bound 12) it reduces every
    candidate.  Every entry is a bracket [SF_i^x, ...], a shears-only
    expression of the hyperbolic field whose multiplier is the entry's
    potential'.  `lifted` raises its outer index, which multiplies the
    potential by a power of x, and `x_high_basis` nests it under x-shears; a
    dropped candidate's derivative chain there would likewise be a
    combination of earlier columns.
    """

    def __init__(self, surface: SurfaceConfig, max_deg: int):
        if max_deg < surface.degree:
            raise DegreeGate("family degree bound must be >= deg(p)")
        self.surface = surface
        self.max_deg = max_deg
        self.entries: list[FamilyEntry] = []
        self.echelon = Echelon()  # the entries' potentials modulo constants
        full = max_deg if surface.degree == 1 else max_deg + 2 - surface.degree
        seeds = self._seeds()
        # the non-constant seed potentials have distinct degrees, so they
        # are all pivots: their multipliers seed the closure
        current = [(pot.derivative(), expr) for expr, pot in seeds if pot.degree > 0]
        for expr, pot in chain(seeds, self._towers(current), self._products(current)):
            if not self.echelon.add(_mod_const(pot)):
                continue
            verified(expr, surface.from_unipoly(pot), "spanning-family entry")
            self.entries.append(FamilyEntry(expr, pot))
            if len(self.entries) == full:
                break

    def _seeds(self) -> list:
        # [SF_i^x, SF_i^y] with potential p^i p', and [SF_0^x, [SF_0^x, SF_1^y]]
        # with potential (p p')'
        s = self.surface
        p, pp = s.p, s.p_prime
        out = []
        i = 0
        while (pot := s.p_power(i) * pp).degree <= self.max_deg:
            e = Bracket(Leaf("SFx", i), Leaf("SFy", i))
            out.append((e, pot))
            i += 1
        pot2 = (p * pp).derivative()
        if pot2.degree <= self.max_deg:
            e = Bracket(Leaf("SFx", 0), Bracket(Leaf("SFx", 0), Leaf("SFy", 1)))
            out.append((e, pot2))
        return out

    def _towers(self, current):
        # [SF_{c-1}^x, [SF_0^y, [... [SF_0^y, E_f]...]]] (c nested SF_0^y)
        # has potential (p^c f^(c-1))'.
        s = self.surface
        for f, ef in current:
            deriv = f
            tower = ef
            c = 1
            while not deriv.is_zero():
                pot = (s.p_power(c) * deriv).derivative()
                if pot.degree > self.max_deg:
                    break
                tower = Bracket(Leaf("SFy", 0), tower)
                e = Bracket(Leaf("SFx", c - 1), tower)
                yield e, pot
                deriv = deriv.derivative()
                c += 1

    def _products(self, current):
        # [SF_i^x, [E_{f_k}, ... [SF_i^y, E_{f_1}]...]] has potential
        # (-1)^(k-1) (i+1)^(k-1) (p^(i+1) f_1 .. f_k)'.
        s = self.surface
        for k in (1, 2, 3):
            for combo in combinations_with_replacement(current, k):
                fs, efs = zip(*combo)
                product = prod(fs[1:], start=fs[0])
                i = 0
                while True:
                    scale = Fraction(-(i + 1)) ** (k - 1)
                    pot = (s.p_power(i + 1) * product).derivative().scale(scale)
                    if pot.degree > self.max_deg:
                        break
                    inner = Bracket(Leaf("SFy", i), efs[0])
                    for ef in efs[1:]:
                        inner = Bracket(ef, inner)
                    yield Bracket(Leaf("SFx", i), inner), pot
                    i += 1


# -- shears-only certification -------------------------------------------------


def _memoised(method):
    """``method`` computed once per arguments, kept in the certifier's ``memo``."""
    def once(self, *args):
        key = (method.__name__, *args)
        if key not in self.memo:
            self.memo[key] = method(self, *args)
        return self.memo[key]
    return once


class _Certifier:
    def __init__(self, surface: SurfaceConfig, max_deg: int):
        self.s = surface
        self.family = SpanningFamily(surface, max_deg)
        self.memo: dict[tuple, object] = {}

    def _combination(self, g: UniPoly) -> list[tuple[Fraction, FamilyEntry]]:
        """Weighted family entries whose potentials sum to g modulo constants."""
        entries = self.family.entries
        sol = self.family.echelon.solve(_mod_const(g))
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
        return make_sum([(w, _lift(e.expr, i2)) for w, e in terms])

    # The columns for x^i, any i >= 1, as an echelon and the expressions of
    # the kept ones: chains of x-shears over certified hyperbolic fields
    # give x^i f^(d) for every derivative order d <= i-1, a triangular family
    # in the degree.
    @_memoised
    def x_high_basis(self, i: int) -> tuple[Echelon, list[BracketExpression]]:
        echelon = Echelon()
        exprs: list[BracketExpression] = []
        for entry in self.family.entries:
            deriv = entry.potential.derivative()
            d = 0
            while d <= i - 1:
                if echelon.add(deriv.c):
                    inner = Bracket(Leaf("SFx", i - d - 1), entry.expr)
                    for _ in range(d):
                        inner = Bracket(Leaf("SFx", 0), inner)
                    exprs.append(inner)
                if deriv.is_zero():
                    break
                deriv = deriv.derivative()
                d += 1
        return echelon, exprs

    @_memoised
    def x_monomial(self, i: int, j: int) -> BracketExpression:
        return self.x_part(i, UniPoly.monomial(j))

    # potential exactly x^i p'(z) z^j
    @_memoised
    def w1(self, i: int, j: int) -> BracketExpression:
        u = Bracket(Leaf("SFy", 0), self.x_monomial(i + 1, j))
        v = self.lifted((self.s.p * UniPoly.monomial(j)).derivative(), i)
        return make_sum([(Fraction(1, i), u), (Fraction(-1, i), v)])

    # potential exactly x^i p(z) z^j
    @_memoised
    def w2(self, i: int, j: int) -> BracketExpression:
        u = Bracket(Leaf("SFy", 0), self.x_monomial(i + 1, j + 1))
        v = self.lifted((self.s.p * UniPoly.monomial(j + 1)).derivative(), i)
        w = Fraction(1, i * (j + 1))
        return make_sum([(w * (i + 1), v), (-w, u)])

    # potential exactly x^i * g, any i >= 1: the part of g that the columns of
    # x_high_basis(i) span is their weighted expressions; only the residual,
    # and only below deg(p), descends through the Bezout identity
    # 1 = u*p + v*p'
    def x_part(self, i: int, g: UniPoly) -> BracketExpression:
        echelon, exprs = self.x_high_basis(i)
        weights, residual = echelon.split(g.c)
        terms = [(w, e) for w, e in zip(weights, exprs) if w]
        if residual:
            r = UniPoly(residual)
            if i >= self.s.degree:
                raise SearchExhausted(
                    f"no shears-only combination found for an x-part of x-degree {i}: "
                    f"its residual of z-degree {r.degree} is outside the x-shear "
                    f"chains within degree bound {self.family.max_deg}; retry with "
                    "a larger bound"
                )
            # r = r*v*p' + r*u*p; with r*v = k*p + a this is a*p' + (r*u + k*p')*p.
            # a is a remainder modulo p, so deg a < deg p: each level of the
            # descent asks w1 for z-degrees below deg p, whatever the degree of r.
            k, a = poly_divrem(r * self.s.gcd_v, self.s.p)  # a: coefficient of p'
            b = r * self.s.gcd_u + k * self.s.p_prime  # coefficient of p
            terms += [(v, self.w1(i, j)) for j, v in sorted(a.c.items())]
            terms += [(v, self.w2(i, j)) for j, v in sorted(b.c.items())]
        return make_sum(terms)

    def certify(self, f: SurfacePolynomial) -> BracketExpression:
        terms: list = []
        coeffs = f.coeffs
        for n in f.weights():
            q = coeffs[n]
            if n > 0:
                terms.append((Fraction(1), self.x_part(n, q)))
            elif n < 0:
                # mirroring negates the potential and swaps x with y; the
                # terms are mirrored one by one, so that mirror_expr's memo
                # never holds the sum made for this one call
                x = self.x_part(-n, q)
                x_terms = x.terms if isinstance(x, Sum) else [(1, x)]
                terms += [(-w, mirror_expr(t)) for w, t in x_terms]
            elif q.degree > 0:
                terms.append((Fraction(1), self.pure_z(q)))
        return make_sum(terms)


@lru_cache(maxsize=16)
def _certifier(surface: SurfaceConfig, max_deg: int) -> _Certifier:
    return _Certifier(surface, max_deg)


# Ceiling on the degree bound of certify_shears_only, the default bound
# included.  The family's entries, their number and product degrees grow with
# the bound: certifying x on z^3 - z (a tree of 68 nodes) takes 0.05 s of CPU
# at 24 and 0.09 s at 32, and x*z on z^5 - z + 1 (551 nodes at both) 0.06 s
# and 0.16 s; x on z^6 - z + 1 certifies at its default bound 24 in 0.08 s,
# as 1,087 nodes (median CPU time of the call over three fresh processes,
# Python 3.11, one core of a shared 2-core VM).  The tree a certificate may
# print is bounded apart from this (parsing.MAX_CERT_NODES).
MAX_CERTIFY_DEGREE = 32


def certify_shears_only(
    f: SurfacePolynomial, max_deg: int | None = None
) -> BracketExpression:
    """A verified shears-only certificate for an accepted potential.

    ``max_deg`` defaults to ``default_certify_bound(f)``; a bound above
    MAX_CERTIFY_DEGREE raises DegreeGate.
    """
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
    return verified(_certifier(f.surface, max_deg).certify(f), f, "shears-only certificate")


def default_certify_bound(f: SurfacePolynomial) -> int:
    n = f.surface.degree
    deg = {k: q.degree for k, q in f.coeffs.items()}
    deg_z = deg.pop(0, 0)
    deg_mixed = max(deg.values(), default=0)
    return max(4 * n, deg_z + 2 * n, deg_mixed + 3 * n, 12)
