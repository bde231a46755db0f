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
solving over Q against a spanning family: one echelon per x-degree i of
certified shears-only expressions with potentials x^i g, whose x-degree 0
is a pivot basis of pure-z potentials (p h)'; a y-part y^i g combines
the same echelon's columns mirrored (``mirror_expr``).  The family keeps
each echelon and its mirrored columns from their first read.  This search
is a semi-algorithm with a caller-tunable degree bound.

A value of a bracket expression (its field, its potential, its size, its
mirror, its file form) is computed by ``fold``: bottom-up, once per
distinct subtree, from a value per leaf, per sum and per bracket.  Certificates are verified
in the Poisson algebra of potentials, through the Lie algebra isomorphism
[H_f, H_g] = H_{f, g} (``evaluate_potential``): one Poisson bracket
{f, g} = H_f(g) per bracket node, constants dropped once at the root, no
field built.  ``evaluate``, which builds every node as a field, is kept as
the independent oracle.
"""

from __future__ import annotations

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


def mirror_expr(expr: BracketExpression) -> BracketExpression:
    """Conjugation by the involution: SFx <-> SFy, HF_q -> -HF_q.

    The mirrored expression evaluates to the involution-conjugated field;
    its potential is -f(y, x, z) when the original's is f(x, y, z).
    """

    def leaf(e):
        if e.kind == "HF":
            return make_sum([(Fraction(-1), e)])
        return Leaf("SFy" if e.kind == "SFx" else "SFx", e.i)

    return fold(expr, leaf, make_sum, Bracket)


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
    weights, residual = echelon.split(vector(target))
    if residual:
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
    """A certified column of x-degree i: ``expr``, shears only, has the
    potential x^i * ``potential`` (modulo constants at i = 0, the entries,
    whose ``potential`` keeps its constant term)."""

    __slots__ = ("expr", "potential")
    expr: BracketExpression
    potential: UniPoly


class SpanningFamily:
    """Certified shears-only expressions, one echelon per x-degree (``level``).

    The entries, of x-degree 0, are a pivot basis of pure-z potentials
    modulo constants (``echelon``), each of the form (p*h)'.  The seeds are
    [SF_i^x, SF_i^y], of potential p^i p', and [SF_0^x, [SF_0^x, SF_1^y]],
    of potential (p p')'.  Every other entry is [SF_0^y, c] for a kept
    column c of ``level(1)``, of potential x g, since {y, x g} = (p g)'.
    A round offers these in increasing deg g, up to the degree bound of
    (p g)', each reduced against the entries so far; only an independent
    one is verified and kept.  After a round that keeps one, the next round
    offers level(1) built from every entry; a level keeps its columns in
    increasing degree, so a round builds only the low-degree part it offers,
    and reads it once.  Every entry lies in {(p h)' : deg <= bound} modulo
    constants, of dimension bound + 2 - deg(p) (bound when deg(p) = 1, where
    (p c)' is a constant), so the build stops once it holds that many
    entries, or after a round that keeps none.
    """

    def __init__(self, surface: SurfaceConfig, max_deg: int):
        if max_deg < surface.degree:
            raise DegreeGate("family degree bound must be >= deg(p)")
        self.surface = surface
        self.max_deg = max_deg
        self.entries: list[FamilyEntry] = []
        self.echelon = Echelon()  # the entries' potentials modulo constants
        self._levels: dict[int, tuple] = {}  # level(i), whole
        self._mirrored: dict[int, list] = {}  # mirrored(i)
        full = max_deg if surface.degree == 1 else max_deg + 2 - surface.degree
        p = surface.p
        candidates = self._seeds()
        while self._keep(candidates, full):
            candidates = [
                (Bracket(Leaf("SFy", 0), c.expr), (p * c.potential).derivative())
                for c in self.level(1, max_deg + 1 - surface.degree)[1]
            ]

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

    def _keep(self, candidates, full: int) -> bool:
        """Keep every candidate (expr, potential) independent of the entries
        so far, until the family is full; True iff one was kept and the
        family is not full yet."""
        kept = False
        for expr, pot in candidates:
            if len(self.entries) == full:
                break
            if self.echelon.add(_mod_const(pot)):
                verified(expr, self.surface.from_unipoly(pot), "spanning-family entry")
                self.entries.append(FamilyEntry(expr, pot))
                kept = True
        return kept and len(self.entries) < full

    def level(self, i: int, top: int | None = None) -> tuple[Echelon, list[FamilyEntry]]:
        """The echelon of x-degree i and its kept columns, those of z-degree
        at most ``top`` (all when None); level 0 is the entries.

        Chains of x-shears over the entries give x^i f^(d+1), d < i, for each
        entry of potential f.  Below x^deg(p), each kept column x^(i+1) g of
        level i + 1 also gives [SF_0^y, x^(i+1) g], of potential
        {y, x^(i+1) g} = x^i ((i+1) g p' + p g'), of degree deg g + deg p - 1.
        The columns are offered in increasing degree, so the kept ones of
        degree at most ``top`` are those of the whole level, and a column of
        degree below the number kept is spanned and not offered.  A whole
        level is kept; a part up to ``top`` is built for one round's read.
        """
        if i == 0:
            return self.echelon, self.entries
        if top is None and i in self._levels:
            return self._levels[i]
        s = self.surface
        offers = []  # (degree, g, expr, d): a chain of d + 1 x-shears, or d None
        for entry in self.entries:
            deriv = entry.potential.derivative()
            for d in range(i):
                if deriv.is_zero():
                    break
                offers.append((deriv.degree, deriv, entry.expr, d))
                deriv = deriv.derivative()
        if i < s.degree:
            upper = self.level(i + 1, None if top is None else top + 1 - s.degree)[1]
            offers += [(c.potential.degree + s.degree - 1, c.potential, c.expr, None) for c in upper]
        offers.sort(key=lambda offer: offer[0])
        echelon, kept = Echelon(), []
        for deg, g, expr, d in offers:
            if top is not None and deg > top:
                break
            if deg < len(kept):
                continue
            if d is None:
                g = (g * s.p_prime).scale(i + 1) + s.p * g.derivative()
            if echelon.add(g.c):
                if d is None:
                    expr = Bracket(Leaf("SFy", 0), expr)
                else:
                    expr = Bracket(Leaf("SFx", i - d - 1), expr)
                    for _ in range(d):
                        expr = Bracket(Leaf("SFx", 0), expr)
                kept.append(FamilyEntry(expr, g))
        if top is None:
            self._levels[i] = echelon, kept
        return echelon, kept

    def mirrored(self, i: int) -> list[BracketExpression]:
        """level(i)'s kept columns, mirrored: potentials -y^i g for x^i g."""
        if i not in self._mirrored:
            self._mirrored[i] = [mirror_expr(c.expr) for c in self.level(i)[1]]
        return self._mirrored[i]


# -- shears-only certification -------------------------------------------------


class _Certifier:
    def __init__(self, surface: SurfaceConfig, max_deg: int):
        self.family = SpanningFamily(surface, max_deg)

    def _exhausted(self, n: int, degree: int) -> SearchExhausted:
        """The failure of the search for the part of weight ``n``, whose
        residual (at n = 0, the pure-z potential) has z-degree ``degree``, at
        this certifier's bound: the fields ``x_degree`` (``n``, negative for a
        y-part), ``degree`` and ``bound``, and a message of what to try next,
        a larger bound or none at the ceiling."""
        bound = self.family.max_deg
        hint = ("that is the ceiling MAX_CERTIFY_DEGREE, so no larger bound can be tried"
                if bound >= MAX_CERTIFY_DEGREE else "retry with a larger bound")
        kind = "an x-part of x" if n > 0 else "a y-part of y"
        what = (f"{kind}-degree {abs(n)}: its residual of z-degree {degree} is outside the "
                "span of its columns" if n else f"a pure-z potential of degree {degree}")
        exc = SearchExhausted(
            f"no shears-only combination found for {what} within degree bound {bound}; {hint}"
        )
        exc.x_degree, exc.degree, exc.bound = n, degree, bound
        return exc

    # potential x^n g (modulo constants at n = 0), or y^-n g for n < 0: the
    # weighted kept columns of the family's level(|n|), mirrored for n < 0,
    # since mirroring swaps x with y and negates the potential
    def part(self, n: int, g: UniPoly) -> BracketExpression:
        i = abs(n)
        echelon, kept = self.family.level(i)
        weights, residual = echelon.split(g.c if i else _mod_const(g))
        if residual:
            raise self._exhausted(n, UniPoly(residual).degree if i else g.degree)
        if n < 0:
            return make_sum([(-w, e) for w, e in zip(weights, self.family.mirrored(i)) if w])
        return make_sum([(w, c.expr) for w, c in zip(weights, kept) if w])

    def certify(self, f: SurfacePolynomial) -> BracketExpression:
        coeffs = f.coeffs
        return make_sum([(1, self.part(n, coeffs[n])) for n in f.weights()])


@lru_cache(maxsize=16)
def _certifier(surface: SurfaceConfig, max_deg: int) -> _Certifier:
    return _Certifier(surface, max_deg)


# Ceiling on the degree bound of certify_shears_only, which the default
# bound stops at.  The family's entries and the rounds that find them grow
# with the bound, and so do the columns of every level: certifying x on
# z^3 - z (a tree of 19 nodes) takes 0.03 s of CPU at 24 and 0.05 s at 32,
# and x*z on z^5 - z + 1 (38 nodes at both) 0.09 s and 0.17 s; x on
# z^6 - z + 1 certifies at its default bound 24 in 0.12 s, as 110 nodes, and
# x on z^9 - z + 1 at 32 in 0.74 s, as 447 (median CPU time of the call over
# three fresh processes, Python 3.11, one core of a shared 2-core VM).  The
# tree a certificate may print is bounded apart from this
# (parsing.MAX_CERT_NODES).
MAX_CERTIFY_DEGREE = 32


def certify_shears_only(
    f: SurfacePolynomial, max_deg: int | None = None
) -> BracketExpression:
    """A verified shears-only certificate for an accepted potential.

    ``max_deg`` defaults to ``default_certify_bound(f)``, which is at most
    MAX_CERTIFY_DEGREE; a bound above it raises DegreeGate.
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
    return min(max(4 * n, deg_z + 2 * n, deg_mixed + 3 * n, 12), MAX_CERTIFY_DEGREE)
