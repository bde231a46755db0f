"""Membership decision, bracket expressions, certificates.

Oracles: the decision test is checked against hand-computed cases, and every
produced certificate is re-verified by ``verify_certificate``, whose
Poisson-algebra evaluation is in turn checked against evaluating random
bracket expressions to fields (``evaluate``) and taking their potentials.
"""

import hashlib
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from danielewski import (
    Bracket,
    DegreeGate,
    Leaf,
    MalformedNesting,
    MembershipRejected,
    Sum,
    UniPoly,
    avdp_decompose,
    bracket,
    canonical_potential,
    certify_shears_only,
    decide,
    evaluate,
    expression_size,
    hyperbolic,
    make_sum,
    make_surface,
    potential_of,
    shear_x,
    shear_y,
    verify_certificate,
)
from danielewski.membership import (
    SpanningFamily,
    _Certifier,
    evaluate_potential,
    fold,
    mirror_expr,
    solve_linear,
)
from danielewski.parsing import cert_from_obj, cert_to_obj, parse_expression, parse_unipoly
from danielewski.ring import Echelon
from oracles import gauss_jordan_solve, nested_shear_shape, row_reduce

from conftest import P_CUBIC, P_QUAD, P_QUARTIC2, random_surface_polynomial, upoly

RNG_SEED = 16180


# ---- expression evaluation -------------------------------------------------------


def test_leaf_evaluation(quad):
    assert evaluate(quad, Leaf("SFx", 2)) == shear_x(quad, 2)
    assert evaluate(quad, Leaf("SFy", 0)) == shear_y(quad, 0)
    q = upoly({1: 3})
    assert evaluate(quad, Leaf("HF", poly=q)) == hyperbolic(quad, q)


def test_bracket_and_sum_evaluation(cubic):
    e = make_sum([
        (Fraction(2), Bracket(Leaf("SFx", 0), Leaf("SFy", 0))),
        (Fraction(-1, 3), Leaf("HF", poly=UniPoly.const(1))),
    ])
    expected = bracket(shear_x(cubic, 0), shear_y(cubic, 0)).scale(2) \
        - hyperbolic(cubic, UniPoly.const(1)).scale(Fraction(1, 3))
    assert evaluate(cubic, e) == expected


def test_make_sum_flattens(quad):
    inner = make_sum([(Fraction(2), Leaf("SFx", 0))])
    outer = make_sum([(Fraction(3), inner), (Fraction(0), Leaf("SFy", 1))])
    assert evaluate(quad, outer) == shear_x(quad, 0).scale(6)


def test_expression_size():
    e = Bracket(Leaf("SFx", 0), Bracket(Leaf("SFx", 0), Leaf("SFy", 1)))
    assert expression_size(e) == 5
    assert expression_size(Leaf("SFx", 0)) == 1


def test_mirror_expr(quad):
    e = Bracket(Leaf("SFx", 1), Leaf("HF", poly=upoly({1: 1})))
    m = mirror_expr(e)
    th = evaluate(quad, e)
    mth = evaluate(quad, m)
    # mirroring swaps the roles of x and y and flips the hyperbolic sign
    assert mth.img_x == th.img_y.swap_xy()
    assert mth.img_y == th.img_x.swap_xy()


# ---- decision test ----------------------------------------------------------------


def test_decide_reference_cases():
    cubic = make_surface(upoly({3: 1, 1: -1}))      # z^3 - z
    quartic = make_surface(upoly({4: 1, 1: -1}))    # z^4 - z
    assert not decide(cubic.z()).accepted
    assert decide(cubic.from_unipoly(upoly({2: Fraction(1, 2)}))).accepted
    assert decide(quartic.from_unipoly(upoly({3: Fraction(1, 3)}))).accepted
    assert not decide(quartic.z()).accepted
    assert not decide(quartic.from_unipoly(upoly({2: Fraction(1, 2)}))).accepted


def test_decide_depends_only_on_z_part(cubic):
    f = cubic.x(2, 1) + cubic.y(1, 3) + cubic.z()
    assert decide(f).accepted == decide(cubic.z()).accepted


def test_decide_accepts_all_on_quadric(quad):
    # for deg(p) = 2 the criterion never obstructs
    rng = random.Random(RNG_SEED)
    for _ in range(20):
        f = random_surface_polynomial(quad, rng, 6)
        assert decide(f).accepted


def test_certified_potentials_pass_decide(cubic):
    # accepted inputs agree with the constructive certificate search
    g = upoly({2: Fraction(1, 2)})
    f = cubic.from_unipoly(g)
    cert = certify_shears_only(f)
    assert verify_certificate(cubic, cert, f)


def test_rejected_input_raises(cubic):
    with pytest.raises(MembershipRejected):
        certify_shears_only(cubic.z())


# ---- certificates -------------------------------------------------------------------


def test_verify_certificate_detects_mismatch(quad):
    e = Bracket(Leaf("SFx", 0), Leaf("SFy", 0))
    good = potential_of(evaluate(quad, e))
    assert verify_certificate(quad, e, good)
    assert not verify_certificate(quad, e, good + quad.z())


# Random bracket expressions over SF/HF leaves, for the Poisson-algebra
# evaluation against the field-level oracle.  The root is a Sum so that it
# always carries weights to perturb.
ORACLE_SURFACES = [make_surface(p) for p in (P_QUAD, P_CUBIC, P_QUARTIC2)]
weights = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
leaves = st.one_of(
    st.builds(Leaf, st.sampled_from(["SFx", "SFy"]), st.integers(0, 2)),
    st.builds(lambda q: Leaf("HF", poly=q),
              st.dictionaries(st.integers(0, 2), weights, min_size=1, max_size=2).map(UniPoly)),
)
trees = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.builds(Bracket, sub, sub),
        st.lists(st.tuples(weights, sub), min_size=1, max_size=2).map(lambda t: Sum(tuple(t))),
    ),
    max_leaves=5,
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORACLE_SURFACES),
       st.lists(st.tuples(weights, trees), min_size=1, max_size=3), st.data())
def test_potential_evaluation_matches_field_oracle(s, terms, data):
    expr = Sum(tuple(terms))
    f = potential_of(evaluate(s, expr))
    assert evaluate_potential(s, expr) == f
    assert verify_certificate(s, expr, f)
    # moving the weight of one term whose potential is not constant changes
    # the potential by a nonzero multiple of it
    live = [k for k, (_, t) in enumerate(terms) if not potential_of(evaluate(s, t)).is_zero()]
    if live:
        k = data.draw(st.sampled_from(live))
        w, t = terms[k]
        bumped = Sum(tuple(terms[:k]) + ((w + 1, t),) + tuple(terms[k + 1:]))
        assert not verify_certificate(s, bumped, f)


def test_avdp_decompose_roundtrip(quad, cubic):
    rng = random.Random(RNG_SEED + 1)
    for s in (quad, cubic):
        for _ in range(40):
            f = canonical_potential(random_surface_polynomial(s, rng, 6))
            e = avdp_decompose(f)
            assert verify_certificate(s, e, f)


def test_avdp_depth_is_at_most_two(cubic):
    f = cubic.x(3, 2) + cubic.y(1, 1) + cubic.from_unipoly(upoly({4: 1}))

    def depth(e):
        if isinstance(e, Leaf):
            return 0
        if isinstance(e, Sum):
            return max((depth(t) for _, t in e.terms), default=0)
        return 1 + max(depth(e.left), depth(e.right))

    assert depth(avdp_decompose(f)) <= 1


def test_classify_bracket_potential(cubic):
    e = Bracket(Leaf("SFx", 0), Bracket(Leaf("SFx", 0), Leaf("SFy", 0)))
    kind, j, q = nested_shear_shape(cubic, e)
    assert kind == "x" and j == 1
    assert q == cubic.p.derivative().derivative()
    z_kind, _, _ = nested_shear_shape(cubic, Bracket(Leaf("SFx", 1), Leaf("SFy", 1)))
    assert z_kind == "z"
    with pytest.raises(MalformedNesting):
        nested_shear_shape(
            cubic, Bracket(Bracket(Leaf("SFx", 0), Leaf("SFy", 0)),
                           Bracket(Leaf("SFx", 0), Leaf("SFy", 0))))


def test_shears_only_certificates_random(quad, cubic):
    rng = random.Random(RNG_SEED + 2)
    for s, max_deg in ((quad, 5), (cubic, 4)):
        for _ in range(10):
            f = canonical_potential(random_surface_polynomial(s, rng, max_deg,
                                                              n_terms=3))
            if not decide(f).accepted:
                continue
            cert = certify_shears_only(f)
            assert verify_certificate(s, cert, f)
            assert _shears_only(cert)


def _shears_only(e):
    if isinstance(e, Leaf):
        return e.kind in ("SFx", "SFy")
    if isinstance(e, Sum):
        return all(_shears_only(t) for _, t in e.terms)
    return _shears_only(e.left) and _shears_only(e.right)


def test_shears_only_pure_z_targets(quad):
    rng = random.Random(RNG_SEED + 3)
    for _ in range(10):
        q = UniPoly({e: Fraction(rng.randint(-5, 5)) for e in range(1, 6)})
        f = quad.from_unipoly(q)
        if f.is_zero():
            continue
        cert = certify_shears_only(f)
        assert verify_certificate(quad, cert, canonical_potential(f))
        assert _shears_only(cert)


QUINTIC_AT_24 = ["x*z", "x*z^2", "x*z^3", "x*z^4", "y*z^2"]


@pytest.mark.parametrize("target", QUINTIC_AT_24)
def test_shears_only_on_a_quintic(target):
    """Shears-only certificates on z^5 - z + 1 at bound 24; the trees have 6
    to 129 nodes."""
    s = make_surface(parse_unipoly("z^5 - z + 1"))
    f = parse_expression(s, target)
    cert = certify_shears_only(f, 24)
    assert verify_certificate(s, cert, f)
    assert fold(cert, lambda e: e.kind != "HF", lambda terms: all(v for _, v in terms),
                lambda a, b: a and b)


CERTIFY_SURFACES = ["z^2 - 1", "z^3 - z", "z^4 - z", "z^5 - z + 1", "z^6 - z + 1",
                    "z^7 - 2*z^2 + 3"]
mixed_terms = st.lists(st.tuples(st.integers(-5, 5).filter(bool), st.integers(0, 10),
                                 st.sampled_from([1, -1, 2, -3])), min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CERTIFY_SURFACES), mixed_terms, st.lists(st.integers(-2, 2), max_size=6))
def test_accepted_potentials_certify_at_the_default_bound(surface, terms, q):
    """c x^k z^j and c y^k z^j terms plus (p*q)', on surfaces of degree 2 to 7:
    each certifies at the default bound and verifies."""
    s = make_surface(parse_unipoly(surface))
    f = s.from_unipoly((s.p * UniPoly(dict(enumerate(q)))).derivative())
    for k, j, c in terms:
        f = f + (s.x(k, j, c) if k > 0 else s.y(-k, j, c))
    cert = certify_shears_only(f)
    assert verify_certificate(s, cert, f)


def test_a_high_power_is_spanned_at_x_degree_one(cubic):
    # g = z^10 on z^3 - z: the x-shear chains at x^1 do not span it, and the
    # [SF_0^y, x^2 h] columns of the family's level(1) take the rest
    certifier = _Certifier(cubic, 24)
    g = UniPoly.monomial(10)
    echelon, kept = certifier.family.level(1)
    assert not echelon.split(g.c)[1]
    chains = Echelon()
    for c in kept:
        if c.expr.left.kind == "SFx":
            chains.add(c.potential.c)
    assert chains.split(g.c)[1]
    assert verify_certificate(cubic, certifier.part(1, g), cubic.x(1, 10))


def test_certify_deep_nesting_bounds(cubic):
    # depth-4 random bracket words evaluate to certifiable potentials
    rng = random.Random(RNG_SEED + 4)
    leaves = [Leaf("SFx", 0), Leaf("SFx", 1), Leaf("SFy", 0), Leaf("SFy", 1)]
    for _ in range(5):
        e = rng.choice(leaves)
        for _ in range(3):
            e = Bracket(rng.choice(leaves), e)
        f = potential_of(evaluate(cubic, e))
        if f.is_zero():
            continue
        cert = certify_shears_only(f)
        assert verify_certificate(cubic, cert, f)


def test_family_degree_gate(cubic):
    with pytest.raises(DegreeGate):
        SpanningFamily(cubic, 2)


@pytest.mark.parametrize("surface", ["z^3 - z", "z^4 - z"])
def test_family_is_a_pivot_basis(surface):
    # the entries' potentials are independent modulo constants and, at these
    # bounds, span every (p h)' of degree <= bound: bound + 2 - deg(p) of them
    s = make_surface(parse_unipoly(surface))
    for bound in (12, 16, 24):
        family = SpanningFamily(s, bound)
        pots = [e.potential for e in family.entries]
        rows = [[q.coeff(k) for q in pots] for k in range(1, bound + 1)]
        assert len(row_reduce(rows, len(pots))) == len(pots) == bound + 2 - s.degree


FAMILY_SURFACES = ["z^2 - 1", "z^3 - z", "z^4 - z", "z^3 - 2", "z^4 - 2*z^2 + z + 1",
                   "z^5 - z + 1"]


@pytest.mark.parametrize("surface", FAMILY_SURFACES)
def test_family_entries_are_certified_and_independent(surface):
    # each entry's potential is its expression's by the field-level oracle,
    # and is accepted: (p h)' modulo constants; the potentials are
    # independent modulo constants, and no more than the bound lets them be
    s = make_surface(parse_unipoly(surface))
    for bound in (12, 16, 24):
        family = SpanningFamily(s, bound)
        pots = [e.potential for e in family.entries]
        for e in family.entries:
            f = s.from_unipoly(e.potential)
            assert canonical_potential(potential_of(evaluate(s, e.expr))) == canonical_potential(f)
            assert decide(f).accepted
        rows = [[q.coeff(k) for q in pots] for k in range(1, bound + 1)]
        assert len(row_reduce(rows, len(pots))) == len(pots) <= bound + 2 - s.degree


@pytest.mark.parametrize("surface", FAMILY_SURFACES)
def test_family_entries_are_seeds_or_y_shear_brackets(surface):
    # an entry is a seed, or [SF_0^y, c] for an expression c of potential
    # x g, whose potential is {y, x g} = (p g)'
    s = make_surface(parse_unipoly(surface))
    for bound in (12, 16, 24):
        seeds = {Bracket(Leaf("SFx", 0), Bracket(Leaf("SFx", 0), Leaf("SFy", 1)))}
        seeds |= {Bracket(Leaf("SFx", i), Leaf("SFy", i)) for i in range(bound)}
        for e in SpanningFamily(s, bound).entries:
            if e.expr in seeds:
                continue
            assert e.expr.left == Leaf("SFy", 0)
            c = evaluate_potential(s, e.expr.right)
            assert list(c.coeffs) == [1]
            assert (s.p * c.coeffs[1]).derivative() == e.potential


# (surface, bound, entries): how full the family is, against the
# bound + 2 - deg(p) entries of a full one
FAMILY_SIZES = [
    ("z^3 - z", 12, 11),
    ("z^5 - z + 1", 12, 9),
    ("z^5 - z", 12, 8),
    ("z^5 - z", 16, 13),
    ("z^6 - z + 1", 16, 9),
    ("z^6 - z + 1", 24, 20),
    ("z^7 - 2*z^2 + 3", 24, 18),
    ("z^8 - z + 1", 32, 24),
]


@pytest.mark.parametrize("surface, bound, entries", FAMILY_SIZES,
                         ids=[f"{s} at {b}" for s, b, _ in FAMILY_SIZES])
def test_family_fullness_is_pinned(surface, bound, entries):
    s = make_surface(parse_unipoly(surface))
    assert len(SpanningFamily(s, bound).entries) == entries <= bound + 2 - s.degree


# sha256 of the sorted-key JSON of each certificate: a change to the family
# or the solver that alters a certificate by one byte shows here.
PINNED_CERTIFICATES = [
    ("z^2 - 1", "x^2*z + y + 3*z^2 - 1", None,
     "fc1f1573d204794b2f9ef16a908fba18846825e91c2e15e4ab864e4e7eefeec1"),
    ("z^2 - 1", "x^2*z + y + 3*z^2 - 1", 24,
     "fc1f1573d204794b2f9ef16a908fba18846825e91c2e15e4ab864e4e7eefeec1"),
    ("z^2 - 1", "x*z^2 - 2*y^3*z", None,
     "dc188719d8473627632e386eb3b01f3dca2f86177f6aeacced78a5602fa8a166"),
    ("z^2 - 1", "x*z^2 - 2*y^3*z", 24,
     "dc188719d8473627632e386eb3b01f3dca2f86177f6aeacced78a5602fa8a166"),
    ("z^3 - z", "x^2*z + y*z^2 + z^2", None,
     "d0e713e8d7a076b727ef2c0ba9d6127a19d2fed4910dc0f628df91daf19ce4ae"),
    ("z^3 - z", "x^2*z + y*z^2 + z^2", 24,
     "d0e713e8d7a076b727ef2c0ba9d6127a19d2fed4910dc0f628df91daf19ce4ae"),
    ("z^3 - z", "x*z^3 - 2*y^3 + 5*z^4 - 3*z^2", None,
     "af8cb8214a1449abd398e39f443454fcd4d8b77d8be7f81ec7987aa29cd21c61"),
    ("z^3 - z", "x*z^3 - 2*y^3 + 5*z^4 - 3*z^2", 24,
     "af8cb8214a1449abd398e39f443454fcd4d8b77d8be7f81ec7987aa29cd21c61"),
    ("z^4 - z", "x^3 + y^2*z", None,
     "0d3db5abf4da403aa1fdb718a5727698c2dc677b8f5d7d5dc6d658d6598fdbeb"),
    ("z^4 - z", "x^3 + y^2*z", 24,
     "0d3db5abf4da403aa1fdb718a5727698c2dc677b8f5d7d5dc6d658d6598fdbeb"),
    ("z^4 - z", "x^2*z^4 + 4*z^3 - 1", None,
     "205fde35294f85038637658cd422a3447c36afd46f2df9dec6415fb1fa096b36"),
    ("z^4 - z", "x^2*z^4 + 4*z^3 - 1", 24,
     "205fde35294f85038637658cd422a3447c36afd46f2df9dec6415fb1fa096b36"),
    # its pure-z part weights two [SF_0^y, c] entries of the family
    ("z^4 - z", "-2*x^5*z + 2*y^3 + 6*z^5 + 5*z^4 - 3*z^2 - 2*z", None,
     "f58c23f18d6dc9c0c35b4de3a14b03c02487530d5d267ae8ae64a062d45f47c2"),
    # x on surfaces of degree 7 and 8 certifies at its default bound
    ("z^7 - z + 1", "x", None,
     "1787746ce4effb1000acc40c270431bbaae5a23d9eefa3d7b11268c9d9071747"),
    ("z^8 - z + 1", "x", None,
     "d5c46b820d58bb3954afb7324e97d59260b0099b8deaea3169e84d58fcd3525c"),
]


@pytest.mark.parametrize("surface, target, bound, digest", PINNED_CERTIFICATES,
                         ids=[f"{s}: {t}, bound {b}" for s, t, b, _ in PINNED_CERTIFICATES])
def test_certificates_are_pinned(surface, target, bound, digest):
    s = make_surface(parse_unipoly(surface))
    f = parse_expression(s, target)
    expr = certify_shears_only(f, bound)
    cert = json.dumps(cert_to_obj(expr), sort_keys=True)
    assert hashlib.sha256(cert.encode()).hexdigest() == digest
    # the pinned certificate holds by both verifiers: the Poisson algebra's
    # and the field-level oracle
    assert verify_certificate(s, expr, f)
    assert canonical_potential(potential_of(evaluate(s, expr))) == canonical_potential(f)


# ---- cost of shared subtrees ------------------------------------------------------------


class _CountedPoly(UniPoly):
    """A UniPoly that counts the calls of its ``__hash__``."""

    __slots__ = ("hashes",)

    def __init__(self, coeffs):
        super().__init__(coeffs)
        self.hashes = 0

    def __hash__(self):
        self.hashes += 1
        return super().__hash__()


def _distinct_nodes(expr) -> list:
    """The nodes of ``expr``, one per object."""
    seen: dict = {}
    stack = [expr]
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen[id(e)] = e
            if isinstance(e, Sum):
                stack.extend(t for _, t in e.terms)
            elif isinstance(e, Bracket):
                stack.extend((e.left, e.right))
    return list(seen.values())


def test_shared_subtrees_cost_their_distinct_count(cubic):
    """A depth-16 doubling DAG: 17 distinct nodes, 2^17 - 1 as a tree.  Its
    one leaf polynomial is hashed at most once by every walk over it, and it
    reads back from its file form as 17 objects."""
    q = _CountedPoly({1: 1})
    e = Leaf("HF", poly=q)
    for _ in range(16):
        e = Sum(((1, e), (2, e)))
    claimed = cubic.from_unipoly(q.antiderivative()).scale(3 ** 16)
    assert verify_certificate(cubic, e, claimed)
    assert expression_size(e) == 2 ** 17 - 1
    obj = cert_to_obj(e)
    assert q.hashes <= 1
    back = cert_from_obj(obj)
    assert back == e and verify_certificate(cubic, back, claimed)
    assert len(_distinct_nodes(back)) == 17


@pytest.mark.parametrize("surface", ["z^3 - z", "z^4 - z"])
def test_certificates_read_back_as_shared_dags(surface):
    s = make_surface(parse_unipoly(surface))
    for target in ("x", "x*z^2 + y", "x^2 + y^2", "x*z^3 + y*z^2"):
        f = parse_expression(s, target)
        cert = certify_shears_only(f)
        back = cert_from_obj(json.loads(json.dumps(cert_to_obj(cert))))
        assert back == cert and verify_certificate(s, back, f)
        nodes = _distinct_nodes(back)
        assert len(nodes) == len(set(nodes)) < expression_size(back)


# ---- linear solver -------------------------------------------------------------------


def test_solve_linear_exact():
    cols = [upoly({0: 1, 1: 2}), upoly({2: 1})]
    target = upoly({0: 3, 1: 6, 2: -2})
    sol = solve_linear(cols, target)
    assert sol == [Fraction(3), Fraction(-2)]
    assert solve_linear(cols, upoly({3: 1})) is None


def test_solve_linear_mod_const():
    cols = [upoly({1: 1})]
    target = upoly({1: 2, 0: 5})
    assert solve_linear(cols, target) is None
    assert solve_linear(cols, target, mod_const=True) == [Fraction(2)]


# Small rational systems with many zero and repeated entries, so that columns
# are often dependent; a target is either random (often inconsistent) or a
# combination of the columns (consistent).
small = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)]).map(Fraction)
polys = st.dictionaries(st.integers(0, 4), small, max_size=4).map(UniPoly)


@st.composite
def systems(draw):
    columns = draw(st.lists(polys, max_size=6))
    targets = []
    for _ in range(draw(st.integers(1, 4))):
        if columns and draw(st.booleans()):
            ws = draw(st.lists(small, min_size=len(columns), max_size=len(columns)))
            targets.append(sum((c.scale(w) for c, w in zip(columns, ws)), draw(polys)
                               if draw(st.booleans()) else UniPoly()))
        else:
            targets.append(draw(polys))
    return columns, targets


@settings(max_examples=300, deadline=None)
@given(systems(), st.booleans())
def test_factored_solve_matches_gauss_jordan(system, mod_const):
    columns, targets = system
    for target in targets:
        assert solve_linear(columns, target, mod_const) == \
            gauss_jordan_solve(columns, target, mod_const)
    # one factorization, many targets: the same answers as solving each fresh
    vector = (lambda q: {e: v for e, v in q.c.items() if e}) if mod_const else (lambda q: q.c)
    echelon = Echelon()
    kept = [echelon.add(vector(c)) for c in columns]
    assert [k for k, keep in enumerate(kept) if keep] == echelon.pivots
    for target in targets:
        weights, residual = echelon.split(vector(target))
        fresh = gauss_jordan_solve(columns, target, mod_const)
        if residual:
            assert fresh is None
        else:
            assert fresh == [weights[echelon.pivots.index(k)] if keep else 0
                             for k, keep in enumerate(kept)]
        # target = sum(w_k * kept_k) + residual, the residual reduced already
        kept_columns = [c for c, keep in zip(columns, kept) if keep]
        combination = sum((c.scale(w) for c, w in zip(kept_columns, weights)), UniPoly())
        assert vector(combination + UniPoly(residual)) == vector(target)
        assert echelon.split(residual) == ([0] * len(kept_columns), residual)


def test_one_elimination_per_column_set(monkeypatch):
    # Every Echelon the certifier makes is one elimination.  The family's
    # build makes one per distinct column set (its own, and one per level
    # build of each round); certifying then makes one per x-degree level it
    # reads, however many targets it solves against each.  From x^deg(p) up
    # a level holds only chains, whose potentials repeat from one x-degree
    # to the next, so those are counted rather than compared.
    made, offered = [], {}
    init, add = Echelon.__init__, Echelon.add

    def counted_init(self):
        init(self)
        made.append(self)

    def recorded_add(self, column):
        offered.setdefault(id(self), []).append(tuple(sorted(column.items())))
        return add(self, column)

    monkeypatch.setattr(Echelon, "__init__", counted_init)
    monkeypatch.setattr(Echelon, "add", recorded_add)
    targets = {
        "z^3 - z": ["x^3*z + x^4", "x^3*z^2 - x^5*z", "y^4*z + x^4*z^3", "x^2*z + y*z^2 + z^2",
                    "x*z^3 - 2*y^3 + 5*z^4 - 3*z^2", "x^3 + y^3*z^2", "5*z^4 - 3*z^2 + x^6"],
        "z^4 - z": ["x^3 + y^2*z", "x^2*z^4 + 4*z^3 - 1", "x^4*z + y^4", "x^5 + x^4*z^2",
                    "x*z + y^5*z^2"],
    }
    for surface, srcs in targets.items():
        s = make_surface(parse_unipoly(surface))
        first = len(made)
        certifier = _Certifier(s, 16)
        columns = [tuple(offered.get(id(e), ())) for e in made[first:]]
        assert len(set(columns)) == len(columns) >= 4
        built = len(made)
        fs = [parse_expression(s, src) for src in srcs]
        for _ in range(2):
            for f in fs:
                assert decide(f).accepted
                assert verify_certificate(s, certifier.certify(f), f)
        # the targets read every x-degree from 1 to the highest one
        assert len(made) - built == max(abs(n) for f in fs for n in f.weights())


def test_only_membership_dispatches_on_expression_nodes():
    """Every other module walks a bracket expression through ``fold``."""
    src = Path(__file__).parents[1] / "src" / "danielewski"
    for path in sorted(src.glob("*.py")):
        if path.name != "membership.py":
            text = path.read_text()
            assert not re.search(r"isinstance\([^)]*\b(Leaf|Sum|Bracket)\b", text), path.name


def test_one_routine_raises_failed_verification():
    """Every certificate the library builds is checked by ``verified``: the
    message it raises is the only "failed verification" in the package."""
    src = Path(__file__).parents[1] / "src" / "danielewski"
    count = sum(path.read_text().count("failed verification") for path in src.glob("*.py"))
    assert count == 1
