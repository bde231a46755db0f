"""Membership decision, bracket expressions, certificates.

Oracles: the decision test is checked against hand-computed cases, and every
produced certificate is re-verified by ``verify_certificate``, whose
Poisson-algebra evaluation is in turn checked against evaluating random
bracket expressions to fields (``evaluate``) and taking their potentials.
"""

import hashlib
import json
import random
from fractions import Fraction

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
    classify_bracket_potential,
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
    evaluate_potential,
    mirror_expr,
    solve_linear,
)
from danielewski.parsing import cert_to_obj, parse_expression, parse_unipoly
from danielewski.ring import row_reduce

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
    shape = classify_bracket_potential(cubic, e)
    assert shape.kind == "x" and shape.j == 1
    assert shape.q == cubic.p.derivative().derivative()
    z_shape = classify_bracket_potential(
        cubic, Bracket(Leaf("SFx", 1), Leaf("SFy", 1)))
    assert z_shape.kind == "z"
    with pytest.raises(MalformedNesting):
        classify_bracket_potential(
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
        assert list(family.multipliers) == [q.derivative() for q in pots]


# sha256 of the sorted-key JSON of each certificate: a change to the family
# or the solver that alters a certificate by one byte shows here.
PINNED_CERTIFICATES = [
    ("z^2 - 1", "x^2*z + y + 3*z^2 - 1", None,
     "d034dccd57b5158de5f8e428fca8ded82e5b385c18fd9234d3a869e41f9deb8c"),
    ("z^2 - 1", "x^2*z + y + 3*z^2 - 1", 24,
     "d034dccd57b5158de5f8e428fca8ded82e5b385c18fd9234d3a869e41f9deb8c"),
    ("z^2 - 1", "x*z^2 - 2*y^3*z", None,
     "cb0935db3dea8c0fc0a064a6f8680622a4b645c5c2375909a14f1d214ac77976"),
    ("z^2 - 1", "x*z^2 - 2*y^3*z", 24,
     "cb0935db3dea8c0fc0a064a6f8680622a4b645c5c2375909a14f1d214ac77976"),
    ("z^3 - z", "x^2*z + y*z^2 + z^2", None,
     "06fd2984dddda8cb41ce2ad8665eed540d61efe33f4cde045c13fba27be9bf80"),
    ("z^3 - z", "x^2*z + y*z^2 + z^2", 24,
     "06fd2984dddda8cb41ce2ad8665eed540d61efe33f4cde045c13fba27be9bf80"),
    ("z^3 - z", "x*z^3 - 2*y^3 + 5*z^4 - 3*z^2", None,
     "a0d4d5905107b6abeaf942a23ccfa1c6ec313381e4b09c5580d38a21e4185602"),
    ("z^3 - z", "x*z^3 - 2*y^3 + 5*z^4 - 3*z^2", 24,
     "a0d4d5905107b6abeaf942a23ccfa1c6ec313381e4b09c5580d38a21e4185602"),
    ("z^4 - z", "x^3 + y^2*z", None,
     "fc3691b8531973778601958577970814a3e598052bb45f3ff505f5805d32183b"),
    ("z^4 - z", "x^3 + y^2*z", 24,
     "b114e04f46ee4da130f2caf238851d5fc03abb00b4719bd744e6a511c5bd6fe7"),
    ("z^4 - z", "x^2*z^4 + 4*z^3 - 1", None,
     "fb93476470bc304fe46584795c663ea22ebd2ab5b511a662c9cbae99052c4a30"),
    ("z^4 - z", "x^2*z^4 + 4*z^3 - 1", 24,
     "d8046994ac5333ab468c1a6873d23bea1a6c23925d5b313e2378f3923a89f174"),
]


@pytest.mark.parametrize("surface, target, bound, digest", PINNED_CERTIFICATES,
                         ids=[f"{s}: {t}, bound {b}" for s, t, b, _ in PINNED_CERTIFICATES])
def test_certificates_are_pinned(surface, target, bound, digest):
    f = parse_expression(make_surface(parse_unipoly(surface)), target)
    cert = json.dumps(cert_to_obj(certify_shears_only(f, bound)), sort_keys=True)
    assert hashlib.sha256(cert.encode()).hexdigest() == digest


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
