"""Acceptance suite: ten criteria, one printed pass/fail line each.

Every comparison is exact rational arithmetic; no tolerances anywhere.
"""

import random
from fractions import Fraction

from danielewski import (
    Bracket,
    Hyperbolic,
    Involution,
    Leaf,
    PolynomialAutomorphism,
    UniPoly,
    XShear,
    YShear,
    avdp_decompose,
    bracket,
    canonical_potential,
    certify_shears_only,
    compose,
    conjugate_field,
    decide,
    evaluate,
    flex_check,
    hyperbolic,
    invert,
    lnd_check,
    make_surface,
    potential_of,
    shear_x,
    shear_y,
    verify_certificate,
    volume_factor,
    z2_avdp_check,
)
from danielewski.fields import apply_field, default_flex_fields
from danielewski.membership import make_sum

from conftest import (
    P_CUBIC,
    P_QUAD,
    P_QUARTIC,
    P_QUARTIC2,
    random_surface_polynomial,
    upoly,
)
from oracles import shear_flow, taylor_flow_identity, taylor_terms, z_x_degree

SEED = 97


def report(criterion, ok):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_shear_and_hyperbolic_potentials():
    ok = True
    for p in (P_QUAD, P_CUBIC, P_QUARTIC):
        s = make_surface(p)  # simple-root check happens here
        for i in range(9):
            ok &= potential_of(shear_x(s, i)) == s.x(i + 1, 0, Fraction(-1, i + 1))
            ok &= potential_of(shear_y(s, i)) == s.y(i + 1, 0, Fraction(1, i + 1))
            ok &= potential_of(hyperbolic(s, UniPoly.monomial(i))) == \
                s.from_unipoly(UniPoly.monomial(i + 1, Fraction(1, i + 1)))
    report(1, ok)


def test_criterion_02_bracket_identities():
    ok = True
    for p in (P_QUAD, P_CUBIC):
        s = make_surface(p)
        pot = lambda th: potential_of(th)
        can = lambda f: canonical_potential(f)
        # (1) [SF_i^x, SF_i^y] has potential p^i p'
        for i in range(4):
            ok &= pot(bracket(shear_x(s, i), shear_y(s, i))) == \
                can(s.from_unipoly((s.p ** i) * s.p_prime))
        # (2) [SF_0^x, [SF_0^x, SF_1^y]] has potential (p p')'
        inner = bracket(shear_x(s, 0), shear_y(s, 1))
        ok &= pot(bracket(shear_x(s, 0), inner)) == \
            can(s.from_unipoly((s.p * s.p_prime).derivative()))
        # (3) nested x-shears against HF_f: potential x^(i1+..+ik) f^(k-1)
        fs = (upoly({1: 1}), upoly({2: 1}), s.p.derivative().derivative())
        for f in fs:
            for k in range(1, 4):
                for idx in ((1,) * k, (2,) + (1,) * (k - 1), (3,) * k):
                    if len(idx) != k:
                        continue
                    e = Leaf("HF", poly=f)
                    for i_m in idx:
                        e = Bracket(Leaf("SFx", i_m - 1), e)
                    deriv = f
                    for _ in range(k - 1):
                        deriv = deriv.derivative()
                    total = sum(idx)
                    expected = s.zero()
                    for exp, v in deriv.c.items():
                        expected = expected + s.x(total, exp, v)
                    ok &= pot(evaluate(s, e)) == can(expected)
        # (4) nested HF_f products: scalar (i+1)^(k-1) and x^(i+1) f1..fk
        for i in range(4):
            for k in range(1, 4):
                for combo in ((fs[0],) * k, fs[:k]):
                    combo = combo[:k]
                    if len(combo) != k:
                        continue
                    e = Bracket(Leaf("SFx", i), Leaf("HF", poly=combo[0]))
                    for f_m in combo[1:]:
                        e = Bracket(Leaf("HF", poly=f_m), e)
                    prod = UniPoly.const(1)
                    for f_m in combo:
                        prod = prod * f_m
                    expected = s.zero()
                    for exp, v in prod.c.items():
                        expected = expected + s.x(i + 1, exp, v)
                    expected = expected.scale(Fraction((i + 1) ** (k - 1)))
                    ok &= pot(evaluate(s, e)) == can(expected)
    report(2, ok)


def test_criterion_03_decomposition_roundtrip():
    rng = random.Random(SEED)
    ok = True
    for p, count in ((P_QUAD, 120), (P_CUBIC, 80)):
        s = make_surface(p)
        for _ in range(count):
            f = canonical_potential(random_surface_polynomial(s, rng, 6))
            e = avdp_decompose(f)
            ok &= verify_certificate(s, e, f)
            ok &= canonical_potential(potential_of(evaluate(s, e))) == f
    report(3, ok)


def test_criterion_04_membership_decision():
    rng = random.Random(SEED + 1)
    ok = True
    cubic = make_surface(P_CUBIC)
    quartic = make_surface(P_QUARTIC2)
    quad = make_surface(P_QUAD)
    # (a)
    ok &= not decide(cubic.z()).accepted
    ok &= decide(cubic.from_unipoly(upoly({2: Fraction(1, 2)}))).accepted
    # (b)
    ok &= decide(quartic.from_unipoly(upoly({3: Fraction(1, 3)}))).accepted
    ok &= not decide(quartic.z()).accepted
    ok &= not decide(quartic.from_unipoly(upoly({2: Fraction(1, 2)}))).accepted
    # (c) degree-2 surface accepts everything
    for _ in range(50):
        q = UniPoly({e: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                     for e in range(rng.randint(1, 7))})
        ok &= decide(quad.from_unipoly(q)).accepted
    # (d) potentials of random shears-only brackets are always accepted
    leaves = [Leaf("SFx", i) for i in range(3)] + [Leaf("SFy", i) for i in range(3)]
    for _ in range(100):
        e = rng.choice(leaves)
        for _ in range(rng.randint(0, 3)):
            e = Bracket(rng.choice(leaves), e)
        f = potential_of(evaluate(cubic, e))
        ok &= decide(f).accepted
    report(4, ok)


def test_criterion_05_shears_only_certification():
    rng = random.Random(SEED + 2)
    ok = True
    for p, deg_q, max_deg in ((P_QUAD, 4, 12), (P_CUBIC, 3, 16)):
        s = make_surface(p)
        for d in range(deg_q + 1):
            for q in (UniPoly.monomial(d),
                      UniPoly({e: Fraction(rng.randint(-5, 5)) for e in range(d + 1)})):
                target = canonical_potential(
                    s.from_unipoly((s.p * q).derivative()))
                if target.is_zero():
                    continue
                cert = certify_shears_only(target, max_deg)
                ok &= verify_certificate(s, cert, target)
                ok &= _shears_only(cert)
    report(5, ok)


def _shears_only(e):
    from danielewski import Sum
    if isinstance(e, Leaf):
        return e.kind in ("SFx", "SFy")
    if isinstance(e, Sum):
        return all(_shears_only(t) for _, t in e.terms)
    return _shears_only(e.left) and _shears_only(e.right)


def test_criterion_06_nilpotency():
    rng = random.Random(SEED + 3)
    ok = True
    for p in (P_QUAD, P_CUBIC):
        s = make_surface(p)
        for i in range(5):
            for th in (shear_x(s, i), shear_y(s, i)):
                v = lnd_check(th)
                ok &= v.nilpotent and v.degree <= s.degree + 2
        for q in (UniPoly.const(1), UniPoly.monomial(1)):
            v = lnd_check(hyperbolic(s, q), max_iter=64)
            ok &= (not v.nilpotent) and v.bound == 64
    # conjugates of shears by random shear words stay nilpotent
    quad = make_surface(P_QUAD)
    for _ in range(8):
        word = []
        budget = 1
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(0, 1) if budget else 0
            budget -= deg
            f = upoly({deg: rng.choice([-2, -1, 1, 2])})
            word.append(XShear(f) if rng.random() < 0.5 else YShear(f))
        phi = PolynomialAutomorphism(quad, word)
        for th in (shear_x(quad, 1), shear_y(quad, 0)):
            ok &= lnd_check(conjugate_field(phi, th)).nilpotent
    report(6, ok)


def test_criterion_07_automorphism_words():
    rng = random.Random(SEED + 4)
    ok = True
    quad = make_surface(P_QUAD)
    cubic = make_surface(P_CUBIC)

    def rand_word(n):
        word, budget = [], 1
        for _ in range(n):
            k = rng.randint(0, 3)
            if k in (0, 1):
                deg = rng.randint(0, 1) if budget else 0
                budget -= deg
                f = upoly({deg: rng.randint(-2, 2)})
                word.append(XShear(f) if k == 0 else YShear(f))
            elif k == 2:
                word.append(Hyperbolic(Fraction(rng.choice([-2, -1, 1, 2, 3]),
                                                rng.randint(1, 2))))
            else:
                word.append(Involution())
        return word

    # relation preservation: img_x * img_y = p(img_z) for 100 random words
    for _ in range(100):
        phi = PolynomialAutomorphism(quad, rand_word(rng.randint(1, 4)))
        ok &= phi.img_x * phi.img_y == quad.p.eval_generic(phi.img_z, quad.const(1))

    # volume factors
    shear_word = PolynomialAutomorphism(quad, [XShear(upoly({0: 2})),
                                               YShear(upoly({1: 1}))])
    ok &= volume_factor(shear_word) == 1
    ok &= volume_factor(PolynomialAutomorphism(quad, [Involution()])) == -1

    # H_l^-1 Dx(f) H_l = Dx(l * f(l * .)) exactly
    for lam in (Fraction(2), Fraction(-3, 2)):
        for f in (upoly({0: 1}), upoly({1: 2, 0: -1})):
            h = PolynomialAutomorphism(quad, [XShear(f)])
            hl = PolynomialAutomorphism(quad, [XShear(UniPoly(
                {e: lam ** (e + 1) * v for e, v in f.c.items()}))])
            h_lam = PolynomialAutomorphism(quad, [Hyperbolic(lam)])
            lhs = compose(invert(h_lam), compose(h, h_lam))
            ok &= lhs.word == hl.word

    # z-degree of nontrivial alternating words is positive (deg p = 3)
    for _ in range(50):
        n = rng.randint(1, 4)
        start = rng.randint(0, 1)
        word = []
        for m in range(n):
            f = upoly({0: rng.choice([-2, -1, 1, 2])})
            word.append(XShear(f) if (m + start) % 2 == 0 else YShear(f))
        phi = PolynomialAutomorphism(cubic, word)
        ok &= not phi.is_identity() and z_x_degree(phi) > 0
    report(7, ok)


def test_criterion_08_taylor_flow_identity():
    s = make_surface(P_CUBIC)
    pairs = [
        (("x", 0), hyperbolic(s, UniPoly.const(1))),
        (("x", 0), shear_y(s, 0)),
        (("y", 1), hyperbolic(s, UniPoly.monomial(1))),
    ]
    ok = True
    for (kind, i), psi in pairs:
        theta = (shear_x if kind == "x" else shear_y)(s, i)
        ok &= taylor_flow_identity(shear_flow(s, kind, i), kind, psi, taylor_terms(theta, psi))
    report(8, ok)


def test_criterion_09_z2_avdp():
    s = make_surface(P_QUAD)
    rows = z2_avdp_check(s, 7)
    ok = bool(rows) and all(r.verified for r in rows)
    # base identity: potential of [SF_0^y, SF_2k^x] is -2 z x^(2k)
    for k in range(4):
        f = potential_of(bracket(shear_y(s, 0), shear_x(s, 2 * k)))
        expected = s.from_unipoly(upoly({1: -2})) if k == 0 else s.x(2 * k, 1, -2)
        ok &= f == canonical_potential(expected)
    # induction step: SF_0^y applied to z^i x^(j+1) equals
    # (2j+2+i) z^(i+1) x^j - i z^(i-1) x^j
    for i in range(1, 4):
        for j in range(0, 3):
            mono = s.x(j + 1, i)
            got = canonical_potential(apply_field(shear_y(s, 0), mono))
            t1 = (s.x(j, i + 1, 2 * j + 2 + i) if j else
                  s.from_unipoly(UniPoly.monomial(i + 1, 2 * j + 2 + i)))
            t2 = (s.x(j, i - 1, -i) if j else
                  s.from_unipoly(UniPoly.monomial(i - 1, -i)))
            ok &= got == canonical_potential(t1 + t2)
    report(9, ok)


def test_criterion_10_flexibility():
    s = make_surface(P_QUAD)
    ok = flex_check(s, (Fraction(1), Fraction(0), Fraction(1)))
    # (1, -1, 0) has p'(z) = 0; the conjugated fields are required there
    ok &= flex_check(s, (Fraction(1), Fraction(-1), Fraction(0)))
    # the conjugated field matches the displayed closed form term-for-term
    for k in (1, 2):
        alpha = PolynomialAutomorphism(s, [XShear(UniPoly.const(k))])
        th = conjugate_field(alpha, shear_y(s, 0))
        zk = s.z() + s.x(1, 0, k)
        one = s.const(1)
        p_zk = s.p.eval_generic(zk, one)
        dp_zk = s.p_prime.eval_generic(zk, one)
        dp_z = s.from_unipoly(s.p_prime)
        ok &= th.img_x == dp_zk
        num = p_zk * dp_z - dp_zk * s.from_unipoly(s.p) \
            - s.x(1, 0, k) * dp_zk * dp_z
        # the closed form multiplied out: x is not a zero divisor
        ok &= s.x(2) * th.img_y == num
        ok &= s.x() * th.img_z == s.x() * dp_zk.scale(-k) + p_zk
    report(10, ok)
