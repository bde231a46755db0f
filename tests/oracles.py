"""Reference implementations the tests compare the library against.

``row_reduce`` is a plain Gauss-Jordan elimination of a dense matrix, and
``gauss_jordan_solve`` solves one system on its augmented matrix [A | b].
The library does both with ``ring.Echelon``, one column at a time.
``substitute_by_powers`` substitutes into a ring element term by term, with
one power of the z-image per term, where the library uses Horner's scheme.
``poisson_by_quotient`` computes {f, g} as the chart quotient
(D f * E g - E f * D g) / x, where the library applies H_f to g by the
Leibniz rule.  ``divrem_by_products`` divides polynomials one quotient term
at a time, with one new quotient, product and remainder per term, where the
library divides in place over one coefficient table.  ``bezout`` is the
extended Euclidean algorithm, with the cofactors of the gcd, where the library
has the plain ``gcd``.

``conjugate_by_images`` pushes a field forward by the images of the
inverse word, where the library pushes it through its 1-form, and
``volume_factor_by_bracket`` takes J from the Poisson bracket of the
images, where the library reads it off the word.

``max_p_power_by_steps`` finds the ceiling on powers of p one product of
the bound at a time, where the library doubles and bisects.

``is_identity`` reads whether a word normalized to nothing.  The rest check
identities of the paper a second way: the group law of a shear flow and the
Taylor series of conjugation by it, the z-degree of a word of shears, the
shape of a nested shear bracket's potential, and the involution sigma of
x*y = z^2 - 1.
"""

from fractions import Fraction
from itertools import product
from math import lcm

from danielewski.automorphisms import (
    Hyperbolic,
    PolynomialAutomorphism,
    Symmetry,
    XShear,
    YShear,
    apply_auto,
    conjugate_field,
    invert,
)
from danielewski.errors import (
    DegreeGate,
    DivisionByZeroPolynomial,
    InvalidGenerator,
    MalformedNesting,
)
from danielewski.fields import (
    AlgebraicVectorField,
    apply_field,
    bracket,
    lnd_check,
    poisson_bracket,
)
from danielewski.membership import Bracket, Leaf, evaluate_potential
from danielewski.ring import HEIGHT, SurfacePolynomial, UniPoly, poly_divrem


def divrem_by_products(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
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
    """Extended Euclid: u*a + v*b = g = gcd(a, b), g monic; a and b not both 0.
    The quotients come from ``divrem_by_products``, and the cofactors u, v are
    carried along, where the library's gcd keeps the remainders alone."""
    r0, r1 = a, b
    u0, u1 = UniPoly.const(1), UniPoly()
    v0, v1 = UniPoly(), UniPoly.const(1)
    while not r1.is_zero():
        q, r = divrem_by_products(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    s = 1 / r0.lead()
    return u0.scale(s), v0.scale(s), r0.scale(s)


def max_p_power_by_steps(p: UniPoly):
    """The largest m with B^m < 10^MAX_DIGITS, B = max(d, |d p|_1) for d the
    common denominator of p, found by stepping m up one product at a time;
    None when B = 1."""
    cs = p.c.values()
    d = lcm(*(v.denominator for v in cs))
    b = max(d, sum(abs(v.numerator) * (d // v.denominator) for v in cs))
    if b == 1:
        return None
    m, h = 0, b
    while h < HEIGHT:
        m += 1
        h *= b
    return m


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


def gauss_jordan_solve(columns, target, mod_const=False):
    """sum(w_i * columns[i]) = target by ``row_reduce`` on [A | b]: pivots in
    column order, free variables 0; None when inconsistent."""
    exps = set(target.c)
    for c in columns:
        exps |= set(c.c)
    if mod_const:
        exps.discard(0)
    m = len(columns)
    a = [[c.coeff(e) for c in columns] + [target.coeff(e)] for e in sorted(exps)]
    pivots = row_reduce(a, m)
    if any(row[m] for row in a[len(pivots):]):
        return None
    sol = [Fraction(0)] * m
    for row, col in zip(a, pivots):
        sol[col] = row[m]
    return sol


# -- substitution ------------------------------------------------------------


def substitute_by_powers(e, img_x, img_y, img_z):
    """e(img_x, img_y, img_z): each term u_n z^j of e becomes
    u_n(img) * img_z^j, the power formed on its own."""
    acc = e.surface.zero()
    for n, q in e.coeffs.items():
        base = (img_x if n > 0 else img_y) ** abs(n) if n else None
        for j, v in q.c.items():
            t = img_z**j if base is None else base * img_z**j
            acc = acc + t.scale(v)
    return acc


# -- the Poisson bracket -------------------------------------------------------


def poisson_by_quotient(f, g):
    """{f, g} = H_f(g) in the chart coordinates (x, z): there H_f = D f d/dx
    - E f d/dz, while g_x = E g / x and g_z = D g / x, so
    {f, g} = (D f * E g - E f * D g) / x.

    The quotient by x is taken here: x^n q -> x^(n-1) q for n >= 1 and,
    since 1/x = y/p, y^m q -> y^(m+1) q/p for m = -n >= 0, where p must
    divide q exactly.
    """
    s = f.surface
    num = f.x_dz() * g.euler() - f.euler() * g.x_dz()
    quotient = {}
    for n, q in num.coeffs.items():
        if n <= 0:
            q, rem = poly_divrem(q, s.p)
            assert rem.is_zero(), f"x does not divide the weight-{n} part"
        quotient[n - 1] = q
    return SurfacePolynomial(s, quotient)


# -- conjugation and the volume factor ----------------------------------------


def conjugate_by_images(phi, theta):
    """(phi_* Theta)(g) = Theta(g o phi^-1) o phi; for g = x, y, z the
    pullback g o phi^-1 is a coordinate image of phi^-1.  Its cost grows
    exponentially with the word."""
    inv = invert(phi)
    return AlgebraicVectorField(*(
        apply_auto(phi, apply_field(theta, g)) for g in (inv.img_x, inv.img_y, inv.img_z)
    ))


def volume_factor_by_bracket(phi) -> Fraction:
    """J with phi^* omega = J omega, omega = dx/x ^ dz: with X, Z the images
    of x, z, phi^* omega = dX/X ^ dZ, and in terms of E = x d/dx and
    D = x d/dz, J = (E X D Z - D X E Z)/(x X), that is J X = {Z, X}."""
    num, den = poisson_bracket(phi.img_z, phi.img_x), phi.img_x
    k, e, v = den._terms[-3:]  # the last term of den
    j = num.coeff(k).coeff(e) / v
    assert num == den.scale(j), "the bracket is not a constant multiple of X"
    return j


# -- flows of shear fields ---------------------------------------------------


def _images(phi):
    return [phi.img_x, phi.img_y, phi.img_z]


def shear_flow(surface, kind, i):
    """t -> F_t, the flow of SF_i^kind: the single shear with parameter t*u^i
    (u = x or y), which sends z to z + t u^(i+1) in the chart u != 0."""
    shear = XShear if kind == "x" else YShear
    return lambda t: PolynomialAutomorphism(surface, [shear(UniPoly.monomial(i, t))])


def flow_group_law(at, degree) -> bool:
    """F_r o F_t = F_(t+r) for F_t = at(t), checked on the grid {0..degree}^2.

    The composite is formed by substitution, without the merge rule of
    ``normalize_word``: its coordinate images are those of F_r pulled back
    along F_t.  For a shear flow they, like those of F_(t+r), have degree
    <= d = deg p in t and in r separately: u goes to u, z to
    z + (t + r) u^(i+1), and the third coordinate to p(z + (t + r) u^(i+1))/u.
    A polynomial of degree <= d in each of two variables that vanishes on
    the grid {0..d}^2 is zero, so with degree = deg p agreement on the grid
    proves the identity.
    """
    maps = [at(s) for s in range(2 * degree + 1)]
    return all(
        [apply_auto(maps[t], g) for g in _images(maps[r])] == _images(maps[t + r])
        for t, r in product(range(degree + 1), repeat=2)
    )


def taylor_terms(theta, psi) -> list:
    """The fields ad_theta^k(psi)/k! up to the last non-zero one (theta an LND,
    else ValueError); they end because ad_theta is then locally nilpotent."""
    if not lnd_check(theta).nilpotent:
        raise ValueError("flow generator failed the nilpotency check")
    terms = [psi]
    while not terms[-1].is_zero():
        terms.append(bracket(theta, terms[-1]).scale(Fraction(1, len(terms))))
    return terms[:-1] or terms


def taylor_flow_identity(at, kind, psi, terms) -> bool:
    """(F_t)_* psi = sum_k t^k terms[k] for the shear flow F_t = at(t) of the
    given kind, identically in t.

    Both sides are compared exactly at t = 0..B, the left one computed by
    ``conjugate_field`` as psi(g o F_-t) o F_t.  In the chart u != 0 of the
    flow's own variable the coordinates are (u, z) and F_t only sends
    z -> z + t u^(i+1).  Let D be the largest z-degree among the chart
    coefficients of psi(u) and psi(z): a term u^n q(z) has degree deg q for
    n >= 0 and deg q + (-n) deg p for n < 0, since v^m = u^(-m) p^m for the
    other variable v.  Then

        (F_t)_* psi (u) = psi(u) o F_t                          has t-degree <= D,
        (F_t)_* psi (z) = (psi(z) - t (i+1) u^i psi(u)) o F_t   has t-degree <= D + 1,

    and the series has t-degree len(terms) - 1.  On u and z the two sides
    therefore differ by a polynomial in t of degree <= B, with
    B = max(len(terms) - 1, D + 1), which vanishes once it vanishes at
    B + 1 points.  The third image follows from the other two by tangency,
    x*img_y + y*img_x = p'(z)*img_z, since the ring is a domain.
    """
    s = psi.surface
    if kind == "x":
        images = (psi.img_x, psi.img_z)
    else:
        images = (psi.img_y.swap_xy(), psi.img_z.swap_xy())
    d = max((q.degree + max(-n, 0) * s.degree for e in images for n, q in e.coeffs.items()),
            default=0)
    for t in range(max(len(terms) - 1, d + 1) + 1):
        series = [sum((g.scale(t**k) for k, g in enumerate(gs)), s.zero())
                  for gs in zip(*map(_images, terms))]
        if _images(conjugate_field(at(t), psi)) != series:
            return False
    return True


# -- words of shears and nested shear brackets --------------------------------


def is_identity(phi) -> bool:
    """True iff phi's word normalized away to the empty word."""
    return not phi.word


def z_x_degree(phi) -> int:
    """Largest x- or y-power in the normal form of a shear word's z-image.

    Positive for every nontrivial shear word when deg(p) >= 3: the
    z-coordinate of such a word is never of the form a*z + b.
    """
    if phi.surface.degree < 3:
        raise DegreeGate("z-degree lemma requires deg(p) >= 3")
    if not all(isinstance(g, (XShear, YShear)) for g in phi.word):
        raise InvalidGenerator("z_x_degree expects a word of shears only")
    return max(abs(n) for n in phi.img_z.coeffs)


def nested_shear_shape(surface, expr):
    """(kind, j, q): the potential of a nesting [A_n, [... [A_1, A_0]...]] of
    shear leaves is x^j q(z) (kind "x"), y^j q(z) ("y"), or q(z) = (p h)'
    ("z", j = 0)."""
    e = expr
    while isinstance(e, Bracket):
        if not (isinstance(e.left, Leaf) and e.left.kind != "HF"):
            raise MalformedNesting("expected a nesting [A_n, [... [A_1, A_0]...]]")
        e = e.right
    if not (isinstance(e, Leaf) and e.kind != "HF"):
        raise MalformedNesting("expected a pure nesting of shear leaves")
    f = evaluate_potential(surface, expr)
    assert len(f.coeffs) <= 1, "nested shear potential has mixed shape"
    n, q = next(iter(f.coeffs.items()), (0, UniPoly()))
    if n:
        return ("x" if n > 0 else "y"), abs(n), q
    # q is the canonical (constant-free) representative of some (p h)', so
    # its antiderivative lies in p Q[z] + span{1, z}
    assert poly_divrem(q.antiderivative(), surface.p)[1].degree <= 1
    return "z", 0, q


# -- the involution of x*y = z^2 - 1 ------------------------------------------


def sigma(surface):
    """sigma(x, y, z) = (-x, -y, -z) as the word [Sym(-1, 0), H(-1)]."""
    return PolynomialAutomorphism(surface, [Symmetry(Fraction(-1), Fraction(0)),
                                            Hyperbolic(Fraction(-1))])
