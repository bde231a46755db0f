"""Reference implementations the tests compare the library against.

``row_reduce`` is a plain Gauss-Jordan elimination of a dense matrix,
``gauss_jordan_solve`` solves one system on its augmented matrix [A | b],
and ``reference_family`` builds the spanning family by generating every
candidate and picking the pivots with one ``row_reduce``.  The library does
all three with ``ring.Echelon``, one column at a time.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

from danielewski.membership import Bracket, Leaf, make_sum


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


def family_candidates(surface, max_deg) -> list:
    """Every spanning-family candidate (expr, potential, x-form), in order."""
    p, pp = surface.p, surface.p_prime
    seeds = []
    i = 0
    while (pot := p**i * pp).degree <= max_deg:
        e = Bracket(Leaf("SFx", i), Leaf("SFy", i))
        seeds.append((e, pot, e))
        i += 1
    pot2 = (p * pp).derivative()
    if pot2.degree <= max_deg:
        e = Bracket(Leaf("SFx", 0), Bracket(Leaf("SFx", 0), Leaf("SFy", 1)))
        seeds.append((e, pot2, e))
    current = [(pot.derivative(), expr) for expr, pot, _ in seeds if pot.degree > 0]

    towers = []
    for f, ef in current:
        deriv, tower, c = f, ef, 1
        while not deriv.is_zero():
            pot = (p**c * deriv).derivative()
            if pot.degree > max_deg:
                break
            tower = Bracket(Leaf("SFy", 0), tower)
            e = Bracket(Leaf("SFx", c - 1), tower)
            towers.append((e, pot, e))
            deriv = deriv.derivative()
            c += 1

    products = []
    for k in (1, 2, 3):
        for combo in combinations_with_replacement(range(len(current)), k):
            fs = [current[idx][0] for idx in combo]
            efs = [current[idx][1] for idx in combo]
            prod = fs[0]
            for f in fs[1:]:
                prod = prod * f
            i = 0
            while True:
                pot = (p ** (i + 1) * prod).derivative().scale(Fraction(i + 1) ** (k - 1))
                if pot.degree > max_deg:
                    break

                def build(outer_kind, inner_kind):
                    inner = Bracket(Leaf(inner_kind, i), efs[0])
                    for ef in efs[1:]:
                        inner = Bracket(ef, inner)
                    return Bracket(Leaf(outer_kind, i), inner)

                x_form = make_sum([(Fraction(-1) ** (k - 1), build("SFx", "SFy"))])
                products.append((build("SFy", "SFx"), pot, x_form))
                i += 1
    return seeds + towers + products


def reference_family(surface, max_deg):
    """(entries as (expr, potential, x-form), multipliers, number of
    candidates): the pivots of one ``row_reduce`` over every candidate's
    potential modulo constants."""
    cands = family_candidates(surface, max_deg)
    pots = [pot for _, pot, _ in cands]
    rows = sorted({e for pot in pots for e in pot.c if e})
    a = [[pot.coeff(e) for pot in pots] for e in rows]
    entries = [cands[k] for k in row_reduce(a, len(pots))]
    multipliers = {pot.derivative(): expr for expr, pot, _ in entries}
    return entries, multipliers, len(cands)
