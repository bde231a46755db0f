"""Output checks that do not reuse the library's code paths.

Expressions, fields and words are evaluated at rational points of the
surface with plain `Fraction` arithmetic (and dual numbers for exact first
derivatives), from the strings the benchmark generated and the strings the
program printed.  Nothing here imports the library.
"""

from __future__ import annotations

import re
from fractions import Fraction

# -- numbers with one exact infinitesimal direction -------------------------------


class Dual:
    """a + b*eps with eps^2 = 0; derivatives of rational functions, exactly."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    @staticmethod
    def lift(v) -> "Dual":
        return v if isinstance(v, Dual) else Dual(v)

    def __add__(self, o):
        o = Dual.lift(o)
        return Dual(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.a, -self.b)

    def __sub__(self, o):
        return self + (-Dual.lift(o))

    def __rsub__(self, o):
        return Dual.lift(o) - self

    def __mul__(self, o):
        o = Dual.lift(o)
        return Dual(self.a * o.a, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = Dual.lift(o)
        return Dual(self.a / o.a, (self.b * o.a - self.a * o.b) / (o.a * o.a))

    def __rtruediv__(self, o):
        return Dual.lift(o) / self

    def __pow__(self, n: int):
        r = Dual(1)
        for _ in range(n):
            r = r * self
        return r


# -- expression strings ---------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|(.))")


def evaluate(src: str, env: dict):
    """Value of a polynomial expression string (the documented grammar) at env."""
    toks = [(m.group(1), m.group(2)) for m in _TOKEN.finditer(src) if m.group(0).strip()]
    pos = 0

    def peek():
        return toks[pos][1] if pos < len(toks) else None

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def expr():
        v = term()
        while peek() in ("+", "-"):
            op = take()[1]
            v = v + term() if op == "+" else v - term()
        return v

    def term():
        v = factor()
        while peek() == "*":
            take()
            v = v * factor()
        return v

    def factor():
        neg = False
        while peek() == "-":
            take()
            neg = not neg
        v = atom()
        if peek() == "^":
            take()
            if peek() == "(":
                take()
                e = int(take()[0])
                take()
            else:
                e = int(take()[0])
            v = v**e
        return -v if neg else v

    def atom():
        num, sym = take()
        if num is not None:
            if peek() == "/":
                take()
                return Fraction(int(num), int(take()[0]))
            return Fraction(int(num))
        if sym == "(":
            v = expr()
            take()
            return v
        return env[sym]

    v = expr()
    if pos != len(toks):
        raise ValueError(f"trailing input in {src!r}")
    return v


def poly_eval(coeffs: list, z):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def poly_deriv(coeffs: list) -> list:
    return [i * c for i, c in enumerate(coeffs)][1:] or [0]


def surface_points(rng, p: list, k: int = 3, probe=None):
    """k seeded rational points (x0, y0, z0) with x0*y0 = p(z0), x0, y0 != 0,
    at which probe(pt), if given, divides by no zero (words' point maps
    divide by x or y)."""
    pts = []
    while len(pts) < k:
        z0 = Fraction(rng.below(41) - 20, rng.below(7) + 1)
        x0 = Fraction(rng.below(41) - 20, rng.below(5) + 1)
        pz = poly_eval(p, z0)
        if not (x0 and pz):
            continue
        pt = (x0, pz / x0, z0)
        if probe is not None:
            try:
                probe(pt)
            except ZeroDivisionError:
                continue
        pts.append(pt)
    return pts


def env_of(pt) -> dict:
    return {"x": pt[0], "y": pt[1], "z": pt[2]}


def chart_derivs(src: str, p: list, pt) -> tuple:
    """d/dx and d/dz of f(x, p(z)/x, z) at pt (chart x != 0)."""
    x0, _, z0 = pt
    dx = evaluate(src, {"x": Dual(x0, 1), "y": poly_eval(p, z0) / Dual(x0, 1), "z": z0})
    zd = Dual(z0, 1)
    dz = evaluate(src, {"x": x0, "y": poly_eval(p, zd) / x0, "z": zd})
    return Dual.lift(dx).b, Dual.lift(dz).b


def grad(src: str, pt) -> tuple:
    """Formal partial derivatives in x, y, z of an expression at pt."""
    out = []
    for k in range(3):
        env = {v: (Dual(c, 1) if i == k else c) for i, (v, c) in enumerate(zip("xyz", pt))}
        out.append(Dual.lift(evaluate(src, env)).b)
    return tuple(out)


# -- fields -----------------------------------------------------------------------------


def literal_images(lit: str, p: list) -> tuple:
    """Expression strings for Theta(x), Theta(y), Theta(z) of a field literal."""
    pp = "(" + " + ".join(f"{c}*z^{e}" for e, c in enumerate(poly_deriv(p))) + ")"
    if lit.startswith("SFx("):
        i = int(lit[4:-1])
        return "0", f"{pp}*x^{i}", f"x^{i + 1}"
    if lit.startswith("SFy("):
        i = int(lit[4:-1])
        return f"{pp}*y^{i}", "0", f"y^{i + 1}"
    if lit.startswith("HF("):
        f = "(" + lit[3:-1] + ")"
        return f"{f}*x", f"-{f}*y", "0"
    return tuple(s.strip() for s in lit.strip()[1:-1].split(";"))


def apply_images(images: tuple, target: str, pt):
    """Theta(target) at pt, by the chain rule on the formal representative."""
    g = grad(target, pt)
    env = env_of(pt)
    return sum(gi * evaluate(img, env) for gi, img in zip(g, images))


def tangent(images: tuple, p: list, pt) -> bool:
    """y*Theta(x) + x*Theta(y) - p'(z)*Theta(z) = 0 at pt."""
    env = env_of(pt)
    ix, iy, iz = (evaluate(s, env) for s in images)
    return pt[1] * ix + pt[0] * iy - poly_eval(poly_deriv(p), pt[2]) * iz == 0


def is_potential(f: str, images: tuple, p: list, pt) -> bool:
    """i_Theta(dx/x ^ dz) = df on the chart: f_x = -Theta(z)/x, f_z = Theta(x)/x."""
    fx, fz = chart_derivs(f, p, pt)
    env = env_of(pt)
    return (fx == -evaluate(images[2], env) / pt[0]
            and fz == evaluate(images[0], env) / pt[0])


# -- automorphism words as point maps ---------------------------------------------------


def word_point_map(word: str, p: list, pt):
    """The point map of a word (leftmost generator acts first)."""
    x, y, z = pt
    if word.strip() in ("", "id"):
        return x, y, z
    for g in (s.strip() for s in word.split(";")):
        if g == "I":
            x, y = y, x
        elif g.startswith("H("):
            lam = Fraction(g[2:-1])
            x, y = lam * x, y / lam
        elif g.startswith("Dx("):
            z = z + x * evaluate(g[3:-1], {"x": x, "y": x, "z": x})
            y = poly_eval(p, z) / x
        elif g.startswith("Dy("):
            z = z + y * evaluate(g[3:-1], {"x": y, "y": y, "z": y})
            x = poly_eval(p, z) / y
        else:
            raise ValueError(f"generator {g!r} not used by the benchmark")
    return x, y, z


def word_volume_factor(word: str, p: list, pt) -> Fraction:
    """J with phi^*(dx/x ^ dz) = J dx/x ^ dz, from the chart Jacobian at pt."""
    x0, _, z0 = pt
    cols = []
    for dx, dz in ((1, 0), (0, 1)):
        xd, zd = Dual(x0, dx), Dual(z0, dz)
        X, _, Z = word_point_map(word, p, (xd, poly_eval(p, zd) / xd, zd))
        cols.append((Dual.lift(X), Dual.lift(Z)))
    (X, Z), (X2, Z2) = cols
    det = X.b * Z2.b - X2.b * Z.b
    return det * x0 / X.a


# -- certificates -------------------------------------------------------------------------


def cert_leaves_and_size(node) -> tuple[set, int]:
    """Leaf kinds and node count of a certificate tree in its JSON form."""
    kinds, size, stack = set(), 0, [node]
    while stack:
        n = stack.pop()
        size += 1
        if "leaf" in n:
            kinds.add(n["leaf"]["kind"])
        elif "sum" in n:
            stack.extend(t for _, t in n["sum"])
        else:
            stack.extend(n["bracket"])
    return kinds, size
