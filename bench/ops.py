"""Seeded, stratified operation lists for the three workloads.

An op list is a sequence of blocks.  Every block of a workload has the same
composition (the same strata, in a seeded order); the seed draws the
coefficients, exponents and generator order inside each stratum.  A run
executes whole blocks, so every run sees the same mix whatever its length.

Ops are plain JSON data: the library only ever sees the strings generated
here.  This module imports nothing from the library.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

# Surfaces.  Integer coefficient lists, lowest degree first.
P2 = [-1, 0, 1]  # z^2 - 1
P3 = [0, -1, 0, 1]  # z^3 - z
P4 = [0, -1, 0, 0, 1]  # z^4 - z

BLOCKS = 40  # blocks generated per op list; a run cycles if it ever exhausts them


class Rng:
    """splitmix64: the same seed gives the same stream on every Python."""

    def __init__(self, seed: int):
        self.state = seed & 0xFFFFFFFFFFFFFFFF

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next64() % n

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def shuffle(self, seq: list) -> list:
        for i in range(len(seq) - 1, 0, -1):
            j = self.below(i + 1)
            seq[i], seq[j] = seq[j], seq[i]
        return seq

    def sample(self, seq, k: int) -> list:
        return self.shuffle(list(seq))[:k]


# -- integer polynomials (coefficient lists, lowest degree first) -----------------


def pmul(a: list, b: list) -> list:
    r = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            r[i + j] += u * v
    return r


def pderiv(a: list) -> list:
    return [i * c for i, c in enumerate(a)][1:] or [0]


def _coef(v, head: str) -> str:
    v = Fraction(v)
    if not head:
        return str(v)
    if v == 1:
        return head
    if v == -1:
        return "-" + head
    return f"{v}*{head}"


def _pow(var: str, e: int) -> str:
    return "" if e == 0 else var if e == 1 else f"{var}^{e}"


def fmt_terms(terms) -> str:
    """Terms (coeff, {var: exp}) as an expression string the library parses."""
    out = []
    for v, exps in terms:
        if not v:
            continue
        head = "*".join(_pow(var, e) for var, e in exps if e)
        s = _coef(v, head)
        out.append(s if not out else (f"- {s[1:]}" if s.startswith("-") else f"+ {s}"))
    return " ".join(out) or "0"


def fmt_poly(coeffs: list, var: str = "z") -> str:
    return fmt_terms([(c, [(var, e)]) for e, c in sorted(enumerate(coeffs), reverse=True)])


def _nonzero(rng: Rng, vals=(1, -1, 2, -2, 3, -3)) -> int:
    return rng.choice(vals)


# -- certify ------------------------------------------------------------------------


def _accepted_potential(rng: Rng, p: list, i: int, k: int, j1=None, j2=None, dq=None) -> str:
    """c1*x^i*z^j1 + c2*y^k*z^j2 + (p*q)'(z), inside the range where the default
    bound is 4*deg(p): z-degrees of the mixed terms <= deg(p), pure-z degree
    <= 2*deg(p).  The z-part is (p*q)' for a seeded q of degree dq, so `decide`
    accepts.  Degrees not given are drawn."""
    n = len(p) - 1
    j1 = rng.below(n + 1) if j1 is None else j1
    j2 = rng.below(n + 1) if j2 is None else j2
    dq = rng.below(n + 2) if dq is None else dq
    terms = [(_nonzero(rng), [("x", i), ("z", j1)]), (_nonzero(rng), [("y", k), ("z", j2)])]
    q = [rng.choice((-2, -1, 0, 1, 2)) for _ in range(dq)] + [_nonzero(rng, (1, -1, 2, -2))]
    a0 = pderiv(pmul(p, q))
    terms += [(c, [("z", e)]) for e, c in sorted(enumerate(a0), reverse=True)]
    return fmt_terms(terms)


def _random_potential(rng: Rng, p: list) -> str:
    return _accepted_potential(rng, p, rng.below(4) + 1, rng.below(4) + 1)


# The ops of one certify block: per surface, (x-exponent, y-exponent) pairs.
# A term's cost and certificate size fall steeply with its exponent, and the
# certifier memoizes per (exponent, z-exponent) below deg(p).  So the shape
# of each op is fixed by its slot and block: the z-exponents cycle through
# 0..deg(p) from block to block and the degree of q is fixed per slot; every
# seed then pays the same memo misses and the same cost mix.  The seed draws
# the coefficients.  Exponent-1 terms on z^4 - z (0.4-1.2 s per op,
# 1.4k-3.3k-node certificates) are left out.  The two y^2 slots on z^4 - z
# are the costliest (0.4-0.7 s); with two of them a quarter of the ops lie
# above the rest, so p90 falls inside that stratum, not on its edge.
CERTIFY_SLOTS = (
    (P3, ((1, 3), (2, 4), (3, 5), (4, 2))),
    (P4, ((2, 4), (3, 2), (4, 2), (5, 3))),
)


def certify_block(rng: Rng, b: int) -> list:
    ops = []
    for p, slots in CERTIFY_SLOTS:
        n = len(p) - 1
        for t, (i, k) in enumerate(slots):
            j1, j2 = (b + t) % (n + 1), (b + 2 * t + 1) % (n + 1)
            ops.append(
                {
                    "kind": "certify",
                    "stratum": f"{fmt_poly(p)} x^{i} y^{k}",
                    "p": fmt_poly(p),
                    "f": _accepted_potential(rng, p, i, k, j1, j2, 1 + t % 2),
                }
            )
    return rng.shuffle(ops)


# -- conjugate ----------------------------------------------------------------------


def _shear(kind: str, f: list) -> str:
    var = "x" if kind == "x" else "y"
    return f"D{kind}({fmt_poly(f, var)})"


def _other(kind: str) -> str:
    return "y" if kind == "x" else "x"


def _insert(word: list, h: bool, i: bool) -> list:
    """Insert H(2) in the middle and/or I at the end.

    Where they stand moves the cost: H scales the coefficients of the shears
    it is pushed past, and I flips the kind of every shear after it (so a
    same-kind conjugation becomes a cross-kind one, 10x the cost, and
    adjacent shears merge).  So both positions are part of the slot's shape.
    """
    if h:
        word.insert(len(word) // 2, "H(2)")
    if i:
        word.append("I")
    return word


def _const_word(slot: int) -> list:
    """Slot t: t+1 alternating constant shears (1, 2, -1, -2), H in slots 1
    and 3, I in 2 and 3."""
    kind, word = "xy"[(slot // 2) % 2], []
    for n in range(slot + 1):
        word.append(_shear(kind, [(1 + n % 2) * (-1) ** (n // 2)]))
        kind = _other(kind)
    return _insert(word, slot in (1, 3), slot in (2, 3))


def _linear_word(slot: int) -> list:
    """A degree-1 shear (-1 + x or -1 + 2x); a constant shear (2) of the
    other kind in slots 1 and 3; H in slot 2, I in slot 3."""
    kind = "xy"[(slot // 2) % 2]
    word = [_shear(kind, [-1, 1 + slot % 2])]
    if slot in (1, 3):
        word.append(_shear(_other(kind), [2]))
    return _insert(word, slot == 2, slot == 3)


def _one_shear_word(slot: int) -> list:
    """One shear on z^3 - z: degree 1 (-1 + 2x) along the field's own kind in
    slots 0 and 3, constant (2) along it in slot 1 and across it in slot 2."""
    own = "xy"[slot % 2]
    if slot in (0, 3):
        return [_shear(own, [-1, 2])]
    return [_shear(own if slot == 1 else _other(own), [2])]


# (name, surface, word maker, field index); four slots each, and slot t
# conjugates the field of kind "xy"[t % 2].  The words are fixed per slot,
# signs included: the signs of the coefficients and of H decide which terms
# cancel, and with them the cost of a conjugation by up to 40%; drawn by the
# seed, they spread the median by 10-12% from seed to seed.  The seed draws
# the order of the ops.
CONJUGATE_STRATA = (
    ("z^2 - 1 const SF0", P2, _const_word, 0),
    ("z^2 - 1 const SF1", P2, _const_word, 1),
    ("z^2 - 1 linear SF0", P2, _linear_word, 0),
    ("z^3 - z one-shear SF0", P3, _one_shear_word, 0),
)


def conjugate_block(rng: Rng) -> list:
    ops = []
    for name, p, maker, index in CONJUGATE_STRATA:
        for t in range(4):
            ops.append(
                {
                    "kind": "conjugate",
                    "stratum": name,
                    "p": fmt_poly(p),
                    "word": ";".join(maker(t)),
                    "field": f"SF{'xy'[t % 2]}({index})",
                }
            )
    return rng.shuffle(ops)


# -- cli ------------------------------------------------------------------------------


def _small_expr(rng: Rng, n_terms: int = 3) -> str:
    terms = []
    for _ in range(n_terms):
        a, b = rng.below(3), rng.below(3)
        terms.append((_nonzero(rng), [("x", a), ("y", b), ("z", rng.below(3))]))
    return fmt_terms(terms)


def _small_field(rng: Rng) -> str:
    r = rng.below(3)
    if r == 0:
        return f"SFx({rng.below(3)})"
    if r == 1:
        return f"SFy({rng.below(3)})"
    return f"HF({fmt_poly([rng.choice((0, 1, -1)), _nonzero(rng)])})"


def _small_word(rng: Rng) -> str:
    return ";".join(_const_word(rng.below(4)))


def _small_command(rng: Rng, cmd: str) -> dict:
    p = rng.choice((P2, P3, P4))
    s = fmt_poly(p)
    if cmd == "reduce":
        argv = ["reduce", _small_expr(rng, 4)]
    elif cmd == "mul":
        argv = ["mul", _small_expr(rng), _small_expr(rng)]
    elif cmd == "decide":
        argv = ["decide", _random_potential(rng, p)]
    elif cmd == "potential":
        argv = ["potential", _small_field(rng)]
    elif cmd == "hamiltonian":
        argv = ["hamiltonian", _small_expr(rng)]
    elif cmd == "bracket":
        argv = ["bracket", _small_field(rng), _small_field(rng)]
    elif cmd == "lnd-check":
        argv = ["lnd-check", f"SF{rng.choice('xy')}({rng.below(3)})"]
    elif cmd == "compose":
        p, s = P2, fmt_poly(P2)
        argv = ["compose", _small_word(rng), _small_word(rng)]
    else:  # volume-factor
        p, s = P2, fmt_poly(P2)
        argv = ["volume-factor", _small_word(rng)]
    return {"kind": "cli", "stratum": f"small {cmd}", "argv": argv + ["--surface", s], "exit": 0}


SMALL_COMMANDS = (
    "reduce", "mul", "decide", "potential", "hamiltonian",
    "bracket", "lnd-check", "compose", "volume-factor",
)

# Malformed certificate files (documented exit code 2, syntax-error).
MALFORMED_CERTS = (
    {"leaf": {"kind": "SFx"}},  # leaf without "i"
    {"bracket": [{"leaf": {"kind": "SFx", "i": 0}}]},  # bracket with one child
    {"sum": [["1", {"leaf": {"kind": "SFy", "i": 0}}, "extra"]]},  # sum entry of length 3
    {"leaf": {"kind": "HF"}},  # HF leaf without "poly"
)


CERT_POOL = 2  # sets of certificate files written in set-up
VERIFY_FILES = (
    # (surface, method, one weight changed by one)
    (P2, "avdp", False), (P4, "avdp", False), (P3, "avdp", False),
    (P3, "shears", False), (P3, "avdp", True),
)


def cert_files(rng: Rng) -> list:
    """Certificate files written in set-up.

    Each set holds SF/HF decompositions on all three surfaces, a shears-only
    certificate on z^3 - z, and a decomposition with one weight changed by one
    (verification must say false, exit 1).  Then one file per malformed shape.
    """
    files = []
    for _ in range(CERT_POOL):
        for p, method, tamper in VERIFY_FILES:
            files.append(
                {"name": f"cert_{len(files)}.json", "p": fmt_poly(p),
                 "f": _random_potential(rng, p), "method": method, "tamper": tamper}
            )
    for k, node in enumerate(MALFORMED_CERTS):
        files.append({"name": f"bad_{k}.json",
                      "raw": {"p": "z^3 - z", "claimed": "x", "certificate": node}})
    return files


def cli_block(rng: Rng, block: int, files: list) -> list:
    """15 small commands, 5 verify-cert, 3 certify --shears-only, 2 error paths.

    certify --shears-only is 12% rather than 10% so that p90 falls inside its
    stratum: at exactly 10% it would sit on the edge between two strata and
    jump from run to run.
    """
    ops = [_small_command(rng, c) for c in SMALL_COMMANDS]
    ops += [_small_command(rng, rng.choice(SMALL_COMMANDS)) for _ in range(6)]
    n = len(VERIFY_FILES)
    for f in files[n * (block % CERT_POOL): n * (block % CERT_POOL) + n]:
        ops.append(
            {"kind": "cli", "stratum": "verify-cert" + (" tampered" if f["tamper"] else ""),
             "argv": ["verify-cert", f["name"], "--surface", f["p"]],
             "exit": 1 if f["tamper"] else 0}
        )
    # On z^3 - z with exponents >= 2 and a fixed shape per slot, a cold
    # certify costs about the same every time (most of it is the family
    # build), which keeps p90 steady.
    for t, (i, k) in enumerate(((2, 3), (3, 4), (4, 2))):
        f = _accepted_potential(rng, P3, i, k, (block + t) % 4, (block + 2 * t + 1) % 4, 1 + t % 2)
        ops.append(
            {"kind": "cli", "stratum": "certify --shears-only",
             "argv": ["certify", f, "--shears-only", "--surface", fmt_poly(P3)], "exit": 0}
        )
    # Error paths: a malformed certificate file in every block, and one of
    # the other three in turn.
    bad = files[n * CERT_POOL + block % len(MALFORMED_CERTS)]["name"]
    ops.append({"kind": "cli", "stratum": "error malformed-cert",
                "argv": ["verify-cert", bad, "--surface", "z^3 - z"], "exit": 2})
    other = block % 3
    if other == 0:
        argv, code, stratum = ["reduce", "x*+" + _small_expr(rng, 1)], 2, "error syntax"
    elif other == 1:
        argv, code, stratum = ["mul", f"x^(-{rng.below(3) + 1})", "z"], 2, "error negative-exponent"
    else:
        # rem(antiderivative, z^3 - z) has degree 2 for each of these
        rejected = ("z^3", "z^3 + z", "z^5", "z^3 + 2*z^2", "3*z^3 - z")
        argv, code, stratum = ["decide", rng.choice(rejected)], 1, "error rejected-decide"
    ops.append({"kind": "cli", "stratum": stratum, "argv": argv + ["--surface", "z^3 - z"],
                "exit": code})
    return rng.shuffle(ops)


# -- op lists ---------------------------------------------------------------------------


def op_list(workload: str, seed: int) -> tuple[list, list]:
    """(blocks of ops, certificate files) for a workload and seed."""
    rng = Rng(seed * 1_000_003 + {"certify": 1, "conjugate": 2, "cli": 3}[workload])
    files = cert_files(rng) if workload == "cli" else []
    blocks = []
    for b in range(BLOCKS):
        if workload == "certify":
            blocks.append(certify_block(rng, b))
        elif workload == "conjugate":
            blocks.append(conjugate_block(rng))
        else:
            blocks.append(cli_block(rng, b, files))
    return blocks, files


def op_hash(blocks: list, files: list) -> str:
    text = json.dumps([blocks, files], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
