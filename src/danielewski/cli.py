"""Command-line interface.

Every subcommand takes --surface "poly in z" and --format text|json (the
DANIELEWSKI_FORMAT environment variable sets the default).  Exit codes:
0 success/accepted, 1 rejected/false, 2 usage or parse error (a malformed
certificate file included), 3 internal invariant violation.  A library
error exits with its class's ``exit_code``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import membership, parsing, z2
from .automorphisms import compose as compose_words
from .automorphisms import volume_factor
from .automorphisms import conjugate_field
from .errors import (
    DanielewskiError,
    InternalInvariantViolation,
    ParseError,
)
from .fields import (
    bracket,
    flex_check,
    hamiltonian_of,
    is_volume_preserving,
    lnd_check,
    potential_of,
)
from .membership import (
    avdp_decompose,
    certify_shears_only,
    decide,
    verify_certificate,
)
from .parsing import (
    format_field,
    format_surface_polynomial,
    format_unipoly,
    format_word,
    parse_expression,
    parse_field,
    parse_unipoly,
    parse_word,
)
from .ring import make_surface

class _Output:
    def __init__(self, fmt: str):
        self.fmt = fmt

    def emit(self, text: str, data: dict) -> None:
        if self.fmt == "json":
            print(json.dumps(data, sort_keys=True))
        else:
            print(text)


def _add_common(sub):
    sub.add_argument("--surface", required=True, help="defining polynomial p(z)")
    sub.add_argument(
        "--format",
        choices=("text", "json"),
        default=os.environ.get("DANIELEWSKI_FORMAT", "text"),
        help="output format (default from DANIELEWSKI_FORMAT, else text)",
    )


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="danielewski",
        description="Exact computations on the surface x*y = p(z): ring "
        "arithmetic, volume-preserving vector fields and their potentials, "
        "automorphism words, and bracket-expression certificates.",
    )
    sp = ap.add_subparsers(dest="command", required=True)

    cmds = {
        "reduce": [("expr", {})],
        "mul": [("left", {}), ("right", {})],
        "bracket": [("left", {}), ("right", {})],
        "potential": [("field", {})],
        "hamiltonian": [("expr", {})],
        "is-volume-preserving": [("field", {})],
        "lnd-check": [("field", {}), ("--max-iter", {"type": int, "default": 64})],
        "decide": [("expr", {})],
        "certify": [
            ("expr", {}),
            ("--shears-only", {"action": "store_true"}),
            ("--max-degree", {"type": int, "default": None}),
            ("--output", {"default": None, "help": "write the certificate file here"}),
        ],
        "verify-cert": [("file", {})],
        "conjugate": [("word", {}), ("field", {})],
        "compose": [("left", {}), ("right", {})],
        "volume-factor": [("word", {})],
        "flex-check": [
            ("point", {"help": "rational point as x,y,z"}),
            ("fields", {"nargs": "*", "help": "optional field literals"}),
        ],
        "z2-certify": [("expr", {})],
        "z2-check": [("--max-degree", {"type": int, "default": 7})],
    }
    for name, args in cmds.items():
        sub = sp.add_parser(name)
        for arg, kw in args:
            sub.add_argument(arg, **kw)
        _add_common(sub)
    return ap


def _run(args, out: _Output) -> int:
    surface = make_surface(parse_unipoly(args.surface))
    cmd = args.command

    if cmd == "reduce":
        e = parse_expression(surface, args.expr)
        s = format_surface_polynomial(e)
        out.emit(s, {"result": s})
        return 0
    if cmd == "mul":
        e = parse_expression(surface, args.left) * parse_expression(surface, args.right)
        s = format_surface_polynomial(e)
        out.emit(s, {"result": s})
        return 0
    if cmd == "bracket":
        th = bracket(parse_field(surface, args.left), parse_field(surface, args.right))
        s = format_field(th)
        out.emit(s, {"result": s})
        return 0
    if cmd == "potential":
        f = potential_of(parse_field(surface, args.field))
        s = format_surface_polynomial(f)
        out.emit(s, {"result": s})
        return 0
    if cmd == "hamiltonian":
        th = hamiltonian_of(parse_expression(surface, args.expr))
        s = format_field(th)
        out.emit(s, {"result": s})
        return 0
    if cmd == "is-volume-preserving":
        ok = is_volume_preserving(parse_field(surface, args.field))
        out.emit("true" if ok else "false", {"result": ok})
        return 0 if ok else 1
    if cmd == "lnd-check":
        v = lnd_check(parse_field(surface, args.field), args.max_iter)
        out.emit(
            str(v),
            {"nilpotent": v.nilpotent, "degree": v.degree, "bound": v.bound},
        )
        return 0 if v.nilpotent else 1
    if cmd == "decide":
        verdict = decide(parse_expression(surface, args.expr))
        rem = format_unipoly(verdict.witness_remainder)
        out.emit(
            f"{'accepted' if verdict.accepted else 'rejected'}, remainder {rem}",
            {"accepted": verdict.accepted, "remainder": rem},
        )
        return 0 if verdict.accepted else 1
    if cmd == "certify":
        f = parse_expression(surface, args.expr)
        if args.shears_only:
            expr = certify_shears_only(f, args.max_degree)
        else:
            expr = avdp_decompose(f)
        obj = parsing.certificate_file_obj(surface, f, expr)
        text = json.dumps(obj, sort_keys=True, indent=2)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
            out.emit(f"certificate written to {args.output}", {"written": args.output})
        else:
            print(text)
        return 0
    if cmd == "verify-cert":
        with open(args.file) as fh:
            cert_surface, claimed, expr = parsing.load_certificate_file(fh.read())
        if cert_surface.p != surface.p:
            out.emit("false (different surface)", {"result": False})
            return 1
        ok = verify_certificate(surface, expr, claimed)
        out.emit("true" if ok else "false", {"result": ok})
        return 0 if ok else 1
    if cmd == "conjugate":
        th = conjugate_field(parse_word(surface, args.word), parse_field(surface, args.field))
        s = format_field(th)
        out.emit(s, {"result": s})
        return 0
    if cmd == "compose":
        w = compose_words(parse_word(surface, args.left), parse_word(surface, args.right))
        s = format_word(w)
        out.emit(s, {"result": s})
        return 0
    if cmd == "volume-factor":
        j = volume_factor(parse_word(surface, args.word))
        out.emit(str(j), {"result": str(j)})
        return 0
    if cmd == "flex-check":
        try:
            point = tuple(Fraction(c) for c in args.point.split(","))
            if len(point) != 3:
                raise ValueError
        except (ValueError, ZeroDivisionError):
            raise ParseError("point must be three rationals: x,y,z")
        fields = [parse_field(surface, f) for f in args.fields] or None
        ok = flex_check(surface, point, fields)
        out.emit("true" if ok else "false", {"result": ok})
        return 0 if ok else 1
    if cmd == "z2-certify":
        f = parse_expression(surface, args.expr)
        expr = z2.z2_certificate(f)
        obj = parsing.certificate_file_obj(surface, f, expr)
        print(json.dumps(obj, sort_keys=True, indent=2))
        return 0
    if cmd == "z2-check":
        rows = z2.z2_avdp_check(surface, args.max_degree)
        lines = [f"{r.monomial}\tsize {r.size}\t{'ok' if r.verified else 'FAIL'}" for r in rows]
        out.emit(
            "\n".join(lines),
            {"rows": [{"monomial": r.monomial, "size": r.size, "verified": r.verified} for r in rows]},
        )
        return 0 if all(r.verified for r in rows) else 1
    raise InternalInvariantViolation(f"unhandled command {cmd!r}")


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    out = _Output(args.format)
    try:
        return _run(args, out)
    except DanielewskiError as exc:
        _emit_error(out, exc)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _emit_error(out: _Output, exc: DanielewskiError):
    if out.fmt == "json":
        print(json.dumps({"error": exc.code, "message": str(exc)}, sort_keys=True))
    else:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
