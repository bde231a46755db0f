"""Command-line interface.

Every subcommand takes --surface "poly in z" and --format text|json (the
DANIELEWSKI_FORMAT environment variable sets the default).  Exit codes:
0 success/accepted, 1 rejected/false, 2 usage or parse error (a malformed
certificate file, or a file that cannot be read or written, included), 3
internal invariant violation.  A library error exits with its class's
``exit_code``.

Each subcommand is declared once, in ``COMMANDS``: its own argparse
arguments and a handler ``(surface, args) -> (text, data, exit_code)``.
``main`` builds the surface from --surface (so a bad surface is reported
first), calls the handler and prints ``json.dumps(data, sort_keys=True)``
under --format json, or ``text`` in text mode and whenever ``data`` is
None (a certificate prints as indented JSON in both formats).  A
DanielewskiError prints ``{"error": CODE, "message": TEXT}`` on stdout
under --format json, else ``error [CODE]: TEXT`` on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import parsing, z2
from .automorphisms import compose, conjugate_field, volume_factor
from .errors import DanielewskiError, FileError, ParseError
from .fields import (
    DEFAULT_LND_ITER,
    bracket,
    flex_check,
    hamiltonian_of,
    is_volume_preserving,
    lnd_check,
    potential_of,
)
from .membership import avdp_decompose, certify_shears_only, decide, verify_certificate
from .parsing import (
    format_field,
    format_surface_polynomial,
    format_unipoly,
    format_word,
    parse_expression,
    parse_field,
    parse_point,
    parse_unipoly,
    parse_word,
)
from .ring import make_surface


def _result(s: str):
    return s, {"result": s}, 0


def _truth(ok: bool):
    return "true" if ok else "false", {"result": ok}, 0 if ok else 1


def _certificate(f, expr) -> str:
    """The certificate file for ``expr`` evaluating to the potential ``f``."""
    obj = parsing.certificate_file_obj(f.surface, f, expr)
    return json.dumps(obj, sort_keys=True, indent=2)


def _lnd_check(s, a):
    v = lnd_check(parse_field(s, a.field), a.max_iter)
    data = {"nilpotent": v.nilpotent, "degree": v.degree, "bound": v.bound}
    return str(v), data, 0 if v.nilpotent else 1


def _decide(s, a):
    v = decide(parse_expression(s, a.expr))
    rem = format_unipoly(v.witness_remainder)
    text = f"{'accepted' if v.accepted else 'rejected'}, remainder {rem}"
    return text, {"accepted": v.accepted, "remainder": rem}, 0 if v.accepted else 1


def _certify(s, a):
    f = parse_expression(s, a.expr)
    expr = certify_shears_only(f, a.max_degree) if a.shears_only else avdp_decompose(f)
    text = _certificate(f, expr)
    if not a.output:
        return text, None, 0
    try:
        with open(a.output, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise FileError(f"cannot write the certificate: {exc}") from exc
    return f"certificate written to {a.output}", {"written": a.output}, 0


def _verify_cert(s, a):
    try:
        with open(a.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FileError(f"cannot read the certificate: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"certificate file is not UTF-8 text: {exc}") from exc
    cert_surface, claimed, expr = parsing.load_certificate_file(text)
    if cert_surface.p != s.p:
        return "false (different surface)", {"result": False}, 1
    return _truth(verify_certificate(s, expr, claimed))


def _z2_certify(s, a):
    f = parse_expression(s, a.expr)
    return _certificate(f, z2.z2_certificate(f)), None, 0


def _z2_check(s, a):
    rows = z2.z2_avdp_check(s, a.max_degree)
    text = "\n".join(f"{r.monomial}\tsize {r.size}\t{'ok' if r.verified else 'FAIL'}"
                     for r in rows)
    data = {"rows": [dataclasses.asdict(r) for r in rows]}
    return text, data, 0 if all(r.verified for r in rows) else 1


# name -> ([(argument, add_argument keywords)], handler); the order is the
# order of the usage line.
COMMANDS = {
    "reduce": ([("expr", {})],
               lambda s, a: _result(format_surface_polynomial(parse_expression(s, a.expr)))),
    "mul": ([("left", {}), ("right", {})],
            lambda s, a: _result(format_surface_polynomial(
                parse_expression(s, a.left) * parse_expression(s, a.right)))),
    "bracket": ([("left", {}), ("right", {})],
                lambda s, a: _result(format_field(
                    bracket(parse_field(s, a.left), parse_field(s, a.right))))),
    "potential": ([("field", {})],
                  lambda s, a: _result(format_surface_polynomial(
                      potential_of(parse_field(s, a.field))))),
    "hamiltonian": ([("expr", {})],
                    lambda s, a: _result(format_field(
                        hamiltonian_of(parse_expression(s, a.expr))))),
    "is-volume-preserving": ([("field", {})],
                             lambda s, a: _truth(is_volume_preserving(parse_field(s, a.field)))),
    "lnd-check": ([("field", {}), ("--max-iter", {"type": int, "default": DEFAULT_LND_ITER})],
                  _lnd_check),
    "decide": ([("expr", {})], _decide),
    "certify": ([
        ("expr", {}),
        ("--shears-only", {"action": "store_true"}),
        ("--max-degree", {"type": int, "default": None}),
        ("--output", {"default": None, "help": "write the certificate file here"}),
    ], _certify),
    "verify-cert": ([("file", {})], _verify_cert),
    "conjugate": ([("word", {}), ("field", {})],
                  lambda s, a: _result(format_field(
                      conjugate_field(parse_word(s, a.word), parse_field(s, a.field))))),
    "compose": ([("left", {}), ("right", {})],
                lambda s, a: _result(format_word(
                    compose(parse_word(s, a.left), parse_word(s, a.right))))),
    "volume-factor": ([("word", {})],
                      lambda s, a: _result(str(volume_factor(parse_word(s, a.word))))),
    "flex-check": ([
        ("point", {"help": "rational point as x,y,z"}),
        ("fields", {"nargs": "*", "help": "optional field literals"}),
    ], lambda s, a: _truth(flex_check(
        s, parse_point(a.point), [parse_field(s, f) for f in a.fields] or None))),
    "z2-certify": ([("expr", {})], _z2_certify),
    "z2-check": ([("--max-degree", {"type": int, "default": 7})], _z2_check),
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="danielewski",
        description="Exact computations on the surface x*y = p(z): ring "
        "arithmetic, volume-preserving vector fields and their potentials, "
        "automorphism words, and bracket-expression certificates.",
    )
    sp = ap.add_subparsers(dest="command", required=True)
    for name, (arguments, _) in COMMANDS.items():
        sub = sp.add_parser(name)
        for arg, kw in arguments:
            sub.add_argument(arg, **kw)
        sub.add_argument("--surface", required=True, help="defining polynomial p(z)")
        sub.add_argument(
            "--format",
            choices=("text", "json"),
            default=os.environ.get("DANIELEWSKI_FORMAT", "text"),
            help="output format (default from DANIELEWSKI_FORMAT, else text)",
        )
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    as_json = args.format == "json"
    try:
        surface = make_surface(parse_unipoly(args.surface))
        text, data, code = COMMANDS[args.command][1](surface, args)
        print(json.dumps(data, sort_keys=True) if as_json and data is not None else text)
        return code
    except DanielewskiError as exc:
        if as_json:
            print(json.dumps({"error": exc.code, "message": str(exc)}, sort_keys=True))
        else:
            print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
