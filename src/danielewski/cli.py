"""Command-line interface.

Every subcommand takes --surface "poly in z" and --format text|json (the
DANIELEWSKI_FORMAT environment variable sets the default; unset or empty
means text, and any value but text or json is a syntax-error, reported in
text mode, unless --format is given).  Exit codes:
0 success/accepted, 1 rejected/false, 2 usage or parse error (a malformed
certificate file, or a file that cannot be read or written, included) or a
stdout closed by its reader, 3 internal invariant violation.  A library
error exits with its class's ``exit_code``.

Each subcommand is declared once, in ``COMMANDS``: its own argparse
arguments and a handler ``(surface, args) -> (text, data, exit_code)``.
``main`` builds the surface from --surface (so a bad surface is reported
first), calls the handler and prints ``json.dumps(data, sort_keys=True)``
under --format json, or ``text`` in text mode and whenever ``data`` is
None (a certificate prints as indented JSON in both formats).  A
DanielewskiError prints ``{"error": CODE, "message": TEXT}`` on stdout
under --format json, else ``error [CODE]: TEXT`` on stderr; under JSON an
argparse usage error is a ``syntax-error`` too.

This module imports only ``errors``, ``ring`` and ``parsing``; each handler
imports the library module it calls (``fields``, ``automorphisms``,
``membership`` or ``z2``) when it runs, so a cold process loads and
compiles only what its subcommand needs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import parsing
from .errors import DanielewskiError, FileError, ParseError
from .parsing import (
    format_field,
    format_surface_polynomial,
    format_unipoly,
    format_word,
    parse_expression,
    parse_field,
    parse_integer,
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


def _reduce(s, a):
    return _result(format_surface_polynomial(parse_expression(s, a.expr)))


def _mul(s, a):
    f, g = parse_expression(s, a.left), parse_expression(s, a.right)
    return _result(format_surface_polynomial(f * g))


def _bracket(s, a):
    from .fields import bracket

    return _result(format_field(bracket(parse_field(s, a.left), parse_field(s, a.right))))


def _potential(s, a):
    from .fields import potential_of

    return _result(format_surface_polynomial(potential_of(parse_field(s, a.field))))


def _hamiltonian(s, a):
    from .fields import hamiltonian_of

    return _result(format_field(hamiltonian_of(parse_expression(s, a.expr))))


def _is_volume_preserving(s, a):
    from .fields import is_volume_preserving

    return _truth(is_volume_preserving(parse_field(s, a.field)))


def _lnd_check(s, a):
    from .fields import DEFAULT_LND_ITER, lnd_check

    max_iter = DEFAULT_LND_ITER
    if a.max_iter is not None:
        max_iter = parse_integer(a.max_iter, "--max-iter")
    v = lnd_check(parse_field(s, a.field), max_iter)
    data = {"nilpotent": v.nilpotent, "degree": v.degree, "bound": v.bound}
    return str(v), data, 0 if v.nilpotent else 1


def _decide(s, a):
    from .membership import decide

    v = decide(parse_expression(s, a.expr))
    rem = format_unipoly(v.witness_remainder)
    text = f"{'accepted' if v.accepted else 'rejected'}, remainder {rem}"
    return text, {"accepted": v.accepted, "remainder": rem}, 0 if v.accepted else 1


def _certify(s, a):
    from .membership import avdp_decompose, certify_shears_only

    max_degree = None
    if a.max_degree is not None:
        max_degree = parse_integer(a.max_degree, "--max-degree")
    f = parse_expression(s, a.expr)
    expr = certify_shears_only(f, max_degree) if a.shears_only else avdp_decompose(f)
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
    from .membership import verify_certificate

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


def _conjugate(s, a):
    from .automorphisms import conjugate_field

    return _result(format_field(conjugate_field(parse_word(s, a.word), parse_field(s, a.field))))


def _compose(s, a):
    from .automorphisms import compose

    return _result(format_word(compose(parse_word(s, a.left), parse_word(s, a.right))))


def _volume_factor(s, a):
    from .automorphisms import volume_factor

    return _result(parsing.format_rational(volume_factor(parse_word(s, a.word))))


def _flex_check(s, a):
    from .fields import flex_check

    point = parse_point(a.point)
    return _truth(flex_check(s, point, [parse_field(s, f) for f in a.fields] or None))


def _z2_certify(s, a):
    from .z2 import z2_certificate

    f = parse_expression(s, a.expr)
    return _certificate(f, z2_certificate(f)), None, 0


def _z2_check(s, a):
    from .z2 import z2_avdp_check

    rows = z2_avdp_check(s, parse_integer(a.max_degree, "--max-degree"))
    text = "\n".join(f"{r.monomial}\tsize {r.size}\t{'ok' if r.verified else 'FAIL'}"
                     for r in rows)
    data = {"rows": [{"monomial": r.monomial, "size": r.size, "verified": r.verified}
                     for r in rows]}
    return text, data, 0 if all(r.verified for r in rows) else 1


# name -> ([(argument, add_argument keywords)], handler); the order is the
# order of the usage line.  --max-iter defaults to None, read by _lnd_check
# as fields.DEFAULT_LND_ITER, so that building the parser imports no
# library module.  Integer options are kept as strings here and read by
# their handler with parsing.parse_integer, so that a malformed one is a
# syntax-error like any other malformed input.
COMMANDS = {
    "reduce": ([("expr", {})], _reduce),
    "mul": ([("left", {}), ("right", {})], _mul),
    "bracket": ([("left", {}), ("right", {})], _bracket),
    "potential": ([("field", {})], _potential),
    "hamiltonian": ([("expr", {})], _hamiltonian),
    "is-volume-preserving": ([("field", {})], _is_volume_preserving),
    "lnd-check": ([("field", {}), ("--max-iter", {"default": None})],
                  _lnd_check),
    "decide": ([("expr", {})], _decide),
    "certify": ([
        ("expr", {}),
        ("--shears-only", {"action": "store_true"}),
        ("--max-degree", {"default": None}),
        ("--output", {"default": None, "help": "write the certificate file here"}),
    ], _certify),
    "verify-cert": ([("file", {})], _verify_cert),
    "conjugate": ([("word", {}), ("field", {})], _conjugate),
    "compose": ([("left", {}), ("right", {})], _compose),
    "volume-factor": ([("word", {})], _volume_factor),
    "flex-check": ([
        ("point", {"help": "rational point as x,y,z"}),
        ("fields", {"nargs": "*", "help": "optional field literals"}),
    ], _flex_check),
    "z2-certify": ([("expr", {})], _z2_certify),
    "z2-check": ([("--max-degree", {"default": "7"})], _z2_check),
}


def _json_requested(argv: list) -> bool:
    """Whether argv asks for JSON before it is parsed: by its last --format
    (or an abbreviation argparse takes), else by DANIELEWSKI_FORMAT."""
    fmt = os.environ.get("DANIELEWSKI_FORMAT")
    for arg, after in zip(argv, [*argv[1:], None]):
        opt, eq, value = arg.partition("=")
        if len(opt) > 2 and "--format".startswith(opt):
            fmt = value if eq else after
    return fmt == "json"


def _usage_error(message: str):
    raise ParseError(message)


def _build_parser(as_json: bool) -> argparse.ArgumentParser:
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
            default=os.environ.get("DANIELEWSKI_FORMAT") or "text",
            help="output format (default from DANIELEWSKI_FORMAT, else text)",
        )
    if as_json:  # a usage error is then a syntax-error, printed as any other
        for parser in (ap, *sp.choices.values()):
            parser.error = _usage_error
    return ap


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout has gone.  Point stdout's file descriptor at
        # devnull, so that the interpreter's flush at exit does not fail too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    return code


def _run(argv) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    as_json = _json_requested(argv)
    try:
        args = _build_parser(as_json).parse_args(argv)
        as_json = args.format == "json"
        if args.format not in ("text", "json"):  # argparse checks no default
            raise ParseError(f"DANIELEWSKI_FORMAT must be text or json, not {args.format!r}")
        surface = make_surface(parse_unipoly(args.surface))
        text, data, code = COMMANDS[args.command][1](surface, args)
        print(json.dumps(data, sort_keys=True) if as_json and data is not None else text)
        return code
    except SystemExit as exc:  # argparse: -h, or a usage error in text mode
        return 2 if exc.code else 0
    except DanielewskiError as exc:
        if as_json:
            print(json.dumps({"error": exc.code, "message": str(exc)}, sort_keys=True))
        else:
            print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
