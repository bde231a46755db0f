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
argparse reads the options in argv order, --surface into the surface and
an integer by ``parsing.parse_integer``, and reports the first bad one;
``main`` then calls the handler, which parses the positional arguments, and
prints ``json.dumps(data, sort_keys=True)`` under --format json, or ``text``
in text mode; a certificate handler returns the file's object instead,
streamed to stdout in both formats.  A DanielewskiError prints
``{"error": CODE, "message": TEXT}`` on stdout under --format json, else
``error [CODE]: TEXT`` on stderr; under JSON an argparse usage error is a
``syntax-error`` too.

A cold process pays only for its own subcommand.  Of the library this module
imports only ``errors``, ``ring`` and ``parsing``; each handler imports the
library module it calls (``fields``, ``automorphisms``, ``membership`` or
``z2``) when it runs.  Of the standard library it imports ``argparse``,
``os``, ``sys`` and ``itertools``; ``json`` is imported where a JSON document
is written or read (the --format json output and errors, certificate files),
and no module of the package imports ``typing``.  When argv[0] names a
command, the parser holds that command's subparser alone; help, a missing
command and an unknown one build them all.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice

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


def _json_line(obj) -> str:
    """``obj`` as one line of JSON with sorted keys."""
    import json

    return json.dumps(obj, sort_keys=True)


def _write_certificate(obj: dict, out) -> None:
    """Write the certificate file of ``obj``: its JSON with sorted keys and an
    indent of 2, in blocks of encoder chunks (never one string), and a newline."""
    import json

    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(obj)
    while block := "".join(islice(chunks, 4096)):
        out.write(block)
    out.write("\n")


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

    max_iter = DEFAULT_LND_ITER if a.max_iter is None else a.max_iter
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

    f = parse_expression(s, a.expr)
    expr = certify_shears_only(f, a.max_degree) if a.shears_only else avdp_decompose(f)
    obj = parsing.certificate_file_obj(f.surface, f, expr)
    if not a.output:
        return obj
    try:
        with open(a.output, "w") as fh:
            _write_certificate(obj, fh)
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
    return parsing.certificate_file_obj(s, f, z2_certificate(f))


def _z2_check(s, a):
    from .z2 import z2_avdp_check

    rows = z2_avdp_check(s, a.max_degree)
    text = "\n".join(f"{r.monomial}\tsize {r.size}\t{'ok' if r.verified else 'FAIL'}"
                     for r in rows)
    data = {"rows": [{"monomial": r.monomial, "size": r.size, "verified": r.verified}
                     for r in rows]}
    return text, data, 0 if all(r.verified for r in rows) else 1


def _integer(name: str):
    """The argparse type of the integer option ``name``."""
    return lambda src: parse_integer(src, name)


# name -> ([(argument, add_argument keywords)], handler); the order is the
# order of the usage line.  --max-iter defaults to None, read by _lnd_check
# as fields.DEFAULT_LND_ITER, so that building the parser imports no
# library module.
COMMANDS = {
    "reduce": ([("expr", {})], _reduce),
    "mul": ([("left", {}), ("right", {})], _mul),
    "bracket": ([("left", {}), ("right", {})], _bracket),
    "potential": ([("field", {})], _potential),
    "hamiltonian": ([("expr", {})], _hamiltonian),
    "is-volume-preserving": ([("field", {})], _is_volume_preserving),
    "lnd-check": ([("field", {}), ("--max-iter", {"type": _integer("--max-iter")})],
                  _lnd_check),
    "decide": ([("expr", {})], _decide),
    "certify": ([
        ("expr", {}),
        ("--shears-only", {"action": "store_true"}),
        ("--max-degree", {"type": _integer("--max-degree")}),
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
    "z2-check": ([("--max-degree", {"default": 7, "type": _integer("--max-degree")})],
                 _z2_check),
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


def _build_parser(argv: list, as_json: bool) -> argparse.ArgumentParser:
    """The parser of argv: when argv[0] names a command, the top parser holds
    that command's subparser alone (its usage line still lists every
    command); otherwise it holds all of them, for help and for the error
    that names the choices."""
    ap = argparse.ArgumentParser(
        prog="danielewski",
        description="Exact computations on the surface x*y = p(z): ring "
        "arithmetic, volume-preserving vector fields and their potentials, "
        "automorphism words, and bracket-expression certificates.",
    )
    one = bool(argv) and argv[0] in COMMANDS
    # The metavar is the choices of the full parser, for its usage line.
    sp = ap.add_subparsers(dest="command", required=True,
                           metavar="{%s}" % ",".join(COMMANDS) if one else None)
    for name in argv[:1] if one else COMMANDS:
        arguments, _ = COMMANDS[name]
        sub = sp.add_parser(name)
        for arg, kw in arguments:
            sub.add_argument(arg, **kw)
        sub.add_argument("--surface", required=True, help="defining polynomial p(z)",
                         type=lambda src: make_surface(parse_unipoly(src)))
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
        args = _build_parser(argv, as_json).parse_args(argv)
        as_json = args.format == "json"
        if args.format not in ("text", "json"):  # argparse checks no default
            raise ParseError(f"DANIELEWSKI_FORMAT must be text or json, not {args.format!r}")
        out = COMMANDS[args.command][1](args.surface, args)
        if isinstance(out, dict):  # a certificate file
            _write_certificate(out, sys.stdout)
            return 0
        text, data, code = out
        print(_json_line(data) if as_json else text)
        return code
    except SystemExit as exc:  # argparse: -h, or a usage error in text mode
        return 2 if exc.code else 0
    except DanielewskiError as exc:
        if as_json:
            print(_json_line({"error": exc.code, "message": str(exc)}))
        else:
            print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
