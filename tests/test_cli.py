"""End-to-end CLI checks: output, formats, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from danielewski import errors
from danielewski.cli import COMMANDS, main
from danielewski.fields import MAX_LND_ITER
from danielewski.membership import MAX_CERTIFY_DEGREE
from danielewski.parsing import (
    MAX_CERT_DEPTH,
    MAX_EXPONENT,
    MAX_PAREN_DEPTH,
    MAX_PARSED_TERMS,
)
from danielewski.ring import MAX_DIGITS
from danielewski.z2 import MAX_Z2_DEGREE


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "x*y + z", "--surface", "z^2-1")
    assert code == 0 and out == "-1 + z + z^2"


def test_json_format(capsys):
    code, out, _ = run(capsys, "reduce", "x*y", "--surface", "z^2-1",
                       "--format", "json")
    assert code == 0 and json.loads(out) == {"result": "-1 + z^2"}


def test_mul_and_bracket(capsys):
    code, out, _ = run(capsys, "mul", "x", "y", "--surface", "z^2-1")
    assert code == 0 and out == "-1 + z^2"
    code, out, _ = run(capsys, "bracket", "SFx(0)", "SFy(0)",
                       "--surface", "z^3-z", "--format", "json")
    assert code == 0 and json.loads(out) == {"result": "[6*x*z; -6*y*z; 0]"}


def test_potential_and_hamiltonian_are_inverse(capsys):
    code, pot, _ = run(capsys, "potential", "SFx(1)", "--surface", "z^2-1")
    assert code == 0 and pot == "-1/2*x^2"
    # arguments starting with '-' need the usual '--' separator
    code, field, _ = run(capsys, "hamiltonian", "--surface", "z^2-1", "--", pot)
    assert code == 0
    code, out, _ = run(capsys, "potential", field, "--surface", "z^2-1")
    assert code == 0 and out == pot


def test_decide_exit_codes(capsys):
    code, out, _ = run(capsys, "decide", "z", "--surface", "z^3-z")
    assert code == 1 and out.startswith("rejected")
    code, out, _ = run(capsys, "decide", "1/2*z^2", "--surface", "z^3-z")
    assert code == 0 and out.startswith("accepted")


def test_lnd_check_exit_codes(capsys):
    code, _, _ = run(capsys, "lnd-check", "SFx(0)", "--surface", "z^2-1")
    assert code == 0
    code, _, _ = run(capsys, "lnd-check", "HF(1)", "--surface", "z^2-1",
                     "--max-iter", "10")
    assert code == 1


def test_certify_and_verify(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, "certify", "x^2*z", "--surface", "z^2-1",
                     "--shears-only", "--output", str(cert))
    assert code == 0
    obj = json.loads(cert.read_text())
    assert set(obj) == {"p", "claimed", "certificate"}
    code, out, _ = run(capsys, "verify-cert", str(cert), "--surface", "z^2-1")
    assert code == 0 and out == "true"
    # tampering with the claim must fail verification
    obj["claimed"] = "x^2*z + z"
    cert.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify-cert", str(cert), "--surface", "z^2-1")
    assert code == 1 and out == "false"


def test_certify_rejected_input(capsys):
    code, _, err = run(capsys, "certify", "z", "--surface", "z^3-z",
                       "--shears-only")
    assert code == 1 and "membership-rejected" in err


def test_word_commands(capsys):
    code, out, _ = run(capsys, "compose", "Dx(1)", "H(2)", "--surface", "z^2-1")
    assert code == 0 and out == "Dx(2);H(2)"
    code, out, _ = run(capsys, "volume-factor", "I;Dx(1);I", "--surface", "z^2-1")
    assert code == 0 and out == "1"
    code, out, _ = run(capsys, "volume-factor", "I", "--surface", "z^2-1")
    assert code == 0 and out == "-1"


def test_conjugate(capsys):
    code, out, _ = run(capsys, "conjugate", "Dx(1)", "SFy(0)",
                       "--surface", "z^2-1")
    assert code == 0 and out == "[2*x + 2*z; -2*y - 2*z; -x + y]"


def test_flex_check(capsys):
    code, out, _ = run(capsys, "flex-check", "1,0,1", "--surface", "z^2-1")
    assert code == 0 and out == "true"
    code, _, err = run(capsys, "flex-check", "1,1,1", "--surface", "z^2-1")
    assert code == 2 and "point-not-on-surface" in err


def test_z2_commands(capsys):
    code, out, _ = run(capsys, "z2-check", "--max-degree", "3",
                       "--surface", "z^2-1", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows and all(r["verified"] for r in rows)
    code, _, err = run(capsys, "z2-check", "--surface", "z^3-z")
    assert code == 2 and "wrong-surface" in err


def test_usage_errors(capsys):
    code, _, err = run(capsys, "reduce", "x^(-1)", "--surface", "z^2-1")
    assert code == 2 and "negative-exponent" in err
    code, _, err = run(capsys, "reduce", "x", "--surface", "z^2-2*z+1")
    assert code == 2 and "repeated-root" in err
    code, _, err = run(capsys, "reduce", "x +", "--surface", "z^2-1")
    assert code == 2 and "syntax-error" in err


def test_error_json(capsys):
    code, out, _ = run(capsys, "reduce", "x^(-1)", "--surface", "z^2-1",
                       "--format", "json")
    assert code == 2
    obj = json.loads(out)
    assert obj["error"] == "negative-exponent"


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate", "--surface", "z^2-1"]) == 2


ARGPARSE_ERRORS = {
    "missing --surface": (["reduce", "x"], "the following arguments are required: --surface"),
    "option-like value": (["lnd-check", "SFx(0)", "--max-iter", "-1_0", "--surface", "z^3 - z"],
                          "argument --max-iter: expected one argument"),
    "unknown command": (["frobnicate", "--surface", "z^2-1"],
                        "argument command: invalid choice: 'frobnicate'"),
}


@pytest.mark.parametrize("fmt", [["--format", "json"], ["--format=json"], ["--fo", "json"], "env"],
                         ids=["--format json", "--format=json", "--fo json", "env"])
@pytest.mark.parametrize("argv, message", ARGPARSE_ERRORS.values(),
                         ids=ARGPARSE_ERRORS.keys())
def test_usage_error_under_json_is_structured(capsys, monkeypatch, argv, message, fmt):
    if fmt == "env":
        monkeypatch.setenv("DANIELEWSKI_FORMAT", "json")
        fmt = []
    code, out, err = run(capsys, *argv, *fmt)
    assert code == 2 and err == ""
    obj = json.loads(out)
    assert set(obj) == {"error", "message"} and obj["error"] == "syntax-error"
    assert obj["message"].startswith(message)


@pytest.mark.parametrize("env, fmt", [(None, []), ("json", ["--format", "text"])],
                         ids=["default", "text over env"])
@pytest.mark.parametrize("argv, message", ARGPARSE_ERRORS.values(),
                         ids=ARGPARSE_ERRORS.keys())
def test_usage_error_in_text_mode_is_argparse_usage(capsys, monkeypatch, argv, message,
                                                    env, fmt):
    if env:
        monkeypatch.setenv("DANIELEWSKI_FORMAT", env)
    code, out, err = run(capsys, *argv, *fmt)
    assert code == 2 and out == ""
    assert err.startswith("usage: danielewski") and f"error: {message}" in err


def test_format_from_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("DANIELEWSKI_FORMAT", "json")
    code, out, _ = run(capsys, "reduce", "x*y", "--surface", "z^2-1")
    assert code == 0 and json.loads(out) == {"result": "-1 + z^2"}
    code, out, _ = run(capsys, "reduce", "x*y", "--surface", "z^2-1", "--format", "text")
    assert code == 0 and out == "-1 + z^2"
    monkeypatch.setenv("DANIELEWSKI_FORMAT", "")  # empty means unset
    assert run(capsys, "reduce", "x*y", "--surface", "z^2-1") == (0, "-1 + z^2", "")


@pytest.mark.parametrize("env", ["xml", "JSON", "json ", "Text"])
def test_format_from_the_environment_is_checked(capsys, monkeypatch, env):
    monkeypatch.setenv("DANIELEWSKI_FORMAT", env)
    code, out, err = run(capsys, "reduce", "x*y", "--surface", "z^2-1")
    assert code == 2 and out == ""
    assert err == f"error [syntax-error]: DANIELEWSKI_FORMAT must be text or json, not {env!r}"
    # an explicit --format wins over the environment
    for fmt, expected in (("text", "-1 + z^2"), ("json", '{"result": "-1 + z^2"}')):
        code, out, _ = run(capsys, "reduce", "x*y", "--surface", "z^2-1", "--format", fmt)
        assert code == 0 and out == expected


_LEAF = {"leaf": {"kind": "SFx", "i": 0}}


def _cert_file(node):
    return {"p": "z^3 - z", "claimed": "x", "certificate": node}


MALFORMED_CERTS = {
    "top-level number": 5,
    "numeric p": {"p": 3, "claimed": "x", "certificate": _LEAF},
    "leaf without i": _cert_file({"leaf": {"kind": "SFx"}}),
    "non-integer i": _cert_file({"leaf": {"kind": "SFx", "i": "a"}}),
    "HF leaf without poly": _cert_file({"leaf": {"kind": "HF"}}),
    "leaf not an object": _cert_file({"leaf": "SFx"}),
    "bracket with one child": _cert_file({"bracket": [_LEAF]}),
    "sum entry of length 3": _cert_file({"sum": [["1", _LEAF, "extra"]]}),
    "sum not a list": _cert_file({"sum": 7}),
    "leaf i over MAX_DIGITS": _cert_file({"leaf": {"kind": "SFx", "i": 10**MAX_DIGITS}}),
    # written as is: 5001 digits are over Python's integer-string limit
    "integer literal of 5001 digits": json.dumps(_cert_file(_LEAF)).replace(
        '"i": 0', '"i": 1' + "0" * 5000),
}


@pytest.mark.parametrize("obj", MALFORMED_CERTS.values(), ids=MALFORMED_CERTS.keys())
def test_malformed_certificate_is_syntax_error(capsys, tmp_path, obj):
    cert = tmp_path / "bad.json"
    cert.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    code, out, _ = run(capsys, "verify-cert", str(cert), "--surface", "z^3-z",
                       "--format", "json")
    error = json.loads(out)
    assert code == 2 and error.keys() == {"error", "message"}
    assert error["error"] == "syntax-error"


def test_exit_code_table_matches_error_classes():
    doc = (Path(__file__).parents[1] / "docs" / "grammar.md").read_text()
    table = doc.split("## Exit codes and error codes", 1)[1]
    listed = {}
    for exit_code, meaning in re.findall(r"^\| (\d) \|(.*)\|$", table, re.M):
        for code in re.findall(r"`([a-z-]+)`", meaning):
            listed[code] = int(exit_code)
    classes = {
        c.code: c for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, errors.DanielewskiError)
    }
    assert set(listed) == set(classes) - {"error"}
    for code, exit_code in listed.items():
        assert classes[code].exit_code == exit_code, code


def _bracket_chain(levels):
    """A certificate file whose node tree has ``levels`` nested brackets."""
    leaf = json.dumps(_LEAF)
    node = ('{"bracket": [' + leaf + ", ") * levels + leaf + "]}" * levels
    return '{"p": "z^3 - z", "claimed": "x", "certificate": ' + node + "}"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("levels", [MAX_CERT_DEPTH, 3000])
def test_deeply_nested_certificate_is_syntax_error(capsys, tmp_path, levels, fmt):
    cert = tmp_path / "deep.json"
    cert.write_text(_bracket_chain(levels))
    code, out, err = run(capsys, "verify-cert", str(cert), "--surface", "z^3-z",
                         "--format", fmt)
    assert code == 2
    if fmt == "json":
        assert json.loads(out)["error"] == "syntax-error"
    else:
        assert "syntax-error" in err and "MAX_CERT_DEPTH" in err


# argv after the subcommand, with {tmp} for a fresh directory, and the error
FILE_CASES = {
    "missing certificate": (["verify-cert", "{tmp}/missing.json"], "file-error"),
    "directory as certificate": (["verify-cert", "{tmp}"], "file-error"),
    "output into a missing directory": (
        ["certify", "x", "--output", "{tmp}/missing/cert.json"], "file-error"),
    "certificate not UTF-8": (["verify-cert", "{tmp}/latin1.json"], "syntax-error"),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, error", FILE_CASES.values(), ids=FILE_CASES.keys())
def test_unusable_file_is_a_structured_error(capsys, tmp_path, argv, error, fmt):
    (tmp_path / "latin1.json").write_bytes(
        b'{"p": "z^3 - z", "claimed": "x", "certificate": {"leaf": {"kind": "\xe9"}}}')
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out, err = run(capsys, *argv, "--surface", "z^3-z", "--format", fmt)
    assert code == 2
    if fmt == "json":
        assert json.loads(out)["error"] == error and err == ""
    else:
        assert out == "" and err.startswith(f"error [{error}]: ")


def test_certificate_at_the_depth_ceiling_is_read(capsys, tmp_path):
    cert = tmp_path / "deep.json"
    cert.write_text(_bracket_chain(MAX_CERT_DEPTH - 1))
    code, out, _ = run(capsys, "verify-cert", str(cert), "--surface", "z^3-z")
    assert code == 1 and out == "false"  # [SFx(0), SFx(0)] = 0, not the field of x


# A surface whose p has MAX_DIGITS-digit coefficients: p^2 is over the
# coefficient ceiling, so the normal form of (x*y)^2 and the product y*y are
# rejected before p^m is formed.
TALL_SURFACE = "z - " + "9" * (MAX_DIGITS - 1)

# Each case is one above its ceiling, except the iteration bound 0, the
# superscript digits, which int() refuses, the coefficients that grow past
# MAX_DIGITS or the print limit, and the rationals and integers outside the
# grammar; the last column is a part of the message.
CEILINGS = {
    "certify --max-degree": (
        ["certify", "x", "--shears-only", "--max-degree", str(MAX_CERTIFY_DEGREE + 1)],
        "z^3-z", "degree-gate", "MAX_CERTIFY_DEGREE"),
    "certify default bound": (
        ["certify", "30*z^29 - 28*z^27", "--shears-only"],
        "z^3-z", "degree-gate", "MAX_CERTIFY_DEGREE"),
    "lnd-check --max-iter": (
        ["lnd-check", "HF(z)", "--max-iter", str(MAX_LND_ITER + 1)],
        "z^3-z", "degree-gate", "MAX_LND_ITER"),
    "lnd-check --max-iter 0": (
        ["lnd-check", "HF(z)", "--max-iter", "0"], "z^3-z", "degree-gate", "MAX_LND_ITER"),
    "z2-check --max-degree": (
        ["z2-check", "--max-degree", str(MAX_Z2_DEGREE + 1)],
        "z^2-1", "degree-gate", "MAX_Z2_DEGREE"),
    "z2-check --max-degree 0": (
        ["z2-check", "--max-degree", "0"], "z^2-1", "degree-gate", "MAX_Z2_DEGREE"),
    "parser exponent": (
        ["reduce", f"x^{MAX_EXPONENT + 1}"], "z^3-z", "syntax-error", "MAX_EXPONENT"),
    "parser parentheses": (
        ["reduce", "(" * (MAX_PAREN_DEPTH + 1) + "z" + ")" * (MAX_PAREN_DEPTH + 1)],
        "z^3-z", "syntax-error", "MAX_PAREN_DEPTH"),
    "parser digits": (
        ["reduce", "9" * (MAX_DIGITS + 1)], "z^3-z", "syntax-error", "MAX_DIGITS"),
    "parser power size": (
        ["reduce", "(1 + x + y + z)^80"], "z^3-z", "degree-gate", "MAX_PARSED_TERMS"),
    "parser product size": (
        ["reduce", "(1 + z)^20 * (1 + x + y + z)^20"], "z^3-z", "degree-gate",
        "MAX_PARSED_TERMS"),
    "coefficient of a power": (
        ["reduce", "9999999^1000"], "z^3-z", "degree-gate", "MAX_DIGITS"),
    "coefficient of a nested power": (
        ["reduce", "((10^999)^1000)^1000"], "z^3-z", "degree-gate", "MAX_DIGITS"),
    "coefficient of a product": (
        ["reduce", "9" * MAX_DIGITS + "*" + "9" * MAX_DIGITS], "z^3-z", "degree-gate",
        "MAX_DIGITS"),
    "power of p in a normal form": (
        ["reduce", "(x*y)^1000"], TALL_SURFACE, "degree-gate", "MAX_DIGITS"),
    "power of p in a product": (
        ["mul", "x^500", "y^500"], TALL_SURFACE, "degree-gate", "MAX_DIGITS"),
    "power of p in a Hamiltonian field": (
        ["hamiltonian", "y^300"], TALL_SURFACE, "degree-gate", "MAX_DIGITS"),
    "power of p in a potential": (
        ["potential", "[0; 0; y^300]"], TALL_SURFACE, "degree-gate", "MAX_DIGITS"),
    "printed coefficient": (
        ["compose", ";".join(["H(" + "9" * MAX_DIGITS + ")"] * 5), "id"], "z^2-1",
        "degree-gate", "integer-string limit"),
    "H in exponent form": (
        ["compose", "H(1e3000000)", "id"], "z^3-z", "syntax-error", "rational"),
    "Sym with a decimal point": (
        ["compose", "Sym(-1, 0.5)", "id"], "z^2-1", "syntax-error", "rational"),
    "H with an underscore": (["compose", "H(1_0)", "id"], "z^2-1", "syntax-error", "rational"),
    "H with a plus sign": (["compose", "H(+2)", "id"], "z^2-1", "syntax-error", "rational"),
    "H digits": (
        ["compose", "H(" + "9" * (MAX_DIGITS + 1) + ")", "id"], "z^2-1", "syntax-error",
        "MAX_DIGITS"),
    "point in exponent form": (
        ["flex-check", "1,0,1e5"], "z^2-1", "syntax-error", "rational"),
    "superscript literal": (["reduce", "²"], "z^3-z", "syntax-error", "unexpected"),
    "superscript exponent": (["reduce", "x^²"], "z^3-z", "syntax-error", "integer"),
    "superscript exponent in parentheses": (
        ["reduce", "x^(²)"], "z^3-z", "syntax-error", "integer"),
    # INT is [0-9]+: decimal digits of other scripts are not read
    "Arabic-Indic literal": (["reduce", "x + ٢"], "z^3-z", "syntax-error", "unexpected"),
    "Arabic-Indic exponent": (["reduce", "x^٣"], "z^3-z", "syntax-error", "integer"),
    "Arabic-Indic shear index": (["potential", "SFx(٣)"], "z^3-z", "syntax-error", "integer"),
    "Arabic-Indic H": (["compose", "H(٢)", "id"], "z^2-1", "syntax-error", "rational"),
    "Arabic-Indic surface": (["reduce", "x"], "z^٣ - z", "syntax-error", "integer"),
    # integer options are '-'? INT too
    "lnd-check --max-iter 1_0": (
        ["lnd-check", "SFx(0)", "--max-iter", "1_0"], "z^3-z", "syntax-error", "integer"),
    "lnd-check --max-iter ٣": (
        ["lnd-check", "SFx(0)", "--max-iter", "٣"], "z^3-z", "syntax-error", "integer"),
    "lnd-check --max-iter abc": (
        ["lnd-check", "SFx(0)", "--max-iter", "abc"], "z^3-z", "syntax-error", "integer"),
    "lnd-check --max-iter digits": (
        ["lnd-check", "SFx(0)", "--max-iter", "9" * (MAX_DIGITS + 1)], "z^3-z",
        "syntax-error", "MAX_DIGITS"),
    "certify --max-degree ٣": (
        ["certify", "x", "--shears-only", "--max-degree", "٣"], "z^3-z", "syntax-error",
        "integer"),
    "z2-check --max-degree ٣": (
        ["z2-check", "--max-degree", "٣"], "z^2-1", "syntax-error", "integer"),
}


@pytest.mark.parametrize("argv, surface, error, ceiling", CEILINGS.values(),
                         ids=CEILINGS.keys())
def test_numeric_input_outside_its_range(capsys, argv, surface, error, ceiling):
    code, out, _ = run(capsys, *argv, "--surface", surface, "--format", "json")
    obj = json.loads(out)
    assert code == 2 and obj["error"] == error and ceiling in obj["message"]
    code, out, err = run(capsys, *argv, "--surface", surface, "--format", "text")
    assert code == 2 and out == "" and err.startswith(f"error [{error}]: ") and ceiling in err


def test_every_ceiling_is_documented_and_tested():
    """Each module-level MAX_* constant of the package is named in
    docs/grammar.md and read by a CEILINGS row or a test in this file."""
    root = Path(__file__).parents[1]
    ceilings = {(path.stem, name) for path in (root / "src" / "danielewski").glob("*.py")
                for name in re.findall(r"^(MAX_\w+) =", path.read_text(), re.M)}
    doc = (root / "docs" / "grammar.md").read_text()
    tested = {row[-1] for row in CEILINGS.values()}
    tested |= {name for key, fn in globals().items() if key.startswith("test_")
               for name in fn.__code__.co_names}
    assert len(ceilings) >= 8
    for module, name in sorted(ceilings):
        assert re.search(rf"\b{module}\.{name}\b", doc), name
        assert name in tested, name


LITERALS_AT_CEILING = {
    "parentheses": ("(" * MAX_PAREN_DEPTH + "x*y" + ")" * MAX_PAREN_DEPTH, "-z + z^3"),
    "digits": ("9" * MAX_DIGITS + "*z", "9" * MAX_DIGITS + "*z"),
    "exponent": (f"x^{MAX_EXPONENT}", f"x^{MAX_EXPONENT}"),
}

# The literal 0 as a factor, wherever a polynomial is read: (argv, surface,
# text output, JSON output).
ZERO_FACTORS = {
    "reduce 0*x": (["reduce", "0*x"], "z^3-z", "0", {"result": "0"}),
    "mul x*0": (["mul", "x*0", "z"], "z^3-z", "0", {"result": "0"}),
    "reduce 0^2": (["reduce", "0^2"], "z^3-z", "0", {"result": "0"}),
    "field HF(0*z)": (["lnd-check", "HF(0*z)"], "z^3-z", "NilpotentWithDegree(1)",
                      {"bound": 64, "degree": 1, "nilpotent": True}),
    "word Dx(0*x)": (["compose", "Dx(0*x)", "H(2)"], "z^2-1", "H(2)", {"result": "H(2)"}),
    "surface 0*z": (["reduce", "x*y"], "0*z + z^2 - 1", "-1 + z^2", {"result": "-1 + z^2"}),
}


@pytest.mark.parametrize("argv, surface, fmt, out", [
    *(pytest.param(["reduce", expr], "z^3-z", "text", out, id=k)
      for k, (expr, out) in LITERALS_AT_CEILING.items()),
    *(pytest.param(argv, surface, fmt, out, id=f"{k}-{fmt}")
      for k, (argv, surface, text, obj) in ZERO_FACTORS.items()
      for fmt, out in (("text", text), ("json", obj))),
])
def test_literal_at_its_ceiling_is_read(capsys, argv, surface, fmt, out):
    code, got, err = run(capsys, *argv, "--surface", surface, "--format", fmt)
    assert (code, err) == (0, "")
    assert (json.loads(got) if fmt == "json" else got) == out


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [
    pytest.param(["reduce", "x*y"], id="text"),
    pytest.param(["reduce", "x*y", "--format", "json"], id="json"),
    pytest.param(["reduce", "x*", "--format", "json"], id="json-error"),
])
def test_closed_stdout_exits_2_without_traceback(argv, unbuffered):
    """The reader of stdout is gone before the CLI writes: a block-buffered
    stdout fails at the flush, an unbuffered one at the print."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parents[1] / "src"), env.get("PYTHONPATH", "")])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "danielewski.cli", *argv, "--surface", "z^3-z"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (2, "")


def test_readme_lists_every_subcommand():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    listed = re.findall(r"^danielewski (\S+)", block, re.M)
    assert sorted(listed) == sorted(COMMANDS)


@pytest.mark.parametrize("name", COMMANDS)
def test_bad_surface_is_reported_first(capsys, name):
    placeholders = ["x" for arg, _ in COMMANDS[name][0] if not arg.startswith("-")]
    code, out, _ = run(capsys, name, *placeholders, "--surface", "z^2", "--format", "json")
    assert code == 2 and json.loads(out)["error"] == "repeated-root"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("target", ["x + z", "0"])
def test_z2_certify_needs_one_monomial(capsys, target, fmt):
    code, out, err = run(capsys, "z2-certify", target, "--surface", "z^2-1", "--format", fmt)
    assert code == 2
    if fmt == "json":
        assert json.loads(out)["error"] == "syntax-error"
    else:
        assert "syntax-error" in err and "single monomial" in err


def test_surface_in_two_variables_is_syntax_error(capsys):
    code, _, err = run(capsys, "reduce", "x", "--surface", "y + z")
    assert code == 2 and "syntax-error" in err
