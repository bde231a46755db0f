"""End-to-end CLI checks: output, formats, exit codes."""

import hashlib
import json
import os
import re
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from danielewski import errors, make_surface, parsing
from danielewski.automorphisms import apply_auto
from danielewski.cli import COMMANDS, main
from danielewski.fields import MAX_LND_ITER, apply_field, canonical_potential, potential_of
from danielewski.membership import MAX_CERTIFY_DEGREE, evaluate, expression_size
from danielewski.parsing import (
    MAX_CERT_DEPTH,
    MAX_EXPONENT,
    MAX_PAREN_DEPTH,
    MAX_PARSED_TERMS,
    cert_from_obj,
    load_certificate_file,
    parse_expression,
    parse_field,
    parse_unipoly,
    parse_word,
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


def test_a_certificate_of_unreduced_cofactors_still_verifies(capsys):
    """x on z^3 - z as certify wrote it while x_part descended through the
    Bezout identity with the coefficient of p' unreduced: 306 tree nodes,
    where certify now writes 19."""
    old = Path(__file__).parent / "certificates" / "x_on_cubic_unreduced_cofactors.json"
    assert expression_size(load_certificate_file(old.read_text())[2]) == 306
    code, out, _ = run(capsys, "verify-cert", str(old), "--surface", "z^3 - z")
    assert code == 0 and out == "true"
    code, out, _ = run(capsys, "certify", "x", "--surface", "z^3 - z", "--shears-only")
    assert code == 0 and expression_size(cert_from_obj(json.loads(out)["certificate"])) == 19


def test_a_certificate_on_a_sextic_is_written_and_verifies(capsys, tmp_path):
    """x on z^6 - z + 1 at its default bound: 110 tree nodes, far below
    MAX_CERT_NODES."""
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, "certify", "x", "--surface", "z^6 - z + 1", "--shears-only",
                     "--output", str(cert))
    assert code == 0
    expr = load_certificate_file(cert.read_text())[2]
    assert expression_size(expr) == 110
    assert holds_by_fields(expr, "x", "z^6 - z + 1")
    code, out, _ = run(capsys, "verify-cert", str(cert), "--surface", "z^6 - z + 1")
    assert code == 0 and out == "true"


def holds_by_fields(expr, target, surface) -> bool:
    """Whether the field-level oracle gives the certificate the potential of
    ``target``."""
    s = make_surface(parse_unipoly(surface))
    f = parse_expression(s, target)
    return canonical_potential(potential_of(evaluate(s, expr))) == canonical_potential(f)


# Targets whose computed default bound is over MAX_CERTIFY_DEGREE: 4 deg p =
# 36 on z^9 - z + 1, and deg + 2 deg p = 35 for a pure-z potential of degree
# 29 on z^3 - z.  The default is then the ceiling, where both certify:
# (target, surface, tree nodes).
DEFAULT_BOUND_AT_THE_CEILING = {
    "x on z^9 - z + 1": ("x", "z^9 - z + 1", 447),
    "pure-z of degree 29 on z^3 - z": ("30*z^29 - 28*z^27", "z^3 - z", 95),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("target, surface, nodes", DEFAULT_BOUND_AT_THE_CEILING.values(),
                         ids=DEFAULT_BOUND_AT_THE_CEILING.keys())
def test_the_default_bound_stops_at_the_ceiling(capsys, target, surface, nodes, fmt):
    code, out, err = run(capsys, "certify", target, "--shears-only", "--surface", surface,
                         "--format", fmt)
    assert (code, err) == (0, "")
    expr = cert_from_obj(json.loads(out)["certificate"])
    assert expression_size(expr) == nodes and holds_by_fields(expr, target, surface)


@pytest.fixture
def node_ceiling(monkeypatch):
    """parsing.MAX_CERT_NODES lowered below the 19 tree nodes of x on z^3 - z:
    no certificate tried within MAX_CERTIFY_DEGREE comes near 10^6 nodes (x on
    z^9 - z + 1 at bound 32 has 447), so the ceiling is tested in-process."""
    monkeypatch.setattr(parsing, "MAX_CERT_NODES", 18)


def test_certificate_over_the_node_ceiling_writes_no_file(capsys, tmp_path, node_ceiling):
    cert = tmp_path / "cert.json"
    code, out, err = run(capsys, "certify", "x", "--surface", "z^3 - z", "--shears-only",
                         "--output", str(cert))
    assert code == 2 and out == "" and "MAX_CERT_NODES" in err
    assert not cert.exists()


def test_certificate_file_is_the_stdout_form(capsys, tmp_path):
    """--output streams the file; its bytes are those certify prints."""
    argv = ["certify", "x*z^2 + y^2", "--surface", "z^3 - z", "--shears-only"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    cert = tmp_path / "cert.json"
    assert main(argv + ["--output", str(cert)]) == 0
    assert cert.read_bytes() == printed.encode()
    assert '"bracket"' in printed and "\n  " in printed


@pytest.mark.parametrize("argv", [
    ["certify", "x*z^2 + y^2", "--surface", "z^3 - z"],
    ["certify", "x*z^2 + y^2", "--surface", "z^3 - z", "--shears-only"],
    ["z2-certify", "x", "--surface", "z^2 - 1"],
], ids=["certify", "shears-only", "z2-certify"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_certificates_are_streamed(capsys, monkeypatch, argv, fmt):
    """A certificate is printed by the encoder's chunks, in both formats,
    never as one string from json.dumps."""
    def whole_string(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", whole_string)
    assert main(argv + ["--format", fmt]) == 0
    printed = capsys.readouterr().out
    monkeypatch.undo()
    obj = json.loads(printed)
    assert set(obj) == {"p", "claimed", "certificate"}
    assert printed == json.dumps(obj, sort_keys=True, indent=2) + "\n"


@contextmanager
def cpu_time_cap(seconds: float):
    """Raise TimeoutError in the block once this process has spent
    ``seconds`` more of CPU time."""
    def expire(signum, frame):
        raise TimeoutError(f"over {seconds} s of CPU time")

    previous = signal.signal(signal.SIGPROF, expire)
    signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


@pytest.mark.parametrize("argv, out, exit_code", [
    # one quotient term: the division visits the exponents present
    (["mul", "y*((z^1000)^1000)^1000", "y"], "y^2*z^1000000000", 0),
    # rem(z^1000001/1000001, p) by Horner's scheme, with no quotient formed
    (["decide", "(z^1000)^1000"], "accepted, remainder 1/1000001*z", 0),
], ids=["mul", "decide"])
def test_sparse_high_degree_stays_cheap(capsys, argv, out, exit_code):
    with cpu_time_cap(5):
        code, text, _ = run(capsys, *argv, "--surface", "z^3 - z")
    assert (code, text) == (exit_code, out)


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


# compose and volume-factor read the word alone: on z^3 - z the images of
# these words take over 20 s to build, and each answer takes milliseconds.
WORDS_WITHOUT_IMAGES = {
    "compose": (["compose", "Dx(x^1000)", "Dy(y^1000)"], "Dy(y^1000);Dx(x^1000)"),
    "volume-factor": (["volume-factor", "Dx(x);Dy(y);Dx(x);Dy(y)"], "1"),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, text", WORDS_WITHOUT_IMAGES.values(),
                         ids=WORDS_WITHOUT_IMAGES.keys())
def test_word_commands_build_no_images(capsys, argv, text, fmt):
    with cpu_time_cap(5):
        code, out, err = run(capsys, *argv, "--surface", "z^3 - z", "--format", fmt)
    assert (code, err) == (0, "")
    assert out == (json.dumps({"result": text}) if fmt == "json" else text)


def test_conjugate(capsys):
    code, out, _ = run(capsys, "conjugate", "Dx(1)", "SFy(0)",
                       "--surface", "z^2-1")
    assert code == 0 and out == "[2*x + 2*z; -2*y - 2*z; -x + y]"


# (surface, word, field, sha256 of stdout under --format text, and json): the
# words of every stratum of bench/ops.py's CONJUGATE_STRATA (constant shears
# with H and I on SF0 and SF1, a linear shear, one shear on z^3 - z), words
# with Sym, H(-1/2) and I, HF fields, the identity, and a tangent field with
# no potential.  A change in how a conjugate is computed or printed shows here.
PINNED_CONJUGATES = [
    ("z^2 - 1", "Dx(1)", "SFx(0)",
     "1f28c0ca0cfe3d0f50a046f474c6c63fd538e3e1ec0039fffa44d50fb5347ebf",
     "1ab3a1d859cebcb8c233ad9e3d211ed3997a79aedba1b6bd8bafcf8a84f9f24c"),
    ("z^2 - 1", "Dx(1);H(2);Dy(2)", "SFy(0)",
     "2d76058853a1dc9ce50af64776daee1cb956038b952d058ca42a332f7b134abc",
     "d27368af50e45f2eb26747d4c84bfba6a4f06bc5659c671e030af6bb359e547c"),
    ("z^2 - 1", "Dy(1);Dx(2);Dy(-1);I", "SFx(0)",
     "f048c6f71a5770ebe7556dc26f528c3b1daa4d111e0d001e78fdfc794ffc9ea3",
     "6afbd42edba26bc87d1fb07ed180a7c6db5fa2575482a2f742e11c5c2ca8ebf9"),
    ("z^2 - 1", "Dx(1)", "SFy(1)",
     "1bfb0bfb5b987e80aed69a455f9502104f716214aade4e3d747cd099d678e0cf",
     "c4b0f3e0cd7fdfa5d55dadb6b798b3a998f171bbd38600bd7831800818a27dcd"),
    ("z^2 - 1", "Dy(1);Dx(2);H(2);Dy(-1);Dx(-2);I", "SFy(1)",
     "3ebc71949cfe0188a360ed7550d57db4b51c6fe671e0935824816cf575d229e3",
     "701ef91194457bb1b2a0705f06608521bc51058af094b22f1cfef5ef6ab21e10"),
    ("z^2 - 1", "Dx(-1 + 2*x);Dy(2)", "SFy(0)",
     "8dfa940c6a273d82ec6f2663299a7ffd84ddc1fbc435fba2ca88e85791cc0b70",
     "1cc075b298f797184d7240a76cc0fde210cf987669a2bebbbb2cdf7c22407ac5"),
    ("z^2 - 1", "Dy(-1 + 2*y);Dx(2);I", "SFy(0)",
     "237ff6ec5489beb8a53cb93bab1236d1e49724954f73c7b0b35f72c78bdf0c7b",
     "c7b4d5d6d5a32752c65f8d86481d741e7e8f9c1158afc8353ddb6eac654ce4f2"),
    ("z^3 - z", "Dx(-1 + 2*x)", "SFx(0)",
     "6a83dc752c8cda7bd130ec20020e2e0b90cd9bd27df93d5e6b667cbe8475f481",
     "bd4049454d0ca58073a03341ef6e5ba2021b4342f2e329a29d1d6f9b841d0a05"),
    ("z^3 - z", "Dx(2)", "SFy(0)",
     "c9cb7173f8f25e8e2d4831ac69c8c85512086e1089251d0dd4d5d1cfbeea76ab",
     "b685541e26d2c077b304d4a4adcf94c4d975c43571e3e6200d8536d2c06f0e5e"),
    ("z^2 - 1", "Sym(-1, 0);Dx(1)", "SFx(1)",
     "5e22fcf49e64d15d494dd1ada844f57133ba9d0c3b8cb6a29bbbfa3958ac2c0d",
     "334dae5dc1a5cea80ab464a9cb23f5a0947bf4aed45143dcb374514a4f8ba808"),
    ("z^3 - z", "Sym(-1, 0);Dy(y)", "HF(z)",
     "bdf3b4417cd79253f2f5743b616d737e7079535082d9005c244fea10851e6d9e",
     "4783d1eb2f7fc6c4efd49c435a23949d2d33b69b04d6627e874243f673eda1b7"),
    ("z^2 - 1", "Dx(1);I", "HF(1 + z)",
     "3c072f25fd24c672317dd3c7dc19e6a8710190c65a7ac6a916dc9fcdbd45047e",
     "9dc951c3510fc0b4e5b3e2eec032099f9e138d8d0ea87e28fa154206b4f9ea4c"),
    ("z^3 - z", "H(-1/2);Dy(1)", "SFx(1)",
     "b2c05d293befeffca89243640cfd85eea1b704d920fa52828c5e6c231aa81a31",
     "d1b15d68fa5cc01d92ab7bb74a72b0e66ef10a71f9a4bdfc5b8b56c2d906143b"),
    ("z^2 - 1", "Dx(1)", "[x^2; 1 - z^2; 0]",
     "062d4148724fb265984f3981dd3f3800a858eca2a927026b4bedfae48882ebf1",
     "820761343e2e922bac4943f9f06529fceecc2d612a68b97da9ff9812f22e8010"),
    ("z^2 - 1", "I", "[x^2; 1 - z^2; 0]",
     "ba569441339cffa92613f69d6833d2049920a78293c5a59107887a81a46a2268",
     "03c11e51874ae048e949851cd1407154b6fd5e706eedcfc1a79ca857d491b0a7"),
    ("z^3 - z", "id", "SFy(2)",
     "21ff603b1536ad5d0dc9254ab539e74b97bdb46de6f4ee335585c14dbd75c08f",
     "1ee998c24d8eaac3398240fd10d0e0eb266e0c8136ca000f4c97487b4ae79539"),
    # x*H_{z^2} and x*H_z, with no potential: by the images of the inverse
    # word they took 39 s and more than 120 s
    ("z^3 - z", "Dy(-1 + 2*y);Dx(1)", "[2*x^2*z; 2*z^2 - 2*z^4; 0]",
     "d0bf6ecb607c2be055b73f2fb3f54b6de2384d0ad3d218b780f9b1bcbee859e1",
     "a665900dbf63832806f839d3cfc61269f1d6e477bdbbf646c7c0d3131dbe5ee0"),
    ("z^4 - z", "Dx(1);Dy(1);Dx(1)", "[x^2; z - z^4; 0]",
     "8c6b0b254bd98eefcd93dc76bacf87634805c427ad3668d9f6ebd1c4e90433cc",
     "df43383d39ed2979eb7a1f736259a378e24a832fcddfe1fae7879941a2deda59"),
]


@pytest.mark.parametrize("surface, word, field, text_digest, json_digest", PINNED_CONJUGATES,
                         ids=[f"{s}: {w} on {f}" for s, w, f, _, _ in PINNED_CONJUGATES])
def test_conjugate_output_is_pinned(capsys, surface, word, field, text_digest, json_digest):
    for fmt, digest in (("text", text_digest), ("json", json_digest)):
        code = main(["conjugate", word, field, "--surface", surface, "--format", fmt])
        out = capsys.readouterr().out
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_pinned_conjugates_without_potential_push_every_function(capsys):
    """The printed field Psi of each of the last two PINNED_CONJUGATES rows
    is checked with no inverse word: Psi(g o phi) = Theta(g) o phi for
    g = x, y, z, and then for every function, since x, y, z generate."""
    for surface, word, field, text_digest, _ in PINNED_CONJUGATES[-2:]:
        assert main(["conjugate", word, field, "--surface", surface]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == text_digest
        s = make_surface(parse_unipoly(surface))
        phi, theta, psi = parse_word(s, word), parse_field(s, field), parse_field(s, out)
        for g in (s.x(), s.y(), s.z()):
            assert apply_field(psi, apply_auto(phi, g)) == apply_auto(phi, apply_field(theta, g))


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


def test_z2_check_names_rows_as_every_command_prints(capsys):
    """Each row is named by the canonical printer, and the name parses back
    to its target: z^i, then x^j*z^i and y^j*z^i, by odd total degree."""
    code, out, _ = run(capsys, "z2-check", "--max-degree", "3", "--surface", "z^2 - 1")
    names = "z x y z^3 x*z^2 y*z^2 x^2*z y^2*z x^3 y^3".split()
    sizes = [1, 2, 1, 2, 8, 8, 4, 4, 2, 2]
    assert code == 0 and out == "\n".join(
        f"{n}\tsize {k}\tok" for n, k in zip(names, sizes))
    s = make_surface(parse_unipoly("z^2 - 1"))
    targets = [s.z(), s.x(), s.y(), s.x(0, 3), s.x(1, 2), s.y(1, 2), s.x(2, 1), s.y(2, 1),
               s.x(3), s.y(3)]
    assert [parsing.parse_expression(s, n) for n in names] == targets


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
    "certificate node of no known kind": (
        ["verify-cert", "{tmp}/unknown-node.json"], "syntax-error"),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, error", FILE_CASES.values(), ids=FILE_CASES.keys())
def test_unusable_file_is_a_structured_error(capsys, tmp_path, argv, error, fmt):
    (tmp_path / "latin1.json").write_bytes(
        b'{"p": "z^3 - z", "claimed": "x", "certificate": {"leaf": {"kind": "\xe9"}}}')
    (tmp_path / "unknown-node.json").write_text(json.dumps(_cert_file({"foo": 1})))
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out, err = run(capsys, *argv, "--surface", "z^3-z", "--format", fmt)
    assert code == 2
    if fmt == "json":
        assert json.loads(out)["error"] == error and err == ""
    else:
        assert out == "" and err.startswith(f"error [{error}]: ")


# Verdicts in both formats: (argv after the subcommand, with {tmp} for a
# directory that holds a certificate of x on z^3 - z, surface, exit code,
# text output).  The JSON output is {"result": <whether the text is "true">}.
VERDICTS = {
    "volume-preserving": (["is-volume-preserving", "SFy(2)"], "z^3 - z", 0, "true"),
    "not volume-preserving": (
        ["is-volume-preserving", "[0; z*(3*z^2 - 1); z*x]"], "z^3 - z", 1, "false"),
    "certificate of another surface": (
        ["verify-cert", "{tmp}/cubic.json"], "z^2 - 1", 1, "false (different surface)"),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, surface, exit_code, text", VERDICTS.values(),
                         ids=VERDICTS.keys())
def test_verdicts_in_both_formats(capsys, tmp_path, argv, surface, exit_code, text, fmt):
    assert main(["certify", "x", "--surface", "z^3 - z", "--shears-only",
                 "--output", str(tmp_path / "cubic.json")]) == 0
    capsys.readouterr()
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out, err = run(capsys, *argv, "--surface", surface, "--format", fmt)
    assert (code, err) == (exit_code, "")
    if fmt == "json":
        assert json.loads(out) == {"result": text == "true"}
    else:
        assert out == text


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_exhausted_search_names_its_bound(capsys, fmt):
    """(p*z)' on z^5 - z is a pure-z potential of degree 5; at bound 12 the
    spanning family holds 8 of its 9 entries and cannot combine it."""
    code, out, err = run(capsys, "certify", "--shears-only", "6*z^5 - 2*z", "--surface",
                         "z^5 - z", "--max-degree", "12", "--format", fmt)
    if fmt == "json":
        obj = json.loads(out)
        assert (code, err, obj["error"]) == (1, "", "search-exhausted")
        message = obj["message"]
    else:
        assert (code, out) == (1, "") and err.startswith("error [search-exhausted]: ")
        message = err
    assert "bound 12" in message and "retry with a larger bound" in message


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_full_family_certifies_at_a_low_bound(capsys, tmp_path, fmt):
    """(p*z)' on z^5 - z + 1 at bound 12, where the spanning family holds all
    9 of its entries: certified, and the printed certificate verifies."""
    code, out, err = run(capsys, "certify", "--shears-only", "6*z^5 - 2*z + 1", "--surface",
                         "z^5 - z + 1", "--max-degree", "12", "--format", fmt)
    assert (code, err) == (0, "")
    cert = tmp_path / "cert.json"
    cert.write_text(out)
    code, out, _ = run(capsys, "verify-cert", str(cert), "--surface", "z^5 - z + 1")
    assert code == 0 and out == "true"


# Error paths in both formats: (argv after the subcommand, surface, exit
# code, error code, phrases of the message).
NOT_A_SYMMETRY = "z -> 1*z + 5 is not a symmetry of p (p(c z + b) != +-p(z))"

ERROR_PATHS = {
    "symmetry of slope 2": (
        ["compose", "Sym(2, 0)", "id"], "z^2 - 1", 2, "invalid-generator", ["slope"]),
    "point of two coordinates": (
        ["flex-check", "1,0"], "z^2 - 1", 2, "syntax-error", ["three rationals"]),
    "unclosed field triple": (
        ["potential", "[x; y; z"], "z^2 - 1", 2, "syntax-error", ["expected ']'"]),
    "unknown field literal": (
        ["potential", "Q(1)"], "z^2 - 1", 2, "syntax-error", ["not a field literal"]),
    "symmetry of one argument": (
        ["compose", "Sym(1)", "id"], "z^2 - 1", 2, "syntax-error", ["two arguments"]),
    "x-part over the bound": (
        ["certify", "x^3*z^5", "--shears-only", "--max-degree", "3"], "z^3 - z", 1,
        "search-exhausted",
        ["x-part of x-degree 3", "z-degree 5", "bound 3", "retry with a larger bound"]),
    # at the ceiling both searches say that no larger bound can be tried:
    # (p*z)' on z^9 - z + 1, and an x-part of z-degree above the bound
    "pure-z search at the ceiling": (
        ["certify", "10*z^9 - 2*z + 1", "--shears-only", "--max-degree", "32"], "z^9 - z + 1",
        1, "search-exhausted",
        ["pure-z potential of degree 9", "bound 32",
         "that is the ceiling MAX_CERTIFY_DEGREE, so no larger bound can be tried"]),
    "x-part search at the ceiling": (
        ["certify", "x^3*z^40", "--shears-only", "--max-degree", "32"], "z^3 - z", 1,
        "search-exhausted",
        ["x-part of x-degree 3", "z-degree 40", "bound 32",
         "that is the ceiling MAX_CERTIFY_DEGREE, so no larger bound can be tried"]),
    # a syntax error inside a literal is placed from the start of the argument
    "shear index": (
        ["potential", "SFx(a)"], "z^2 - 1", 2, "syntax-error", ["(at position 4)"]),
    "shear in a word": (
        ["conjugate", "Dx(x+);I", "SFx(0)"], "z^2 - 1", 2, "syntax-error",
        ["(at position 5)"]),
    "component of a field triple": (
        ["potential", "[x; y; z+]"], "z^2 - 1", 2, "syntax-error", ["(at position 9)"]),
    "expansion in a field triple": (
        ["potential", "[x; y; (1+x+y+z)^80]"], "z^2 - 1", 2, "degree-gate",
        ["MAX_PARSED_TERMS", "(at position 19)"]),
    # every Sym is checked when the word is built, also one that no rewrite
    # moves: alone, or last
    "lone non-symmetry in compose": (
        ["compose", "Sym(1,5)", "id"], "z^3 - z", 2, "invalid-generator", [NOT_A_SYMMETRY]),
    "trailing non-symmetry in compose": (
        ["compose", "Dx(x);Sym(1,5)", "id"], "z^3 - z", 2, "invalid-generator",
        [NOT_A_SYMMETRY]),
    "lone non-symmetry in volume-factor": (
        ["volume-factor", "Sym(1,5)"], "z^3 - z", 2, "invalid-generator", [NOT_A_SYMMETRY]),
    "trailing non-symmetry in volume-factor": (
        ["volume-factor", "Dx(x);Sym(1,5)"], "z^3 - z", 2, "invalid-generator",
        [NOT_A_SYMMETRY]),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, surface, exit_code, error, phrases", ERROR_PATHS.values(),
                         ids=ERROR_PATHS.keys())
def test_error_paths_in_both_formats(capsys, argv, surface, exit_code, error, phrases, fmt):
    code, out, err = run(capsys, *argv, "--surface", surface, "--format", fmt)
    if fmt == "json":
        obj = json.loads(out)
        assert (code, err, obj["error"]) == (exit_code, "", error)
        message = obj["message"]
    else:
        assert (code, out) == (exit_code, "") and err.startswith(f"error [{error}]: ")
        message = err
    assert all(phrase in message for phrase in phrases)


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
    # over the node ceiling as the node_ceiling fixture lowers it
    "certificate tree nodes": (
        ["certify", "x", "--shears-only"], "z^3 - z", "degree-gate", "MAX_CERT_NODES"),
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
def test_numeric_input_outside_its_range(capsys, node_ceiling, argv, surface, error, ceiling):
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


@pytest.mark.parametrize("argv, error", [
    (["--max-degree", "q", "--surface", "z^2"], "syntax-error"),
    (["--surface", "z^2", "--max-degree", "q"], "repeated-root"),
])
def test_bad_options_are_reported_in_argv_order(capsys, argv, error):
    code, out, _ = run(capsys, "certify", "x", *argv, "--format", "json")
    assert code == 2 and json.loads(out)["error"] == error


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
