"""The package namespace, the modules a command-line process loads, and the
library's exact arithmetic (no float in its code).

`danielewski/__init__.py` resolves its public names on first use, and
`danielewski.cli` imports each library module inside the handler that
calls it, so a cold process compiles only what its subcommand runs.  The
standard library is held to the same rule: only a process that writes or
reads a JSON document loads `json`, and no process loads `typing`.
"""

import ast
import copy
import importlib
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import danielewski
from danielewski.cli import main

ROOT = Path(__file__).parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

BASE = {"errors", "ring", "parsing", "cli"}
CERTIFY = BASE | {"records", "fields", "membership"}

# subcommand argv -> (the danielewski submodules it may load, whether it loads json)
IMPORT_SURFACE = {
    "reduce": (["reduce", "x*y + z"], BASE, False),
    "reduce --format json": (["reduce", "x*y + z", "--format", "json"], BASE, True),
    "mul": (["mul", "x + z", "y"], BASE, False),
    "potential": (["potential", "SFx(1)"], BASE | {"records", "fields"}, False),
    "decide": (["decide", "1/2*z^2"], CERTIFY, False),
    "volume-factor": (["volume-factor", "H(2);I"],
                      BASE | {"records", "fields", "automorphisms"}, False),
    "certify": (["certify", "x", "--shears-only"], CERTIFY, True),
    "verify-cert": (["verify-cert", "cert.json"], CERTIFY, True),
    "z2-certify": (["z2-certify", "x"], CERTIFY | {"z2"}, True),
}

# sys.modules is read before the report's own json is imported.  -S: no site
# hook runs, so a module that a .pth file preloads (some environments load
# typing that way) cannot hide one that the package imports.
_PROBE = """
import sys
import danielewski.cli
code = danielewski.cli.main(sys.argv[1:])
modules = sorted(sys.modules)
import json
print(json.dumps({"code": code, "modules": modules}))
"""


@pytest.mark.parametrize("name", IMPORT_SURFACE)
def test_a_subcommand_loads_only_what_it_runs(name, tmp_path):
    argv, expected, loads_json = IMPORT_SURFACE[name]
    # z^2 - 1 is the one surface that z2-certify accepts
    surface = ["--surface", "z^2 - 1"]
    if "cert.json" in argv:
        assert main(["certify", "x", *surface, "--output", str(tmp_path / "cert.json")]) == 0
    run = subprocess.run([sys.executable, "-S", "-c", _PROBE, *argv, *surface],
                         env=ENV, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["code"] == 0
    loaded = {m.split(".", 1)[1] for m in report["modules"] if m.startswith("danielewski.")}
    assert loaded == expected
    assert ("json" in report["modules"]) is loads_json
    assert "typing" not in report["modules"]
    assert "dataclasses" not in report["modules"]


def test_every_public_name_is_its_modules_object():
    names = [n for n in danielewski.__all__ if n != "__version__"]
    assert len(names) == len(set(names)) >= 71
    for name in names:
        module = importlib.import_module(f"danielewski.{danielewski._EXPORTS[name]}")
        assert getattr(danielewski, name) is getattr(module, name), name
    assert set(names) <= set(dir(danielewski))
    with pytest.raises(AttributeError):
        danielewski.no_such_name  # noqa: B018


def test_readme_python_example_runs():
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    run = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "3*z^2\n"


def test_value_classes_are_frozen_records():
    from danielewski.automorphisms import Hyperbolic, Involution, Symmetry, XShear
    from danielewski.errors import InvalidGenerator, MalformedNesting
    from danielewski.fields import LndVerdict
    from danielewski.membership import Bracket, Leaf, Sum
    from danielewski.ring import UniPoly

    one = UniPoly({0: 1})
    shear = Bracket(left=Leaf("SFx", 1), right=Leaf(kind="SFy", i=0))
    assert shear == Bracket(Leaf("SFx", 1), Leaf("SFy")) != Bracket(Leaf("SFx", 1), Leaf("SFy", 1))
    assert hash(shear) == hash(Bracket(Leaf("SFx", 1), Leaf("SFy")))
    assert Sum(terms=((1, shear),)).terms == ((1, shear),) and Sum(((1, shear),)) != shear
    assert repr(Leaf("SFx", 1)) == "Leaf(kind='SFx', i=1, poly=None)"
    assert repr(LndVerdict(nilpotent=True, degree=2, bound=64)) == \
        "LndVerdict(nilpotent=True, degree=2, bound=64)"
    assert Symmetry(1, b=0) == Symmetry(c=1, b=0) != XShear(one)
    assert Involution() == Involution() and hash(Involution()) == hash(Involution())
    with pytest.raises(InvalidGenerator):
        Hyperbolic(lam=0)
    with pytest.raises(MalformedNesting):
        Leaf("SFx", i=-1)
    with pytest.raises(TypeError):
        Bracket(shear)
    with pytest.raises(TypeError):
        Bracket(shear, left=shear)
    with pytest.raises(TypeError):
        Bracket(shear, shear, shear)
    with pytest.raises(TypeError):
        Sum(term=())
    with pytest.raises(AttributeError):
        shear.left = shear
    with pytest.raises(AttributeError):
        del shear.left

    match shear:
        case Bracket(Leaf("SFx", i), right):
            assert (i, right) == (1, Leaf("SFy"))
        case _:
            pytest.fail("class pattern did not bind the fields")
    for value in (shear, LndVerdict(False, None, 64), Symmetry(-1, 0), Involution()):
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.deepcopy(value) == value


def test_no_module_loads_dataclasses():
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys, danielewski.z2, danielewski.cli; print('dataclasses' in sys.modules)"],
        env=ENV, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


def test_the_library_has_no_float():
    """Arithmetic is exact: no module of the library holds a float constant or
    calls ``float``.  Comments and docstrings are not code, so timings quoted
    in them do not count."""
    found = []
    for path in sorted((ROOT / "src" / "danielewski").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "float"):
                found.append(f"{path.name}:{node.lineno}: float(...)")
    assert not found, found
