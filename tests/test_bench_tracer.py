"""The benchmark's tracer wraps library functions and methods by name.

`bench/tracer.py` looks up names such as `ring.to_chart`,
`membership.solve_linear` and `SpanningFamily.__init__`; a library rename
would make `install` fail and with it every traced benchmark run and
`bench/selftest.py`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_tracer_installs_on_the_library():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    env = {**os.environ, "PYTHONPATH": path}
    code = "import danielewski, tracer; tracer.install(tracer.Tracer())"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_traced_cli_wraps_functions_imported_on_first_use(tmp_path):
    """`danielewski.cli` imports the library modules inside its handlers;
    the traced entry point must still see their calls as spans."""
    out = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "BENCH_TRACE_OUT": str(out)}
    argv = ["certify", "--shears-only", "x^2*z", "--surface", "z^3 - z"]
    run = subprocess.run([sys.executable, str(ROOT / "bench" / "cli_entry.py"), *argv],
                         env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    dump = json.loads(out.read_text())
    recorded = {span[1] for span in dump["spans"]}
    for name in ("membership.certify", "membership.family", "parsing.parse", "cli.main"):
        assert name in recorded and dump["aggregates"][name]["calls"] > 0, name
