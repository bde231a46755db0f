"""The benchmark's tracer wraps library functions and methods by name.

`bench/tracer.py` looks up names such as `ring.to_chart`,
`membership.solve_linear` and `SpanningFamily.__init__`; a library rename
would make `install` fail and with it every traced benchmark run and
`bench/selftest.py`.
"""

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
