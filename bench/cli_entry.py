"""Traced stand-in for `python -m danielewski.cli`: same argv, same exit code.

Times the import of danielewski.cli, installs the layer wrappers, runs
cli.main and writes the spans to $BENCH_TRACE_OUT.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tracing  # noqa: E402

t0 = time.perf_counter()
import danielewski.cli  # noqa: E402

import_s = time.perf_counter() - t0
tr = tracing.Tracer()
tracing.install(tr)
tr.op_id = 0
tr.enabled = True
code = danielewski.cli.main(sys.argv[1:])
tr.enabled = False
tr.counts["cli.import_s"] = import_s
tr.dump(os.environ["BENCH_TRACE_OUT"])
sys.exit(code)
