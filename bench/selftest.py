"""Self-tests of the benchmark.  Run from the repository root:

    python3 bench/selftest.py

1. One seed always yields the same op list (and hash); another seed differs.
2. A planted wrong answer is counted as a failed op, in each workload.
3. The counts of two traced runs of each workload repeat exactly.

Exits 0 when every test passes.  Takes about five minutes on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)
sys.path.insert(0, SRC)

import ops  # noqa: E402
import worker  # noqa: E402

WORKLOADS = ("certify", "conjugate", "cli")


def test_op_lists_repeat():
    for w in WORKLOADS:
        a, b, c = ops.op_list(w, 5), ops.op_list(w, 5), ops.op_list(w, 6)
        assert a == b and ops.op_hash(*a) == ops.op_hash(*b), w
        assert ops.op_hash(*a) != ops.op_hash(*c), w


def _plant(run, corrupt):
    """Wrap a client's run so that op 0's output is corrupted."""
    calls = {"n": 0}

    def planted(op, inputs):
        out = run(op, inputs)
        calls["n"] += 1
        return corrupt(out) if calls["n"] == 1 else out

    return planted


def test_planted_wrong_answers():
    from danielewski import membership

    def bad_certificate(expr):  # a weight changed by one
        if isinstance(expr, membership.Sum):
            (w, t), rest = expr.terms[0], expr.terms[1:]
            return membership.Sum(((w + 1, t),) + rest)
        return membership.Sum(((2, expr),))

    plants = {
        "certify": bad_certificate,
        "conjugate": lambda out: out[:3] + (-out[3],),  # wrong volume factor
        "cli": lambda out: (3, out[1], ""),  # wrong exit code
    }
    for w in WORKLOADS:
        work = tempfile.mkdtemp(dir=ROOT, prefix=".bench_selftest_")
        try:
            cfg = {"workload": w, "seed": 3, "seconds": 0, "mode": "fixed", "blocks": 1,
                   "src": SRC, "workdir": work, "t_spawn": time.monotonic()}
            orig = worker.WORKLOADS[w]

            class Planted(orig):
                def __init__(self, c):
                    super().__init__(c)
                    self.run = _plant(super().run, plants[w])

            worker.WORKLOADS[w] = Planted
            try:
                res = worker.main(cfg)
            finally:
                worker.WORKLOADS[w] = orig
        finally:
            shutil.rmtree(work, ignore_errors=True)
        planted = [f for f in res["fails"] if f["op"] == 0]
        assert planted and planted[0]["why"] != worker.KNOWN_DEFECT, (w, res["fails"])


def _traced(w: str, seed: int) -> dict:
    r = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", w, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600)
    lines = r.stdout.strip().splitlines()
    return {"meta": json.loads(lines[-2])["meta"], **json.loads(lines[-1])}


def test_traced_counts_repeat():
    for w in WORKLOADS:
        a, b = _traced(w, 4), _traced(w, 4)
        counts = [k for k, v in a["metrics"].items() if v["unit"] == "count"]
        assert counts, w
        for k in counts:
            assert a["metrics"][k]["value"] == b["metrics"][k]["value"], (w, k)
        assert a["meta"]["output_size_mean"] == b["meta"]["output_size_mean"], w
        assert a["meta"]["op_hash"] == b["meta"]["op_hash"], w
        print(f"  {w}: {len(counts)} counts repeat; tracing overhead "
              f"{a['metrics']['trace.overhead_s']['value']:.1f} s over "
              f"{a['metrics']['trace.untraced_s']['value']:.1f} s untraced")


if __name__ == "__main__":
    if not os.path.isdir(os.path.join(SRC, "danielewski")):
        sys.exit("run from the repository root")
    for test in (test_op_lists_repeat, test_planted_wrong_answers, test_traced_counts_repeat):
        print(test.__name__)
        test()
    print("all benchmark self-tests passed")
