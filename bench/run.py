"""The benchmark: one command, three seeded closed-loop workloads.

    python3 bench/run.py --workload certify|conjugate|cli --seed N \
        --seconds S --trace 0|1

Run from the repository root.  With --trace 0 it prints the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced run of a fixed
op count (and the tracing overhead against an untraced run of the same
ops).  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the run metadata.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import tracer as tracing  # noqa: E402
from worker import KNOWN_DEFECT  # noqa: E402

SETUP_SAMPLES = 3  # set-up is timed in this many fresh processes; the median is reported
# worker.calibration()'s typical CPU time on a shared 2-vCPU virtual machine
# under Python 3.11; op times are reported at this "reference speed"
CAL_REF_S = 0.003
TRACED_BLOCKS = {"certify": 6, "conjugate": 6, "cli": 3}
CHILD_TIMEOUT_S = 170


def _loadavg() -> list:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return []


def _source_hash(src: str) -> str:
    h = hashlib.sha256()
    for root, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def _spawn(cfg: dict, work: str, tag: str) -> dict:
    cfg = dict(cfg, out=os.path.join(work, f"{tag}.json"), workdir=os.path.join(work, tag))
    os.makedirs(cfg["workdir"])
    env = dict(os.environ, PYTHONPATH=cfg["src"], PYTHONHASHSEED="0")
    cfg["t_spawn"] = time.monotonic()
    subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), json.dumps(cfg)],
                   env=env, check=True, timeout=CHILD_TIMEOUT_S)
    with open(cfg["out"]) as fh:
        return json.load(fh)


def _quantile(values: list, q: int) -> float:
    """The q-th percentile (inclusive method), q in 1..99."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _normalized(cpu: list, cal: list) -> list:
    """Op CPU times at reference speed: each op's time divided by the speed
    factor around it, the median calibration time of the five ops centred on
    it over CAL_REF_S.  (Against per-block or per-run factors, this window
    gave the smallest spread over repeated runs.)"""
    return [c * CAL_REF_S / statistics.median(cal[max(0, i - 2):i + 3])
            for i, c in enumerate(cpu)]


def _end_to_end(main: dict, setups: list) -> dict:
    """Times are CPU seconds (client plus waited-for children) at reference
    speed; see the README.  Raw CPU and wall times go to the metadata."""
    lat = _normalized(main["cpu"], main["cal"])
    sizes = main["sizes"]
    return {
        "ops_per_s": (main["ops"] / sum(lat), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
        "latency_p90_ms": (1000 * _quantile(lat, 90), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (main["peak_rss_kb"] / 1024, "MB"),
        "output_size_mean": (statistics.fmean(sizes) if sizes else 0.0, "count"),
    }


def _per_layer(cfg: dict, traced: dict, untraced: dict) -> dict:
    agg, counts = {}, {}
    tracing.merge(agg, counts, traced.get("agg", {}), traced.get("counts", {}))
    import_s, interp = [], []
    for path in traced.get("cli_traces", []):
        with open(path) as fh:
            t = json.load(fh)
        import_s.append(t["counts"].pop("cli.import_s"))
        tracing.merge(agg, counts, {k: [v["calls"], v["total_s"], v["self_s"]]
                                    for k, v in t["aggregates"].items()}, t["counts"])
    if cfg["workload"] == "cli":
        for _ in range(5):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
            interp.append(time.perf_counter() - t0)
    metrics = tracing.layer_metrics(agg, counts)
    metrics["cli.interpreter_s"] = (statistics.median(interp) if interp else 0.0, "s")
    metrics["cli.import_s"] = (statistics.median(import_s) if import_s else 0.0, "s")
    metrics["trace.overhead_s"] = (traced["loop_wall_s"] - untraced["loop_wall_s"], "s")
    metrics["trace.untraced_s"] = (untraced["loop_wall_s"], "s")
    return metrics


def _write_spans(traced: dict, path: str) -> int:
    """Write the traced run's spans to path; returns the record count.

    On cli each CLI process wrote its own file; their records are joined,
    with ids prefixed by the op index and op ids set to it."""
    if "spans_file" in traced:
        shutil.copyfile(traced["spans_file"], path)
        return traced["span_records"]
    records = []
    for op, trace in enumerate(traced["cli_traces"]):
        with open(trace) as fh:
            for rid, name, t0, t1, parent, _ in json.load(fh)["spans"]:
                records.append((f"{op}:{rid}", name, t0, t1,
                                None if parent is None else f"{op}:{parent}", op))
    with open(path, "w") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent", "op"], "spans": records}, fh)
    return len(records)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("certify", "conjugate", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "danielewski", "__init__.py")):
        print(f"error: no library source at {src}/danielewski; run from the repository root",
              file=sys.stderr)
        return 2
    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(root), "source_sha256": _source_hash(src),
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)), "loadavg_start": _loadavg(),
        "cpu_pinning": "not touched", "cpu_frequency": "not touched (shared machine)",
        "loop": "closed, one client process, one op at a time",
    }
    cfg = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "src": src}
    try:
        if args.trace:
            blocks = TRACED_BLOCKS[args.workload]
            untraced = _spawn(dict(cfg, mode="fixed", blocks=blocks), work, "untraced")
            main_run = _spawn(dict(cfg, mode="fixed", blocks=blocks, traced=True), work, "traced")
            metrics = _per_layer(cfg, main_run, untraced)
            spans_dir = os.path.join(root, ".bench_work", "spans")
            os.makedirs(spans_dir, exist_ok=True)
            spans = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")
            meta.update(spans_file=os.path.relpath(spans, root),
                        span_records=_write_spans(main_run, spans))
        else:
            runs = [_spawn(dict(cfg, mode="setup"), work, f"setup{k}")
                    for k in range(SETUP_SAMPLES - 1)]
            main_run = _spawn(dict(cfg, mode="measure"), work, "main")
            runs.append(main_run)
            setups = [s["setup_cpu_s"] * CAL_REF_S / statistics.median(s["setup_cal"])
                      for s in runs]
            metrics = _end_to_end(main_run, setups)
            meta.update(
                setup_samples=setups,
                setup_cpu_samples=[s["setup_cpu_s"] for s in runs],
                setup_wall_samples=[s["setup_wall_s"] for s in runs],
                speed_factor_median=statistics.median(main_run["cal"]) / CAL_REF_S,
            )
            for kind, lat in (("cpu", main_run["cpu"]), ("wall", main_run["latencies"])):
                meta.update({f"{kind}_ops_per_s": len(lat) / sum(lat),
                             f"{kind}_latency_p50_ms": 1000 * statistics.median(lat),
                             f"{kind}_latency_p90_ms": 1000 * _quantile(lat, 90)})
    finally:
        meta["loadavg_end"] = _loadavg()
        shutil.rmtree(work, ignore_errors=True)

    fails = main_run["fails"]
    attempted = main_run["ops"]
    unexpected = [f for f in fails if f["why"] != KNOWN_DEFECT]
    meta.update(
        op_hash=main_run["op_hash"], ops=attempted, blocks=main_run["blocks"],
        latency_samples=len(main_run["latencies"]), size_samples=len(main_run["sizes"]),
        output_size_mean=(statistics.fmean(main_run["sizes"]) if main_run["sizes"] else 0.0),
        busy_cpu_s=main_run["busy_s"], cycled_op_list=main_run["cycled"],
        fail_ratio=len(fails) / attempted, known_defect_failures=len(fails) - len(unexpected),
        known_defect=KNOWN_DEFECT, failures=fails[:20],
    )
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(fails),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
