"""One client process of the benchmark: set up, run whole blocks, check.

Started by run.py as `python3 bench/worker.py '<config json>'` with the
library's `src` on PYTHONPATH; writes its result as JSON to config["out"].

Modes: "setup" stops after set-up (a set-up time sample); "measure" runs
whole blocks until `seconds` of op CPU time and at least MIN_OPS ops;
"fixed" runs exactly `blocks` blocks, traced or not (the traced run).

Each op is timed twice: CPU seconds of the client and its waited-for
children (the end-to-end metrics), and wall seconds (the metadata).
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import ops as oplists  # noqa: E402

MIN_OPS = 100  # p90 then has at least ten samples beyond it
OP_LIMIT_S = 30.0  # an op running longer fails
KNOWN_DEFECT = "verify-cert crashes on a malformed certificate file (traceback, exit 1)"


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_LIMIT_S} s")


def _poly_coeffs(src: str) -> list:
    """Integer coefficient list of a p(z) string generated by ops.fmt_poly."""
    for p in (oplists.P2, oplists.P3, oplists.P4):
        if oplists.fmt_poly(p) == src:
            return p
    raise ValueError(f"unknown surface {src!r}")


def _cpu() -> float:
    """CPU seconds of this process and of its waited-for children."""
    s, c = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def calibration() -> float:
    """CPU seconds of a fixed pure-Python load: dict-of-Fraction polynomial
    products, the kind of work the library does, in the benchmark's own code.

    On a shared virtual machine the CPU speed can change by 1.6x within
    seconds with other tenants' load; run.py scales op times by this load's
    time, measured before every op, to take that change out."""
    t0 = time.process_time()
    a = {i: Fraction(i + 1, 3) for i in range(12)}
    b = {i: Fraction(2 * i - 5, 7) for i in range(12)}
    for _ in range(4):
        c = {}
        for e1, v1 in a.items():
            for e2, v2 in b.items():
                c[e1 + e2] = c.get(e1 + e2, 0) + v1 * v2
    return time.process_time() - t0


def eval_surface_poly(f, pt) -> Fraction:
    """A normal-form element at a point, from its term dicts."""
    x0, y0, z0 = pt
    acc = sum((v * z0**e for e, v in f.zpart.c.items()), Fraction(0))
    acc += sum((v * x0**i * z0**j for (i, j), v in f.xpart.items()), Fraction(0))
    acc += sum((v * y0**i * z0**j for (i, j), v in f.ypart.items()), Fraction(0))
    return acc


# -- workloads ---------------------------------------------------------------------------


class Certify:
    def __init__(self, cfg):
        from danielewski import fields, membership, parsing, ring

        self.m, self.fields, self.parsing = membership, fields, parsing
        self.memo: dict = {}
        self.surfaces = {}
        for p in (oplists.P3, oplists.P4):
            s = ring.make_surface(parsing.parse_unipoly(oplists.fmt_poly(p)))
            self.surfaces[oplists.fmt_poly(p)] = s
            # builds the spanning family and the certifier at the default bound
            membership.certify_shears_only(s.x())

    def prepare(self, op):
        return self.parsing.parse_expression(self.surfaces[op["p"]], op["f"])

    def run(self, op, f):
        return self.m.certify_shears_only(f)

    def check(self, op, f, expr) -> tuple[bool, str, int]:
        m = self.m
        kinds = set()
        stack = [expr]
        while stack:
            e = stack.pop()
            if isinstance(e, m.Leaf):
                kinds.add(e.kind)
            elif isinstance(e, m.Sum):
                stack.extend(t for _, t in e.terms)
            else:
                stack += [e.left, e.right]
        if not kinds <= {"SFx", "SFy"}:
            return False, f"non-shear leaves {sorted(kinds)}", 0
        if not m.decide(f).accepted:
            return False, "decide rejects the potential", 0
        if self.fields.potential_of(self.field_of(f.surface, expr)) != f.drop_constant():
            return False, "certificate does not verify", 0
        return True, "", m.expression_size(expr)

    def field_of(self, s, expr):
        """The certificate's field, as `verify_certificate` evaluates it, but with
        one memo for the whole run: certificates share their sub-certificates."""
        m, fields = self.m, self.fields
        memo = self.memo.setdefault(s, {})
        if expr in memo:
            return memo[expr]
        if isinstance(expr, m.Leaf):
            r = (fields.shear_x if expr.kind == "SFx" else fields.shear_y)(s, expr.i)
        elif isinstance(expr, m.Sum):
            r = fields.zero_field(s)
            for w, t in expr.terms:
                r = r + self.field_of(s, t).scale(w)
        else:
            r = fields.bracket(self.field_of(s, expr.left), self.field_of(s, expr.right))
        memo[expr] = r
        return r


class Conjugate:
    def __init__(self, cfg):
        from danielewski import automorphisms, fields, parsing, ring

        self.a, self.f, self.parsing = automorphisms, fields, parsing
        self.surfaces = {
            oplists.fmt_poly(p): ring.make_surface(parsing.parse_unipoly(oplists.fmt_poly(p)))
            for p in (oplists.P2, oplists.P3)
        }
        self.rng = oplists.Rng(cfg["seed"] + 7)

    def prepare(self, op):
        s = self.surfaces[op["p"]]
        word = [self.parsing.parse_generator(g) for g in op["word"].split(";")]
        return s, word, self.parsing.parse_field(s, op["field"])

    def run(self, op, inputs):
        s, word, theta = inputs
        phi = self.a.PolynomialAutomorphism(s, word)
        conj = self.a.conjugate_field(phi, theta)
        verdict = self.f.lnd_check(conj)
        return phi, conj, verdict, self.a.volume_factor(phi)

    def check(self, op, inputs, out) -> tuple[bool, str, int]:
        a, f = self.a, self.f
        s, _, theta = inputs
        phi, conj, verdict, j = out
        if not verdict.nilpotent:
            return False, "conjugated shear not nilpotent within the bound", 0
        lhs = f.potential_of(conj)
        rhs = f.canonical_potential(a.apply_auto(phi, f.potential_of(theta))).scale(j)
        if lhs != rhs:
            return False, "potential identity fails", 0
        p = _poly_coeffs(op["p"])
        vf = checks.word_volume_factor
        for pt in checks.surface_points(self.rng, p, 3, lambda pt: vf(op["word"], p, pt)):
            img = tuple(eval_surface_poly(e, pt) for e in (phi.img_x, phi.img_y, phi.img_z))
            if img[0] * img[1] != checks.poly_eval(p, img[2]):
                return False, "images break x*y = p(z)", 0
            if img != checks.word_point_map(op["word"], p, pt):
                return False, "images differ from the word's point map", 0
            if j != checks.word_volume_factor(op["word"], p, pt):
                return False, "volume factor differs from the chart Jacobian", 0
        size = sum(len(e.xpart) + len(e.ypart) + len(e.zpart.c)
                   for e in (conj.img_x, conj.img_y, conj.img_z))
        return True, "", size


class Cli:
    def __init__(self, cfg):
        from danielewski import membership, parsing, ring

        self.cfg = cfg
        self.work = cfg["workdir"]
        self.rng = oplists.Rng(cfg["seed"] + 11)
        self.membership, self.parsing, self.ring = membership, parsing, ring
        self.surfaces = {}
        for spec in cfg["files"]:
            path = os.path.join(self.work, spec["name"])
            obj = spec.get("raw") or self._certificate(spec)
            with open(path, "w") as fh:
                json.dump(obj, fh, sort_keys=True, indent=2)
        self.env = dict(os.environ, PYTHONPATH=cfg["src"])
        self.entry = [sys.executable, "-m", "danielewski.cli"]
        if cfg.get("traced"):
            self.entry = [sys.executable, os.path.join(BENCH, "cli_entry.py")]
        # one warm-up process (untraced): fills the bytecode cache
        subprocess.run([sys.executable, "-m", "danielewski.cli", "reduce", "x*y",
                        "--surface", "z^2 - 1"], cwd=self.work, env=self.env,
                       capture_output=True, timeout=OP_LIMIT_S, check=True)

    def surface(self, p):
        if p not in self.surfaces:
            self.surfaces[p] = self.ring.make_surface(self.parsing.parse_unipoly(p))
        return self.surfaces[p]

    def _certificate(self, spec):
        m, parsing = self.membership, self.parsing
        s = self.surface(spec["p"])
        f = parsing.parse_expression(s, spec["f"])
        expr = m.certify_shears_only(f) if spec["method"] == "shears" else m.avdp_decompose(f)
        if spec["tamper"]:
            w, t = expr.terms[0]
            expr = m.Sum(((w + 1, t),) + expr.terms[1:])
        return parsing.certificate_file_obj(s, f, expr)

    def prepare(self, op):
        return None

    def run(self, op, _):
        env = self.env
        if self.cfg.get("traced"):
            env = dict(env, BENCH_TRACE_OUT=os.path.join(
                self.work, f"trace_{self.cfg.get('op_index', 0):05d}.json"))
            self.cfg["op_index"] = self.cfg.get("op_index", 0) + 1
        r = subprocess.run(self.entry + op["argv"], cwd=self.work, env=env,
                           capture_output=True, text=True, timeout=OP_LIMIT_S)
        return r.returncode, r.stdout, r.stderr

    def check(self, op, _, out) -> tuple[bool, str, int]:
        code, stdout, stderr = out
        if "Traceback" in stderr:
            known = op["stratum"] == "error malformed-cert" and code == 1
            return False, KNOWN_DEFECT if known else f"traceback: {stderr[-200:]}", 0
        if code != op["exit"]:
            return False, f"exit {code}, expected {op['exit']}", 0
        if op["exit"] != 0:
            return True, "", 0
        argv = op["argv"]
        cmd, p_src = argv[0], argv[argv.index("--surface") + 1]
        p = _poly_coeffs(p_src)
        text = stdout.strip()
        probe = None
        if cmd == "compose":
            def probe(pt):
                checks.word_point_map(argv[1], p, checks.word_point_map(argv[2], p, pt))
                checks.word_point_map(text, p, pt)
        elif cmd == "volume-factor":
            def probe(pt):
                checks.word_volume_factor(argv[1], p, pt)
        pts = checks.surface_points(self.rng, p, 2, probe)
        try:
            ok, size = self._check_output(cmd, argv, p, p_src, text, pts)
        except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            return False, f"unreadable output: {exc!r}", 0
        return (True, "", size) if ok else (False, f"wrong output for {cmd}", 0)

    def _check_output(self, cmd, argv, p, p_src, text, pts) -> tuple[bool, int]:
        ev = checks.evaluate
        if cmd == "reduce":
            return all(ev(text, checks.env_of(pt)) == ev(argv[1], checks.env_of(pt))
                       for pt in pts), 0
        if cmd == "mul":
            return all(ev(text, checks.env_of(pt))
                       == ev(argv[1], checks.env_of(pt)) * ev(argv[2], checks.env_of(pt))
                       for pt in pts), 0
        if cmd == "decide":
            # the witness remainder has degree <= 1
            r = [ev(text[len("accepted, remainder "):], {"z": Fraction(k)}) for k in range(3)]
            return text.startswith("accepted, remainder ") and r[2] - 2 * r[1] + r[0] == 0, 0
        if cmd == "potential":
            imgs = checks.literal_images(argv[1], p)
            return all(checks.is_potential(text, imgs, p, pt) for pt in pts), 0
        if cmd == "hamiltonian":
            imgs = checks.literal_images(text, p)
            return all(checks.tangent(imgs, p, pt) and checks.is_potential(argv[1], imgs, p, pt)
                       for pt in pts), 0
        if cmd == "bracket":
            a = checks.literal_images(argv[1], p)
            b = checks.literal_images(argv[2], p)
            c = checks.literal_images(text, p)
            for pt in pts:
                env = checks.env_of(pt)
                for k, g in enumerate("xyz"):
                    want = checks.apply_images(a, b[k], pt) - checks.apply_images(b, a[k], pt)
                    if ev(c[k], env) != want:
                        return False, 0
            return True, 0
        if cmd == "lnd-check":
            return text == f"NilpotentWithDegree({len(p)})", 0
        if cmd == "compose":
            for pt in pts:
                inner = checks.word_point_map(argv[2], p, pt)
                if checks.word_point_map(text, p, pt) != checks.word_point_map(argv[1], p, inner):
                    return False, 0
            return True, 0
        if cmd == "volume-factor":
            return all(Fraction(text) == checks.word_volume_factor(argv[1], p, pt)
                       for pt in pts), 0
        if cmd == "verify-cert":
            return text == "true", 0
        if cmd == "certify":
            obj = json.loads(text)
            kinds, size = checks.cert_leaves_and_size(obj["certificate"])
            same_p = all(ev(obj["p"], {"z": Fraction(k)}) == checks.poly_eval(p, k)
                         for k in range(len(p) + 1))
            if not kinds <= {"SFx", "SFy"} or not same_p:
                return False, 0
            # claimed is the input modulo constants
            d = {ev(obj["claimed"], checks.env_of(pt)) - ev(argv[1], checks.env_of(pt))
                 for pt in pts}
            s = self.surface(p_src)
            f = self.parsing.parse_expression(s, obj["claimed"])
            expr = self.parsing.cert_from_obj(obj["certificate"])
            return len(d) == 1 and self.membership.verify_certificate(s, expr, f), size
        raise ValueError(f"no check for {cmd}")


WORKLOADS = {"certify": Certify, "conjugate": Conjugate, "cli": Cli}


# -- the client loop ------------------------------------------------------------------------


def main(cfg: dict) -> dict:
    tracer = None
    if cfg.get("traced") and cfg["workload"] != "cli":
        import danielewski  # noqa: F401
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.enabled = True
    blocks, files = oplists.op_list(cfg["workload"], cfg["seed"])
    cfg["files"] = files
    client = WORKLOADS[cfg["workload"]](cfg)
    # set-up: CPU time of this process (and, on cli, its warm-up child) from
    # its start; and wall time from spawn, for the metadata
    result = {"setup_cpu_s": _cpu(), "setup_wall_s": time.monotonic() - cfg["t_spawn"]}
    result["setup_cal"] = [calibration() for _ in range(16)]
    if cfg["mode"] == "setup":
        return result
    signal.signal(signal.SIGALRM, _alarm)
    done, lat, cpu, cal, fixed = [], [], [], [], cfg["mode"] == "fixed"
    busy, b = 0.0, 0  # op CPU seconds, whole blocks
    t_loop = time.perf_counter()
    while (b < cfg["blocks"]) if fixed else (busy < cfg["seconds"] or len(lat) < MIN_OPS):
        for op in blocks[b % len(blocks)]:
            if tracer:  # input preparation is the benchmark's, not the op's
                tracer.enabled = False
            inputs = client.prepare(op)
            cal.append(calibration())
            if tracer:
                tracer.op_id, tracer.enabled = len(lat), True
            err = None
            signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
            c0 = _cpu()
            t0 = time.perf_counter()
            try:
                out = client.run(op, inputs)
            except Exception as exc:  # the op failed; counted, the run goes on
                out, err = None, f"{type(exc).__name__}: {exc}"
            finally:
                t1 = time.perf_counter()
                c1 = _cpu()
                signal.setitimer(signal.ITIMER_REAL, 0)
            busy += c1 - c0
            lat.append(t1 - t0)
            cpu.append(c1 - c0)
            done.append((op, inputs, out, err))
        b += 1
    loop_wall = time.perf_counter() - t_loop
    rss = resource.getrusage(
        resource.RUSAGE_CHILDREN if cfg["workload"] == "cli" else resource.RUSAGE_SELF
    ).ru_maxrss
    if tracer:
        tracer.enabled = False
    fails, sizes = [], []
    for i, (op, inputs, out, err) in enumerate(done):
        if err is None:
            try:
                ok, why, size = client.check(op, inputs, out)
            except Exception as exc:  # a check that cannot run is a failed op
                ok, why, size = False, f"check raised {type(exc).__name__}: {exc}", 0
            err = None if ok else why
            if ok and size:
                sizes.append(size)
        if err is not None:
            fails.append({"op": i, "stratum": op["stratum"], "why": err[:300]})
    result.update(
        ops=len(lat), blocks=b, busy_s=busy, loop_wall_s=loop_wall, latencies=lat, cpu=cpu,
        cal=cal,
        strata=[op["stratum"] for op, *_ in done], peak_rss_kb=rss, fails=fails,
        sizes=sizes, op_hash=oplists.op_hash(blocks, files), cycled=b > len(blocks),
    )
    if tracer:
        path = os.path.join(cfg["workdir"], "spans.json")
        tracer.dump(path)
        result.update(agg=tracer.agg, counts=tracer.counts, spans_file=path,
                      span_records=len(tracer.records))
    if cfg.get("traced") and cfg["workload"] == "cli":
        result["cli_traces"] = sorted(
            os.path.join(cfg["workdir"], n) for n in os.listdir(cfg["workdir"])
            if n.startswith("trace_"))
    return result


if __name__ == "__main__":
    config = json.loads(sys.argv[1])
    res = main(config)
    with open(config["out"], "w") as fh:
        json.dump(res, fh)
