"""zenoport benchmark: one workload, one process, every output checked.

    python3 perfbench/run.py --workload {sweep_grid,deep_chain,presence}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  A closed loop with one client runs a fixed number of the
workload's ops back to back: as many as take ``--seconds`` at the reference
host speed, so that two runs at one seed attempt the same ops.  Each op's
latency is scaled to the reference speed by a calibration kernel timed
just before it (see calibration.py).  With ``--trace 0`` the last stdout
line reports the end-to-end metrics; with ``--trace 1`` a fixed number of
ops runs once traced and once untraced and the last line reports the
per-layer metrics.  The line before it carries provenance.  See NOTES.md
for the workloads, metrics and the layer table.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import islice
from pathlib import Path

import calibration
import reference
from selftest import SelfTestFailed, check_generator, check_tracer
from tracer import Tracer
from workloads import (EXIT_CONFIG, EXIT_CONSERVATION, WORKLOADS, BenchmarkBug, CheckFailed,
                       Op)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 10  # fresh-interpreter imports, spread evenly over the timed loop
SETUP_CODE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; t = time.perf_counter(); "
              "import zenoport.cli; d = time.perf_counter() - t; import calibration; "
              "print(repr(d), repr(calibration.sample(7)))")
SPEED_WINDOW = 2  # an op's speed is the median calibration sample within this many ops
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
FAIL_FLOOR = 1e-6  # added to fail_ratio so that a run without failures reads above 0

# per-layer metrics: (tracer name, what to report)
SPAN_METRICS = (
    ("qstate.LinearMap", ("calls", "self_s")),
    ("qstate.apply", ("calls", "self_s")),
    ("qstate.compose", ("calls", "self_s")),
    ("optics.build_paradox_circuit", ("calls", "self_s")),
    ("optics.element_map", ("calls", "self_s")),
    ("optics.CircuitSchedule.step_maps", ("self_s",)),
    ("analysis.weak_trace_map", ("calls", "self_s")),
    ("analysis.weak_value", ("calls", "self_s")),
    ("analysis.simulate_weak_probe", ("calls", "self_s")),
    ("analysis.channel_probe_signal", ("calls", "self_s")),
    ("analysis.chain_ket", ("calls", "self_s")),
    ("analysis.is_consistent", ("calls", "self_s")),
    ("analysis.history_probability", ("calls", "self_s")),
    ("qstate.StateVector", ("calls",)),
    ("qstate.label", ("calls",)),
    ("counterport.counterport", ("calls", "self_s")),
    ("counterport.sweep", ("calls", "self_s")),
    ("cqze.run_cqze", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
    ("cli.svg_heatmap", ("self_s",)),
)


class ProgramMissing(Exception):
    """The checkout holds no zenoport sources to benchmark."""


def load_program():
    """Import zenoport from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "zenoport" / "__init__.py").is_file():
        raise ProgramMissing(f"no zenoport package under {SRC}")
    sys.path.insert(0, str(SRC))
    import zenoport.cli
    if SRC.resolve() not in Path(zenoport.__file__).resolve().parents:
        raise ProgramMissing(f"imported zenoport from {zenoport.__file__}, not from {SRC}")
    return zenoport.cli


@contextlib.contextmanager
def workdir_for(workload: str):
    path = ROOT / "perfbench" / ".work" / f"{workload}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_op(workload, op: Op, workdir: Path, ref: dict | None = None):
    """Execute one op (timed) and judge it (untimed).

    Returns (latency, exit codes, checked values or None, failure reason or None).
    """
    for p in workdir.iterdir():
        p.unlink()
    t0 = time.perf_counter()
    out = workload.execute(op, workdir)
    latency = time.perf_counter() - t0
    if EXIT_CONFIG in out.codes:
        raise BenchmarkBug(f"{workload.name} op {op.index} exited 2 with {op.params}: "
                           + " | ".join(t.strip() for t in out.texts if t.strip()))
    if any(out.codes):
        return latency, out.codes, None, f"exit codes {out.codes}"
    try:
        values = workload.check(op, out, workdir)
    except CheckFailed as exc:
        return latency, out.codes, None, str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return latency, out.codes, None, f"malformed output: {exc!r}"
    why = None if ref is None else reference.mismatch(ref, out.codes, values)
    return latency, out.codes, values, why


def dwell_cache_info():
    """(hits, misses) of the dwell cache, or None where the program has none."""
    dwell = getattr(sys.modules["zenoport.cqze"], "_dwell", None)
    info = getattr(dwell, "cache_info", None)
    if info is None:
        return None
    i = info()
    return i.hits, i.misses


class Pass:
    """Latencies and failures of one sequence of ops."""

    def __init__(self):
        self.latencies: list[float] = []  # seconds as measured
        self.speed: list[float] = []  # calibration sample taken just before each op
        self.failures: list[str] = []
        self.wrong = 0  # failures other than a reported conservation breach (exit 3)
        self.exit_codes: Counter = Counter()
        self.dwell = [0, 0]

    def run(self, workload, ops, workdir: Path, *, refs: dict | None = None) -> "Pass":
        for op in ops:
            gc.collect()  # no op pays for the cyclic garbage of the one before
            self.speed.append(calibration.sample())
            before = dwell_cache_info()
            latency, codes, _, why = run_op(workload, op, workdir,
                                            None if refs is None else refs.get(op.index))
            after = dwell_cache_info()
            if before is not None and after is not None:
                self.dwell[0] += after[0] - before[0]
                self.dwell[1] += after[1] - before[1]
            self.latencies.append(latency)
            self.exit_codes.update(codes)
            if why is not None:
                self.failures.append(f"op {op.index} {op.params}: {why}")
                if not (EXIT_CONSERVATION in codes and set(codes) <= {0, EXIT_CONSERVATION}):
                    self.wrong += 1
        return self

    def scaled(self) -> list[float]:
        """Op latencies at the reference host speed."""
        return calibration.scale(self.latencies, self.speed, SPEED_WINDOW)

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.scaled())

    def tail(self) -> tuple[float, float]:
        """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
        s = sorted(self.scaled())
        n = len(s)
        if n <= TAIL_BEYOND:
            return s[-1], 100.0
        return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def import_time() -> tuple[float, float]:
    """Seconds to import zenoport.cli in a fresh interpreter, timed inside it, as
    measured and at the reference speed (calibrated in the same interpreter)."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
                          capture_output=True, text=True, timeout=120, check=True)
    measured, speed = map(float, proc.stdout.split()[-2:])
    return measured, measured * calibration.REFERENCE_S / speed


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, passes: list[Pass]) -> dict:
    import numpy

    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    codes = sum((p.exit_codes for p in passes), Counter())
    return {
        "workload": workload, "seed": seed, "nproc": nproc,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": git_commit(), "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(f.read_text().splitlines()) for f in files),
        "ops": {"attempted": sum(len(p.latencies) for p in passes),
                "failed": sum(len(p.failures) for p in passes),
                "exit_codes": {str(k): v for k, v in sorted(codes.items())}},
    }


def timed_run(workload, seed: int, seconds: float, workdir: Path, refs) -> tuple[dict, dict, list]:
    n = max(1, round(seconds * workload.rate))
    ops, p, setup = list(islice(workload.ops(seed), n)), Pass(), []
    for k in range(SETUP_SAMPLES):
        setup.append(import_time())
        p.run(workload, ops[k * n // SETUP_SAMPLES:(k + 1) * n // SETUP_SAMPLES], workdir,
              refs=refs)
    tail_s, tail_pct = p.tail()
    attempted, failed = len(p.latencies), len(p.failures)
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "ops_per_s": (p.ops_per_s, "1/s"),
        "op_p50_s": (statistics.median(p.scaled()), "s"),
        "op_tail_s": (tail_s, "s"),
        "fail_ratio": (failed / attempted + FAIL_FLOOR, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {"tail": {"percentile": tail_pct, "samples": attempted},
            "measured": {"setup_s": statistics.median(m for m, _ in setup),
                         "ops_per_s": attempted / sum(p.latencies),
                         "op_p50_s": statistics.median(p.latencies),
                         "busy_s": sum(p.latencies),
                         "calibration_s": statistics.median(p.speed)}}
    return metrics, info, [p]


def traced_run(workload, seed: int, workdir: Path, refs) -> tuple[dict, dict, list]:
    check_tracer(workdir)
    ops = list(islice(workload.ops(seed), workload.trace_ops))
    tracer = Tracer()
    tracer.install()
    try:
        traced = Pass().run(workload, ops, workdir, refs=refs)
    finally:
        tracer.uninstall()
    dwell = getattr(sys.modules["zenoport.cqze"], "_dwell", None)
    if hasattr(dwell, "cache_clear"):
        dwell.cache_clear()  # the untraced pass repeats the ops: start it as cold
    plain = Pass().run(workload, ops, workdir, refs=refs)

    metrics: dict = {}
    for name, fields in SPAN_METRICS:
        if "calls" in fields:
            metrics[f"{name}.calls"] = (tracer.calls(name), "count")
        if "self_s" in fields:
            metrics[f"{name}.self_s"] = (tracer.self_s(name), "s")
        if name == "qstate.LinearMap":
            metrics["qstate.LinearMap.column_pairs"] = (tracer.column_pairs, "count")
    hits, misses = traced.dwell
    metrics["cqze.dwell_cache.hits"] = (hits, "count")
    metrics["cqze.dwell_cache.misses"] = (misses, "count")
    metrics["cqze.dwell_cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0,
                                             "ratio")
    metrics["trace.overhead"] = (traced.ops_per_s / plain.ops_per_s, "ratio")
    info = {"trace_ops": len(ops), "traced_ops_per_s": traced.ops_per_s,
            "untraced_ops_per_s": plain.ops_per_s, "layers": tracer.table()}
    return metrics, info, [traced, plain]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    refs = reference.load(workload.name) if args.seed == reference.DEFAULT_SEED else None
    try:
        check_generator(workload, args.seed)
        with workdir_for(workload.name) as workdir:
            if args.trace:
                metrics, info, passes = traced_run(workload, args.seed, workdir, refs)
            else:
                metrics, info, passes = timed_run(workload, args.seed, args.seconds, workdir, refs)
    except (BenchmarkBug, SelfTestFailed) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    failures = [f for p in passes for f in p.failures]
    for f in failures:
        print(f"perfbench: failed {f}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(workload.name, args.seed, passes), **info}))
    print(json.dumps({
        # a conservation breach the program reports (exit 3) fails the op but is
        # not a wrong output; anything else that fails an op is
        "correct": not any(p.wrong for p in passes),
        "attempted": sum(len(p.latencies) for p in passes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
