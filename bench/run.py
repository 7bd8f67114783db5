"""cdt-ising benchmark: one workload, one seed, one fresh process per run.

    python3 bench/run.py --workload reach --seed 7 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics:

* ``units_per_s``: work units per second over the timed ops;
* ``op_p50_ms`` / ``op_p90_ms``: latency of one op (at least 110 ops run,
  so at least ten lie beyond p90);
* ``setup_s``: median over child processes of the CPU time each spends
  from its spawn to the moment it is ready for its first timed op
  (interpreter start, imports, seeded instance generation, fixtures and one
  warm-up op), scaled by a reference process (see ``measure_setup``);
* ``peak_rss_mb``: ``ru_maxrss`` of this process at the end of the timed
  phase.

Times are scaled to a reference CPU speed measured beside them (see
``calibration_kernel``); the unscaled values are in the provenance line.
Failed ops (raised, or failed a correctness gate) are counted in the
``failed`` field against ``attempted``; that ratio is the error rate.

With ``--trace 1`` a child process first replays the first half of the run
untraced; this process then runs the same ops with timing shims around the
library's public functions and reports per-layer self times and counts, the
tracing overhead, and whether its results match the child's exactly.
Layer metrics also cover a fixed pass after the timed phase (see
``run_fixed_pass``).

Every run prints a provenance line before the result, which is always the
last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9
MIN_OPS = 110  # p90 then has at least ten ops beyond it
MAX_PHASE_S = 120.0
CHILD_TIMEOUT_S = 150.0
CALIBRATION_NOMINAL_S = 1.5e-3  # the calibration kernel's time at reference speed
# The set-up reference: a fresh interpreter that imports numpy, and its CPU
# time at reference speed.
SETUP_REFERENCE = [sys.executable, "-c", "import os, numpy; os._exit(0)"]
SETUP_REFERENCE_NOMINAL_S = 0.2
FIXED_PASS_OPS = 4  # one cycle of reach's four op kinds
CALIBRATION_WINDOW = 9  # ops whose kernel times scale one op (see speed_factors)


# Small fixed configurations for the traced CLI pass (``{seed}``, ``{out}``).
CLI_RUNS = {
    "sample": ["sample", "--levels", "5", "--trials", "200"],
    "stats": ["stats", "--levels", "5", "--trials", "2000"],
    "ising-scan": ["ising-scan", "--levels", "6", "--beta-grid", "0.05,2.0",
                   "--sweeps", "64", "--replicas", "1", "--burn-in", "16"],
    "contours": ["contours", "--levels", "3", "--width-cap", "4"],
    "percolation": ["percolation", "--levels", "5,10", "--beta", "0.05", "--trials", "200"],
    "surgery-selftest": ["surgery-selftest", "--attempts", "500"],
    "oracle": ["oracle", "--levels", "2", "--width-cap", "3", "--beta", "0.8"],
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, default=None,
                   help="run exactly this many timed ops instead of --seconds")
    p.add_argument("--role", choices=("main", "setup", "reference"), default="main",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0 or (args.ops is not None and args.ops < 1):
        p.error("--seconds and --ops must be positive")
    return args


def import_library():
    """Import ``cdt_ising`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "cdt_ising" / "__init__.py").is_file():
        raise SystemExit(f"error: no cdt_ising package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import cdt_ising

    if Path(cdt_ising.__file__).resolve().parent != (SRC / "cdt_ising").resolve():
        raise SystemExit(f"error: cdt_ising imported from {cdt_ising.__file__}, not {SRC}")
    return cdt_ising


# -- reference speed ------------------------------------------------------------


def calibration_kernel() -> float:
    """Seconds for one fixed batch of interpreter-bound work shaped like the
    library's (tuple building, dict updates, list sorts, a small numpy draw).

    On shared hosts the CPU speed drifts (by up to ~1.9x, on a shared 2-core
    Intel Xeon VM).  Timings are scaled by
    ``CALIBRATION_NOMINAL_S`` over this kernel's time measured beside them,
    so they read as times at a fixed reference speed; the raw values go to
    the provenance line.
    """
    _kernel_body(300)  # untimed, so the state the last op left in the caches hardly matters
    t0 = time.perf_counter()
    _kernel_body(1500)
    return time.perf_counter() - t0


def _kernel_body(n: int) -> None:
    counts: dict = {}
    for i in range(n):
        key = tuple(range(i % 7, i % 7 + 5))
        counts[key] = counts.get(key, 0) + len(key)
        sorted([2 * x for x in key], reverse=True)
    np.random.default_rng(0).random(256).sum()


def speed_factors(kernel_s: list[float]) -> np.ndarray:
    """Per op: the mean of the kernel times of the ``CALIBRATION_WINDOW`` ops
    centred on it, without their lowest and highest, over the nominal time.

    A contended host switches between a fast and a slow state every few
    milliseconds, so an op of tens of milliseconds runs at a mix of the two.
    A mean estimates that mix; a median snaps to one state and made op p90
    spread about twice as much.
    """
    k = np.asarray(kernel_s)
    h = CALIBRATION_WINDOW // 2
    return np.array([trimmed_mean(k[max(0, j - h):j + h + 1]) for j in range(len(k))]) / CALIBRATION_NOMINAL_S


def trimmed_mean(values) -> float:
    v = np.sort(np.asarray(values, dtype=np.float64))
    return float(v[1:-1].mean() if len(v) > 2 else v.mean())


# -- the timed phase ------------------------------------------------------------


class Phase:
    """Ops run, their latencies and records, and the digest of their results."""

    def __init__(self) -> None:
        self.records = []
        self.latency_ns: list[int] = []
        self.kernel_s: list[float] = []
        self.raised: set[int] = set()
        self.units = 0
        self._digest = hashlib.sha256()

    @property
    def attempted(self) -> int:
        return len(self.latency_ns)

    @property
    def timed_ns(self) -> int:
        return sum(self.latency_ns)

    def scaled_ms(self) -> np.ndarray:
        """Op latencies in ms at the reference speed."""
        return np.array(self.latency_ns) / 1e6 / speed_factors(self.kernel_s)

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def add(self, i: int, record, dt_ns: int, kernel_s: float) -> None:
        self.latency_ns.append(dt_ns)
        self.kernel_s.append(kernel_s)
        if record is None:
            self.raised.add(i)
            self._digest.update(f"{i}:raised;".encode())
            return
        self.records.append(record)
        self.units += record.units
        self._digest.update(f"{i}:{record.digest!r};".encode())


def run_op(workload, i: int, inp):
    try:
        return workload.run(i, inp)
    except Exception:  # an op that raises is a failed op; keep measuring
        traceback.print_exc(file=sys.stderr)
        return None


def timed_phase(workload, seconds: float, min_ops: int, ops: int | None, tracer=None) -> Phase:
    """Run ops 0, 1, ... until ``ops`` ran, or ``seconds`` passed and at
    least ``min_ops`` ran.  Inputs are made and the calibration kernel runs
    between ops, outside the op timers."""
    phase = Phase()
    start = time.perf_counter()
    i = 0
    while True:
        if ops is not None:
            if i >= ops:
                break
        else:
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and i >= min_ops) or elapsed >= MAX_PHASE_S:
                break
        inp = workload.next_input(i)
        kernel_s = calibration_kernel()
        if tracer is None:
            t0 = time.perf_counter_ns()
            record = run_op(workload, i, inp)
            dt = time.perf_counter_ns() - t0
        else:
            tracer.bucket = "timed"
            t0 = time.perf_counter_ns()
            with tracer.span("bench.op"):
                record = run_op(workload, i, inp)
            dt = time.perf_counter_ns() - t0
            tracer.bucket = None
        phase.add(i, record, dt, kernel_s)
        i += 1
    return phase


def evaluate(workload, phase: Phase) -> tuple[bool, int, list]:
    gates = workload.gates(phase.records)
    failed = set(phase.raised)
    for g in gates:
        failed |= g.failed_ops
    for g in gates:
        if not g.ok:
            print(f"gate {g.name} FAILED: {g.detail}", file=sys.stderr)
    correct = not failed and all(g.ok for g in gates)
    return correct, len(failed), gates


def ready_workload(name: str, seed: int, tracer=None):
    from workloads import WARMUP, WORKLOADS

    workload = WORKLOADS[name](seed)
    if tracer is not None:
        tracer.bucket = "setup"
    workload.setup()
    if tracer is not None:
        tracer.bucket = None
    workload.run(WARMUP, workload.next_input(WARMUP))
    return workload


# -- child processes --------------------------------------------------------------


def child_command(args, role: str, seconds: float | None = None) -> list[str]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds or args.seconds),
           "--trace", "0", "--role", role]
    if args.ops is not None:
        cmd += ["--ops", str(args.ops)]
    return cmd


def measure_setup(args) -> tuple[float, float]:
    """Wall and CPU seconds of a fresh process from its spawn until it is
    ready to time an op; the CPU time at the reference speed.

    Set-up is mostly process start, imports and pure-Python instance
    building, whose speed on a shared host drifts differently from the
    calibration kernel's.  Its CPU time (user + system) is scaled by
    ``SETUP_REFERENCE_NOMINAL_S`` over the CPU time of ``SETUP_REFERENCE``,
    a process of the same kind spawned just before it (see README.md for
    how steady this is).
    """
    ref_cpu = child_cpu_s(SETUP_REFERENCE)[2]
    line, wall, cpu = child_cpu_s(child_command(args, "setup"))
    if line.strip() != "ready":
        raise SystemExit("error: set-up child did not report ready")
    return wall, cpu * SETUP_REFERENCE_NOMINAL_S / ref_cpu


def child_cpu_s(cmd: list[str]) -> tuple[str, float, float]:
    """Run ``cmd`` to its end: its first output line, the wall seconds until
    that line, and its CPU seconds.  One child at a time, so the change in
    this process's reaped-children usage is that child's."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise SystemExit(f"error: child {cmd[1:3]} failed (exit {code})")
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return line, wall, cpu


def reference_run(args) -> dict:
    """Replay the first half of the run untraced in a fresh process."""
    proc = subprocess.run(child_command(args, "reference", args.seconds / 2), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"error: reference child failed (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])["reference"]


# -- provenance -------------------------------------------------------------------


def git_rev() -> str | None:
    """HEAD of the checkout when it is a git work tree; read without git."""
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
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cdt_ising").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, workload, raw: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "workers": 1,
        "instances": workload.provenance(),
        "raw": raw,
    }


def emit(result: dict, prov: dict) -> None:
    print(json.dumps({"provenance": prov}, sort_keys=True))
    print(json.dumps(result))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- roles --------------------------------------------------------------------------


def latency_metrics(phase: Phase, latency_ms: np.ndarray) -> dict:
    p50, p90 = np.percentile(latency_ms, [50, 90])
    return {
        "units_per_s": metric(phase.units / (latency_ms.sum() / 1e3), "1/s"),
        "op_p50_ms": metric(float(p50), "ms"),
        "op_p90_ms": metric(float(p90), "ms"),
    }


def run_untraced(args) -> int:
    setups = [measure_setup(args) for _ in range(SETUP_REPEATS)]
    workload = ready_workload(args.workload, args.seed)
    phase = timed_phase(workload, args.seconds, MIN_OPS, args.ops)
    # read before the gates, whose arrays grow with the number of ops run,
    # so that a faster commit does not read as one that needs more memory
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    correct, failed, _ = evaluate(workload, phase)
    metrics = latency_metrics(phase, phase.scaled_ms())
    metrics["setup_s"] = metric(statistics.median(s for _, s in setups), "s")
    metrics["peak_rss_mb"] = metric(peak_rss_mb, "MB")
    raw = latency_metrics(phase, np.array(phase.latency_ns) / 1e6)
    raw["setup_wall_s"] = metric(statistics.median(r for r, _ in setups), "s")
    raw["speed_factor"] = metric(float(np.median(phase.kernel_s)) / CALIBRATION_NOMINAL_S, "x")
    result = {"correct": correct, "attempted": phase.attempted, "failed": failed, "metrics": metrics}
    emit(result, provenance(args, workload, {k: v["value"] for k, v in raw.items()}))
    return 0


def run_fixed_pass(tracer, seed: int) -> None:
    """After the timed phase, give every layer some measured work on every
    workload: each CLI subcommand once at a small fixed configuration, then
    the first ``FIXED_PASS_OPS`` ops of every workload, set up from another
    seed than the timed phase so that no input repeats.  Recorded in the
    "fixed" bucket."""
    from cdt_ising import cli
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(prefix=".bench-cli-", dir=ROOT) as out:
        for name, argv in CLI_RUNS.items():
            full = argv + ["--seed", str(seed), "--out", str(Path(out) / f"{name}.csv")]
            tracer.bucket = "fixed"
            with contextlib.redirect_stdout(io.StringIO()), tracer.span(f"cli.{name}"):
                code = cli.main(full)
            tracer.bucket = None
            if code != 0:
                raise SystemExit(f"error: cli {name} exited {code}")
    for cls in WORKLOADS.values():
        workload = cls(seed + 1)
        workload.setup()
        for i in range(FIXED_PASS_OPS):
            inp = workload.next_input(i)
            tracer.bucket = "fixed"
            workload.run(i, inp)
            tracer.bucket = None


def per_layer_metrics(tracer, traced: Phase, reference: dict) -> dict:
    from tracing import SHIMS, span_name

    # Layer metrics cover the timed phase and the fixed pass after it, so no
    # layer time reads a constant 0 on a workload that does not use the layer.
    buckets = ("timed", "fixed")

    def ms(name: str, among=buckets, table=tracer.self_ns) -> float:
        return sum(table.get((b, name), 0) for b in among) / 1e6

    def calls(name: str) -> int:
        return sum(tracer.calls.get((b, name), 0) for b in buckets)

    def count(name: str) -> float:
        return sum(tracer.counters.get((b, name), 0) for b in buckets)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {}
    for layer, path, _ in SHIMS:
        name = span_name(layer, path)
        if name != "triangulation.enumerate_triangulations":
            m[f"{name}.ms"] = metric(ms(name), "ms")
    for name in ("branching.sample_spine_forest", "triangulation.forest_to_triangulation",
                 "ising.glauber_sweep", "surgery.randomized_reconstruction"):
        m[f"{name}.calls"] = metric(calls(name), "count")
    for name in ("branching.vertices", "triangulation.vertices", "percolation.hits",
                 "ising.spin_updates", "contours.found"):
        m[name] = metric(count(name), "count")
    # set-up time of the enumeration, including the codec calls it makes
    m["triangulation.enumerate_triangulations.ms"] = metric(
        ms("triangulation.enumerate_triangulations", ("setup", "fixed"), tracer.total_ns), "ms")
    m["percolation.root_open_frac"] = metric(
        ratio(count("percolation.root_open"), count("percolation.reach_calls")), "frac")
    kernel_ms = ms("ising.root_plus_probability") + ms("ising.glauber_sweep")
    m["ising.ns_per_spin_update"] = metric(ratio(kernel_ms * 1e6, count("ising.spin_updates")), "ns")
    m["ising.batch_stderr_mean"] = metric(
        ratio(count("ising.batch_stderr_sum"), calls("ising.root_plus_probability")), "prob")
    m["surgery.success_frac"] = metric(
        ratio(count("surgery.successes"), calls("surgery.randomized_reconstruction")), "frac")
    for name in CLI_RUNS:
        m[f"cli.{name}.ms"] = metric(tracer.ms("fixed", f"cli.{name}"), "ms")
    traced_ms = traced.timed_ns / 1e6
    m["bench.op.ms"] = metric(tracer.ms("timed", "bench.op"), "ms")
    m["trace.counting.ms"] = metric(tracer.ms("timed", "trace.counting"), "ms")
    m["trace.timed_ms"] = metric(traced_ms, "ms")
    m["trace.untraced_ms"] = metric(reference["timed_ns"] / 1e6, "ms")
    # both phases scaled to the reference speed, so host drift between them cancels
    m["trace.overhead_frac"] = metric(
        ratio(float(traced.scaled_ms().sum()), reference["scaled_ms"]) - 1.0, "frac")
    # the library's own self times, without the benchmark's code around them
    library_ms = sum(ms(span_name(layer, path), ("timed",)) for layer, path, _ in SHIMS)
    m["trace.accounted_frac"] = metric(ratio(library_ms, traced_ms), "frac")
    m["trace.results_match"] = metric(int(traced.digest == reference["digest"]), "count")
    m["trace.ops"] = metric(traced.attempted, "count")
    return m


def run_traced(args) -> int:
    from tracing import Tracer, install

    reference = reference_run(args)
    tracer = Tracer()
    install(tracer)
    workload = ready_workload(args.workload, args.seed, tracer)
    phase = timed_phase(workload, args.seconds, 0, reference["ops"], tracer)
    correct, failed, _ = evaluate(workload, phase)
    if phase.digest != reference["digest"]:
        print("traced results differ from the untraced reference", file=sys.stderr)
        correct = False
    run_fixed_pass(tracer, args.seed)
    metrics = per_layer_metrics(tracer, phase, reference)
    result = {"correct": correct, "attempted": phase.attempted, "failed": failed, "metrics": metrics}
    emit(result, provenance(args, workload, {"speed_factor": float(np.median(phase.kernel_s))
                                             / CALIBRATION_NOMINAL_S}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.role == "setup":
        ready_workload(args.workload, args.seed)
        print("ready", flush=True)
        os._exit(0)  # no interpreter teardown in the measured CPU time
    if args.role == "reference":
        workload = ready_workload(args.workload, args.seed)
        phase = timed_phase(workload, args.seconds, 0, args.ops)
        print(json.dumps({"reference": {"ops": phase.attempted, "timed_ns": phase.timed_ns,
                                        "scaled_ms": float(phase.scaled_ms().sum()),
                                        "digest": phase.digest}}))
        return 0
    return run_traced(args) if args.trace else run_untraced(args)


if __name__ == "__main__":
    sys.exit(main())
