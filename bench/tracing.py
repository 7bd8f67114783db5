"""Timing shims around the public functions of each ``cdt_ising`` layer.

``install`` replaces every listed function, in every module namespace that
holds a reference to it, with a shim that records the call's self time (its
duration minus the time spent in shimmed callees) into the tracer's current
bucket.  Nothing is recorded while the bucket is ``None``, so set-up, input
generation and the post-run gates stay out of the timed-phase numbers.

Counters (vertices sampled, spin updates, contours found, ...) are read
from the calls' arguments and results after the callee returns.  The time
spent counting is charged to ``trace.counting`` rather than to the caller, so
the self times of all spans plus the counting time add up to the time spent
inside the outermost spans.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = ("branching", "triangulation", "ising", "contours", "percolation", "surgery", "cli")


class Tracer:
    def __init__(self) -> None:
        self.bucket: str | None = None
        self._stack: list[list[int]] = []
        self.self_ns: dict[tuple[str, str], int] = defaultdict(int)
        self.total_ns: dict[tuple[str, str], int] = defaultdict(int)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.counters: dict[tuple[str, str], float] = defaultdict(float)

    def count(self, name: str, value: float) -> None:
        self.counters[(self.bucket, name)] += value

    def _record(self, bucket: str, name: str, t0: int, frame: list[int]) -> None:
        dt = perf_counter_ns() - t0
        if self._stack:
            self._stack[-1][0] += dt
        key = (bucket, name)
        self.self_ns[key] += dt - frame[0]
        self.total_ns[key] += dt
        self.calls[key] += 1

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one call of ``name`` (when recording)."""
        bucket = self.bucket
        if bucket is None:
            yield
            return
        frame = [0]
        self._stack.append(frame)
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            self._stack.pop()
            self._record(bucket, name, t0, frame)

    def wrap(self, name: str, fn, counter=None):
        def shim(*args, **kwargs):
            bucket = self.bucket
            if bucket is None:
                return fn(*args, **kwargs)
            frame = [0]
            self._stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self._record(bucket, name, t0, frame)
            if counter is not None:
                c0 = perf_counter_ns()
                counter(self, fn, result, args, kwargs)
                dc = perf_counter_ns() - c0
                if self._stack:
                    self._stack[-1][0] += dc
                self.self_ns[(bucket, "trace.counting")] += dc
            return result

        shim.__wrapped__ = fn
        return shim

    def ms(self, bucket: str, name: str) -> float:
        return self.self_ns.get((bucket, name), 0) / 1e6


# -- counters read from arguments and results ---------------------------------


def _forest_vertices(tr: Tracer, fn, forest, args, kwargs) -> None:
    trees = sum(t.node_count for side in (forest.left, forest.right) for lst in side for t in lst)
    tr.count("branching.vertices", forest.levels + 1 + trees)


def _triangulation_vertices(tr: Tracer, fn, t, args, kwargs) -> None:
    tr.count("triangulation.vertices", t.vertex_count)


def _reach_hits(tr: Tracer, fn, est, args, kwargs) -> None:
    tr.count("percolation.hits", est.reach_count)


def _curve_hits(tr: Tracer, fn, curve, args, kwargs) -> None:
    tr.count("percolation.hits", sum(e.reach_count for e in curve))


def _root_open(tr: Tracer, fn, result, args, kwargs) -> None:
    open_set = args[1] if len(args) > 1 else kwargs["open_set"]
    tr.count("percolation.reach_calls", 1)
    tr.count("percolation.root_open", bool(open_set.marks[0]))


def _rpp_updates(tr: Tracer, fn, est, args, kwargs) -> None:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    t = bound.arguments["t"]
    n_free = t.vertex_count - t.level_sizes[-1]
    sweeps = bound.arguments["burn_in"] + est.sweeps
    tr.count("ising.spin_updates", sweeps * est.replicas * n_free)
    tr.count("ising.batch_stderr_sum", est.stderr)


def _sweep_updates(tr: Tracer, fn, state, args, kwargs) -> None:
    tr.count("ising.spin_updates", len(state.spins))


def _contours_found(tr: Tracer, fn, cs, args, kwargs) -> None:
    tr.count("contours.found", len(cs.contours))


def _reconstruction_success(tr: Tracer, fn, res, args, kwargs) -> None:
    tr.count("surgery.successes", int(res.success))


# (layer, attribute path, counter): the public functions the benchmark times.
SHIMS = (
    ("branching", "sample_spine_forest", _forest_vertices),
    ("triangulation", "forest_to_triangulation", _triangulation_vertices),
    ("triangulation", "enumerate_triangulations", None),
    ("triangulation", "Triangulation.canonical_key", None),
    ("percolation", "annealed_reach_probability", _reach_hits),
    ("percolation", "annealed_reach_curve", _curve_hits),
    ("percolation", "sample_open_set", None),
    ("percolation", "open_set_from_uniforms", None),
    ("percolation", "max_open_reach", _root_open),
    ("ising", "root_plus_probability", _rpp_updates),
    ("ising", "glauber_sweep", _sweep_updates),
    ("ising", "gibbs_exact", None),
    ("ising", "GibbsExact.marginal_plus", None),
    ("ising", "GibbsExact.prob_of", None),
    ("contours", "enumerate_contours", _contours_found),
    ("contours", "below_vertices", None),
    ("surgery", "randomized_reconstruction", _reconstruction_success),
    ("surgery", "insert_pairs", None),
    ("surgery", "collapse_run", None),
    ("surgery", "apply_modification", None),
    ("surgery", "embed", None),
)


def span_name(layer: str, path: str) -> str:
    return f"{layer}.{path.rsplit('.', 1)[-1]}"


def install(tracer: Tracer) -> None:
    """Put a shim around every function in ``SHIMS``, wherever it is bound."""
    package = importlib.import_module("cdt_ising")
    modules = [package] + [importlib.import_module(f"cdt_ising.{m}") for m in LAYERS]
    for layer, path, counter in SHIMS:
        module = importlib.import_module(f"cdt_ising.{layer}")
        name = span_name(layer, path)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            member = cls.__dict__[attr]
            if hasattr(member, "func"):  # functools.cached_property
                member.func = tracer.wrap(name, member.func, counter)
            else:
                setattr(cls, attr, tracer.wrap(name, member, counter))
            continue
        original = getattr(module, path)
        shim = tracer.wrap(name, original, counter)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, shim)
