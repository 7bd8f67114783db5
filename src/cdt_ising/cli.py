"""Batch experiment driver.

Subcommands: ``sample``, ``stats``, ``ising-scan``, ``contours``,
``percolation``, ``surgery-selftest``, ``oracle``.  Every run is seeded,
emits a CSV or JSON report with the resolved configuration embedded, and
reproduces its data rows byte for byte under the same configuration and
seed.  Trial-parallel subcommands accept ``--workers``; per-trial RNG
streams are keyed by absolute trial index, so results do not depend on the
worker count.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter

from . import branching, contours, ising, percolation, surgery, triangulation
from .reports import ExperimentReport, resolve_output
from .rng import TrialKeys, stream

_CHUNK = 1024


def _run_all(fn, calls: list[tuple], workers: int) -> list:
    """fn(*c) for every argument tuple c, serially or in a process pool."""
    if workers <= 1:
        return [fn(*c) for c in calls]
    # imported here: every serial run, and each import of this module, skips
    # loading concurrent.futures and multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *c) for c in calls]
        return [f.result() for f in futures]


def _trial_chunks(head: tuple, total: int) -> list[tuple]:
    """Argument tuples (*head, start, count) covering trials 0..total-1."""
    return [(*head, lo, min(_CHUNK, total - lo)) for lo in range(0, total, _CHUNK)]


def _level_size_chunk(seed: int, levels: int, start: int, count: int) -> Counter:
    """Histogram of (level, size) pairs over the spine samples of the trials."""
    hist: Counter = Counter()
    for walks in branching._spine_passes(TrialKeys(seed), range(start, start + count), levels):
        for sizes, *_ in walks:
            hist.update(enumerate(sizes))
    return hist


def _level_size_histogram(args) -> Counter:
    hist: Counter = Counter()
    calls = _trial_chunks((args.seed, args.levels), args.trials)
    for part in _run_all(_level_size_chunk, calls, args.workers):
        hist.update(part)
    return hist


_UNRECORDED = ("command", "fn", "out", "format", "workers")


def _report(args, schema: tuple[str, ...], rows: list[tuple], summary: dict | None = None,
            **facts) -> ExperimentReport:
    """The report of one run of args.command.  Its configuration is every flag
    that shapes the rows (all but --out, --format and --workers) plus the
    facts the run found, given by keyword."""
    config = {k: v for k, v in vars(args).items() if k not in _UNRECORDED}
    return ExperimentReport(args.command, {**config, **facts}, schema, rows, summary or {})


# -- sample -------------------------------------------------------------------


def cmd_sample(args) -> ExperimentReport:
    hist = _level_size_histogram(args)
    if args.save > 0:
        base = resolve_output(args.out, f"sample_seed{args.seed}", args.format)
        for i in range(args.save):
            t = triangulation.forest_to_triangulation(
                branching.sample_spine_forest(stream(args.seed, i), args.levels)
            )
            path = base.with_suffix(f".t{i}.lt")
            path.write_text(triangulation.to_text(t))
    rows = [(n, k, c) for (n, k), c in sorted(hist.items())]
    return _report(args, ("level", "size", "count"), rows, {"trials": args.trials})


# -- stats --------------------------------------------------------------------


def tv_distance_to_level_law(counts: dict[int, int], n: int, trials: int) -> float:
    """Total-variation distance between an empirical level-size histogram and
    the exact conditioned level-size law."""
    k_max = max(max(counts), 400)
    tv = 0.0
    tail = 1.0
    for k in range(1, k_max + 1):
        p = branching.level_size_pmf(n, k)
        tail -= p
        tv += abs(counts.get(k, 0) / trials - p)
    return 0.5 * (tv + max(tail, 0.0))


def cmd_stats(args) -> ExperimentReport:
    hist = _level_size_histogram(args)
    check_levels = sorted({1, min(3, args.levels), args.levels})
    rows = []
    for n in check_levels:
        counts = {k: c for (lvl, k), c in hist.items() if lvl == n}
        tv = tv_distance_to_level_law(counts, n, args.trials)
        rows.append((n, args.trials, tv, args.threshold, int(tv < args.threshold)))
    return _report(args, ("level", "trials", "tv_distance", "threshold", "passed"), rows,
                   {"all_passed": int(all(r[4] for r in rows))})


# -- ising-scan ---------------------------------------------------------------


def _scan_point(seed: int, levels: int, beta: float, bc: str, sweeps: int,
                replicas: int, burn_in: int) -> tuple:
    t = triangulation.forest_to_triangulation(
        branching.sample_spine_forest(stream(seed, 0), levels + 1)
    )
    # every beta of one boundary condition shares its chain seed
    chain_seed = int(stream(seed, 1 if bc == "plus" else 2).integers(2**63))
    est = ising.root_plus_probability(
        t, beta, bc, sweeps=sweeps, replicas=replicas, seed=chain_seed, burn_in=burn_in,
    )
    return (beta, bc, est.estimate, est.stderr, sweeps, replicas)


def cmd_ising_scan(args) -> ExperimentReport:
    bcs = ["plus", "minus"] if args.bc == "both" else [args.bc]
    calls = [
        (args.seed, args.levels, b, bc, args.sweeps, args.replicas, args.burn_in)
        for b in args.betas
        for bc in bcs
    ]
    rows = _run_all(_scan_point, calls, args.workers)
    return _report(args, ("beta", "bc", "estimate", "stderr", "sweeps", "replicas"), rows)


# -- contours -----------------------------------------------------------------


def _small_triangulation(seed: int, levels: int, width_cap: int) -> triangulation.Triangulation:
    """First seeded spine sample whose widths fit the caps (deterministic)."""
    for i in range(10000):
        sf = branching.sample_spine_forest(stream(seed, i), levels)
        t = triangulation.forest_to_triangulation(sf)
        if max(t.level_sizes) <= width_cap and t.triangle_count <= contours.MAX_EXHAUSTIVE_TRIANGLES:
            return t
    raise ValueError("no sample fits the caps; lower --levels or raise --width-cap")


def cmd_contours(args) -> ExperimentReport:
    t = _small_triangulation(args.seed, args.levels, args.width_cap)
    cs = contours.enumerate_contours(t, args.max_len)
    series = contours.peierls_series(cs.counts, args.beta)
    summary = {
        "triangles": t.triangle_count,
        "total": series.total,
        "tail_below_one_from": series.tail_below_one_from,
    }
    return _report(args, ("length", "count", "partial_sum"), list(series.rows), summary,
                   level_sizes=list(t.level_sizes))


# -- percolation --------------------------------------------------------------


def cmd_percolation(args) -> ExperimentReport:
    rows = []
    for levels in args.levels:
        # one coupled pass over the beta grid: each beta's hits equal a run
        # of that beta alone, since all betas threshold the same uniforms
        calls = _trial_chunks((levels, args.betas, args.seed), args.trials)
        parts = _run_all(percolation.reach_hits, calls, args.workers)
        for beta, hits in zip(args.betas, map(sum, zip(*parts))):
            est = percolation.ReachEstimate(beta, levels, args.trials, hits)
            rows.append((beta, levels, args.trials, hits, est.estimate, est.stderr))
    return _report(args, ("beta", "levels", "trials", "reach_count", "estimate", "stderr"), rows)


# -- surgery-selftest ---------------------------------------------------------


def _reconstruction_fixture():
    t = triangulation.forest_to_triangulation(((2,), (5, 1), (1,) * 6))
    pn = surgery.path_neighborhood(t, [(0, 0), (1, 0)])
    plan = {1: ((5,) * 10, (1,) * 10)}
    t_mod = surgery.apply_modification(t, pn, plan, threshold=8, count=10)
    return t, pn, t_mod


def cmd_surgery_selftest(args) -> ExperimentReport:
    rows = []
    fails = 0
    sites = 0
    for t, _ in triangulation.enumerate_triangulations(2, 3):
        for pos in range(t.level_sizes[1]):
            for site in surgery.insertion_sites(t, 1, pos):
                sites += 1
                res = surgery.insert_pairs(
                    t, surgery.Insertion(1, pos, ((site.up_slot, site.down_slot),))
                )
                if surgery.collapse_run(res.triangulation, *res.new_horizontal_run) != t:
                    fails += 1
    rows.append(("roundtrip_failures", float(fails), 0.0, int(fails == 0)))

    t, pn, t_mod = _reconstruction_fixture()
    keys, wins = TrialKeys(args.seed), 0
    for i in range(args.attempts):  # attempt i draws from stream(seed, i)
        r = surgery.randomized_reconstruction(t_mod, t, pn.path, keys.stream(i))
        wins += r.success
    freq = wins / args.attempts
    bound = surgery.reconstruction_probability_bound(pn.degrees())
    se = math.sqrt(max(freq * (1 - freq), 1e-12) / args.attempts)
    rows.append(("reconstruction_frequency", freq, bound, int(freq >= bound - 3 * se)))
    return _report(args, ("check", "value", "bound", "passed"), rows,
                   {"all_passed": int(all(r[3] for r in rows))}, roundtrip_sites=sites)


# -- oracle -------------------------------------------------------------------


def cmd_oracle(args) -> ExperimentReport:
    rows = []
    # measure consistency: exp(-mu*F) versus the offspring-product form
    enum = triangulation.enumerate_triangulations(args.levels, args.width_cap)
    z1 = sum(w for _, w in enum)
    z2 = sum(triangulation.forest_weight_product(t) for t, _ in enum)
    err = max(
        abs(w / z1 - triangulation.forest_weight_product(t) / z2) for t, w in enum
    )
    rows.append(("measure_product_form", err, 1e-12, int(err < 1e-12)))

    # spin-flip symmetry on the deepest all-ones instance
    t = triangulation.forest_to_triangulation(((1,),) * args.levels)
    gp = ising.gibbs_exact(t, args.beta, "plus")
    gm = ising.gibbs_exact(t, args.beta, "minus")
    err = abs((1.0 - gp.root_plus()) - gm.root_plus())
    rows.append(("spin_flip_symmetry", err, 1e-12, int(err < 1e-12)))

    # contour flip ratio on the same instance
    minus = ising.SpinState.constant(t, -1, "minus", args.beta)
    worst = 0.0
    for c in contours.enumerate_contours(t).contours:
        ratio = gm.prob_of(contours.flip_inside(t, minus, c).spins) / gm.prob_of(minus.spins)
        expected = math.exp(-2.0 * args.beta * c.length)
        worst = max(worst, abs(ratio - expected) / expected)
    rows.append(("contour_flip_ratio", worst, 1e-12, int(worst < 1e-12)))
    return _report(args, ("check", "max_error", "tolerance", "passed"), rows,
                   {"all_passed": int(all(r[3] for r in rows))})


# -- argument plumbing ---------------------------------------------------------


def _checked(convert, ok, expected: str):
    """An argparse type: convert the text, then refuse it unless ok(value)."""
    def check(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    check.__name__ = convert.__name__  # argparse's "invalid int value: 'x'"
    return check


def _listed(item, what: str):
    """An argparse type: a comma list of item values, at least one."""
    def listed(text: str) -> list:
        values = [item(x) for x in text.split(",") if x.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"expected at least one {what}")
        return values
    listed.__name__ = f"{what} list"
    return listed


_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
_nonnegative_int = _checked(int, lambda v: v >= 0, "an integer >= 0")
_beta = _checked(float, lambda v: math.isfinite(v) and v >= 0, "a finite beta >= 0")
_threshold = _checked(float, lambda v: math.isfinite(v) and 0 < v <= 1, "a threshold in (0, 1]")
_width_cap = _checked(int, lambda v: 1 <= v <= triangulation.MAX_ENUM_WIDTH,
                      f"a width cap in 1..{triangulation.MAX_ENUM_WIDTH}")
_beta_grid = _listed(_beta, "beta")
_levels_list = _listed(_positive_int, "level")


def _one_beta(text: str) -> list[float]:
    return [_beta(text)]


_one_beta.__name__ = _beta.__name__  # argparse's "invalid float value: 'x'"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdt-ising",
        description="Seeded experiments on Ising models over random Lorentzian triangulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trials=None, workers=False):
        """Flags every subcommand takes, plus --trials (with this default)
        and --workers where the subcommand uses them."""
        p.add_argument("--seed", type=_nonnegative_int, default=0, help="master seed (64-bit)")
        if trials is not None:
            p.add_argument("--trials", type=_positive_int, default=trials)
        p.add_argument("--out", type=str, default=None, help="output path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if workers:
            p.add_argument("--workers", type=_positive_int, default=1)

    def beta_flags(p):
        """Exactly one of --beta x and --beta-grid x,y,..., both stored as ``betas``."""
        beta = p.add_mutually_exclusive_group(required=True)  # else the later flag wins
        beta.add_argument("--beta", type=_one_beta, dest="betas", metavar="BETA")
        beta.add_argument("--beta-grid", type=_beta_grid, dest="betas", metavar="BETA_GRID")

    p = sub.add_parser("sample", help="sample triangulations and level-size histograms")
    common(p, trials=1000, workers=True)
    p.add_argument("--levels", "--n", "-n", type=_positive_int, default=5)
    p.add_argument("--save", type=_nonnegative_int, default=0,
                   help="save this many sampled triangulations")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("stats", help="level-size law goodness of fit")
    common(p, trials=100000, workers=True)
    p.add_argument("--levels", "--n", "-n", type=_positive_int, default=5)
    p.add_argument("--threshold", type=_threshold, default=0.015)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("ising-scan", help="root magnetization over a beta grid")
    common(p, workers=True)
    p.add_argument("--levels", "--n", "-n", type=_positive_int, default=10)
    beta_flags(p)
    p.add_argument("--bc", choices=("plus", "minus", "both"), default="both")
    p.add_argument("--sweeps", type=_positive_int, default=2000)
    p.add_argument("--replicas", type=_positive_int, default=2)
    p.add_argument("--burn-in", type=_nonnegative_int, default=1000)
    p.set_defaults(fn=cmd_ising_scan)

    p = sub.add_parser("contours", help="enumerate winding contours and the contour series")
    common(p)
    p.add_argument("--levels", "--n", "-n", type=_positive_int, default=3)
    p.add_argument("--width-cap", type=_width_cap, default=4)
    p.add_argument("--beta", type=_beta, default=1.0)
    p.add_argument("--max-len", type=_positive_int, default=None)
    p.set_defaults(fn=cmd_contours)

    p = sub.add_parser("percolation", help="annealed open-cluster reach estimates")
    common(p, trials=10000, workers=True)
    p.add_argument("--levels", type=_levels_list, default=[10, 30])
    beta_flags(p)
    p.set_defaults(fn=cmd_percolation)

    p = sub.add_parser("surgery-selftest", help="insert/collapse roundtrips and reconstruction")
    common(p)
    p.add_argument("--attempts", type=_positive_int, default=20000)
    p.set_defaults(fn=cmd_surgery_selftest)

    p = sub.add_parser("oracle", help="exact enumeration cross-checks")
    common(p)
    p.add_argument("--levels", "--n", "-n", type=_positive_int, default=2)
    p.add_argument("--width-cap", type=_width_cap, default=4)
    p.add_argument("--beta", type=_beta, default=1.0)
    p.set_defaults(fn=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.fn(args)
        path = resolve_output(args.out, f"{report.command}_seed{args.seed}", args.format)
        report.write(path, args.format)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{report.command}: {len(report.rows)} rows -> {path}")
    if report.summary:
        print(f"summary: {report.summary}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
