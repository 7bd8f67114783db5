"""Run the benchmark over several seeds and record a trajectory point.

    python3 bench/record.py --label seed --seeds 1 2 3 4 5 6 7 8 9 10

For each workload this runs ``run.py`` once per seed with ``--trace 0``
(each run a fresh process) and once with ``--trace 1`` on the first seed,
then writes ``bench/trajectory/BENCH_<label>.json`` with every run's
metrics, the per-metric median and spread (interquartile range over the
median, as ``statistics.quantiles(values, n=4)`` gives the quartiles) and
the per-layer table of the traced run.  It prints one line per
end-to-end metric with its spread against a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(lines[-2])["provenance"]
    return result


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"label": args.label, "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run_once(spec, name, seed, 0) for seed in args.seeds]
        entry = {"seeds": args.seeds, "runs": runs, "summary": {}}
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in runs]
            if len(values) >= 2:
                median, rel = spread(values)
                entry["summary"][metric] = {"median": median, "spread": rel}
                flag = "ok " if rel < bounds[metric] / 3 else "WIDE"
                print(f"{flag} {name:13s} {metric:12s} median={median:12.4f} "
                      f"spread={rel:.4f} bound/3={bounds[metric] / 3:.4f}", flush=True)
        entry["correct"] = all(r["correct"] and r["failed"] == 0 for r in runs)
        traced = run_once(spec, name, args.seeds[0], 1)
        entry["traced"] = traced
        entry["correct"] = entry["correct"] and traced["correct"]
        print(f"{name}: correct={entry['correct']}", flush=True)
        out["workloads"][name] = entry
    dest = BENCH / "trajectory" / f"BENCH_{args.label}.json"
    dest.parent.mkdir(exist_ok=True)
    dest.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {dest.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
