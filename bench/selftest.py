"""Self-test of the benchmark at toy sizes.

    python3 bench/selftest.py

Checks that

* ``run.py`` emits every metric named in ``BENCHMARK.json``, with its unit,
  for ``--trace 0`` and ``--trace 1``, and that a traced run reproduces the
  untraced results;
* every correctness gate passes with the true references on a short run of
  its workload, and trips when one reference is deliberately wrong;
* the surgery-walk input streams run past the end of their first pass
  (1,657 ops of round-trip sites, 2,700 of modification plans) without
  repeating an input before it;
* ``run.py`` exits non-zero without a result when the library is missing.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

# (workload, toy op count, [(wrong references, gate names that must trip)])
WRONG = {
    "reach": (32, [
        ({"tv_level_map": (4, 4)}, ["reach.level1_tv", "reach.level5_tv", "reach.level10_tv"]),
        ({"curve_order": -1}, ["reach.curve_monotone"]),
        ({"trial_stream_offset": 1}, ["reach.replay"]),
    ]),
    "lattice-mcmc": (96, [
        ({"symmetry_total": 0.5}, [f"lattice.symmetry.i{i}.b{b}" for i in range(3) for b in (0.05, 2.0)]),
        ({"min_gap": 1.0}, [f"lattice.crossover.i{i}" for i in range(3)]),
    ]),
    "small-exact": (6, [
        ({"flip_cost": 2.5}, ["small.flip_ratio"]),
        ({"marginal_shift": 0.25}, ["small.glauber_marginals"]),
    ]),
    "surgery-walk": (4, [
        ({"roundtrip_to_original": False}, ["surgery.roundtrip"]),
        ({"overcount_bound_scale": 0.0}, ["surgery.overcount"]),
        ({"frequency_bound_scale": 1e4},
         ["surgery.reconstruction.modified", "surgery.reconstruction.chain"]),
    ]),
}


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        raise SystemExit(1)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_emission(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", "surgery-walk", "--seed", "5",
               "--seconds", "1", "--trace", str(trace), "--ops", "6"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
        check(proc.returncode == 0, f"--trace {trace} exits 0")
        out = last_json(proc.stdout)
        check(set(out) == {"correct", "attempted", "failed", "metrics"}, f"--trace {trace} result keys")
        check(out["correct"] is True and out["failed"] == 0, f"--trace {trace} correct")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in out["metrics"].items()}
        check(got == want, f"--trace {trace} emits exactly the {len(want)} {key} metrics with units")
        check(all(isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool)
                  for m in out["metrics"].values()), f"--trace {trace} values are numbers")
        if trace:
            check(out["metrics"]["trace.results_match"]["value"] == 1,
                  "traced results equal the untraced reference")


def check_gates() -> None:
    from workloads import WORKLOADS

    for name, (ops, variants) in WRONG.items():
        workload = run.ready_workload(name, 11)
        phase = run.timed_phase(workload, 0.0, 0, ops)
        check(not phase.raised, f"{name}: {ops} toy ops run")
        gates = workload.gates(phase.records)
        bad = [g.name for g in gates if not g.ok]
        check(not bad, f"{name}: all {len(gates)} gates pass with true references {bad or ''}")
        true_refs = workload.refs
        for wrong, names in variants:
            workload.refs = replace(true_refs, **wrong)
            tripped = {g.name for g in workload.gates(phase.records) if not g.ok}
            check(set(names) <= tripped, f"{name}: {wrong} trips {', '.join(names)}")
        workload.refs = true_refs
    check(set(WRONG) == set(WORKLOADS), "every workload has gate checks")


def check_endless_inputs() -> None:
    from cdt_ising import surgery
    from workloads import SurgeryWalk

    workload = SurgeryWalk(11)
    workload.setup()
    n_sites = sum(len(surgery.insertion_sites(t, 1, pos))
                  for t in workload.enumerated for pos in range(t.level_sizes[1]))
    n_plans = int(workload.plan_offsets[-1])
    ops = n_plans // workload.MODIFICATIONS + 100
    sites, plans = [], []
    for i in range(ops):
        _, op_sites, op_plans = workload.next_input(i)
        sites += [(t.level_sizes, t.fans, pos, up, down) for t, _, pos, up, down in op_sites]
        plans += op_plans
    check(len(sites) == ops * workload.ROUNDTRIPS and len(plans) == ops * workload.MODIFICATIONS,
          f"surgery-walk inputs run on past op {n_sites // workload.ROUNDTRIPS} (sites) "
          f"and op {n_plans // workload.MODIFICATIONS} (plans) to op {ops}")
    check(len(set(sites[:n_sites])) == n_sites and len(set(plans[:n_plans])) == n_plans,
          f"surgery-walk inputs are distinct within a pass ({n_sites} sites, {n_plans} plans)")


def check_missing_library(spec: dict) -> None:
    with tempfile.TemporaryDirectory(prefix=".bench-selftest-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                                 "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=180)
        check(proc.returncode != 0 and "metrics" not in proc.stdout,
              "without the library the run exits non-zero and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run.import_library()
    check_emission(spec)
    check_gates()
    check_endless_inputs()
    check_missing_library(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
