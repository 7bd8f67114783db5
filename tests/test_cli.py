"""Tests for the experiment driver: determinism, schemas, worker invariance."""

import json
import os
import subprocess
import sys

import pytest

from cdt_ising.branching import sample_spine_forest
from cdt_ising.cli import main
from cdt_ising.reports import ExperimentReport
from cdt_ising.rng import stream
from cdt_ising.triangulation import forest_to_triangulation, from_text


def data_rows(path) -> list[str]:
    lines = path.read_text().splitlines()
    return [ln for ln in lines if not ln.startswith("#")]


def run(tmp_path, *argv) -> int:
    return main([*argv, "--out", str(tmp_path / "out.csv")])


def test_sample_report(tmp_path, capsys):
    out = tmp_path / "s.csv"
    rc = main(["sample", "--levels", "3", "--trials", "50", "--seed", "3",
               "--save", "2", "--out", str(out)])
    assert rc == 0
    rows = data_rows(out)
    assert rows[0] == "level,size,count"
    # each saved file decodes to the triangulation of its trial's stream
    for i in range(2):
        saved = from_text(out.with_suffix(f".t{i}.lt").read_text())
        assert saved == forest_to_triangulation(sample_spine_forest(stream(3, i), 3))


def test_stats_report_and_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        rc = main(["stats", "-n", "3", "--trials", "4000", "--seed", "7",
                   "--out", str(path)])
        assert rc == 0
    assert data_rows(a) == data_rows(b)
    header, *rows = data_rows(a)
    assert header == "level,trials,tv_distance,threshold,passed"
    # with 4000 trials the fit at n <= 3 is already comfortably below 0.05
    for row in rows:
        assert float(row.split(",")[2]) < 0.05


def test_stats_full_scale_fit(tmp_path):
    # the flagship invocation: 10^5 samples fit the level-size law, with
    # goodness-of-fit rows at depths 1, 3, and 5
    out = tmp_path / "full.csv"
    rc = main(["stats", "--n", "5", "--trials", "100000", "--seed", "7",
               "--out", str(out)])
    assert rc == 0
    rows = data_rows(out)[1:]
    assert [r.split(",")[0] for r in rows] == ["1", "3", "5"]
    for row in rows:
        fields = row.split(",")
        assert float(fields[2]) < 0.015
        assert fields[4] == "1"


def assert_worker_invariant(tmp_path, *argv):
    """The whole CSV report, config line included, is the same under 1 and 2
    workers; only the timestamp may differ."""
    reports = []
    for w in ("1", "2"):
        out = tmp_path / f"w{w}.csv"
        assert main([*argv, "--workers", w, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        reports.append([ln for ln in lines if not ln.startswith("# generated_at:")])
    assert reports[0] == reports[1]
    assert any(ln.startswith("# config: ") for ln in reports[0])


def test_a_serial_run_loads_no_process_pool(tmp_path):
    # the pool is imported in the --workers > 1 branch only, so importing
    # the CLI module and running it serially load neither concurrent.futures
    # nor multiprocessing
    code = ("import sys; from cdt_ising.cli import main; "
            f"main(['sample', '--levels', '2', '--trials', '5', '--out', {str(tmp_path / 's.csv')!r}]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('concurrent', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.stdout.splitlines()[-1] == "[]"


def test_stats_worker_invariance(tmp_path):
    assert_worker_invariant(tmp_path, "stats", "-n", "2", "--trials", "3000", "--seed", "9")


def test_sample_worker_invariance(tmp_path):
    assert_worker_invariant(tmp_path, "sample", "--levels", "4", "--trials", "1500", "--seed", "5")


def test_ising_scan_worker_invariance(tmp_path):
    assert_worker_invariant(tmp_path, "ising-scan", "--levels", "3", "--beta-grid", "0.1,0.5",
                            "--sweeps", "64", "--replicas", "1", "--burn-in", "16", "--seed", "3")


def test_ising_scan_beta_zero(tmp_path):
    out = tmp_path / "scan.csv"
    rc = main(["ising-scan", "--levels", "3", "--beta", "0.0", "--sweeps", "1500",
               "--replicas", "2", "--burn-in", "50", "--seed", "11", "--out", str(out)])
    assert rc == 0
    header, *rows = data_rows(out)
    assert header == "beta,bc,estimate,stderr,sweeps,replicas"
    assert len(rows) == 2  # both boundary conditions
    for row in rows:
        fields = row.split(",")
        est, se = float(fields[2]), float(fields[3])
        assert abs(est - 0.5) < max(4 * se, 0.05)


def test_ising_scan_survives_exp_overflow(tmp_path):
    # at beta=200 a minus neighbourhood sends exp(-2*beta*S) past the float range
    out = tmp_path / "scan.csv"
    rc = main(["ising-scan", "--levels", "3", "--beta", "200", "--bc", "minus",
               "--out", str(out)])
    assert rc == 0
    header, row = data_rows(out)
    assert row.split(",")[:3] == ["200.0", "minus", "0.0"]


def test_ising_scan_requires_beta(tmp_path, capsys):
    err = rejected(capsys, "ising-scan", "--levels", "3", "--out", str(tmp_path / "x.csv"))
    assert "--beta" in err and "--beta-grid" in err
    assert not (tmp_path / "x.csv").exists()


def test_contours_report(tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["contours", "--levels", "3", "--width-cap", "3", "--beta", "1.0",
               "--seed", "13", "--out", str(out)])
    assert rc == 0
    header, *rows = data_rows(out)
    assert header == "length,count,partial_sum"
    partials = [float(r.split(",")[2]) for r in rows]
    assert partials == sorted(partials)


def test_percolation_report_json(tmp_path):
    out = tmp_path / "p.json"
    rc = main(["percolation", "--levels", "4,6", "--beta", "0.1", "--trials", "300",
               "--seed", "17", "--format", "json", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == ["beta", "levels", "trials", "reach_count", "estimate", "stderr"]
    assert len(payload["rows"]) == 2
    for row in payload["rows"]:
        assert row[2] == 300


def test_percolation_worker_invariance(tmp_path):
    # 2,500 trials are three chunks of cli._CHUNK, so two workers split them
    assert_worker_invariant(tmp_path, "percolation", "--levels", "4", "--beta", "0.1",
                            "--trials", "2500", "--seed", "19")


def test_percolation_grid_equals_per_beta_runs(tmp_path):
    grid = tmp_path / "grid.csv"
    main(["percolation", "--levels", "4,7", "--beta-grid", "0.05,0.1,0.3", "--trials", "150",
          "--seed", "21", "--out", str(grid)])
    single = []
    for beta in ("0.05", "0.1", "0.3"):
        out = tmp_path / f"b{beta}.csv"
        main(["percolation", "--levels", "4,7", "--beta", beta, "--trials", "150",
              "--seed", "21", "--out", str(out)])
        single.append(data_rows(out)[1:])
    # grid rows run level by level, betas inside
    per_level = [row for level in zip(*single) for row in level]
    assert data_rows(grid)[1:] == per_level


def test_csv_json_mirror(tmp_path):
    csv_path = tmp_path / "m.csv"
    json_path = tmp_path / "m.json"
    main(["oracle", "--levels", "2", "--width-cap", "3", "--out", str(csv_path)])
    main(["oracle", "--levels", "2", "--width-cap", "3", "--format", "json",
          "--out", str(json_path)])
    csv_rows = [r.split(",") for r in data_rows(csv_path)[1:]]
    payload = json.loads(json_path.read_text())
    assert len(csv_rows) == len(payload["rows"])
    for c, j in zip(csv_rows, payload["rows"]):
        assert c[0] == j[0]
        assert float(c[1]) == j[1]


def test_oracle_all_pass(tmp_path):
    out = tmp_path / "o.csv"
    rc = main(["oracle", "--levels", "2", "--width-cap", "4", "--beta", "0.8",
               "--out", str(out)])
    assert rc == 0
    for row in data_rows(out)[1:]:
        assert row.split(",")[-1] == "1"


def test_surgery_selftest(tmp_path):
    out = tmp_path / "ss.csv"
    rc = main(["surgery-selftest", "--attempts", "3000", "--seed", "23",
               "--out", str(out)])
    assert rc == 0
    rows = data_rows(out)[1:]
    assert all(r.split(",")[-1] == "1" for r in rows)
    # the rows, byte for byte: how surgery lays out its strips or checks its
    # slots moves no draw and no result
    assert data_rows(out) == [
        "check,value,bound,passed",
        "roundtrip_failures,0.0,0.0,1",
        "reconstruction_frequency,0.060333333333333336,2.314814814814815e-05,1",
    ]


def test_invalid_config_exits_nonzero(tmp_path):
    rc = main(["contours", "--levels", "3", "--max-len", "99",
               "--out", str(tmp_path / "z.csv")])
    assert rc == 2


def test_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CDT_ISING_OUTDIR", str(tmp_path))
    rc = main(["oracle", "--levels", "1", "--width-cap", "2"])
    assert rc == 0
    assert (tmp_path / "oracle_seed0.csv").exists()


def rejected(capsys, *argv) -> str:
    """Run the CLI expecting argparse to reject the arguments; return stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_stats_rejects_zero_trials(tmp_path, capsys):
    err = rejected(capsys, "stats", "--trials", "0", "--out", str(tmp_path / "x.csv"))
    assert "argument --trials: expected an integer >= 1, got '0'" in err
    assert not (tmp_path / "x.csv").exists()


def test_rejects_non_integer_trials(tmp_path, capsys):
    err = rejected(capsys, "stats", "--trials", "abc", "--out", str(tmp_path / "x.csv"))
    assert "argument --trials: invalid int value: 'abc'" in err
    assert not (tmp_path / "x.csv").exists()


def test_rejects_a_beta_that_is_not_a_number(tmp_path, capsys):
    err = rejected(capsys, "ising-scan", "--beta", "x", "--out", str(tmp_path / "x.csv"))
    assert "argument --beta: invalid float value: 'x'" in err
    assert not (tmp_path / "x.csv").exists()


def test_percolation_rejects_negative_beta(tmp_path, capsys):
    err = rejected(capsys, "percolation", "--beta", "-1", "--trials", "5",
                   "--out", str(tmp_path / "x.csv"))
    assert "--beta" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("beta_args", [(), ("--beta-grid", "")], ids=["no-flag", "empty-grid"])
def test_percolation_requires_a_beta(tmp_path, capsys, beta_args):
    err = rejected(capsys, "percolation", "--levels", "3", *beta_args, "--trials", "5",
                   "--out", str(tmp_path / "x.csv"))
    assert "--beta-grid" in err
    if not beta_args:
        assert "--beta " in err  # both flags are named
    assert list(tmp_path.iterdir()) == []


def test_percolation_rejects_zero_levels(tmp_path, capsys):
    err = rejected(capsys, "percolation", "--levels", "0", "--beta", "0.1", "--trials", "5",
                   "--out", str(tmp_path / "x.csv"))
    assert "--levels" in err


def test_rejects_zero_workers(tmp_path, capsys):
    err = rejected(capsys, "sample", "--workers", "0", "--out", str(tmp_path / "x.csv"))
    assert "--workers" in err


def test_rejects_negative_seed(tmp_path, capsys):
    err = rejected(capsys, "sample", "--seed", "-1", "--out", str(tmp_path / "x.csv"))
    assert "--seed" in err


def test_contours_rejects_empty_length_cap(tmp_path, capsys):
    err = rejected(capsys, "contours", "--max-len", "0", "--out", str(tmp_path / "x.csv"))
    assert "--max-len" in err


def test_contours_rejects_nan_beta(tmp_path, capsys):
    out = tmp_path / "c.json"
    err = rejected(capsys, "contours", "--beta", "nan", "--format", "json", "--out", str(out))
    assert "--beta" in err
    assert not out.exists()
    # and a report never writes NaN, which is not JSON
    report = ExperimentReport("contours", {"beta": float("nan")}, ("x",), [(1.0,)])
    with pytest.raises(ValueError):
        report.to_json(out)


@pytest.mark.parametrize("argv, flag", [
    (("stats", "--threshold", "nan"), "--threshold"),
    (("ising-scan", "--beta", "0.1", "--sweeps", "0"), "--sweeps"),
    (("contours", "--width-cap", "0"), "--width-cap"),
    (("oracle", "--width-cap", "-1"), "--width-cap"),
    (("percolation", "--beta", "0.9", "--beta-grid", "0.1", "--trials", "5"), "--beta-grid"),
    (("ising-scan", "--beta", "0.9", "--beta-grid", "0.1"), "--beta-grid"),
    (("ising-scan", "--beta", "-0.5"), "--beta"),  # the model is the ferromagnet
])
def test_rejects_out_of_range_flag(tmp_path, capsys, argv, flag):
    out = tmp_path / "x.csv"
    err = rejected(capsys, *argv, "--out", str(out))
    assert flag in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("contours", "--trials", "5"),
    ("contours", "--workers", "2"),
    ("oracle", "--trials", "5"),
    ("oracle", "--workers", "2"),
    ("surgery-selftest", "--trials", "5"),
    ("surgery-selftest", "--workers", "2"),
    ("ising-scan", "--beta", "0.1", "--trials", "5"),
])
def test_rejects_flag_the_subcommand_ignores(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    err = rejected(capsys, *argv, "--out", str(out))
    assert "unrecognized arguments" in err
    assert not out.exists()


# Each subcommand's configuration is every flag but --out, --format and
# --workers, plus what the run found (contours' level_sizes, the self-test's
# roundtrip_sites); oracle's --seed draws nothing but is recorded too.
REPORT_CONFIGS = [
    (("sample", "--levels", "3", "--trials", "20", "--seed", "3", "--save", "1"),
     {"levels": 3, "save": 1, "seed": 3, "trials": 20}),
    (("stats", "-n", "2", "--trials", "100", "--seed", "7"),
     {"levels": 2, "seed": 7, "threshold": 0.015, "trials": 100}),
    (("ising-scan", "--levels", "3", "--beta-grid", "0.1,0.5", "--bc", "plus", "--sweeps", "32",
      "--replicas", "1", "--burn-in", "2", "--seed", "11"),
     {"bc": "plus", "betas": [0.1, 0.5], "burn_in": 2, "levels": 3, "replicas": 1, "seed": 11,
      "sweeps": 32}),
    (("contours", "--levels", "3", "--width-cap", "3", "--beta", "0.5", "--seed", "13"),
     {"beta": 0.5, "level_sizes": [1, 2, 3, 1], "levels": 3, "max_len": None, "seed": 13,
      "width_cap": 3}),
    (("percolation", "--levels", "4,6", "--beta-grid", "0.1,0.2", "--trials", "50",
      "--seed", "17"),
     {"betas": [0.1, 0.2], "levels": [4, 6], "seed": 17, "trials": 50}),
    (("surgery-selftest", "--attempts", "50", "--seed", "23"),
     {"attempts": 50, "roundtrip_sites": 211, "seed": 23}),
    (("oracle", "--levels", "2", "--width-cap", "3", "--beta", "0.8", "--seed", "5"),
     {"beta": 0.8, "levels": 2, "seed": 5, "width_cap": 3}),
]


@pytest.mark.parametrize("argv, config", REPORT_CONFIGS, ids=[a[0] for a, _ in REPORT_CONFIGS])
def test_report_config(tmp_path, argv, config):
    out = tmp_path / "r.json"
    assert main([*argv, "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["command"] == argv[0]
    assert payload["config"] == config
