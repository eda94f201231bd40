"""The studies in ``scripts/``, each run in a subprocess on a tiny world."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from wifimob.experiments import (
    InitialPeriod,
    RandomFraction,
    Scenario,
    TopRouters,
    paper_grid,
    prepare_experiment_data,
    run_experiment,
    write_experiment_grid_csv,
    write_histograms_csv,
)
from wifimob.synthgen import WorldSpec, generate_world, simulate_sensor_arrays

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(script: str, *args) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(SCRIPTS / script), *map(str, args)]
    return subprocess.run(cmd, capture_output=True, text=True, check=False)


@pytest.fixture(scope="module")
def tiny_data():
    """run_study.py's world at --users 2 --days 2."""
    spec = WorldSpec(seed=7, n_users=2, n_days=2)
    return prepare_experiment_data(simulate_sensor_arrays(generate_world(spec), spec))


def test_paper_grid_cells(tiny_data):
    cells = paper_grid(tiny_data, 2, seed=1)
    f_daily = 2 * 2 / tiny_data.pairs.n_events()
    strategies = [
        InitialPeriod(days=7),
        InitialPeriod(days=28),
        RandomFraction(f=f_daily, seed=1),
        RandomFraction(f=4 * f_daily, seed=1),
        TopRouters(k=5),
        TopRouters(k=20),
    ]
    assert len(cells) == 18
    assert cells == [(s, sc) for s in strategies for sc in Scenario]
    assert {s.seed for s, _ in paper_grid(tiny_data, 2, seed=9)[6:12]} == {9}


def _random_rates(data, n_days):
    """The two RandomFraction rates of ``paper_grid``, once all 18 cells ran."""
    cells = paper_grid(data, n_days, seed=1)
    assert len(cells) == 18
    for strategy, scenario in cells:
        run_experiment(data, strategy, scenario)
    return [s.f for s, _ in cells[6:12:3]]


def test_paper_grid_caps_random_rates_on_sparse_gps():
    """Hourly GPS leaves 7 paired events in 2 users x 2 days, fewer than
    4 a user-day: 4 f_daily is capped at 1.0."""
    spec = WorldSpec(seed=7, n_users=2, n_days=2, gps_period_s=3600)
    data = prepare_experiment_data(simulate_sensor_arrays(generate_world(spec), spec))
    assert data.pairs.n_events() == 7
    assert _random_rates(data, 2) == [4 / 7, 1.0]


def test_paper_grid_on_a_log_without_paired_events():
    spec = WorldSpec(seed=7, n_users=2, n_days=2)
    arrays = simulate_sensor_arrays(generate_world(spec), spec)
    fix_columns = ("fix_user", "fix_ts", "fix_lat", "fix_lon", "fix_acc")
    no_fixes = {f: getattr(arrays, f)[:0] for f in fix_columns}
    data = prepare_experiment_data(dataclasses.replace(arrays, **no_fixes))
    assert data.pairs.n_events() == 0
    assert _random_rates(data, 2) == [1.0, 1.0]


def test_run_study_writes_the_grid_and_times_every_stage(tmp_path):
    # 8 days reach the first histogram day (7), so histograms.csv holds rows
    proc = _run("run_study.py", "--users", 2, "--days", 8, "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr

    spec = WorldSpec(seed=7, n_users=2, n_days=8)
    data = prepare_experiment_data(simulate_sensor_arrays(generate_world(spec), spec))
    cells = paper_grid(data, 8, seed=1)
    record = json.loads(proc.stdout.splitlines()[-1])
    assert [s["stage"] for s in record["stages"]] == [
        "generate_world",
        "simulate_sensor_arrays",
        "prepare_experiment_data",
        "full_database()",
        "top_router_selections(5)",
        "top_router_selections(20)",
        *(f"{s.label()[0]}({s.label()[1]})x{sc.value}" for s, sc in cells),
        "build_timeline",
        "write_dataset(2x3)",
        "ingest_arrays(2x3)",
    ]

    results = [run_experiment(data, s, sc) for s, sc in cells]
    write_experiment_grid_csv(results, tmp_path / "want_grid.csv")
    write_histograms_csv(results, tmp_path / "want_hist.csv")
    assert (tmp_path / "experiment_grid.csv").read_bytes() == (
        tmp_path / "want_grid.csv"
    ).read_bytes()
    assert (tmp_path / "histograms.csv").read_bytes() == (tmp_path / "want_hist.csv").read_bytes()
    hist_rows = (tmp_path / "histograms.csv").read_text().splitlines()[1:]
    assert len(hist_rows) == 180 and {row.split(",")[3] for row in hist_rows} == {"7"}


def test_stability_study_runs(tmp_path):
    args = ("--users", 2, "--days", 6, "--change-day", 3, "--training-days", 1, "--out", tmp_path)
    proc = _run("run_stability_study.py", *args)
    assert proc.returncode == 0, proc.stderr


def test_single_user_demo_runs():
    proc = _run("run_single_user_demo.py")
    assert proc.returncode == 0, proc.stderr
