"""The studies in ``scripts/``, each run in a subprocess on a tiny world."""

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


def test_run_study_writes_the_grid_and_times_every_stage(tmp_path, tiny_data):
    proc = _run("run_study.py", "--users", 2, "--days", 2, "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr

    cells = paper_grid(tiny_data, 2, seed=1)
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

    results = [run_experiment(tiny_data, s, sc) for s, sc in cells]
    write_experiment_grid_csv(results, tmp_path / "want_grid.csv")
    write_histograms_csv(results, tmp_path / "want_hist.csv")
    assert (tmp_path / "experiment_grid.csv").read_bytes() == (
        tmp_path / "want_grid.csv"
    ).read_bytes()
    assert (tmp_path / "histograms.csv").read_bytes() == (tmp_path / "want_hist.csv").read_bytes()


def test_stability_study_runs(tmp_path):
    args = ("--users", 2, "--days", 6, "--change-day", 3, "--training-days", 1, "--out", tmp_path)
    proc = _run("run_stability_study.py", *args)
    assert proc.returncode == 0, proc.stderr


def test_single_user_demo_runs():
    proc = _run("run_single_user_demo.py")
    assert proc.returncode == 0, proc.stderr
