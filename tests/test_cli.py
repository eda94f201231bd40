import json
import random
from pathlib import Path

import pytest

from oracles import (
    build_database_from_records,
    pair_records,
    prepare_from_traces,
    timeline_from_records,
    trace_bssids,
    trace_users,
    write_pair_records_csv,
)
from wifimob import cli
from wifimob.cli import main
from wifimob.trace_model import TraceSet, ingest_traces_verbose


def _run(*argv):
    return main([str(a) for a in argv])


def _dataset(tmp_path, users=3, days=2, seed=5, extra=()):
    out = tmp_path / "data"
    rc = _run("synth", "--out", out, "--users", users, "--days", days, "--seed", seed, *extra)
    assert rc == 0
    return out


def _read_tree(root):
    return {p.name: p.read_bytes() for p in sorted(Path(root).iterdir())}


def test_synth_is_deterministic(tmp_path):
    d1 = _dataset(tmp_path / "a")
    d2 = _dataset(tmp_path / "b")
    assert _read_tree(d1) == _read_tree(d2)


def test_synth_rejects_zero_users(tmp_path, capsys):
    rc = _run("synth", "--out", tmp_path / "x", "--users", 0, "--days", 1)
    assert rc != 0
    assert "users" in capsys.readouterr().err


def test_locate_census_and_threads_invariance(tmp_path, capsys):
    data = _dataset(tmp_path, users=4, days=3)
    apdb1 = tmp_path / "apdb1.csv"
    apdb2 = tmp_path / "apdb2.csv"
    rc = _run("locate", "--gps", data / "gps.jsonl", "--wifi", data / "wifi.jsonl", "--out", apdb1)
    assert rc == 0
    err = capsys.readouterr().err
    assert "routers:" in err and "located" in err and "insufficient" in err
    rc = _run("locate", "--gps", data / "gps.jsonl", "--wifi", data / "wifi.jsonl", "--out", apdb2)
    assert rc == 0
    assert apdb1.read_bytes() == apdb2.read_bytes()


def test_locate_on_empty_inputs(tmp_path):
    gps, wifi = tmp_path / "gps.jsonl", tmp_path / "wifi.jsonl"
    gps.write_text("")
    wifi.write_text("")
    out = tmp_path / "apdb.csv"
    assert _run("locate", "--gps", gps, "--wifi", wifi, "--out", out) == 0
    assert out.read_text().splitlines()[0].startswith("bssid,")
    assert len(out.read_text().splitlines()) == 1


def test_locate_malformed_file_fails(tmp_path, capsys):
    gps, wifi = tmp_path / "gps.jsonl", tmp_path / "wifi.jsonl"
    gps.write_text("".join("garbage\n" for _ in range(100)))
    wifi.write_text("")
    rc = _run("locate", "--gps", gps, "--wifi", wifi, "--out", tmp_path / "apdb.csv")
    assert rc != 0
    assert "error" in capsys.readouterr().err


def test_locate_counts_undecodable_line_as_malformed(tmp_path, capsys):
    gps, wifi = tmp_path / "gps.jsonl", tmp_path / "wifi.jsonl"
    good = json.dumps({"user": "u", "ts_ms": 0, "lat": 1.0, "lon": 2.0})
    gps.write_bytes(good.encode() + b'\n{"user": "\xff\xfe", "ts_ms": 1}\n')
    wifi.write_text("")
    rc = _run("locate", "--gps", gps, "--wifi", wifi, "--out", tmp_path / "apdb.csv")
    assert rc == 0
    assert f"{gps}: 1 parsed, 1 malformed" in capsys.readouterr().err


def test_full_pipeline_and_evaluate(tmp_path, capsys):
    data = _dataset(tmp_path, users=4, days=3, seed=9)
    apdb = tmp_path / "apdb.csv"
    timeline = tmp_path / "timeline.csv"
    coverage = tmp_path / "coverage.csv"
    users_csv = tmp_path / "coverage_users.csv"
    entropy_csv = tmp_path / "entropy.csv"
    pairs = tmp_path / "pairs.csv"

    assert _run(
        "locate", "--gps", data / "gps.jsonl", "--wifi", data / "wifi.jsonl",
        "--out", apdb, "--dump-pairs", pairs,
    ) == 0
    assert pairs.read_text().startswith("bssid,lat,lon,ts_ms,user")

    assert _run(
        "reconstruct", "--gps", data / "gps.jsonl", "--wifi", data / "wifi.jsonl",
        "--apdb", apdb, "--out", timeline,
    ) == 0
    header = timeline.read_text().splitlines()[0]
    assert header == "user,bin_index,bin_start_ms,lat,lon,support_count,ts_ms"

    assert _run(
        "coverage", "--gps", data / "gps.jsonl", "--wifi", data / "wifi.jsonl",
        "--apdb", apdb, "--out", coverage, "--users-out", users_csv,
        "--entropy-out", entropy_csv,
    ) == 0
    lines = coverage.read_text().splitlines()
    assert lines[0] == "day_index,scenario,strategy,param,mean_coverage,n_users"
    assert len(lines) == 4  # header + 3 days
    assert users_csv.read_text().startswith("user,day_index,coverage")
    assert entropy_csv.read_text().startswith("user,entropy_bits,labeled_bins")

    capsys.readouterr()
    assert _run("evaluate", "--dataset", data, "--apdb", apdb, "--timeline", timeline) == 0
    report = capsys.readouterr().out
    assert "confusion (truth -> predicted):" in report
    assert "estimated bins:" in report


def test_evaluate_insensitive_to_truth_row_order(tmp_path, capsys):
    data = _dataset(tmp_path, users=3, days=2, seed=3)
    apdb = tmp_path / "apdb.csv"
    assert _run("locate", "--gps", data / "gps.jsonl", "--wifi", data / "wifi.jsonl", "--out", apdb) == 0
    capsys.readouterr()
    assert _run("evaluate", "--dataset", data, "--apdb", apdb) == 0
    before = capsys.readouterr().out

    truth = data / "truth_aps.csv"
    lines = truth.read_text().splitlines()
    truth.write_text("\n".join([lines[0]] + list(reversed(lines[1:]))) + "\n")
    assert _run("evaluate", "--dataset", data, "--apdb", apdb) == 0
    after = capsys.readouterr().out
    assert before == after


def test_evaluate_scores_each_bin_at_its_chosen_scan(tmp_path, capsys):
    """The truth track moves 0.01 degrees north between minutes 0 and 5 of
    bin 0; the bin's estimate came from a scan at minute 5 and sits on the
    truth there, so its error is 0, not the 1.1 km to the bin start's truth."""
    data = tmp_path / "data"
    data.mkdir()
    (data / "truth_aps.csv").write_text("bssid,class,lat,lon,ssid\n")
    track = [f"u,{m * 60_000},{55.7 + (m >= 5) * 0.01!r},12.5\n" for m in range(10)]
    (data / "truth_positions.csv").write_text("user,ts_ms,lat,lon\n" + "".join(track))
    apdb = tmp_path / "apdb.csv"
    apdb.write_text("bssid,class,lat,lon,n_sightings,segments_json,contributors_count\n")
    timeline = tmp_path / "timeline.csv"
    timeline.write_text(
        "user,bin_index,bin_start_ms,lat,lon,support_count,ts_ms\n"
        f"u,0,0,{55.7 + 0.01!r},12.5,1,300000\n"
        "u,1,600000,,,0,\n"
    )
    capsys.readouterr()
    assert _run("evaluate", "--dataset", data, "--apdb", apdb, "--timeline", timeline) == 0
    report = capsys.readouterr().out
    assert "estimated bins: 1\n" in report
    assert "bin position error m: p50=0.0, p90=0.0, p95=0.0 (n=1)" in report

    # a timeline written before the scan time was stored cannot be scored
    lines = timeline.read_text().splitlines()
    timeline.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))
    assert _run("evaluate", "--dataset", data, "--apdb", apdb, "--timeline", timeline) == 1
    assert "timeline has no ts_ms column" in capsys.readouterr().err


def test_apdb_with_a_missing_column_is_an_error(tmp_path, capsys):
    data = _dataset(tmp_path, users=2, days=1, seed=3)
    apdb = tmp_path / "apdb.csv"
    apdb.write_text("bssid,class,lat,lon\n02:00:00:00:00:01,static,55.7,12.5\n")
    capsys.readouterr()
    src = ("--gps", data / "gps.jsonl", "--wifi", data / "wifi.jsonl")
    rc = _run("reconstruct", *src, "--apdb", apdb, "--out", tmp_path / "timeline.csv")
    assert rc == 1
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("error:") and "n_sightings, segments_json, contributors_count" in err


_APDB_HEADER = "bssid,class,lat,lon,n_sightings,segments_json,contributors_count\n"


@pytest.mark.parametrize(
    "row, message",
    [
        # a relocated row whose segment lacks a key
        (
            '02:00:00:00:00:01,relocated,,,4,"[{""lat"":55.7,""start_ms"":0,""end_ms"":9}]",2',
            "the row of 02:00:00:00:00:01: a segment lacks one of lat, lon, start_ms, end_ms",
        ),
        (
            '02:00:00:00:00:01,relocated,,,4,"[{""lat"":55.7,""lon"":""12"",""start_ms"":0,""end_ms"":9}]",2',
            "the row of 02:00:00:00:00:01: a segment holds a value that is not a number",
        ),
        ("02:00:00:00:00:01,relocated,,,4,7,2", "segments of a relocated router must be a JSON list"),
        # a row shorter, or longer, than the header
        ("02:00:00:00:00:01,static,55.7", "the row of 02:00:00:00:00:01: expected one cell per column"),
        ("02:00:00:00:00:01,static,55.7,12.5,4,,2,x", "the row of 02:00:00:00:00:01: expected one cell"),
        # a router listed twice, as written or once canonicalized
        ("02:00:00:00:00:02,static,55.8,12.5,4,,2", "02:00:00:00:00:02 is listed on an earlier row"),
        ("02-00-00-00-00-02,static,55.8,12.5,4,,2", "the row of 02-00-00-00-00-02: 02:00:00:00:00:02 is listed"),
        # a BSSID ingest rejects, a bad class, a missing lon or lat, a latitude out of range
        ("not-a-mac,static,55.7,12.5,4,,2", "the row of not-a-mac: not a MAC address: 'not-a-mac'"),
        ("02:00:00:00:00:01,bogus,55.7,12.5,4,,2", "the row of 02:00:00:00:00:01: 'bogus' is not a valid"),
        ("02:00:00:00:00:01,static,55.7,,4,,2", "the row of 02:00:00:00:00:01: a static row fills both"),
        ("02:00:00:00:00:01,static,,12.5,4,,2", "the row of 02:00:00:00:00:01: a static row fills both"),
        ("02:00:00:00:00:01,static,55.7,x,4,,2", "the row of 02:00:00:00:00:01: could not convert"),
        ("02:00:00:00:00:01,static,95.7,12.5,4,,2", "the row of 02:00:00:00:00:01: latitude out of range: 95.7"),
        # counts that are not non-negative integers
        ("02:00:00:00:00:01,static,55.7,12.5,-4,,2",
         "the row of 02:00:00:00:00:01: n_sightings must be a non-negative integer, not '-4'"),
        ("02:00:00:00:00:01,mobile,,,4,,2.5", "contributors_count must be a non-negative integer, not '2.5'"),
        ("02:00:00:00:00:01,mobile,,,4,,", "contributors_count must be a non-negative integer, not ''"),
        # a cell the row's class does not use
        ("02:00:00:00:00:01,mobile,55.7,12.5,4,,2",
         "the row of 02:00:00:00:00:01: lat and lon must be empty in a row of class mobile"),
        ("02:00:00:00:00:01,insufficient,,12.5,4,,2", "lat and lon must be empty in a row of class insufficient"),
        ('02:00:00:00:00:01,relocated,55.7,,4,"[]",2', "lat and lon must be empty in a row of class relocated"),
        ('02:00:00:00:00:01,static,55.7,12.5,4,"[]",2',
         "the row of 02:00:00:00:00:01: segments_json must be empty in a row of class static"),
        ('02:00:00:00:00:01,mobile,,,4,"[]",2', "segments_json must be empty in a row of class mobile"),
        # a segment latitude too large for a float, a segments cell nested too deeply
        pytest.param(
            '02:00:00:00:00:01,relocated,,,4,"[{""lat"":1' + "0" * 400
            + ',""lon"":12.5,""start_ms"":0,""end_ms"":9}]",2',
            "the row of 02:00:00:00:00:01: int too large to convert to float",
            id="huge-segment-latitude",
        ),
        pytest.param(
            '02:00:00:00:00:01,relocated,,,4,"' + "[" * 100_000 + '",2',
            "the row of 02:00:00:00:00:01: maximum recursion depth exceeded",
            id="deeply-nested-segments",
        ),
    ],
)
def test_apdb_malformed_row_is_an_error(tmp_path, capsys, row, message):
    data = _dataset(tmp_path, users=2, days=1, seed=3)
    apdb = tmp_path / "apdb.csv"
    apdb.write_text(_APDB_HEADER + "02:00:00:00:00:02,static,55.7,12.5,4,,2\n" + row + "\n")
    capsys.readouterr()
    src = ("--gps", data / "gps.jsonl", "--wifi", data / "wifi.jsonl")
    rc = _run("reconstruct", *src, "--apdb", apdb, "--out", tmp_path / "timeline.csv")
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith(f"error: {apdb}:3: the row of ") and message in err[-1]
    assert not any("Traceback" in line for line in err)


def test_evaluate_interpolates_the_truth_track(tmp_path, capsys):
    """The truth track moves 0.001 degrees north per minute; an estimate at
    5:30 on that track is off by 0, not by the 56 m to the 5:00 row. An
    estimate at 9:30, past the track's last row, is scored against it."""
    data = tmp_path / "data"
    data.mkdir()
    (data / "truth_aps.csv").write_text("bssid,class,lat,lon,ssid\n")
    track = [f"u,{m * 60_000},{55.7 + m * 0.001!r},12.5\n" for m in range(10)]
    (data / "truth_positions.csv").write_text("user,ts_ms,lat,lon\n" + "".join(track))
    apdb = tmp_path / "apdb.csv"
    apdb.write_text("bssid,class,lat,lon,n_sightings,segments_json,contributors_count\n")
    timeline = tmp_path / "timeline.csv"
    header = "user,bin_index,bin_start_ms,lat,lon,support_count,ts_ms\n"
    capsys.readouterr()
    for ts, lat in ((330_000, 55.7055), (570_000, 55.709)):
        timeline.write_text(header + f"u,0,0,{lat!r},12.5,1,{ts}\n")
        assert _run("evaluate", "--dataset", data, "--apdb", apdb, "--timeline", timeline) == 0
        assert "bin position error m: p50=0.0, p90=0.0, p95=0.0 (n=1)" in capsys.readouterr().out


def test_evaluate_missing_truth(tmp_path, capsys):
    rc = _run("evaluate", "--dataset", tmp_path, "--apdb", tmp_path / "nope.csv")
    assert rc != 0


def test_experiment_grid_outputs_and_determinism(tmp_path):
    data = _dataset(tmp_path, users=3, days=2, seed=4)
    out1, out2 = tmp_path / "exp1", tmp_path / "exp2"
    args = [
        "experiment", "--gps", data / "gps.jsonl", "--wifi", data / "wifi.jsonl",
        "--strategy", "random", "--fraction", "0.2", "--scenario", "all",
        "--hist-days", "0", "1", "--seed", "5", "--plots",
    ]
    assert _run(*args, "--out-dir", out1) == 0
    assert _run(*args, "--out-dir", out2) == 0
    assert _read_tree(out1) == _read_tree(out2)
    grid = (out1 / "experiment_grid.csv").read_text().splitlines()
    assert grid[0] == "strategy,param,scenario,day,mean_coverage,n_users"
    assert any(line.startswith("random,0.2,global,") for line in grid[1:])
    hist = (out1 / "histograms.csv").read_text().splitlines()
    assert hist[0] == "strategy,param,scenario,day,bin_lo,count"
    svgs = list(out1.glob("*.svg"))
    assert svgs and svgs[0].read_text().startswith("<svg")


def test_config_file_round(tmp_path, capsys):
    data = _dataset(tmp_path, users=3, days=2, seed=4)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# tighter clustering\neps_m = 50\nmin_sightings = 3\nwindow_ms = 2000\n")
    apdb = tmp_path / "apdb.csv"
    assert _run("--config", cfg, "locate", "--gps", data / "gps.jsonl",
                "--wifi", data / "wifi.jsonl", "--out", apdb) == 0

    bad = tmp_path / "bad.cfg"
    bad.write_text("epsilon_meters = 50\n")
    rc = _run("--config", bad, "locate", "--gps", data / "gps.jsonl",
              "--wifi", data / "wifi.jsonl", "--out", apdb)
    assert rc != 0
    assert "unknown config key" in capsys.readouterr().err

    ugly = tmp_path / "ugly.cfg"
    ugly.write_text("just some words\n")
    assert _run("--config", ugly, "locate", "--gps", data / "gps.jsonl",
                "--wifi", data / "wifi.jsonl", "--out", apdb) != 0


@pytest.mark.parametrize(
    "text, message",
    [
        ("eps_m = 50\nmin_sightings = 9.5\n",
         ":2: min_sightings: invalid literal for int() with base 10: '9.5'"),
        ("# twice\nwindow_ms = 2000\neps_m = 50\nwindow_ms = 3000\n",
         ":4: window_ms: already set on line 2"),
        ("\nepsilon_meters = 50\n", ":2: unknown config key: epsilon_meters"),
        ("max_accuracy_m = ten\n", ":1: max_accuracy_m: could not convert string to float: 'ten'"),
        ("minor_anchors_range = 2.5, 6\n",
         ":1: minor_anchors_range: invalid literal for int() with base 10: '2.5'"),
    ],
)
def test_config_errors_name_file_line_and_key(tmp_path, capsys, text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    rc = _run("--config", cfg, "locate", "--gps", tmp_path / "gps.jsonl",
              "--wifi", tmp_path / "wifi.jsonl", "--out", tmp_path / "apdb.csv")
    assert rc == 1
    assert capsys.readouterr().err == f"error: {cfg}{message}\n"


def test_config_drives_synth(tmp_path):
    cfg = tmp_path / "world.cfg"
    cfg.write_text("n_users = 2\nn_days = 1\nwifi_scan_period_s = 64\nseed = 8\n")
    out = tmp_path / "data"
    assert _run("--config", cfg, "synth", "--out", out) == 0
    world = json.loads((out / "world.json").read_text())
    assert world["n_users"] == 2
    assert world["wifi_scan_period_s"] == 64.0
    # flags win over the file
    out2 = tmp_path / "data2"
    assert _run("--config", cfg, "synth", "--out", out2, "--users", 3) == 0
    assert json.loads((out2 / "world.json").read_text())["n_users"] == 3


@pytest.mark.parametrize(
    "line, field",
    [
        ("density_cells = 0", "density_cells"),
        ("density_weights = [[1, 2], [3, 4]]", "density_weights"),
        ("density_weights = 5", "density_weights"),
        ("excursion_stops = 5, 3", "excursion_stops"),
        ("stay_min_h = 0", "stay_min_h"),
        ("stay_pareto_alpha = 0", "stay_pareto_alpha"),
        ("bus_speed_mps = 0", "bus_speed_mps"),
        ("p_errand = 2", "p_errand"),
        ("visibility_radius_m = nan", "visibility_radius_m"),
    ],
)
def test_synth_rejects_bad_world_config(tmp_path, capsys, line, field):
    cfg = tmp_path / "world.cfg"
    cfg.write_text(f"n_users = 2\nn_days = 1\n{line}\n")
    assert _run("--config", cfg, "synth", "--out", tmp_path / "data") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err and err.count("\n") == 1
    assert not (tmp_path / "data").exists()


def test_config_takes_flat_or_nested_density_weights(tmp_path):
    worlds = []
    for k, text in enumerate(("[1, 2, 3, 4]", "[[1, 2], [3, 4]]")):
        cfg = tmp_path / f"w{k}.cfg"
        cfg.write_text(f"n_users = 2\nn_days = 1\ndensity_cells = 2\ndensity_weights = {text}\n")
        assert _run("--config", cfg, "synth", "--out", tmp_path / f"d{k}") == 0
        worlds.append((tmp_path / f"d{k}" / "wifi.jsonl").read_bytes())
    assert worlds[0] == worlds[1]


def _all_commands(data, out, config=None):
    """Run locate, reconstruct, coverage and experiment; return the bytes of
    every CSV they write."""
    out.mkdir(parents=True, exist_ok=True)
    src = ["--gps", data / "gps.jsonl", "--wifi", data / "wifi.jsonl"]
    pre = ["--config", config] if config else []
    commands = [
        ["locate", *src, "--out", out / "apdb.csv", "--dump-pairs", out / "pairs.csv"],
        ["reconstruct", *src, "--apdb", out / "apdb.csv", "--out", out / "timeline.csv"],
        ["coverage", *src, "--apdb", out / "apdb.csv", "--out", out / "coverage.csv",
         "--users-out", out / "users.csv", "--entropy-out", out / "entropy.csv"],
        ["experiment", *src, "--out-dir", out / "grid", "--seed", "3", "--hist-days", "0", "1"],
    ]
    for argv in commands:
        assert _run(*pre, *argv) == 0
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*.csv"))}


class _Traces(TraceSet):
    """Record traces with the name tables ``locate`` passes along."""

    @property
    def user_ids(self):
        return trace_users(self)

    @property
    def bssids(self):
        return trace_bssids(self)


def _record_ingest(gps, wifi):
    traces, report = ingest_traces_verbose(gps, wifi)
    return _Traces(traces.fixes, traces.scans), report


def _record_route(monkeypatch):
    """Point the CLI at the record route: TraceSet ingest, record pairing,
    the record pairs writer, the record database builder, record timelines
    and record experiment tables."""
    monkeypatch.setattr(cli, "ingest_arrays", _record_ingest)
    monkeypatch.setattr(cli, "pair_arrays", pair_records)
    monkeypatch.setattr(
        cli,
        "write_pairs_csv",
        lambda pairs, user_ids, bssids, path: write_pair_records_csv(pairs, path),
    )
    monkeypatch.setattr(
        cli,
        "build_database",
        lambda pairs, user_ids, bssids, cfg: build_database_from_records(pairs, cfg),
    )
    monkeypatch.setattr(
        cli, "build_timeline", lambda traces, db: timeline_from_records(traces.scans, db, traces.bssids)
    )
    monkeypatch.setattr(cli, "prepare_experiment_data", prepare_from_traces)


@pytest.mark.parametrize(
    "config", [None, "max_accuracy_m = 5\nwindow_ms = 3000\n", "min_sightings = 9\n"]
)
def test_cli_outputs_match_record_route(tmp_path, monkeypatch, capsys, config):
    data = _dataset(tmp_path, users=3, days=2, seed=6, extra=("--scan-period", "60"))
    cfg = None
    if config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
    capsys.readouterr()
    columnar = _all_commands(data, tmp_path / "columnar", cfg)
    columnar_err = capsys.readouterr().err
    with monkeypatch.context() as m:
        _record_route(m)
        records = _all_commands(data, tmp_path / "records", cfg)
    records_err = capsys.readouterr().err
    assert sorted(columnar) == sorted(records) and len(columnar) == 8
    for name in columnar:
        assert columnar[name] == records[name], name
    assert columnar_err == records_err
    pairs_rows = columnar["pairs.csv"].count(b"\n") - 1
    # synthetic fixes report 10 m accuracy, so max_accuracy_m = 5 pairs none
    assert (pairs_rows == 0) == ("max_accuracy_m" in (config or ""))
    if config and "min_sightings" in config:
        # the file's locator reaches locate and the grid's TopRouters cells
        default = _all_commands(data, tmp_path / "default")
        assert columnar["apdb.csv"] != default["apdb.csv"]
        top = lambda grid: [row for row in grid.split(b"\n") if row.startswith(b"top,")]
        assert top(columnar["grid/experiment_grid.csv"]) != top(default["grid/experiment_grid.csv"])

    # shuffled input lines change nothing
    shuffled = tmp_path / "shuffled"
    shuffled.mkdir()
    for name in ("gps.jsonl", "wifi.jsonl"):
        lines = (data / name).read_text().splitlines(keepends=True)
        random.Random(1).shuffle(lines)
        (shuffled / name).write_text("".join(lines))
    assert _all_commands(shuffled, tmp_path / "shuffled_out", cfg) == columnar


def test_coverage_labels_relocated_router_by_segment(tmp_path):
    """One relocated router with two segments, seen in two bins, one inside
    each segment: each bin gets its segment's label, so one bit over two
    labeled bins."""
    bssid = "02:00:00:00:00:01"
    segments = [
        {"lat": 55.7, "lon": 12.5, "start_ms": 0, "end_ms": 1_000_000},
        {"lat": 55.71, "lon": 12.5, "start_ms": 2_000_000, "end_ms": 3_000_000},
    ]
    cell = json.dumps(segments).replace('"', '""')
    (tmp_path / "apdb.csv").write_text(
        "bssid,class,lat,lon,n_sightings,segments_json,contributors_count\n"
        f'{bssid},relocated,,,20,"{cell}",1\n'
    )
    (tmp_path / "gps.jsonl").write_text("")
    # ten-minute bins 0 and 4
    scans = [{"user": "u", "ts_ms": ts, "aps": [{"bssid": bssid}]} for ts in (500_000, 2_500_000)]
    (tmp_path / "wifi.jsonl").write_text("".join(json.dumps(s) + "\n" for s in scans))
    assert _run(
        "coverage", "--gps", tmp_path / "gps.jsonl", "--wifi", tmp_path / "wifi.jsonl",
        "--apdb", tmp_path / "apdb.csv", "--out", tmp_path / "coverage.csv",
        "--entropy-out", tmp_path / "entropy.csv",
    ) == 0
    lines = (tmp_path / "entropy.csv").read_text().splitlines()
    assert lines == ["user,entropy_bits,labeled_bins", "u,1.0,2"]
