import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wifimob.trace_model import (
    ApSighting,
    BssidParseError,
    GeoPoint,
    GpsFix,
    SensorArrays,
    TraceError,
    TraceSet,
    WifiScan,
    ingest_arrays,
    ingest_traces_verbose,
    normalize_bssid,
    user_bounds,
)
from wifimob.synthgen import write_dataset

from oracles import ingest_traces, trace_users, write_traces


def test_normalize_bssid_forms():
    assert normalize_bssid("AA-BB-CC-DD-EE-FF") == "aa:bb:cc:dd:ee:ff"
    assert normalize_bssid("aa:bb:cc:dd:ee:ff") == "aa:bb:cc:dd:ee:ff"
    assert normalize_bssid("aabbccddeeff") == "aa:bb:cc:dd:ee:ff"


@pytest.mark.parametrize("bad", ["", "aa:bb", "zz:bb:cc:dd:ee:ff", "aabbccddeeffaa", "aa bb cc dd ee ff"])
def test_normalize_bssid_rejects(bad):
    with pytest.raises(BssidParseError) as err:
        normalize_bssid(bad)
    assert str(err.value) == f"not a MAC address: {bad!r}"


@given(st.integers(min_value=0, max_value=2**48 - 1), st.sampled_from([":", "-", ""]), st.booleans())
def test_normalize_bssid_idempotent(value, sep, upper):
    octets = [f"{(value >> s) & 0xFF:02x}" for s in range(40, -8, -8)]
    raw = sep.join(octets)
    if upper:
        raw = raw.upper()
    canon = normalize_bssid(raw)
    assert normalize_bssid(canon) == canon
    assert len(canon) == 17


# the documented forms: six octets with one separator throughout, or 12 bare
# digits, with optional ASCII whitespace around them
_HEX = "[0-9a-fA-F]"
_BSSID_FORM = re.compile(rf"{_HEX}{{2}}(?:([:-]){_HEX}{{2}}(?:\1{_HEX}{{2}}){{4}}|{_HEX}{{10}})")
# hex digits and separators, beside look-alikes: Unicode whitespace, a
# fullwidth digit and a capital I with a dot
_token_chars = st.sampled_from("0aAfF9g:- \t\u00a0\u2003\x1c\x85\u0130\uff11")


def _edited_token(value, sep, upper, at, edit, pad):
    """A valid token with the character at ``at`` replaced by ``edit``
    (deleted when it is empty, kept when it is None), then padded."""
    token = sep.join(f"{(value >> s) & 0xFF:02x}" for s in range(40, -8, -8))
    token = token.upper() if upper else token
    if edit is not None:
        token = token[:at] + edit + token[at + 1 :]
    return pad + token + pad


@given(
    st.one_of(
        st.text(_token_chars, max_size=20),
        st.builds(
            _edited_token,
            st.integers(0, 2**48 - 1),
            st.sampled_from([":", "-", ""]),
            st.booleans(),
            st.integers(0, 16),
            st.sampled_from([None, "", ":", "-", "a", " ", "aa"]),
            st.sampled_from(["", " ", "\t\n", "\x0b", "\u00a0", "\u2003", "\x85", "\x1c"]),
        ),
    )
)
@example("aabb:ccdd:eeff")
@example("a:ab:bc:cd:de:ef:f")
@example("0-2:00:00:00:00:01")
@example("aa:bb-cc:dd:ee:ff")
@example("\u00a0aa:bb:cc:dd:ee:ff")
@example(" aa:bb:cc:dd:ee:ff\t")
@example("AABBCCDDEEFF\r\n")
def test_normalize_bssid_accepts_only_documented_forms(raw):
    stripped = raw.strip(" \t\n\r\x0b\x0c")
    if _BSSID_FORM.fullmatch(stripped):
        digits = re.sub("[:-]", "", stripped).lower()
        want = ":".join(digits[i : i + 2] for i in range(0, 12, 2))
        assert normalize_bssid(raw) == want
    else:
        with pytest.raises(BssidParseError):
            normalize_bssid(raw)


@pytest.mark.parametrize(
    "lat,lon",
    [(91.0, 0.0), (-91.0, 0.0), (0.0, -180.0), (0.0, 181.0), (float("nan"), 0.0)],
)
def test_geopoint_rejects_out_of_range(lat, lon):
    with pytest.raises(TraceError):
        GeoPoint(lat, lon)


def test_sighting_rssi_range():
    ApSighting("aa:bb:cc:dd:ee:ff", rssi_dbm=-50)
    with pytest.raises(TraceError):
        ApSighting("aa:bb:cc:dd:ee:ff", rssi_dbm=5)


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def test_ingest_empty_files(tmp_path):
    gps, wifi = tmp_path / "gps.jsonl", tmp_path / "wifi.jsonl"
    gps.write_text("")
    wifi.write_text("")
    traces = ingest_traces(gps, wifi)
    assert traces.fixes == [] and traces.scans == []


def test_ingest_reports_malformed_without_failing(tmp_path):
    gps, wifi = tmp_path / "gps.jsonl", tmp_path / "wifi.jsonl"
    good = [
        json.dumps({"user": "u", "ts_ms": i, "lat": 1.0, "lon": 2.0}) for i in range(3)
    ]
    _write_lines(gps, good + ["{ not json"])
    wifi.write_text("")
    traces, report = ingest_traces_verbose(gps, wifi)
    assert len(traces.fixes) == 3
    assert report.gps.malformed == 1
    assert "1 malformed" in report.summary()


def test_ingest_mostly_garbage_is_hard_error(tmp_path):
    gps, wifi = tmp_path / "gps.jsonl", tmp_path / "wifi.jsonl"
    _write_lines(gps, ["not json at all"] * 50)
    wifi.write_text("")
    with pytest.raises(TraceError):
        ingest_traces(gps, wifi)


def test_ingest_missing_file(tmp_path):
    wifi = tmp_path / "wifi.jsonl"
    wifi.write_text("")
    with pytest.raises(TraceError):
        ingest_traces(tmp_path / "nope.jsonl", wifi)


def test_duplicate_bssids_merged_keeping_first(tmp_path):
    gps, wifi = tmp_path / "gps.jsonl", tmp_path / "wifi.jsonl"
    gps.write_text("")
    scan = {
        "user": "u",
        "ts_ms": 5,
        "aps": [
            {"bssid": "AA:BB:CC:DD:EE:FF", "rssi": -40},
            {"bssid": "aa-bb-cc-dd-ee-ff", "rssi": -90},
        ],
    }
    _write_lines(wifi, [json.dumps(scan)])
    traces = ingest_traces(gps, wifi)
    assert len(traces.scans[0].sightings) == 1
    assert traces.scans[0].sightings[0].rssi_dbm == -40


_user_st = st.sampled_from(["u1", "u2", "u3"])
_ts_st = st.integers(min_value=0, max_value=10**9)
# few enough values that lines often tie on (user, ts)
_tied_ts_st = st.integers(min_value=0, max_value=3)
_coord_st = st.floats(min_value=-80, max_value=80, allow_nan=False).map(lambda v: round(v, 6))


@st.composite
def _traceset(draw, ts_st=_ts_st):
    fixes = draw(
        st.lists(
            st.builds(
                GpsFix,
                user=_user_st,
                ts=ts_st,
                pos=st.builds(GeoPoint, lat_deg=_coord_st, lon_deg=_coord_st),
                accuracy_m=st.one_of(st.none(), st.floats(0, 100, allow_nan=False).map(lambda v: round(v, 2))),
            ),
            max_size=12,
        )
    )
    bssids = ["02:00:00:00:00:0%d" % i for i in range(4)]
    scans = draw(
        st.lists(
            st.builds(
                WifiScan,
                user=_user_st,
                ts=ts_st,
                sightings=st.lists(
                    st.builds(
                        ApSighting,
                        bssid=st.sampled_from(bssids),
                        ssid=st.one_of(st.none(), st.sampled_from(["net", "iPhone"])),
                        rssi_dbm=st.one_of(st.none(), st.integers(-100, -20)),
                    ),
                    max_size=4,
                    unique_by=lambda s: s.bssid,
                ),
            ),
            max_size=12,
        )
    )
    return TraceSet.from_records(fixes, scans)


@given(traces=_traceset())
@settings(max_examples=40, deadline=None)
def test_write_ingest_roundtrip_is_stable(tmp_path_factory, traces):
    tmp = tmp_path_factory.mktemp("rt")
    gps1, wifi1 = tmp / "g1.jsonl", tmp / "w1.jsonl"
    gps2, wifi2 = tmp / "g2.jsonl", tmp / "w2.jsonl"
    write_traces(traces, gps1, wifi1)
    again = ingest_traces(gps1, wifi1)
    write_traces(again, gps2, wifi2)
    assert gps1.read_bytes() == gps2.read_bytes()
    assert wifi1.read_bytes() == wifi2.read_bytes()


def _record_rows(traces):
    """Fixes and scans of a TraceSet as plain tuples, in order."""
    fixes = [(f.user, f.ts, f.pos.lat_deg, f.pos.lon_deg, f.accuracy_m) for f in traces.fixes]
    scans = [(s.user, s.ts, [a.bssid for a in s.sightings]) for s in traces.scans]
    return fixes, scans


def _array_rows(arrays):
    """The same tuples from SensorArrays, with NaN accuracy read as None."""
    fixes = [
        (arrays.user_ids[u], t, lat, lon, None if math.isnan(acc) else acc)
        for u, t, lat, lon, acc in zip(
            arrays.fix_user.tolist(),
            arrays.fix_ts.tolist(),
            arrays.fix_lat.tolist(),
            arrays.fix_lon.tolist(),
            arrays.fix_acc.tolist(),
        )
    ]
    off = arrays.scan_off
    scans = [
        (
            arrays.user_ids[arrays.scan_user[k]],
            int(arrays.scan_ts[k]),
            [arrays.bssids[a] for a in arrays.scan_ap[off[k] : off[k + 1]].tolist()],
        )
        for k in range(arrays.n_scans)
    ]
    return fixes, scans


def _assert_routes_agree(gps, wifi, records=None):
    """ingest_arrays and the record ingest accept the same lines, report the
    same errors and yield the same rows in the same order. ``records`` is the
    record ingest's result on these files, when already at hand."""
    traces, report = records or ingest_traces_verbose(gps, wifi)
    arrays, array_report = ingest_arrays(gps, wifi)
    assert array_report == report
    assert _array_rows(arrays) == _record_rows(traces)
    assert arrays.user_ids == trace_users(traces)
    assert arrays.bssids == sorted({a.bssid for s in traces.scans for a in s.sightings})
    assert arrays.scan_off[-1] == arrays.scan_ap.size
    return traces, arrays


@given(traces=_traceset(ts_st=_tied_ts_st), shuffle_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_ingest_order_insensitive(tmp_path_factory, traces, shuffle_seed):
    tmp = tmp_path_factory.mktemp("shuf")
    gps, wifi = tmp / "g.jsonl", tmp / "w.jsonl"
    write_traces(traces, gps, wifi)
    in_order = ingest_arrays(gps, wifi)[0]
    for path in (gps, wifi):
        lines = path.read_text().splitlines()
        random.Random(shuffle_seed).shuffle(lines)
        path.write_text("".join(line + "\n" for line in lines))
    shuffled = ingest_traces(gps, wifi)
    _, shuffled_arrays = _assert_routes_agree(gps, wifi)
    assert _array_rows(shuffled_arrays) == _array_rows(in_order) == _record_rows(traces)
    gps2, wifi2 = tmp / "g2.jsonl", tmp / "w2.jsonl"
    write_traces(shuffled, gps2, wifi2)
    write_traces(traces, gps, wifi)
    assert gps.read_bytes() == gps2.read_bytes()
    assert wifi.read_bytes() == wifi2.read_bytes()


@pytest.fixture(scope="module")
def synthetic_files(small_world, tmp_path_factory):
    """small_world written out once, with its record ingest and line report."""
    _, gt, arrays, _ = small_world
    out = tmp_path_factory.mktemp("synthetic")
    counts = write_dataset(gt, arrays, out)
    gps, wifi = out / "gps.jsonl", out / "wifi.jsonl"
    return gps, wifi, counts, ingest_traces_verbose(gps, wifi)


def test_synthetic_ingest_matches_generator_counts(small_world, synthetic_files):
    _, _, _, traces = small_world
    _, _, counts, (loaded, _) = synthetic_files
    assert len(loaded.fixes) == counts["gps_fixes"] == len(traces.fixes)
    assert len(loaded.scans) == counts["wifi_scans"] == len(traces.scans)


def test_ingest_routes_agree_on_synthetic_files(small_world, synthetic_files):
    _, _, arrays, _ = small_world
    gps, wifi, _, records = synthetic_files
    traces, loaded = _assert_routes_agree(gps, wifi, records)
    assert loaded.n_scans == arrays.n_scans and loaded.scan_ap.size == arrays.scan_ap.size
    assert loaded.ssids == [None] * len(loaded.bssids)


def _rows_arrays(fixes=(), scans=(), user_ids=("amy", "bob", "cat")):
    """SensorArrays holding ``(user index, ts)`` fix and scan rows in the
    given order; every scan is empty."""

    def columns(rows):
        rows = np.array(rows, dtype=np.int64).reshape(-1, 2)
        return rows[:, 0].astype(np.int32), rows[:, 1]

    fix_user, fix_ts = columns(fixes)
    scan_user, scan_ts = columns(scans)
    return SensorArrays(
        user_ids=list(user_ids),
        bssids=[],
        ssids=[],
        fix_user=fix_user,
        fix_ts=fix_ts,
        fix_lat=np.zeros(fix_ts.size),
        fix_lon=np.zeros(fix_ts.size),
        fix_acc=np.full(fix_ts.size, np.nan),
        scan_user=scan_user,
        scan_ts=scan_ts,
        scan_off=np.zeros(scan_ts.size + 1, dtype=np.int64),
        scan_ap=np.empty(0, dtype=np.int32),
    )


def test_sensor_arrays_rows_sorted_by_user_then_time():
    # ties on (user, ts) are fine, and bob has no rows at all
    arrays = _rows_arrays(fixes=[(0, 5), (0, 5), (2, 1)], scans=[(0, 3), (2, 0), (2, 0), (2, 9)])
    assert user_bounds(arrays.fix_user, 3).tolist() == [0, 2, 2, 3]
    assert user_bounds(arrays.scan_user, 3).tolist() == [0, 1, 1, 4]
    assert user_bounds(_rows_arrays().scan_user, 3).tolist() == [0, 0, 0, 0]
    assert user_bounds(_rows_arrays(user_ids=()).fix_user, 0).tolist() == [0]
    with pytest.raises(TraceError, match="fixes of user cat out of time order: 0 after 1"):
        _rows_arrays(fixes=[(0, 5), (2, 1), (2, 0)], scans=[(0, 3)])
    with pytest.raises(TraceError, match="scans of user amy out of time order: 2 after 3"):
        _rows_arrays(fixes=[(0, 5)], scans=[(0, 3), (0, 2), (2, 0)])
    # a lower user after a higher one, even at a later time
    with pytest.raises(TraceError, match="scans of user amy after those of user cat"):
        _rows_arrays(scans=[(0, 1), (2, 0), (0, 7)])
    with pytest.raises(TraceError, match="fixes of user bob after those of user cat"):
        _rows_arrays(fixes=[(2, 0), (1, 5)])


def _hand_built_lines():
    """Valid and malformed lines of every kind the validator distinguishes."""
    fix = lambda **kw: json.dumps({"user": "bob", "ts_ms": 10, "lat": 1.0, "lon": 2.0, **kw})
    gps = [
        fix(lat=1.5),  # no accuracy; sorts after the tied line below
        fix(acc_m=5.0),
        fix(user="amy", ts_ms=3, acc_m=0),
        fix(user="zed-only-gps", ts_ms=7),
        "",
        "{ not json",
        fix(ts_ms=-1),
        fix(ts_ms=True),
        fix(lat=91.0),
        fix(acc_m=-1.0),
        fix(user=""),
        fix(user="ghost-fix", lon="east"),
        "[1, 2]",
        '{"user": "bob", "ts_ms": 11, "lat": 1%s, "lon": 2.0}' % ("0" * 400),
        fix(ts_ms=2**63),
    ]
    scan = lambda aps, **kw: json.dumps({"user": "bob", "ts_ms": 20, "aps": aps, **kw})
    ap = lambda b, **kw: {"bssid": b, **kw}
    wifi = [
        scan([ap("aabbccddee02", ssid="net")]),  # sorts after the tied line below
        scan([ap("AA:BB:CC:DD:EE:01", rssi=-40), ap("aa-bb-cc-dd-ee-01", rssi=-90)]),
        scan([ap("AA-BB-CC-DD-EE-02"), ap("aa:bb:cc:dd:ee:03", rssi=-120)], ts_ms=5),
        scan([], user="amy", ts_ms=3),
        json.dumps({"user": "amy", "ts_ms": 4}),  # no aps at all: an empty scan
        scan([ap("AA:BB:CC:DD:EE:01", ssid=None, rssi=0)], user="amy", ts_ms=9),
        "   ",
        scan([ap("02:00:00:00:00:99"), ap("not-a-mac")], user="ghost-scan"),
        scan([ap("02:00:00:00:00:98", rssi=5)]),
        scan([ap("02:00:00:00:00:97", rssi=True)]),
        scan([ap(1234)]),
        scan([ap(["aa", "bb"])]),
        scan("aa:bb:cc:dd:ee:01"),
        scan([ap("02:00:00:00:00:96")], ts_ms=-5),
        scan(["aa:bb:cc:dd:ee:01"]),
        json.dumps({"user": "bob", "ts_ms": 1, "aps": [{"ssid": "x"}]}),
    ]
    return gps, wifi


def test_ingest_routes_agree_on_hand_built_files(tmp_path):
    gps, wifi = tmp_path / "gps.jsonl", tmp_path / "wifi.jsonl"
    gps_lines, wifi_lines = _hand_built_lines()
    _write_lines(gps, gps_lines)
    _write_lines(wifi, wifi_lines)
    traces, arrays = _assert_routes_agree(gps, wifi)
    _, report = ingest_traces_verbose(gps, wifi)
    assert (report.gps.parsed, report.gps.malformed) == (4, 10)
    assert (report.wifi.parsed, report.wifi.malformed) == (6, 9)
    # rejected lines add nothing to the tables, not even a user or a BSSID
    assert arrays.user_ids == ["amy", "bob", "zed-only-gps"]
    assert arrays.bssids == ["aa:bb:cc:dd:ee:01", "aa:bb:cc:dd:ee:02", "aa:bb:cc:dd:ee:03"]
    assert np.isnan(arrays.fix_acc).sum() == 2
    assert [(f[2], f[4]) for f in _record_rows(traces)[0] if f[:2] == ("bob", 10)] == [
        (1.0, 5.0),
        (1.5, None),
    ]
    # tied lines come out in canonical-content order on both routes
    assert [s[2] for s in _record_rows(traces)[1] if s[:2] == ("bob", 20)] == [
        ["aa:bb:cc:dd:ee:01"],
        ["aa:bb:cc:dd:ee:02"],
    ]

    # empty files on both sides
    for path in (gps, wifi):
        path.write_text("\n")
    traces, arrays = _assert_routes_agree(gps, wifi)
    assert arrays.user_ids == [] and arrays.bssids == [] and arrays.scan_off.tolist() == [0]


def test_non_string_bssid_is_a_malformed_line(tmp_path):
    gps, wifi = tmp_path / "gps.jsonl", tmp_path / "wifi.jsonl"
    gps.write_text("")
    _write_lines(wifi, [json.dumps({"user": "u", "ts_ms": 1, "aps": [{"bssid": 1234}]})])
    for ingest in (ingest_traces_verbose, ingest_arrays):
        _, report = ingest(gps, wifi)
        assert report.wifi.malformed == 1
        assert "not a MAC address" in report.wifi.first_errors[0]


def test_ingest_arrays_hard_error_matches_record_route(tmp_path):
    gps, wifi = tmp_path / "gps.jsonl", tmp_path / "wifi.jsonl"
    _write_lines(gps, ["not json at all"] * 50)
    wifi.write_text("")
    for ingest in (ingest_traces_verbose, ingest_arrays):
        with pytest.raises(TraceError, match="50/50 lines malformed"):
            ingest(gps, wifi)
    with pytest.raises(TraceError, match="cannot read"):
        ingest_arrays(tmp_path / "nope.jsonl", wifi)


def _fix_line(ts):
    return json.dumps({"user": "u", "ts_ms": ts, "lat": 1.0, "lon": 2.0}).encode()


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
def test_undecodable_line_is_one_malformed_line(tmp_path, newline):
    gps, wifi = tmp_path / "gps.jsonl", tmp_path / "wifi.jsonl"
    bad = b'{"user": "\xff\xfe", "ts_ms": 1, "lat": 1.0, "lon": 2.0}'
    gps.write_bytes(newline.join([_fix_line(0), bad, b"", _fix_line(2)]) + newline)
    scan = json.dumps({"user": "u", "ts_ms": 5, "aps": [{"bssid": "aa:bb:cc:dd:ee:01"}]})
    wifi.write_bytes(b"\xff" + newline + scan.encode() + newline)
    for ingest in (ingest_traces_verbose, ingest_arrays):
        _, report = ingest(gps, wifi)
        assert (report.gps.parsed, report.gps.malformed, report.gps.total_lines) == (2, 1, 3)
        assert report.gps.first_errors[0].startswith(f"{gps}:2: 'utf-8' codec can't decode")
        assert (report.wifi.parsed, report.wifi.malformed) == (1, 1)
        assert report.wifi.first_errors[0].startswith(f"{wifi}:1: ")
    traces, _ = ingest_traces_verbose(gps, wifi)
    assert [f.ts for f in traces.fixes] == [0, 2]
    arrays, _ = ingest_arrays(gps, wifi)
    assert arrays.fix_ts.tolist() == [0, 2] and arrays.bssids == ["aa:bb:cc:dd:ee:01"]


def test_deeply_nested_line_is_a_malformed_line(tmp_path):
    gps, wifi = tmp_path / "gps.jsonl", tmp_path / "wifi.jsonl"
    gps.write_bytes(_fix_line(0) + b"\n")
    scan = json.dumps({"user": "u", "ts_ms": 5, "aps": []})
    _write_lines(wifi, ["[" * 100_000, scan])
    for ingest in (ingest_traces_verbose, ingest_arrays):
        _, report = ingest(gps, wifi)
        assert (report.wifi.parsed, report.wifi.malformed) == (1, 1)
        assert "recursion" in report.wifi.first_errors[0]


def test_tied_lines_reread_by_line_number_in_crlf_files(tmp_path):
    """Scan lines tied on (user, ts) are read again by line number; CRLF
    files and a rejected line before them must not shift that number."""
    gps, wifi = tmp_path / "gps.jsonl", tmp_path / "wifi.jsonl"
    gps.write_bytes(b"")
    lines = [
        b"\xff",
        json.dumps({"user": "u", "ts_ms": 5, "aps": [{"bssid": "aa:bb:cc:dd:ee:02"}]}).encode(),
        json.dumps({"user": "u", "ts_ms": 5, "aps": [{"bssid": "aa:bb:cc:dd:ee:01"}]}).encode(),
    ]
    wifi.write_bytes(b"\r\n".join(lines) + b"\r\n")
    traces, arrays = _assert_routes_agree(gps, wifi)
    assert [s.sightings[0].bssid for s in traces.scans] == ["aa:bb:cc:dd:ee:01", "aa:bb:cc:dd:ee:02"]


def test_coordinates_must_be_json_numbers(tmp_path):
    gps, wifi = tmp_path / "gps.jsonl", tmp_path / "wifi.jsonl"
    fix = lambda **kw: json.dumps({"user": "u", "ts_ms": 1, "lat": 55.5, "lon": 12.5, **kw})
    lines = [
        fix(),
        fix(lat="55.5"),
        fix(lon=True),
        fix(acc_m="7"),
        fix(acc_m=False),
        fix(lat=None),
        fix(acc_m=None, ts_ms=2),  # null accuracy: none given
        fix(lat=55, acc_m=7),  # integers are JSON numbers too
    ]
    _write_lines(gps, lines)
    wifi.write_text("")
    for ingest in (ingest_traces_verbose, ingest_arrays):
        _, report = ingest(gps, wifi)
        assert (report.gps.parsed, report.gps.malformed) == (3, 5)
        assert [e.split(": ", 1)[1] for e in report.gps.first_errors] == [
            "lat must be a number",
            "lon must be a number",
            "acc_m must be a number",
            "acc_m must be a number",
            "lat must be a number",
        ]
    arrays, _ = ingest_arrays(gps, wifi)
    assert arrays.fix_lat.tolist() == [55.0, 55.5, 55.5]
    assert [None if math.isnan(a) else a for a in arrays.fix_acc.tolist()] == [7.0, None, None]


# lines of every kind the columnar route's fast path must hand to the
# reference validator, or decode as json.loads would; valid values are the
# common draw, so that most lines hold one fault at most
_ORACLE_BSSIDS = ["02:00:00:00:00:01", "02:00:00:00:00:02", "02-00-00-00-00-01", "020000000003"]
# every token form on one accepted line, so later lines meet known tokens
_ORACLE_FIRST_SCAN = json.dumps(
    {"user": "u1", "ts_ms": 0, "aps": [{"bssid": b} for b in _ORACLE_BSSIDS]}
).encode()


@st.composite
def _oracle_ap(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["02:00:00:00:00:01", 5, None, ["02:00:00:00:00:01"], {"ssid": "x"}]))
    ap = {"bssid": draw(st.sampled_from(_ORACLE_BSSIDS * 3 + ["not-a-mac", 7]))}
    if draw(st.booleans()):
        ap["ssid"] = draw(st.sampled_from(["net", "", None, 3]))
    if draw(st.booleans()):
        # a duplicate's bad rssi is ignored, another sighting's is not
        ap["rssi"] = draw(st.sampled_from([-50, -120, 0, -70, None, 5, -121, True, False, -50.0, "x"]))
    return ap


@st.composite
def _oracle_scan(draw):
    scan = {
        "user": draw(st.sampled_from(["u1", "u2", "\u00e9"] * 2 + ["", 3])),
        "ts_ms": draw(st.sampled_from([0, 5, 9] * 3 + [-1, True, 2**63, 1.5])),
    }
    kind = draw(st.integers(0, 9))
    if kind == 1:
        scan["aps"] = draw(st.sampled_from(["", {}, None]))
    elif kind > 1:  # kind 0: no aps, an empty scan
        scan["aps"] = draw(st.lists(_oracle_ap(), max_size=5))
    return scan


_oracle_fix = st.fixed_dictionaries(
    {
        "user": st.sampled_from(["u1", "u2"]),
        "ts_ms": st.sampled_from([0, 5, 5]),
        "lat": st.sampled_from([1.0, 55, "1.0", True, 91.0]),
        "lon": st.sampled_from([2.0, -3, "2", False]),
    },
    optional={"acc_m": st.sampled_from([5.0, 0, None, "5", -1.0])},
)
# around a value: JSON whitespace, which json.loads skips, and \x0c, \u00a0
# and other text, which it rejects
_oracle_lead = st.sampled_from(["", " ", "\t", " \t", "\x0c", "\u00a0", "\ufeff"])
_oracle_trail = st.sampled_from(["", " ", "\t", "\r", " \r", "\x0c", "\u00a0", " x", "{}"])
_oracle_odd = st.sampled_from(
    [b"", b"   ", b"\x0c", b"\xff", b"\xef\xbb\xbf{}", b"NaN", b"[1]", b"{ not json",
     b'{"user":"u1","ts_ms":NaN,"aps":[]}', b'{"user":"u1","ts_ms":3,"aps":[]}{}']
)


@st.composite
def _oracle_line(draw, value_st):
    """One line's bytes, without its newline."""
    if draw(st.integers(0, 5)) == 0:
        return draw(_oracle_odd)
    text = json.dumps(
        draw(value_st),
        separators=draw(st.sampled_from([(",", ":"), (", ", ": ")])),
        ensure_ascii=draw(st.booleans()),
    )
    if draw(st.booleans()):
        text = text.replace('"rssi"', '"rs\\u0073i"')
    if draw(st.integers(0, 2)) == 0:
        text = draw(_oracle_lead) + text + draw(_oracle_trail)
    return text.encode("utf-8")


@st.composite
def _oracle_file(draw, value_st, first=None):
    lines = draw(st.lists(_oracle_line(value_st), max_size=12))
    if first is not None:
        lines.insert(0, first)
    ends = draw(st.lists(st.sampled_from([b"\n", b"\r\n"]), min_size=len(lines), max_size=len(lines)))
    body = b"".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        body = body[: -len(ends[-1])]  # no newline after the last line
    return body


def _oracle_known_token_lines():
    """Lines whose every token ``_ORACLE_FIRST_SCAN`` makes known, each with
    one fault the fast check must see, or one quirk it must pass on."""
    scan = lambda aps, **kw: json.dumps({"user": "u1", "ts_ms": 5, "aps": aps, **kw})
    ap = lambda b="02:00:00:00:00:02", **kw: {"bssid": b, **kw}
    lines = [
        scan([ap(), ap()]),
        scan([ap("02:00:00:00:00:01"), ap("02-00-00-00-00-01", rssi=5)]),  # a duplicate's bad rssi
        scan([ap(rssi=-50), ap(rssi=-120), ap("020000000003", rssi=0)]),
        scan([ap(rssi=5)]).replace('"rssi"', '"rs\\u0073i"'),
        scan([ap(rssi=-50)]).replace('"rssi"', '"rs\\u0073i"'),
    ]
    lines += [scan([ap(rssi=r)]) for r in (1, -121, True, False, -50.0, "-50")]
    lines += [scan([ap()], ts_ms=t) for t in (True, -1, 2**63, 2**63 - 1, 5.0)]
    lines += [scan([ap()], user=u) for u in ("", 3, None)]
    lines += [scan(a) for a in ("", {}, None, [None], ["02:00:00:00:00:02"])]
    lines += [scan([ap()]) + end for end in ("\x0c", "\u00a0", " ", "\r")]
    return lines


def _oracle_known_token_file(lines):
    # ten lines at most: eleven malformed lines would refuse the whole file
    return b"\r\n".join([_ORACLE_FIRST_SCAN] + [line.encode() for line in lines])


def _ingest_outcome(ingest, gps, wifi):
    try:
        return ingest(gps, wifi)
    except TraceError as exc:
        return str(exc)


@given(gps_bytes=_oracle_file(_oracle_fix), wifi_bytes=_oracle_file(_oracle_scan(), _ORACLE_FIRST_SCAN))
@example(gps_bytes=b"", wifi_bytes=_oracle_known_token_file(_oracle_known_token_lines()[:10]))
@example(gps_bytes=b"", wifi_bytes=_oracle_known_token_file(_oracle_known_token_lines()[10:20]))
@example(gps_bytes=b"", wifi_bytes=_oracle_known_token_file(_oracle_known_token_lines()[20:]))
@settings(max_examples=150, deadline=None)
def test_columnar_fast_path_matches_record_route(tmp_path_factory, gps_bytes, wifi_bytes):
    tmp = tmp_path_factory.mktemp("oracle")
    gps, wifi = tmp / "gps.jsonl", tmp / "wifi.jsonl"
    gps.write_bytes(gps_bytes)
    wifi.write_bytes(wifi_bytes)
    records = _ingest_outcome(ingest_traces_verbose, gps, wifi)
    arrays = _ingest_outcome(ingest_arrays, gps, wifi)
    if isinstance(records, str):
        assert arrays == records  # both refuse the file, with the same message
        return
    traces, report = records
    arrays, array_report = arrays
    assert array_report == report  # counts and first_errors, text and line numbers
    assert _array_rows(arrays) == _record_rows(traces)
    assert arrays.user_ids == trace_users(traces)
