"""Trace data model and JSONL ingestion for GPS fixes and WiFi scan logs.

The on-disk formats are one JSON object per line:

* ``gps.jsonl``  -- ``{"user": str, "ts_ms": int, "lat": float, "lon": float,
  "acc_m": float?}``
* ``wifi.jsonl`` -- ``{"user": str, "ts_ms": int, "aps": [{"bssid": str,
  "ssid": str?, "rssi": int?}, ...]}``

Timestamps are integer milliseconds since the Unix epoch, UTC. Ingested
fixes and scans are put in canonical order: numerically by ``(user, ts)``,
and, among lines tied on both, by their canonical JSON serialization, so
that shuffled input files produce identical results.

Every pipeline stage runs on the columnar :class:`SensorArrays` that
:func:`ingest_arrays` fills. The record form (:class:`TraceSet` and its
record types, built by :func:`ingest_traces_verbose`) is the slow reference;
it accepts and rejects exactly the same lines. No product path reads it; it
stays here only because the benchmark tracer binds these names:

* ``trace_model``: ``ingest_traces_verbose``, ``TraceSet.from_records``;
* ``pairing``: ``pair_observations``, with ``PairedEvents.to_records`` and
  ``PairedObservation``;
* ``experiments``: ``ExperimentData.paired_records``;
* ``ap_locator``: ``classify_ap``, ``geometric_median``, ``ApDatabase.records``
  and ``ApDatabase.get`` with ``ApRecord.ap_class`` and ``ApRecord.pos``;
* ``reconstructor``: ``resolve_scan``, with ``ApRecord.position_at``.

The rest of the record route lives in the test suite's oracles.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional

import numpy as np

TimestampMs = int
UserId = str
BssidId = str

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_ASCII_SPACE = " \t\n\r\x0b\x0c"
# timestamps must fit the int64 columns of SensorArrays
_MAX_TS_MS = 2**63 - 1
# malformed lines quoted in a file's report
_FIRST_ERRORS_KEPT = 10


class TraceError(ValueError):
    """Trace input that violates the data model."""


class BssidParseError(TraceError):
    """A token that cannot be canonicalized into a hardware address."""


def normalize_bssid(raw: str) -> BssidId:
    """Canonicalize a MAC address to lowercase, colon-separated octets.

    Accepts six octets of two upper or lower case hex digits, separated
    throughout by ``:`` or throughout by ``-``, or a bare 12-digit hex
    string, with optional ASCII whitespace around it. Idempotent on
    canonical input.
    """
    if not isinstance(raw, str):
        raise BssidParseError(f"not a MAC address: {raw!r}")
    token = raw.strip(_ASCII_SPACE)
    if len(token) == 17 and token[2::3] in (":::::", "-----"):
        token = "".join(token[i : i + 2] for i in range(0, 17, 3))
    if len(token) != 12 or not _HEX_DIGITS.issuperset(token):
        raise BssidParseError(f"not a MAC address: {raw!r}")
    return ":".join(token[i : i + 2] for i in range(0, 12, 2)).lower()


def _check_coordinate(lat_deg: float, lon_deg: float) -> None:
    if not (math.isfinite(lat_deg) and math.isfinite(lon_deg)):
        raise TraceError(f"non-finite coordinate ({lat_deg}, {lon_deg})")
    if not -90.0 <= lat_deg <= 90.0:
        raise TraceError(f"latitude out of range: {lat_deg}")
    if not -180.0 < lon_deg <= 180.0:
        raise TraceError(f"longitude out of range: {lon_deg}")


def _check_timestamp(ts: TimestampMs) -> None:
    if ts < 0:
        raise TraceError(f"negative timestamp: {ts}")
    if ts > _MAX_TS_MS:
        raise TraceError(f"timestamp out of range: {ts}")


def _check_accuracy(accuracy_m: float) -> None:
    if not math.isfinite(accuracy_m) or accuracy_m < 0:
        raise TraceError(f"bad accuracy: {accuracy_m}")


def _check_rssi(rssi_dbm: int) -> None:
    if not -120 <= rssi_dbm <= 0:
        raise TraceError(f"rssi out of range: {rssi_dbm}")


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A WGS84 coordinate, range-checked at construction."""

    lat_deg: float
    lon_deg: float

    def __post_init__(self) -> None:
        _check_coordinate(self.lat_deg, self.lon_deg)


@dataclass(slots=True)
class GpsFix:
    user: UserId
    ts: TimestampMs
    pos: GeoPoint
    accuracy_m: Optional[float] = None

    def __post_init__(self) -> None:
        _check_timestamp(self.ts)
        if self.accuracy_m is not None:
            _check_accuracy(self.accuracy_m)


@dataclass(frozen=True, slots=True)
class ApSighting:
    bssid: BssidId
    ssid: Optional[str] = None
    rssi_dbm: Optional[int] = None

    def __post_init__(self) -> None:
        if self.rssi_dbm is not None:
            _check_rssi(self.rssi_dbm)


@dataclass(slots=True)
class WifiScan:
    """One scan event: a possibly empty list of sighted access points.

    Duplicate BSSIDs within a scan are merged at parse time, keeping the
    first occurrence.
    """

    user: UserId
    ts: TimestampMs
    sightings: list[ApSighting]

    def __post_init__(self) -> None:
        _check_timestamp(self.ts)


@dataclass(slots=True)
class TraceSet:
    """Immutable-by-convention container of sorted fixes and scans."""

    fixes: list[GpsFix]
    scans: list[WifiScan]

    @classmethod
    def from_records(
        cls, fixes: Iterable[GpsFix], scans: Iterable[WifiScan]
    ) -> "TraceSet":
        """Sort records into canonical order and wrap them.

        The sort key includes the serialized record content so that input
        order (including ties on ``(user, ts)``) never leaks into the result.
        """
        fx = sorted(fixes, key=lambda f: (f.user, f.ts, _fix_line(f)))
        sc = sorted(scans, key=lambda s: (s.user, s.ts, _scan_line(s)))
        return cls(fixes=fx, scans=sc)


@dataclass(slots=True)
class SensorArrays:
    """Column-oriented sensor log; the compact twin of a record TraceSet.

    ``user_ids`` and ``bssids`` are the tables the integer columns index.
    Scan sightings are ragged: scan ``k`` holds
    ``scan_ap[scan_off[k]:scan_off[k + 1]]``. A missing fix accuracy is NaN.

    Fix rows and scan rows are each sorted by (user index, ts), ties
    allowed, so each user's rows are one slice (:func:`user_bounds`) in time
    order: nearest-scan pairing and first-scan-in-bin timelines rely on it.
    Construction checks this and raises TraceError naming the first user
    whose rows break it. Arrays from :func:`ingest_arrays` also carry sorted
    tables.
    """

    user_ids: list[str]
    bssids: list[str]
    # GPS fixes
    fix_user: np.ndarray
    fix_ts: np.ndarray
    fix_lat: np.ndarray
    fix_lon: np.ndarray
    fix_acc: np.ndarray
    # WiFi scans (ragged sightings via offsets into scan_ap)
    scan_user: np.ndarray
    scan_ts: np.ndarray
    scan_off: np.ndarray
    scan_ap: np.ndarray

    def __post_init__(self) -> None:
        _check_row_order("fixes", self.user_ids, self.fix_user, self.fix_ts)
        _check_row_order("scans", self.user_ids, self.scan_user, self.scan_ts)

    @property
    def n_scans(self) -> int:
        return int(self.scan_ts.size)

    def scan_counts(self) -> np.ndarray:
        return np.diff(self.scan_off)

    def nonempty_scan_fraction(self) -> float:
        if self.n_scans == 0:
            return 0.0
        return float((self.scan_counts() > 0).mean())

    def sighting_index(self, scans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat ``scan_ap`` indices of the given scans' sightings, in scan
        order, plus the sighting count of each scan."""
        return _ragged_index(self.scan_off, scans)


def _check_row_order(what: str, user_ids: list[str], user: np.ndarray, ts: np.ndarray) -> None:
    same = user[1:] == user[:-1]
    bad = np.flatnonzero((user[1:] < user[:-1]) | (same & (ts[1:] < ts[:-1])))
    if bad.size:
        k = int(bad[0])
        if same[k]:
            raise TraceError(
                f"{what} of user {user_ids[user[k]]} out of time order: "
                f"{int(ts[k + 1])} after {int(ts[k])}"
            )
        raise TraceError(
            f"{what} of user {user_ids[user[k + 1]]} after those of user {user_ids[user[k]]}"
        )


def user_bounds(user: np.ndarray, n_users: int) -> np.ndarray:
    """Row bounds of each user in a column sorted by user index: user
    ``u``'s rows are ``bounds[u]:bounds[u + 1]``."""
    return np.searchsorted(user, np.arange(n_users + 1))


def _rng(seed: int, *stream) -> np.random.Generator:
    """The counter-based Philox stream keyed by ``(seed, *stream)``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed,) + stream)))


def _ragged_index(off: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lo = off[rows]
    lens = off[rows + 1] - lo
    starts = np.cumsum(lens) - lens
    flat = np.repeat(lo - starts, lens) + np.arange(int(lens.sum()), dtype=np.int64)
    return flat, lens


@dataclass(slots=True)
class FileIngestStats:
    path: str
    parsed: int = 0
    malformed: int = 0
    first_errors: list[str] = field(default_factory=list)

    @property
    def total_lines(self) -> int:
        """Non-blank lines read: every one is either parsed or malformed."""
        return self.parsed + self.malformed

    def note_error(self, line_no: int, message: str) -> None:
        self.malformed += 1
        if len(self.first_errors) < _FIRST_ERRORS_KEPT:
            self.first_errors.append(f"{self.path}:{line_no}: {message}")


@dataclass(slots=True)
class IngestReport:
    gps: FileIngestStats
    wifi: FileIngestStats

    def summary(self) -> str:
        parts = []
        for stats in (self.gps, self.wifi):
            parts.append(
                f"{stats.path}: {stats.parsed} parsed, {stats.malformed} malformed"
            )
        return "; ".join(parts)


# A file is considered "wrong" (hard error) when malformed lines are both a
# non-trivial fraction and a non-trivial count; tiny files with a stray bad
# line are reported but still ingested.
_MALFORMED_FRACTION_LIMIT = 0.01
_MALFORMED_COUNT_FLOOR = 10

# one validated sighting: (bssid key, ssid, rssi); the key is what the
# caller's _BssidKeys maps the raw token to
Sighting = tuple[object, object, Optional[int]]


class _BssidKeys(dict):
    """Memo from raw BSSID token to key: ``normalize_bssid``, composed with
    ``key_of`` when given. A log repeats the same few thousand tokens, so
    nearly every lookup is a plain dict hit."""

    def __init__(self, key_of: Optional[Callable[[BssidId], object]] = None) -> None:
        super().__init__()
        self._key_of = key_of

    def __missing__(self, raw):
        bssid = normalize_bssid(raw)
        key = self[raw] = bssid if self._key_of is None else self._key_of(bssid)
        return key


def _line_ids(obj) -> tuple[UserId, TimestampMs]:
    if not isinstance(obj, dict):
        raise TraceError("not an object")
    user = obj["user"]
    if not isinstance(user, str) or not user:
        raise TraceError("bad user id")
    ts = obj["ts_ms"]
    if not isinstance(ts, int) or isinstance(ts, bool):
        raise TraceError("ts_ms must be an integer")
    return user, ts


def _number(value, name: str) -> float:
    # a JSON number, not a string or a boolean that float() would also take
    if type(value) is not float and type(value) is not int:
        raise TraceError(f"{name} must be a number")
    return float(value)


def _fix_fields(obj) -> tuple[UserId, TimestampMs, float, float, Optional[float]]:
    """Validate one parsed ``gps.jsonl`` line; both ingest routes use this."""
    user, ts = _line_ids(obj)
    lat, lon = _number(obj["lat"], "lat"), _number(obj["lon"], "lon")
    _check_coordinate(lat, lon)
    acc = obj.get("acc_m")
    if acc is not None:
        acc = _number(acc, "acc_m")
    _check_timestamp(ts)
    if acc is not None:
        _check_accuracy(acc)
    return user, ts, lat, lon, acc


def _scan_fields(obj, keys: _BssidKeys) -> tuple[UserId, TimestampMs, list[Sighting]]:
    """Validate one parsed ``wifi.jsonl`` line; both ingest routes use this.

    ``keys`` maps a raw BSSID token to its key, raising for a token that is
    not a MAC address. Duplicate BSSIDs are merged, first occurrence wins.
    """
    user, ts = _line_ids(obj)
    aps = obj.get("aps", [])
    if not isinstance(aps, list):
        raise TraceError("aps must be a list")
    sightings: list[Sighting] = []
    seen = set()
    for ap in aps:
        key = keys[ap["bssid"]]
        if key in seen:
            continue
        seen.add(key)
        ssid = ap.get("ssid")
        rssi = ap.get("rssi")
        if rssi is not None:
            if not isinstance(rssi, int) or isinstance(rssi, bool):
                raise TraceError("rssi must be an integer")
            _check_rssi(rssi)
        sightings.append((key, ssid, rssi))
    _check_timestamp(ts)
    return user, ts, sightings


# what rejecting a line may raise; OverflowError: an integer literal too
# large for a float; RecursionError: a line nested too deeply for the parser
_LINE_ERRORS = (TraceError, KeyError, TypeError, ValueError, OverflowError, RecursionError)


def _open_log(path: Path):
    try:
        return path.open("rb")
    except OSError as exc:
        raise TraceError(f"cannot read {path}: {exc}") from exc


def _ingest_file(path: Path, accept: Callable[[object, int], None], stats: FileIngestStats) -> None:
    """Feed each non-blank line's JSON value and line number to ``accept``.

    ``accept`` validates before it stores anything, so a line it rejects
    leaves no trace beyond its entry in ``stats``.
    """
    with _open_log(path) as handle:
        # lines split on b"\n", so "\r\n" files number their lines as "\n" files do
        for line_no, raw in enumerate(handle, start=1):
            try:
                # each line is decoded on its own: a line that is not UTF-8
                # is one malformed line (UnicodeDecodeError is a ValueError)
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                accept(json.loads(line), line_no)
                stats.parsed += 1
            except _LINE_ERRORS as exc:
                stats.note_error(line_no, str(exc) or type(exc).__name__)
    _check_malformed_share(path, stats)


# what may follow a JSON value on its line for json.loads to return it as is
_LINE_ENDS = frozenset(("", "\n", "\r\n"))


def _json_lines(handle, stats: FileIngestStats):
    """Yield ``(line_no, line, value)`` for each non-blank line of ``handle``
    that ``json.loads`` accepts, ``value`` being its result; note the other
    non-blank lines in ``stats``, as :func:`_ingest_file` does.

    The C scanner runs on each line directly. Where its value does not end
    the line (leading whitespace, a BOM, any other trailing text, a failed
    scan), ``json.loads`` decides the line instead.
    """
    scan_once = json.JSONDecoder().scan_once
    line_ends = _LINE_ENDS
    note_error = stats.note_error
    for line_no, raw in enumerate(handle, start=1):
        try:
            line = raw.decode("utf-8")
            try:
                value, end = scan_once(line, 0)
                exact = line[end:] in line_ends
            except (StopIteration, ValueError, RecursionError):
                exact = False
            if not exact:
                if not line.strip():
                    continue
                value = json.loads(line)
        except _LINE_ERRORS as exc:
            note_error(line_no, str(exc) or type(exc).__name__)
            continue
        yield line_no, line, value


def _check_malformed_share(path: Path, stats: FileIngestStats) -> None:
    if stats.total_lines:
        frac = stats.malformed / stats.total_lines
        if frac > _MALFORMED_FRACTION_LIMIT and stats.malformed > _MALFORMED_COUNT_FLOOR:
            raise TraceError(
                f"{path}: {stats.malformed}/{stats.total_lines} lines malformed; "
                "this does not look like the right file"
            )


def _new_report(gps_path: Path, wifi_path: Path) -> IngestReport:
    return IngestReport(
        gps=FileIngestStats(path=str(gps_path)),
        wifi=FileIngestStats(path=str(wifi_path)),
    )


def ingest_traces_verbose(gps_path, wifi_path) -> tuple[TraceSet, IngestReport]:
    """Ingest both trace files as records, returning a malformed-line report too."""
    gps_path, wifi_path = Path(gps_path), Path(wifi_path)
    report = _new_report(gps_path, wifi_path)
    fixes: list[GpsFix] = []
    scans: list[WifiScan] = []

    def accept_fix(obj, line_no):
        user, ts, lat, lon, acc = _fix_fields(obj)
        fixes.append(GpsFix(user=user, ts=ts, pos=GeoPoint(lat, lon), accuracy_m=acc))

    canon = _BssidKeys()

    def accept_scan(obj, line_no):
        user, ts, sightings = _scan_fields(obj, canon)
        scans.append(
            WifiScan(user=user, ts=ts, sightings=[ApSighting(*s) for s in sightings])
        )

    _ingest_file(gps_path, accept_fix, report.gps)
    _ingest_file(wifi_path, accept_scan, report.wifi)
    return TraceSet.from_records(fixes, scans), report


def ingest_arrays(gps_path, wifi_path) -> tuple[SensorArrays, IngestReport]:
    """Ingest both trace files straight into columns, plus the line report.

    One streaming pass per file, with the same validation and the same
    report as :func:`ingest_traces_verbose`; lines of either log tied on
    ``(user, ts)`` are read a second time for their content order. The user
    and BSSID tables are the sorted unions of what the accepted lines hold,
    and rows come out in the canonical order, so the result matches the
    record route row for row.

    Lines are decoded by :func:`_json_lines`. A scan line whose BSSIDs are
    all known from earlier lines and distinct, and whose other fields are
    plainly valid, is taken on a fast check; every other line goes to
    :func:`_scan_fields`, which alone rejects lines and merges duplicates.

    Accepted fields go into typed ``array`` buffers as they are read, and
    each buffer becomes its column without a copy. A log whose ``(user, ts)``
    pairs strictly increase is already in canonical order, so its columns
    are not gathered.
    """
    gps_path, wifi_path = Path(gps_path), Path(wifi_path)
    report = _new_report(gps_path, wifi_path)
    users: dict[UserId, int] = {}
    fix_user, fix_ts = array("i"), array("q")
    fix_lat, fix_lon, fix_acc, fix_line = array("d"), array("d"), array("d"), array("q")

    with _open_log(gps_path) as handle:
        for line_no, _, obj in _json_lines(handle, report.gps):
            try:
                user, ts, lat, lon, acc = _fix_fields(obj)
            except _LINE_ERRORS as exc:
                report.gps.note_error(line_no, str(exc) or type(exc).__name__)
                continue
            fix_user.append(users.setdefault(user, len(users)))
            fix_ts.append(ts)
            fix_lat.append(lat)
            fix_lon.append(lon)
            fix_acc.append(math.nan if acc is None else acc)
            fix_line.append(line_no)
    report.gps.parsed = len(fix_ts)
    _check_malformed_share(gps_path, report.gps)

    bssid_ids: dict[BssidId, int] = {}
    ap_keys = _BssidKeys(lambda b: bssid_ids.setdefault(b, len(bssid_ids)))
    # ap_keys' entries for the lines accepted so far, as a plain dict: its
    # subscript is the fast one, and a new token leaves the line to ap_keys
    token_ids: dict[str, int] = {}
    scan_user, scan_ts, scan_len = array("i"), array("q"), array("i")
    scan_ap, scan_line = array("i"), array("q")
    add_user, add_ts, add_len = scan_user.append, scan_ts.append, scan_len.append
    add_aps, add_line = scan_ap.fromlist, scan_line.append
    note_error = report.wifi.note_error
    int_only = {int}
    user, uid = None, -1

    with _open_log(wifi_path) as handle:
        for line_no, line, obj in _json_lines(handle, report.wifi):
            # a fast check of the usual line; _scan_fields, the reference
            # validator, decides every line it does not clear: one that
            # raises, or one with a duplicate BSSID to merge
            try:
                name, ts, aps = obj["user"], obj["ts_ms"], obj["aps"]
                clear = (
                    type(name) is str
                    and name != ""
                    and type(ts) is int
                    and 0 <= ts <= _MAX_TS_MS
                    and type(aps) is list
                )
                if clear:
                    ids = [token_ids[ap["bssid"]] for ap in aps]
                    clear = len(set(ids)) == len(ids)
                # only a line holding '"rssi"' or an escape can hold an rssi key
                if clear and ('"rssi"' in line or "\\" in line):
                    rssi = [r for ap in aps if (r := ap.get("rssi")) is not None]
                    clear = not rssi or (
                        set(map(type, rssi)) == int_only and min(rssi) >= -120 and max(rssi) <= 0
                    )
            except (KeyError, TypeError):
                clear = False
            if not clear:
                try:
                    name, ts, sightings = _scan_fields(obj, ap_keys)
                except _LINE_ERRORS as exc:
                    note_error(line_no, str(exc) or type(exc).__name__)
                    continue
                ids = [s[0] for s in sightings]
                for ap in obj.get("aps", ()):
                    token_ids[ap["bssid"]] = ap_keys[ap["bssid"]]
            if name != user:  # lines come in runs of one user
                user = name
                uid = users.setdefault(user, len(users))
            add_user(uid)
            add_ts(ts)
            add_len(len(ids))
            add_aps(ids)
            add_line(line_no)
    report.wifi.parsed = len(scan_ts)
    _check_malformed_share(wifi_path, report.wifi)

    user_ids, user_map = _sorted_table(list(users), np.arange(len(users)))
    ap_raw = np.frombuffer(scan_ap, dtype=np.int32)
    # a BSSID interned from a line that was then rejected stays out
    bssids, ap_map = _sorted_table(list(bssid_ids), ap_raw)

    fix = [
        user_map[np.frombuffer(fix_user, dtype=np.int32)],
        np.frombuffer(fix_ts, dtype=np.int64),
        np.frombuffer(fix_lat, dtype=np.float64),
        np.frombuffer(fix_lon, dtype=np.float64),
        np.frombuffer(fix_acc, dtype=np.float64),
    ]
    order = _canonical_order(
        fix[0], fix[1], gps_path, fix_line, lambda obj: _fix_json(*_fix_fields(obj))
    )
    if order is not None:
        fix = [col[order] for col in fix]

    s_user = user_map[np.frombuffer(scan_user, dtype=np.int32)]
    s_ts = np.frombuffer(scan_ts, dtype=np.int64)
    s_off = _offsets(np.frombuffer(scan_len, dtype=np.int32))
    order = _canonical_order(
        s_user, s_ts, wifi_path, scan_line, lambda obj: _scan_json(*_scan_fields(obj, _BssidKeys()))
    )
    if order is None:
        # the usual log, as write_dataset writes one: no row moves
        s_ap = ap_map[ap_raw]
    else:
        flat, lens = _ragged_index(s_off, order)
        s_user, s_ts = s_user[order], s_ts[order]
        s_off, s_ap = _offsets(lens), ap_map[ap_raw[flat]]

    arrays = SensorArrays(
        user_ids=user_ids,
        bssids=bssids,
        fix_user=fix[0],
        fix_ts=fix[1],
        fix_lat=fix[2],
        fix_lon=fix[3],
        fix_acc=fix[4],
        scan_user=s_user,
        scan_ts=s_ts,
        scan_off=s_off,
        scan_ap=s_ap,
    )
    return arrays, report


def _offsets(lens: np.ndarray) -> np.ndarray:
    """Ragged offsets of rows holding ``lens`` items each."""
    off = np.zeros(lens.size + 1, dtype=np.int64)
    np.cumsum(lens, out=off[1:])
    return off


def _sorted_table(names: list[str], used: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The sorted table of the names that ids in ``used`` refer to, and the
    map from provisional id to table index (-1 for names left out)."""
    present = np.zeros(len(names), dtype=bool)
    present[used] = True
    keep = sorted(np.nonzero(present)[0].tolist(), key=names.__getitem__)
    remap = np.full(len(names), -1, dtype=np.int32)
    remap[keep] = np.arange(len(keep), dtype=np.int32)
    return [names[i] for i in keep], remap


def _canonical_order(
    user: np.ndarray,
    ts: np.ndarray,
    path: Path,
    line_nos: array,
    line_key: Callable[[object], str],
) -> Optional[np.ndarray]:
    """Row order by ``(user, ts)``, ties broken by each tied row's content
    key, or None for rows already in that order with no tie.

    The table indices in ``user`` follow string order, so this equals the
    record route's sort. Row ``k`` was read from line ``line_nos[k]`` of
    ``path``; only tied rows need a content key, so only their lines are read
    again, and ``line_key`` maps each one's JSON value to its canonical JSON.
    """
    if _in_order(user, ts):
        return None
    order = np.lexsort((ts, user))
    u, t = user[order], ts[order]
    same = (u[1:] == u[:-1]) & (t[1:] == t[:-1])
    if not same.any():
        return order
    tied = np.zeros(order.size, dtype=bool)
    tied[1:] |= same
    tied[:-1] |= same
    pos = np.nonzero(tied)[0]
    rows = order[pos].tolist()
    wanted = {line_nos[k]: None for k in rows}
    # numbered the way _json_lines numbers them
    with path.open("rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            if line_no in wanted:
                wanted[line_no] = line_key(json.loads(raw.decode("utf-8")))
    keys = [wanted[line_nos[k]] for k in rows]
    # tied runs are contiguous and (u, t) keeps them in place; the sort is
    # stable, so identical lines keep their input order
    resorted = sorted(range(len(rows)), key=lambda i: (int(u[pos[i]]), int(t[pos[i]]), keys[i]))
    order[pos] = [rows[i] for i in resorted]
    return order


def _in_order(user: np.ndarray, ts: np.ndarray) -> bool:
    """Whether the ``(user, ts)`` pairs strictly increase row by row."""
    later = (user[1:] > user[:-1]) | ((user[1:] == user[:-1]) & (ts[1:] > ts[:-1]))
    return bool(later.all())


def _fix_json(
    user: UserId, ts: TimestampMs, lat: float, lon: float, acc: Optional[float]
) -> str:
    obj: dict = {"user": user, "ts_ms": ts, "lat": lat, "lon": lon}
    if acc is not None:
        obj["acc_m"] = acc
    return json.dumps(obj, separators=(",", ":"))


def _scan_json(user: UserId, ts: TimestampMs, sightings: Iterable[Sighting]) -> str:
    aps = []
    for bssid, ssid, rssi in sightings:
        ap: dict = {"bssid": bssid}
        if ssid is not None:
            ap["ssid"] = ssid
        if rssi is not None:
            ap["rssi"] = rssi
        aps.append(ap)
    return json.dumps({"user": user, "ts_ms": ts, "aps": aps}, separators=(",", ":"))


def _fix_line(fix: GpsFix) -> str:
    return _fix_json(fix.user, fix.ts, fix.pos.lat_deg, fix.pos.lon_deg, fix.accuracy_m)


def _scan_line(scan: WifiScan) -> str:
    return _scan_json(
        scan.user, scan.ts, ((s.bssid, s.ssid, s.rssi_dbm) for s in scan.sightings)
    )
