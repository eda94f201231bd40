"""Span tracing from outside the program, by patching its public functions.

A :class:`Tracer` replaces public functions of the ``wifimob`` modules with
wrappers that record one span per call: a name, start, end and the span that
was open when the call began. Each wrapper patches the defining module's
attribute and every re-imported alias of it (``cli.build_database`` is the
same object as ``ap_locator.build_database``), so calls made through either
name are seen. Nothing under ``src/`` changes; :meth:`Tracer.uninstall`
puts the original objects back.

Very frequent calls (one per scan or per user-day) are counted, not spanned,
so the trace stays cheap.
"""

from __future__ import annotations

import importlib
import resource
import time

MODULES = (
    "wifimob",
    "wifimob.trace_model",
    "wifimob.pairing",
    "wifimob.ap_locator",
    "wifimob.reconstructor",
    "wifimob.coverage_metrics",
    "wifimob.experiments",
    "wifimob.cli",
    "wifimob.synthgen",
)


def rss_hwm_mb() -> float:
    """This process's resident-set high-water mark so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory spans and counters, plus the patches that produce them."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1); end is filled on return
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, 0.0), value)

    def span(self, name: str, fn, post=None):
        """Call ``fn`` inside a span; ``post(args, kwargs, result)`` counts."""
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else -1
            rec = [name, time.perf_counter(), 0.0, parent]
            tracer.spans.append(rec)
            tracer._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._open.pop()
            if post is not None:
                post(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        """Count calls to ``fn`` without a span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module: str, attr: str, make, only_in=None) -> None:
        """Replace ``module.attr`` and every alias of it with ``make(original)``.

        ``only_in`` restricts the patch to the named modules' attributes, for
        an alias that belongs to another layer than the definition.
        """
        original = getattr(importlib.import_module(module), attr)
        original = getattr(original, "__wrapped__", original)
        wrapper = make(original)
        for name in only_in or MODULES:
            mod = importlib.import_module(name)
            if mod.__dict__.get(attr) is original:
                self._set(mod, attr, wrapper)

    def patch_method(self, cls, attr: str, make) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make(raw.__func__)))
        else:
            self._set(cls, attr, make(raw))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def span_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds.

        Self time is a span's duration minus its children's; the program
        runs on one thread, so children never overlap each other.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return table

    def outer_time(self, prefix: str) -> float:
        """Seconds spent in spans named ``prefix*`` not nested in another such span."""
        spans = self.spans
        total = 0.0
        for name, start, end, parent in spans:
            if not name.startswith(prefix):
                continue
            p = parent
            while p >= 0 and not spans[p][0].startswith(prefix):
                p = spans[p][3]
            if p < 0:
                total += end - start
        return total


def install_wifimob(tracer: Tracer) -> None:
    """Wrap the public functions of every layer of ``wifimob``."""
    from wifimob import coverage_metrics, experiments, trace_model
    from wifimob.ap_locator import ApClass
    from wifimob.trace_model import TraceSet

    t = tracer

    def span(name, post=None):
        return lambda fn: t.span(name, fn, post)

    # trace_model: ingest (which includes the canonical sort) and the sort
    def post_ingest(args, kwargs, result):
        _, report = result
        t.add("trace_model.lines", report.gps.total_lines + report.wifi.total_lines)
        t.add("trace_model.malformed", report.gps.malformed + report.wifi.malformed)
        t.peak("trace_model.rss_hwm_mb", rss_hwm_mb())

    t.patch_function("wifimob.trace_model", "ingest_traces_verbose",
                     span("trace_model.ingest", post_ingest))
    t.patch_method(trace_model.TraceSet, "from_records", span("trace_model.sort"))

    # pairing: the record route and the time matcher both routes share
    def post_pair_obs(args, kwargs, result):
        t.add("pairing.observations", len(result))

    def post_pair_idx(args, kwargs, result):
        t.add("pairing.fixes", int(result.shape[0]))
        t.add("pairing.fixes_paired", int((result >= 0).sum()))

    t.patch_function("wifimob.pairing", "pair_observations",
                     span("pairing.pair_observations", post_pair_obs))
    t.patch_function("wifimob.pairing", "pair_time_indices",
                     span("pairing.pair_time_indices", post_pair_idx))

    # ap_locator: whole builds, per-router classification, and its two kernels
    def post_build(args, kwargs, db):
        t.add("ap_locator.routers", len(db.records))
        t.add("ap_locator.located", sum(
            1 for r in db.records.values() if r.ap_class in (ApClass.STATIC, ApClass.RELOCATED)
        ))

    def post_points(name):
        return lambda args, kwargs, result: t.add(name, len(args[0]))

    t.patch_function("wifimob.ap_locator", "build_database", span("ap_locator.build", post_build))
    t.patch_function("wifimob.ap_locator", "classify_ap", span("ap_locator.classify"))
    t.patch_function("wifimob.ap_locator", "dbscan",
                     span("ap_locator.dbscan", post_points("ap_locator.dbscan_points")))
    t.patch_function("wifimob.ap_locator", "geometric_median",
                     span("ap_locator.median", post_points("ap_locator.median_points")),
                     only_in=("wifimob", "wifimob.ap_locator"))

    # reconstructor: timelines, the per-scan resolver, and its own medians
    def post_timeline(args, kwargs, timelines):
        t.add("reconstructor.bins_with_data", sum(len(tl.bins_with_data) for tl in timelines.values()))
        t.add("reconstructor.bins_resolved", sum(len(tl.bins) for tl in timelines.values()))

    t.patch_function("wifimob.reconstructor", "build_timeline",
                     span("reconstructor.timeline", post_timeline))
    t.patch_function("wifimob.reconstructor", "resolve_scan",
                     lambda fn: t.counted("reconstructor.resolve_calls", fn))
    t.patch_function("wifimob.ap_locator", "geometric_median",
                     span("reconstructor.median"), only_in=("wifimob.reconstructor",))

    # coverage_metrics: user-days accounted, and the entropy metric
    t.patch_method(coverage_metrics.CoverageSeries, "add",
                   lambda fn: t.counted("coverage_metrics.user_days", fn))
    t.patch_function("wifimob.coverage_metrics", "entropy_bits", span("coverage_metrics.entropy"))

    # experiments: table build, grid cells, and the full-data database
    def post_prepare(args, kwargs, data):
        t.add("experiments.presence_triples", int(data.table.pres_user.size))
        t.add("experiments.paired_obs", data.pairs.count())
        if not isinstance(args[0], TraceSet):
            # the columnar route pairs inside prepare, with no public function
            t.add("pairing.observations", data.pairs.count())
        t.peak("experiments.rss_hwm_mb", rss_hwm_mb())

    t.patch_function("wifimob.experiments", "prepare_experiment_data",
                     span("experiments.prepare", post_prepare))
    t.patch_function("wifimob.experiments", "run_experiment", span("experiments.cell"))
    t.patch_method(experiments.ExperimentData, "full_database", span("experiments.full_db"))
    t.patch_method(experiments.ExperimentData, "paired_records",
                   span("experiments.paired_records"))

    # cli: the CSV writers it calls by their re-imported names
    for module, attr in (
        ("wifimob.ap_locator", "write_apdb_csv"),
        ("wifimob.reconstructor", "write_timeline_csv"),
        ("wifimob.experiments", "write_experiment_grid_csv"),
        ("wifimob.experiments", "write_histograms_csv"),
    ):
        t.patch_function(module, attr, span("cli.write"), only_in=("wifimob.cli",))

    # synthgen: the set-up stages the benchmark itself calls, maybe repeatedly
    def post_simulate(args, kwargs, arrays):
        t.counts["synthgen.scans"] = arrays.n_scans
        t.counts["synthgen.sightings"] = int(arrays.scan_ap.size)
        t.counts["synthgen.fixes"] = int(arrays.fix_ts.size)

    t.patch_function("wifimob.synthgen", "generate_world", span("synthgen.generate"))
    t.patch_function("wifimob.synthgen", "simulate_sensor_arrays",
                     span("synthgen.simulate", post_simulate))
    t.patch_function("wifimob.synthgen", "write_dataset", span("synthgen.write"))
