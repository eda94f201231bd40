"""Smoke test: every workload's code path on a tiny world, twice.

Run from the root of a checkout with::

    python3 -m pytest -q wifibench/test_smoke.py

Each workload runs traced on a world of a few users over two days; the test
asserts that no operation fails and that every counter and the output
digest repeat exactly between two passes with the same seed. It also
checks that the metric names the benchmark emits are exactly those that
BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import one_pass  # noqa: E402
import run  # noqa: E402

TINY = (2, 2)


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """Two traced passes and one plain pass of each workload, same seed."""
    cache = {}

    def get(workload):
        if workload not in cache:
            tmp = tmp_path_factory.mktemp(workload)
            cache[workload] = [
                one_pass.run_pass(workload, 3, traced, tmp / str(i), size=TINY)
                for i, traced in enumerate((True, True, False))
            ]
        return cache[workload]

    return get


@pytest.mark.parametrize("workload", sorted(run.OPS))
def test_workload_repeats_exactly(workload, passes):
    import wifimob.ap_locator as ap_locator
    import wifimob.cli as cli

    before = (ap_locator.build_database, cli.build_database, cli.ingest_traces_verbose)
    first, second, plain = passes(workload)
    # tracing patched the program and then put every original back
    assert (ap_locator.build_database, cli.build_database, cli.ingest_traces_verbose) == before
    for record in (first, second, plain):
        assert record["failed"] == [], record["notes"]
        assert record["ops"] == run.OPS[workload]
    assert first["digest"] and first["digest"] == second["digest"] == plain["digest"]
    assert run.counters(first["layers"]) == run.counters(second["layers"])
    assert first["sizes"] == second["sizes"] == plain["sizes"]
    # the trace saw the layers this workload is meant to exercise
    layers = first["layers"]
    assert layers["synthgen.scans"] == first["sizes"]["scans"]
    assert layers["experiments.cells"] > 0
    if workload == "cli_3d":
        assert layers["trace_model.lines"] > 0 and layers["reconstructor.bins_resolved"] > 0
    else:
        assert layers["trace_model.lines"] == 0 and layers["reconstructor.resolve_calls"] == 0


def test_summary_names_match_benchmark_json(passes):
    decl = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    records = passes("cli_3d")
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        metrics, attempted, failed, problems = run.summarize(records, decl, trace)
        assert set(metrics) == {m["name"] for m in decl[key]}
        assert (attempted, failed, problems) == (12, 0, [])


def test_digest_mismatch_fails_an_operation(passes):
    decl = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    records = [dict(r) for r in passes("cli_3d")]
    records[1]["digest"] = "0" * 64
    metrics, attempted, failed, problems = run.summarize(records, decl, False)
    assert failed == 1 and len(problems) == 1
