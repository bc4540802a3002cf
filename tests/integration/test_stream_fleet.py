"""Live telemetry leaves the fleet merge untouched, over real fleets.

A sharded run with a ``--live`` sink attached ships each shard's audit
tally in every window message and writes one JSON line per barrier,
but its merged audit and metrics documents must stay byte-identical
to the same run without a sink: the merge runs once, at finish time,
over the same snapshots either way.  Pinned over a plain cross-traffic
fleet with control planes, and over a chaotic scenario cell whose
faults drive violated periods.

Spawned worker processes make these slow; specs stay CI-small.
"""

import dataclasses
import io
import json

import pytest

from repro.scenarios.runner import run_cell
from repro.scenarios.spec import parse_scenario_id
from repro.soak import FleetSpec, run_fleet

SPEC = FleetSpec(
    cells=3, vcs_per_cell=5, shards=2, cp_pairs=2,
    duration=8.0, seed=3, cross_traffic=True, tight_every=7,
)


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2)


class TestStreamedFleetIdentity:
    def test_streamed_documents_byte_identical_to_merge(self):
        merged = run_fleet(SPEC)
        sink = io.StringIO()
        streamed = run_fleet(SPEC, live=sink)
        assert _dumps(streamed.audit) == _dumps(merged.audit)
        assert _dumps(streamed.metrics) == _dumps(merged.metrics)
        # One window record per barrier, then the final record.
        assert len(sink.getvalue().splitlines()) == streamed.windows + 1

    def test_chaotic_sharded_cell_streams_identically(self):
        spec = dataclasses.replace(
            parse_scenario_id("cbr/cells/chaos@s0"), shards=2,
        )
        merged = run_cell(spec)
        sink = io.StringIO()
        streamed = run_cell(spec, live=sink)
        assert _dumps(streamed.audit) == _dumps(merged.audit)
        assert _dumps(streamed.metrics) == _dumps(merged.metrics)
        summary = merged.audit["summary"]
        assert summary["counts"]["violated"], "chaos cell had no breach"
        *windows, final = map(json.loads, sink.getvalue().splitlines())
        assert final["kind"] == "final"
        assert final["counts"] == summary["counts"]
        # The summed tallies saw the same breaches, and no earlier.
        assert windows[-1]["counts"] == summary["counts"]
        assert windows[-1]["first_breach_at"] == pytest.approx(
            final["first_breach_at"], rel=1e-12,
        )

    def test_live_sink_records_windows_and_final(self, tmp_path):
        path = tmp_path / "live.jsonl"
        with open(path, "w") as sink:
            run_fleet(SPEC, live=sink)
        records = [
            json.loads(line) for line in open(path) if line.strip()
        ]
        assert records, "live sink stayed empty"
        kinds = [record["kind"] for record in records]
        assert kinds[-1] == "final"
        assert all(kind == "window" for kind in kinds[:-1])
        final = records[-1]
        # The summed tallies and the merged document agree on the run.
        merged = run_fleet(SPEC)
        summary = merged.audit["summary"]
        assert final["connections"] == summary["connections"]
        assert final["periods"] == summary["periods"]
        assert final["conformance"] == summary["conformance"]
        assert final["counts"] == summary["counts"]
        last = records[-2]
        for key in ("connections", "periods", "counts", "conformance"):
            assert last[key] == final[key], key
