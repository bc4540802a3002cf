"""Tests for live telemetry: the auditor's running tally, the sink.

The load-bearing property: after *any* interleaving of auditor calls,
the O(1) :meth:`QoSAuditor.rolling` tally equals the same summary
recomputed from the full :meth:`QoSAuditor.snapshot`.  Hypothesis
drives the auditor far off the fleet's happy path (re-registration,
records for never-registered VCs, repeated releases, interleaved group
churn...).  ``tests/integration/test_stream_fleet.py`` pins that
attaching the live sink to real sharded fleets leaves their merged
documents byte-identical.
"""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.audit import QoSAuditor, merge_snapshots
from repro.obs.live import LiveWriter, open_live_sink, window_record
from repro.obs.registry import MetricsRegistry
from repro.transport.qos import QoSContract, QoSMeasurement

CONTRACT = QoSContract(
    throughput_bps=1e6, delay_s=0.1, jitter_s=0.01,
    packet_error_rate=0.01, bit_error_rate=1e-6, max_osdu_bytes=1000,
)


class FakeSim:
    """The slice of a simulator the auditor reads: a clock."""

    def __init__(self):
        self.now = 0.0


def _met(t0, t1):
    return QoSMeasurement(
        period_start=t0, period_end=t1, osdus_delivered=100,
        throughput_bps=1e6, mean_delay_s=0.05, jitter_s=0.001,
        packet_error_rate=0.0, bit_error_rate=0.0,
    )


def _bad(t0, t1):
    return QoSMeasurement(
        period_start=t0, period_end=t1, osdus_delivered=100,
        throughput_bps=1e6, mean_delay_s=0.5, jitter_s=0.001,
        packet_error_rate=0.0, bit_error_rate=0.0,
    )


# One scripted operation: (op kind, entity index, scalar argument).
_OP = st.tuples(
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False,
              width=32),
)


def _apply(op, sim, auditor, registry):
    kind, idx, value = op
    vc = f"v{idx}"
    group = f"g{idx % 2}"
    if kind == 0:
        auditor.register_connection(vc, CONTRACT, src=f"h{idx}", dst="h9")
    elif kind == 1:
        measurement = _met(sim.now, sim.now + 0.5)
        auditor.record_period(vc, CONTRACT, measurement, [])
    elif kind == 2:
        measurement = _bad(sim.now, sim.now + 0.5)
        auditor.record_period(
            vc, CONTRACT, measurement, CONTRACT.violations(measurement),
        )
    elif kind == 3:
        auditor.record_renegotiation(
            vc, "confirmed", from_bps=1e6, to_bps=5e5,
        )
    elif kind == 4:
        auditor.record_release(vc, "app-request")
    elif kind == 5:
        auditor.register_group(group, bound=0.08, streams=["v0", "v1"],
                               interval_length=0.1)
    elif kind == 6:
        auditor.record_skew(group, value)
    elif kind == 7:
        auditor.record_group_outage(group, vc)
    elif kind == 8:
        auditor.record_group_recovery(group, vc)
    elif kind == 9:
        auditor.record_regulation_drop(group, vc)
    elif kind == 10:
        registry.counter(f"c.{idx}").inc()
    elif kind == 11:
        registry.gauge(f"g.{idx}").set(value)
    elif kind == 12:
        registry.window(f"w.{idx}").add(value)
    elif kind == 13:
        registry.window(f"w.{idx}").roll()
    elif kind == 14:
        # Nothing observable this period: an idle verdict.
        auditor.record_period(
            vc, CONTRACT, QoSMeasurement(sim.now, sim.now + 0.5), [],
        )
    elif kind == 15:
        # Worse than contracted but no indication fired: degraded.
        auditor.record_period(vc, CONTRACT, _bad(sim.now, sim.now + 0.5), [])
    sim.now += 0.25


def _recomputed(auditor):
    """The rolling summary, derived the slow way from the snapshot."""
    snap = auditor.snapshot()
    summary = snap["summary"]
    breaches = [
        conn.first_violation_at for conn in auditor._connections.values()
        if conn.first_violation_at is not None
    ]
    return {
        "t": snap["now"],
        "connections": summary["connections"],
        "periods": summary["periods"],
        "counts": summary["counts"],
        "conformance": summary["conformance"],
        "first_breach_at": min(breaches, default=None),
        "skew_over_bound": sum(g["over_bound"] for g in snap["groups"]),
        "renegotiations": sum(summary["renegotiations"].values()),
        "releases": sum(summary["releases"].values()),
    }


class TestRollingSummary:
    @settings(max_examples=80, deadline=None)
    @given(script=st.lists(_OP, max_size=60))
    def test_tally_equals_snapshot_recompute(self, script):
        sim = FakeSim()
        auditor = QoSAuditor(sim)
        registry = MetricsRegistry(clock=lambda: sim.now)
        assert auditor.rolling() == _recomputed(auditor)
        for op in script:
            _apply(op, sim, auditor, registry)
            assert auditor.rolling() == _recomputed(auditor)

    def test_rolls_counts_and_first_breach(self):
        sim = FakeSim()
        auditor = QoSAuditor(sim)
        auditor.record_period("v0", CONTRACT, _met(0.0, 0.5), [])
        sim.now = 0.5
        rolling = auditor.rolling()
        assert rolling["counts"]["met"] == 1
        assert rolling["conformance"] == 1.0
        assert rolling["first_breach_at"] is None
        bad = _bad(0.5, 1.0)
        auditor.record_period("v0", CONTRACT, bad, CONTRACT.violations(bad))
        sim.now = 1.0
        rolling = auditor.rolling()
        assert rolling["counts"]["violated"] == 1
        assert rolling["conformance"] == 0.5
        # The auditor stamps the first violation at the period's end.
        assert rolling["first_breach_at"] == pytest.approx(1.0)

    def test_window_record_sums_shards_like_the_merge(self):
        sims = [FakeSim(), FakeSim()]
        auditors = [QoSAuditor(sim) for sim in sims]
        for shard, auditor in enumerate(auditors):
            vc = f"s{shard}:v0"
            auditor.record_period(vc, CONTRACT, _met(0.0, 0.5), [])
            bad = _bad(0.5, 1.0 + shard)
            auditor.record_period(
                vc, CONTRACT, bad, CONTRACT.violations(bad),
            )
            auditor.record_renegotiation(vc, "confirmed")
            auditor.register_group("g", bound=0.08)
            auditor.record_skew("g", 0.5)
            sims[shard].now = 2.0 - shard
        record = window_record([a.rolling() for a in auditors], windows=7)
        merged = merge_snapshots(
            [a.snapshot() for a in auditors], labels=["s0", "s1"],
        )
        summary = merged["summary"]
        assert record["kind"] == "window"
        assert record["windows"] == 7
        assert record["t"] == 2.0
        assert record["first_breach_at"] == 1.0
        assert record["connections"] == summary["connections"]
        assert record["periods"] == summary["periods"]
        assert record["counts"] == summary["counts"]
        assert record["conformance"] == summary["conformance"]
        assert record["renegotiations"] == 2
        assert record["skew_over_bound"] == 2


class TestLiveSink:
    def test_writer_emits_one_json_line_per_record(self):
        sink = io.StringIO()
        writer = LiveWriter(sink)
        writer.write({"kind": "window", "t": 1.0})
        writer.write({"kind": "final", "t": 2.0})
        lines = sink.getvalue().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == [
            "window", "final",
        ]

    def test_open_live_sink_path_and_fd(self, tmp_path):
        path = str(tmp_path / "live.jsonl")
        sink, should_close = open_live_sink(path)
        assert should_close
        sink.write("x\n")
        sink.close()
        assert open(path).read() == "x\n"
        sink, should_close = open_live_sink("-")
        assert not should_close  # caller must not close stdout
