"""E17 -- fault injection and graceful degradation (no paper analogue).

The 1992 paper asserts the service degrades gracefully -- QoS
violations surface as T-QoS.indication (Table 2), either side may
T-Renegotiate the contract down (Table 3), and orchestration keeps the
group synchronised "in the presence of ... faults" -- but the testbed
experiments never pull a cable.  This benchmark does, with the scripted
fault injector (:mod:`repro.faults`):

Part 1 (transport): a -- r -- b, the forward link r->b goes down for a
sweep of outage durations while the reverse control path stays up.  We
measure how long the sink takes to surface the outage as a
T-QoS.indication, how long the initiator's downgrade ladder takes to
complete a protocol-initiated T-Renegotiate, and how quickly delivery
resumes after the link heals.  An outage that outlives the degradation
grace period must instead end in a provider-initiated T-Disconnect
with reason ``qos-outage``.

Part 2 (orchestration): the E6 film workload (25 fps video + 250 blk/s
audio onto one workstation) with the shared delivery leg cut.  The HLO
agent must declare the outage, nudge the stranded sources, resync the
group timeline past the gap on recovery, and restore inter-stream skew
below the policy's strictness bound.
"""

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, link_outage
from repro.metrics.table import Table
from repro.netsim.reservation import ReservationManager
from repro.netsim.topology import Network
from repro.obs.audit import install_audit, merge_snapshots
from repro.scenarios.film import FilmScenario, film_testbed
from repro.sim.random import RandomStreams
from repro.sim.scheduler import Simulator
from repro.transport.addresses import TransportAddress
from repro.transport.degradation import DegradationConfig
from repro.transport.osdu import OSDU
from repro.transport.primitives import (
    REASON_OUTAGE,
    TDisconnectIndication,
    TQoSIndication,
    TRenegotiateConfirm,
)
from repro.transport.qos import QoSSpec
from repro.transport.service import build_transport, connect_pair

from benchmarks.common import collect_metrics, emit, emit_json, once

#: Sink sample period: outage detection granularity (Part 1).
SAMPLE_PERIOD = 0.25
#: Degradation tuning for Part 1 trials.
DEGRADATION = DegradationConfig(
    grace=3.0, ladder_factor=0.5, floor_bps=2e5, outage_periods=2
)
#: Forward-link outage durations swept in Part 1 (seconds).  The last
#: one outlives the grace period and must end in T-Disconnect.
OUTAGES = (0.5, 1.0, 2.0, 4.5)

PLAY_SECONDS = 20.0
#: Delivery-leg outage durations swept in Part 2 (seconds).
ORCH_OUTAGES = (0.5, 1.0, 2.0)
#: Skew is judged this long after recovery (one settle interval).
SETTLE = 0.5


def transport_trial(outage: float):
    """One Part-1 run; returns the reaction timeline."""
    sim = Simulator()
    # Conformance audit + flight recorder: the exported report must
    # show the fault-induced violations and their causal packet chain.
    auditor = install_audit(sim)
    net = Network(sim, RandomStreams(11))
    net.add_host("a")
    net.add_host("b")
    net.add_router("r")
    net.add_link("a", "r", 10e6, prop_delay=0.003)
    net.add_link("b", "r", 10e6, prop_delay=0.003)
    entities = build_transport(
        sim, net, ReservationManager(net), sample_period=SAMPLE_PERIOD
    )
    qos = QoSSpec.simple(2e6, max_osdu_bytes=1000)
    send, recv = connect_pair(
        sim, entities, TransportAddress("a", 1), TransportAddress("b", 1), qos
    )
    entities["a"].enable_degradation(DEGRADATION)
    entities["b"].enable_degradation(DEGRADATION)

    binding = next(iter(entities["a"].bindings.values()))
    events = []

    def watcher():
        while True:
            primitive = yield binding.next_primitive()
            events.append((sim.now, primitive))

    deliveries = []

    def producer():
        i = 0
        while True:
            yield from send.write(OSDU(size_bytes=1000, payload=i))
            i += 1

    def consumer():
        while True:
            yield from recv.read()
            deliveries.append(sim.now)

    sim.spawn(watcher())
    sim.spawn(producer())
    sim.spawn(consumer())

    fault_at = sim.now + 2.0
    heal_at = fault_at + outage
    plan = FaultPlan(
        link_outage("r", "b", at=fault_at, duration=outage, bidirectional=False)
    )
    FaultInjector(sim, net, plan).arm()
    sim.run(until=heal_at + 8.0)

    indications = [
        t for t, p in events
        if isinstance(p, TQoSIndication) and t >= fault_at
        and any(v.parameter == "throughput" and v.observed == 0.0
                for v in p.violations)
    ]
    reneg_confirms = [
        t for t, p in events
        if isinstance(p, TRenegotiateConfirm) and t >= fault_at
    ]
    disconnects = [
        (t, p.reason) for t, p in events
        if isinstance(p, TDisconnectIndication) and t >= fault_at
    ]
    resumed = [t for t in deliveries if t >= heal_at]
    collect_metrics(f"e17_fault_recovery[transport,outage={outage}]",
                    sim.metrics)
    return {
        "fault_at": fault_at,
        "heal_at": heal_at,
        "time_to_indication": indications[0] - fault_at if indications else None,
        "time_to_renegotiate": (
            reneg_confirms[0] - fault_at if reneg_confirms else None
        ),
        "disconnect_reason": disconnects[0][1] if disconnects else None,
        "time_to_resume": resumed[0] - heal_at if resumed else None,
        "final_throughput_bps": (
            entities["a"].send_vcs[send.vc_id].contract.throughput_bps
            if send.vc_id in entities["a"].send_vcs else None
        ),
        "audit": auditor.snapshot(),
    }


def orchestration_trial(outage: float):
    """One Part-2 run; returns outage/recovery timing and skew."""
    bed = film_testbed(seed=1, drift_ppm=200.0)
    auditor = bed.enable_audit()
    scenario = FilmScenario(bed, orchestrated=True, drift_ppm=200.0)
    scenario.connect(duration=PLAY_SECONDS + 60.0)
    fault_at = bed.sim.now + 6.0
    bed.with_fault_plan(
        FaultPlan(
            link_outage("net", "ws", at=fault_at, duration=outage,
                        bidirectional=False)
        )
    )
    scenario.play(PLAY_SECONDS)
    agent = scenario.session.agent
    declared = [t for t, _vc in agent.outage_events]
    recovered = [t for t, _vc in agent.recovery_events]
    settled = (
        [s for t, s in agent.skew_series if t >= max(recovered) + SETTLE]
        if recovered else []
    )
    collect_metrics(f"e17_fault_recovery[orch,outage={outage}]",
                    bed.sim.metrics)
    return {
        "fault_at": fault_at,
        "time_to_declare": min(declared) - fault_at if declared else None,
        "time_to_recover": (
            max(recovered) - (fault_at + outage) if recovered else None
        ),
        "resyncs": sum(
            1 for r in agent.reports for tgt, a in r.actions
            if tgt == "*" and a.value == "outage-resync"
        ),
        "post_recovery_skew": max(settled) if settled else None,
        "strictness": agent.policy.strictness,
        "audit": auditor.snapshot(),
    }


def run_experiment():
    transport_table = Table(
        ["outage (s)", "t->indication (s)", "t->renegotiate (s)",
         "resume after heal (s)", "final rate (bps)", "released"],
        title="E17a: transport reaction to a forward-link outage "
              f"(sample period {SAMPLE_PERIOD} s, grace "
              f"{DEGRADATION.grace} s, ladder x{DEGRADATION.ladder_factor})",
    )
    transport_results = {}
    for outage in OUTAGES:
        r = transport_trial(outage)
        transport_results[outage] = r
        transport_table.add(
            outage,
            r["time_to_indication"],
            r["time_to_renegotiate"] if r["time_to_renegotiate"] is not None
            else "-",
            r["time_to_resume"] if r["time_to_resume"] is not None else "-",
            r["final_throughput_bps"] if r["final_throughput_bps"] is not None
            else "-",
            r["disconnect_reason"] or "no",
        )

    orch_table = Table(
        ["outage (s)", "t->declare (s)", "recover after heal (s)",
         "resyncs", "post-recovery skew (ms)", "strictness (ms)"],
        title="E17b: orchestrated film workload across a delivery-leg "
              "outage (HLO outage declaration, source nudge, timeline "
              "resync)",
    )
    orch_results = {}
    for outage in ORCH_OUTAGES:
        r = orchestration_trial(outage)
        orch_results[outage] = r
        orch_table.add(
            outage,
            r["time_to_declare"],
            r["time_to_recover"],
            r["resyncs"],
            r["post_recovery_skew"] * 1e3
            if r["post_recovery_skew"] is not None else "-",
            r["strictness"] * 1e3,
        )
    audit = merge_snapshots(
        [r["audit"] for r in transport_results.values()]
        + [r["audit"] for r in orch_results.values()]
    )
    return [transport_table, orch_table], transport_results, orch_results, audit


@pytest.mark.benchmark(group="e17")
def test_e17_fault_recovery(benchmark):
    tables, transport_results, orch_results, audit = once(
        benchmark, run_experiment
    )
    emit(
        "e17_fault_recovery", tables,
        notes="Graceful degradation under injected faults: Table 2/3 "
              "reactions at the transport layer, outage declaration and "
              "timeline resync at the orchestration layer.",
    )
    audit_path = emit_json("e17_audit", audit)
    print(f"audit snapshot written to {audit_path} "
          "(render with: python -m repro.obs.report run)")
    # The merged audit carries the fault-induced violations, at least
    # one causal packet drill-down, and the ladder's renegotiations.
    assert audit["summary"]["counts"]["violated"] >= 1
    assert any(
        drill["lost"] or drill["faults"]
        for conn in audit["connections"] for drill in conn["drilldowns"]
    )
    assert audit["summary"]["renegotiations"].get("confirmed", 0) >= 1
    assert audit["groups"], "orchestration trials must register a group"
    grace_window = (
        DEGRADATION.outage_periods * SAMPLE_PERIOD + DEGRADATION.grace
    )
    for outage, r in transport_results.items():
        # Every outage surfaces as a T-QoS.indication within a few
        # sample periods of the fault.
        assert r["time_to_indication"] is not None
        assert r["time_to_indication"] <= 4 * SAMPLE_PERIOD + 0.1
        if outage < grace_window:
            # Short outages: the ladder completes a T-Renegotiate, the
            # VC survives, and delivery resumes shortly after healing.
            assert r["time_to_renegotiate"] is not None
            assert r["disconnect_reason"] is None
            assert r["time_to_resume"] is not None
            assert r["final_throughput_bps"] < 2e6
        else:
            # Outages beyond the grace period end in a reasoned,
            # provider-initiated release.
            assert r["disconnect_reason"] == REASON_OUTAGE
    for _outage, r in orch_results.items():
        assert r["time_to_declare"] is not None
        assert r["time_to_recover"] is not None
        assert r["resyncs"] >= 1
        # Post-recovery sync error settles below the regulation bound.
        assert r["post_recovery_skew"] is not None
        assert r["post_recovery_skew"] <= r["strictness"]
