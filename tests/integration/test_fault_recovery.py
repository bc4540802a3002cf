"""End-to-end fault recovery across all three layers (E17 acceptance).

A delivery-leg outage in the orchestrated film workload must be
declared by the HLO agent, survived by the sources (credit nudge), and
erased by a timeline resync that restores inter-stream skew below the
policy's strictness bound.  Separately, installing an *empty* fault
plan must leave a run bit-identical to one with no plan at all.
"""

from repro.faults.plan import FaultPlan, link_outage
from repro.orchestration.policy import CompensationAction
from repro.scenarios.film import FilmScenario, film_testbed

SETTLE = 0.5


def film_run(outage=None, empty_plan=False, play_seconds=15.0):
    bed = film_testbed(seed=1, drift_ppm=200.0)
    scenario = FilmScenario(bed, orchestrated=True, drift_ppm=200.0)
    scenario.connect(duration=play_seconds + 60.0)
    if outage is not None:
        fault_at = bed.sim.now + 6.0
        bed.with_fault_plan(
            FaultPlan(
                link_outage("net", "ws", at=fault_at, duration=outage,
                            bidirectional=False)
            )
        )
    elif empty_plan:
        bed.with_fault_plan(FaultPlan())
    scenario.play(play_seconds)
    return scenario


class TestOutageRecovery:
    def test_declare_resync_and_resynchronise(self):
        scenario = film_run(outage=1.0)
        agent = scenario.session.agent

        # Both starved streams were declared in outage, and both
        # recovered once the link healed and the sources were nudged.
        assert {vc for _t, vc in agent.outage_events} == set(agent.streams)
        assert {vc for _t, vc in agent.recovery_events} == set(agent.streams)

        # Recovery triggered a group-wide timeline resync.
        resyncs = [
            (tgt, a) for r in agent.reports for tgt, a in r.actions
            if a is CompensationAction.OUTAGE_RESYNC
        ]
        assert resyncs and all(tgt == "*" for tgt, _a in resyncs)

        # Post-recovery sync error settles below the regulation bound.
        recovered = max(t for t, _vc in agent.recovery_events)
        settled = [s for t, s in agent.skew_series if t >= recovered + SETTLE]
        assert settled
        assert max(settled) <= agent.policy.strictness


class TestEmptyPlanDeterminism:
    def test_empty_plan_is_a_no_op(self):
        baseline = film_run(play_seconds=8.0)
        with_plan = film_run(empty_plan=True, play_seconds=8.0)
        assert with_plan.session.agent.skew_series == \
            baseline.session.agent.skew_series
        assert [r.actions for r in with_plan.session.agent.reports] == \
            [r.actions for r in baseline.session.agent.reports]
