"""Auditing must observe a run without perturbing it (E6/E7 guard).

The auditor, flight recorder and exporters only append to in-memory
structures inside calls the layers were already making.  These tests
pin that down end-to-end: the orchestrated film scenario (E6) produces
byte-identical behaviour with auditing fully enabled -- including
rendering every export surface mid-flight -- as with it off.
"""

import json

from repro.obs.export import prometheus_text
from repro.obs.report import render_run
from repro.scenarios.film import FilmScenario, film_testbed


def _film_run(audited: bool, play_seconds: float = 8.0):
    bed = film_testbed(seed=1, drift_ppm=200.0)
    auditor = bed.enable_audit() if audited else None
    scenario = FilmScenario(bed, orchestrated=True, drift_ppm=200.0)
    scenario.connect(duration=play_seconds + 60.0)
    scenario.play(play_seconds)
    return bed, scenario, auditor


def _behaviour(bed, scenario):
    """Everything observable about a run, JSON-canonicalised."""
    agent = scenario.session.agent
    return json.dumps({
        "now": bed.sim.now,
        "events": next(bed.sim._seq),
        "skew": agent.skew_series,
        "actions": [
            [[target, action.value] for target, action in report.actions]
            for report in agent.reports
        ],
    }, sort_keys=True)


class TestAuditDeterminism:
    def test_audited_run_is_byte_identical(self, tmp_path):
        baseline_bed, baseline, _ = _film_run(audited=False)
        audited_bed, audited, auditor = _film_run(audited=True)

        # The audit actually captured the run...
        snapshot = auditor.snapshot()
        assert snapshot["summary"]["connections"] >= 2
        assert snapshot["summary"]["periods"] >= 1
        assert snapshot["groups"]

        # ...and exercising every export surface stays read-only.
        assert prometheus_text(audited_bed.sim.metrics)
        path = audited_bed.export_audit(str(tmp_path / "audit.json"))
        assert render_run(path)
        assert json.dumps(auditor.snapshot(), sort_keys=True) == \
            json.dumps(snapshot, sort_keys=True)

        # Same scheduled-event count, same virtual clock, same skew
        # series, same regulation actions: byte-identical behaviour.
        assert _behaviour(audited_bed, audited) == \
            _behaviour(baseline_bed, baseline)
