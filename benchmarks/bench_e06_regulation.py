"""E6 -- Figure 6 + Table 6: the continuous-synchronisation headline.

Lip-sync between 25 fps video and 250 blocks/s audio stored on separate
servers whose clocks drift, orchestrated versus free-running, across a
sweep of clock-drift magnitudes.  This is the experiment the whole
paper exists for.

Expected shape: free-running skew grows linearly with drift x time and
crosses the 80 ms perceptual threshold; orchestrated skew stays bounded
near the video frame quantum (40 ms) regardless of drift.
"""

import pytest

from repro.media.lipsync import (
    LIP_SYNC_THRESHOLD,
    fraction_within,
    skew_summary,
)
from repro.metrics.table import Table
from repro.scenarios.film import run_film

from benchmarks.common import emit, once

PLAY_SECONDS = 60.0


def run_experiment():
    table = Table(
        ["clock drift (±ppm)", "mode", "mean skew (ms)", "max skew (ms)",
         "within 80 ms"],
        title=f"E6: inter-stream skew over {PLAY_SECONDS:.0f} s of film "
              f"play-out (video 25 fps + audio 250 blk/s, "
              f"separate servers)",
    )
    results = {}
    for drift in (0.0, 100.0, 500.0, 2000.0):
        for orchestrated in (False, True):
            scenario = run_film(
                orchestrated, drift, seconds=PLAY_SECONDS,
                interval_length=0.1,
            )
            series = scenario.skew_series()
            summary = skew_summary(series)
            within = fraction_within(series)
            mode = "orchestrated" if orchestrated else "free-running"
            table.add(drift, mode, summary["mean"] * 1e3,
                      summary["max"] * 1e3, f"{within:.0%}")
            results[(drift, orchestrated)] = summary
    return [table], results


@pytest.mark.benchmark(group="e06")
def test_e06_regulation(benchmark):
    tables, results = once(benchmark, run_experiment)
    emit(
        "e06_regulation", tables,
        notes="Figure 6 reproduction: HLO interval targets vs master "
              "clock, LLO release pacing at the sink.",
    )
    # Orchestrated skew is bounded by the lip-sync threshold at every
    # drift level; free-running blows through it at high drift.
    for drift in (0.0, 100.0, 500.0, 2000.0):
        assert results[(drift, True)]["max"] <= LIP_SYNC_THRESHOLD + 0.012
    assert results[(2000.0, False)]["max"] > LIP_SYNC_THRESHOLD
    # And orchestration wins wherever drift is the dominant effect.
    assert (
        results[(2000.0, True)]["max"] < results[(2000.0, False)]["max"]
    )
