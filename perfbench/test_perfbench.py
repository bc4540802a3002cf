"""The benchmark's own checks: determinism and a non-perturbing harness.

Run from the repository root::

    python3 -m pytest perfbench -q

Every run is a fresh worker process, as in the benchmark, on a short
run length.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Short run lengths: virtual seconds (film, mux) or cycles (churn).
LENGTHS = {"film": 8, "mux": 4, "churn": 40}


def _worker(workload: str, mode: str, seed: int = 5) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"),
         "--workload", workload, "--seed", str(seed),
         "--length", str(LENGTHS[workload]), "--mode", mode],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failures"] == []
    return result


@pytest.mark.parametrize("workload", sorted(LENGTHS))
def test_same_seed_same_digest(workload):
    first = _worker(workload, "run")
    second = _worker(workload, "run")
    assert first["digest"] == second["digest"]
    assert first["delivery"] == second["delivery"]


@pytest.mark.parametrize("workload", sorted(LENGTHS))
def test_chunked_phase_matches_single_run(workload):
    # The one-virtual-second chunks behind the per-step times must not
    # change what the program does.
    chunked = _worker(workload, "run")
    whole = _worker(workload, "whole")
    assert chunked["digest"] == whole["digest"]


@pytest.mark.parametrize("workload", sorted(LENGTHS))
def test_profiler_does_not_perturb(workload):
    untraced = _worker(workload, "run")
    traced = _worker(workload, "trace")
    assert traced["digest"] == untraced["digest"]
    layers = traced["trace"]["data"]["layers"]
    assert sum(row["self_share"] for row in layers) == pytest.approx(100.0)


def test_recorded_loss_draws_as_bernoulli():
    # The mux gate's drop records must come free: same draws, same
    # verdicts as the plain loss model, and a drop whose packet cannot
    # be seen is recorded as unknown rather than skipped.
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import random

        from repro.netsim.link import BernoulliLoss
        from workloads import RecordedLoss
    finally:
        del sys.path[:2]
    plain, recorded = BernoulliLoss(0.3), RecordedLoss(0.3)
    rng_a, rng_b = random.Random(7), random.Random(7)
    verdicts = [plain.is_lost(rng_a) for _ in range(500)]
    assert [recorded.is_lost(rng_b) for _ in range(500)] == verdicts
    assert len(recorded.dropped) == sum(verdicts)
    assert set(recorded.dropped) == {("NoneType", None, None)}


def test_seeds_give_different_inputs():
    assert _worker("mux", "run", seed=1)["digest"] != \
        _worker("mux", "run", seed=2)["digest"]


def test_fails_without_the_program(tmp_path):
    # Only the benchmark itself, no src/: a non-zero exit and no result.
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "film",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
