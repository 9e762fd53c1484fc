"""Tooling gate: benchmark workloads that run the training-set, search,
oracle and model-heuristic code run one round each and pass their own checks
(finite losses over the set epochs, valid plans, solved searches, blind and
hff counters equal to perfbench/pinned.json on seed 0, every theory verdict
passing)."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _round_passes_its_checks(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert '"correct": true' in done.stdout.splitlines()[-1]


def test_search_oracle_hff_round_passes_its_checks():
    _round_passes_its_checks("search-oracle-hff")


@pytest.mark.parametrize("workload", ["search-oracle-blind", "theory", "search-model-slg",
                                      "search-model-llg", "train-slg", "train-llg"])
def test_round_passes_its_checks(workload):
    _round_passes_its_checks(workload)
