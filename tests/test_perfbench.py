"""Tooling gate: the hff search benchmark workload runs one round and passes
its own checks (valid plans, solved searches, counters equal to
perfbench/pinned.json on seed 0)."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_search_oracle_hff_round_passes_its_checks():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search-oracle-hff",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert '"correct": true' in done.stdout.splitlines()[-1]
