"""Tooling gate: benchmark workloads that run the training-set, search,
oracle and model-heuristic code run one round each and pass their own checks
(finite losses over the set epochs, valid plans, solved searches, blind and
hff counters equal to perfbench/pinned.json on seed 0, every theory verdict
passing). The workloads that run the model also print the digest of their
round-0 outputs (loss traces, search counters, verdicts) on seed 0, which
must equal the value below: these have not changed since the benchmark was
added, and pin the model path's float results byte for byte. They were
measured with the numpy and BLAS build in DIGEST_ENVIRONMENT (OpenBLAS
running its Haswell kernels) on one BLAS thread; another BLAS build may round
differently, and a mismatch says which of the two it is."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

ROUND0_DIGESTS = {
    "search-model-slg": "57d9e7e2ee9c2b65",
    "search-model-llg": "57d9e7e2ee9c2b65",
    "train-slg": "392f2d687d1153ef",
    "train-llg": "fd3d387f8a296678",
    "train-slg-max": "1f9fbe974ce7ae50",
    "theory": "135442ac8be90fdd",
}

# The build the digests were measured with, as perfbench/run.py reports it
# on its "# environment" line.
DIGEST_ENVIRONMENT = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0",
                      "OPENBLAS_NUM_THREADS": "1"}


def _round_passes_its_checks(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    lines = done.stdout.splitlines()
    assert '"correct": true' in lines[-1]
    if workload in ROUND0_DIGESTS:
        assert f"# round-0 digest {ROUND0_DIGESTS[workload]}" in lines, _digest_mismatch(lines)


def _digest_mismatch(lines):
    prefix = "# environment "
    env = json.loads(next(line for line in lines if line.startswith(prefix))[len(prefix):])
    differs = {key: env.get(key) for key, want in DIGEST_ENVIRONMENT.items()
               if env.get(key) != want}
    if differs:
        return (f"different numpy/BLAS build: the digests assume {DIGEST_ENVIRONMENT}, "
                f"this run has {differs}")
    return "same numpy/BLAS build as the digests assume: the model path's float results changed"


def test_search_oracle_hff_round_passes_its_checks():
    _round_passes_its_checks("search-oracle-hff")


@pytest.mark.parametrize("workload", ["search-oracle-blind", "theory", "search-model-slg",
                                      "search-model-llg", "train-slg", "train-llg",
                                      "train-slg-max"])
def test_round_passes_its_checks(workload):
    _round_passes_its_checks(workload)


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the result line")


@pytest.mark.parametrize("workload", ["train-slg", "search-model-slg", "search-model-llg"])
def test_traced_round_reports_every_layer(workload):
    """A traced run's result is accepted only when it reports every per-layer
    metric BENCHMARK.json declares; a layer whose function was renamed or
    removed is printed as unmeasured and its metrics go missing."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    *comments, last = done.stdout.splitlines()
    assert all(line.startswith("# ") for line in comments), comments
    assert not [line for line in comments if line.startswith("# unmeasured layer")]
    result = json.loads(last, parse_constant=_reject_constant)
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}


def test_traced_blind_round_counts_every_expansion():
    """gbfs expands through the module-level `successors`, so the traced
    `task.successors` span sees one call per expansion (40442 at seed 0); a
    search that called the task's bound method would leave the span quiet."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search-oracle-blind",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    calls = metrics["task.successors.calls"]["value"]
    assert calls == metrics["search.expansions"]["value"] == 40442
