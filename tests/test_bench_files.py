"""Schema of the committed benchmark trajectory files (`BENCH_*.json` at the
repository root, written by `tools/bench_trajectory.py`). Nothing here is
timed and no wall time is gated. Each file is checked against its own
contents, not the current BENCHMARK.json, since the files are a history
and the workloads change: it names at least one workload, every run was
correct, digests are 16 hex digits and each summary is the median and
quartiles of the runs it lists. A file may also hold one traced run per
workload and one tier-1 run."""

import importlib.util
import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
METRICS = ("work_per_s", "peak_rss_mb", "setup_s")
HEX16 = re.compile(r"[0-9a-f]{16}")


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "bench_trajectory", ROOT / "tools" / "bench_trajectory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trajectory_files_exist():
    assert len(BENCH_FILES) >= 2


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_trajectory_file_schema(path):
    record = json.loads(path.read_text())
    assert re.fullmatch(r"BENCH_(\d{8})_([0-9a-f]{7}(-dirty)?)\.json", path.name)
    assert path.name == f"BENCH_{record['date']}_{record['tree']}.json"
    assert isinstance(record["src_lines"], int) and record["src_lines"] > 0
    assert HEX16.fullmatch(record["src_digest"])
    assert record["repeats"] >= 5 and record["environment"]
    assert record["workloads"]
    for name, entry in record["workloads"].items():
        runs = entry["per_run"]
        assert entry["runs"] == len(runs) == record["repeats"], name
        assert entry["correct"] is True and HEX16.fullmatch(entry["digest"]), name
        assert all(run["correct"] and run["digest"] == entry["digest"] for run in runs), name
        for metric in METRICS:
            q1, median, q3 = statistics.quantiles([run[metric] for run in runs], n=4,
                                                  method="inclusive")
            assert entry[metric] == {"q1": q1, "median": median, "q3": q3}, (name, metric)
        if "trace" in entry:
            check_trace(entry["trace"], entry["digest"], name)
    if "tier1" in record:
        check_tier1(record["tier1"])


def check_trace(trace, digest, name):
    """A traced run's block, which files written before the tool made one
    lack: a correct run with the untraced runs' digest, and per layer a
    non-negative busy time, self time and call count."""
    assert trace["correct"] is True and trace["digest"] == digest, name
    metrics = trace["metrics"]
    layers = {key.rsplit(".", 1)[0] for key in metrics if key.endswith(".calls")}
    assert layers, name
    for layer in layers:
        assert all(metrics[f"{layer}.{stat}"] >= 0 for stat in ("s", "self_s", "calls")), layer


def check_tier1(tier1):
    """A tier-1 block, which files written before the tool made one lack: a
    positive wall time, counts, and at most ten durations, slowest first."""
    assert tier1["wall_s"] > 0 and tier1["passed"] > 0 and tier1["failed"] >= 0
    durations = [entry["s"] for entry in tier1["slowest"]]
    assert 0 < len(durations) <= 10 and durations == sorted(durations, reverse=True)
    assert all(entry["phase"] in ("setup", "call", "teardown") and "::" in entry["test"]
               for entry in tier1["slowest"])


def test_parse_tier1_reads_pytest_output():
    tool = load_tool()
    stdout = "\n".join([
        "....F...                                                                 [100%]",
        "============================= slowest 10 durations =============================",
        "56.02s call     tests/test_acceptance.py::test_criterion_9_lifted_generalization",
        "0.51s setup    tests/test_report.py::test_model_gap_is_tiny_on_twins_and_seeded",
        "=========================== short test summary info ============================",
        "FAILED tests/test_cli.py::test_solve_with_trained_models - AssertionError: llg",
        "1 failed, 494 passed, 2 warnings in 193.42s (0:03:13)",
    ])
    assert tool.parse_tier1(stdout, 194.0) == {
        "wall_s": 194.0, "passed": 494, "failed": 1, "slowest": [
            {"s": 56.02, "phase": "call",
             "test": "tests/test_acceptance.py::test_criterion_9_lifted_generalization"},
            {"s": 0.51, "phase": "setup",
             "test": "tests/test_report.py::test_model_gap_is_tiny_on_twins_and_seeded"}]}
    assert tool.parse_tier1("", 1.0) == {"wall_s": 1.0, "passed": 0, "failed": 0, "slowest": []}


def test_parse_run_reads_perfbench_output():
    tool = load_tool()
    stdout = "\n".join([
        '# environment {"nproc": 2}',
        "# search.hff.evals_per_s: work_per_s 15000 evaluations/s",
        "# round-0 digest af767f644d4b18f8",
        json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": {
            "setup_s": {"value": 0.2, "unit": "s"},
            "peak_rss_mb": {"value": 42.5, "unit": "MB"},
            "work_per_s": {"value": 15000.0, "unit": "1/s"}}}),
    ])
    run = tool.parse_run(stdout, 0)
    assert run == {"correct": True, "digest": "af767f644d4b18f8",
                   "environment": {"nproc": 2}, "setup_s": 0.2, "peak_rss_mb": 42.5,
                   "work_per_s": 15000.0}
    # A failed check (exit 1) or a crash with no result line is not correct.
    assert not tool.parse_run(stdout, 1)["correct"]
    crashed = tool.parse_run("# environment {}\nTraceback (most recent call last):", 1)
    assert not crashed["correct"] and "work_per_s" not in crashed


def test_summary_is_median_and_quartiles_of_the_runs():
    tool = load_tool()
    runs = [{"correct": True, "digest": "0" * 16, "work_per_s": float(v),
             "peak_rss_mb": 40.0, "setup_s": 0.1} for v in (5, 1, 4, 2, 3)]
    entry = tool.summarise(runs)
    assert entry["correct"] and entry["digest"] == "0" * 16 and entry["runs"] == 5
    assert entry["work_per_s"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert [r["work_per_s"] for r in entry["per_run"]] == [5.0, 1.0, 4.0, 2.0, 3.0]
    mixed = tool.summarise([*runs[:4], {**runs[4], "digest": "1" * 16}])
    assert not mixed["correct"] and mixed["digest"] is None


def test_parse_trace_keeps_every_metric():
    tool = load_tool()
    stdout = "\n".join([
        "# environment {}",
        "# round-0 digest 135442ac8be90fdd",
        json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {
            "nn.forward.s": {"value": 0.25, "unit": "s"},
            "nn.forward.calls": {"value": 1601.0, "unit": "count"},
            "search.expansions": {"value": 0, "unit": "count"}}}),
    ])
    trace = tool.parse_trace(stdout, 0)
    assert trace == {"correct": True, "digest": "135442ac8be90fdd", "metrics": {
        "nn.forward.calls": 1601.0, "nn.forward.s": 0.25, "search.expansions": 0}}
    assert not tool.parse_trace(stdout, 1)["correct"]
