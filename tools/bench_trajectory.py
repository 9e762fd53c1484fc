"""Benchmark trajectory: repeated end-to-end perfbench runs of one or more
source trees, summarised into one BENCH file per tree.

    python3 tools/bench_trajectory.py [TREE ...] [--workloads a,b] [--repeats 10]

Each TREE (default: this repository) is a git checkout holding `perfbench/`
and `src/`. Each run is a fresh `python3 perfbench/run.py --trace 0`
process started in the tree, at perfbench's default seed and lasting the
`run_seconds` of the first tree's BENCHMARK.json. Every repeat runs each
named workload (default: every workload in that file) once on every tree,
workload after workload, and the order of the trees flips from one repeat
to the next: two trees' runs form pairs in alternating order, and drift on
the host reaches both alike. After the repeats, each workload runs once
more on every tree as a `--trace 1` process, whose per-layer metrics
(each traced layer's `.s`, `.self_s` and `.calls`, and the counters) say
where the time of one set-up plus one round goes.

For each tree the tool writes `BENCH_<yyyymmdd>_<shortsha>.json` into the
tree, `<shortsha>` being its commit, followed by `-dirty` when `src/` or
`perfbench/` differ from that commit. Per workload the file holds every
run's end-to-end metrics in run order, their median and quartiles, the
round-0 digest, whether every run was correct and, under `trace`, the
traced run's correctness, digest and metrics. It also records
perfbench's environment line, the line count of the Python files under
`src/` and a digest of their contents, which names the code measured,
and under `tier1` one run of the tree's tier-1 suite, made before any
benchmark run: its wall time, its passed and failed counts and its ten
slowest `pytest --durations` entries.
With two trees it prints, per workload and metric, each tree's median and
quartiles and in how many pairs the second tree read better.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = {"work_per_s": "higher", "peak_rss_mb": "lower", "setup_s": "lower"}
MIN_REPEATS = 5
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--durations=10"]
DURATION = re.compile(r"(\d+(?:\.\d+)?)s (setup|call|teardown) +(\S+)")
OUTCOME = re.compile(r"(\d+) (passed|failed|errors?)\b")


def _result(stdout: str) -> dict:
    """The JSON object on perfbench's last output line, {} when there is none."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        return {}


def parse_run(stdout: str, returncode: int) -> dict:
    """One perfbench process's result: its end-to-end metrics, round-0
    digest, environment and whether it reported itself correct."""
    run = {"digest": None, "environment": None}
    for line in stdout.splitlines():
        if line.startswith("# round-0 digest "):
            run["digest"] = line.split()[-1]
        elif line.startswith("# environment "):
            run["environment"] = json.loads(line[len("# environment "):])
    result = _result(stdout)
    run["correct"] = result.get("correct") is True and returncode == 0
    for name in METRICS:
        if name in result.get("metrics", {}):
            run[name] = result["metrics"][name]["value"]
    return run


def parse_trace(stdout: str, returncode: int) -> dict:
    """One `--trace 1` process's entry: whether it reported itself correct,
    its round-0 digest and every per-layer metric it reported, by name."""
    run = parse_run(stdout, returncode)
    metrics = _result(stdout).get("metrics", {})
    return {"correct": run["correct"], "digest": run["digest"],
            "metrics": {name: metrics[name]["value"] for name in sorted(metrics)}}


def parse_tier1(stdout: str, wall_s: float) -> dict:
    """One tier-1 run: its wall time, the tests passed and failed (errors
    included) on pytest's summary line, and its `--durations` entries,
    slowest first."""
    counts = {"passed": 0, "failed": 0}
    summary = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    for count, outcome in OUTCOME.findall(summary):
        counts["passed" if outcome == "passed" else "failed"] += int(count)
    slowest = [{"s": float(m[1]), "phase": m[2], "test": m[3]}
               for m in DURATION.finditer(stdout)]
    return {"wall_s": wall_s, **counts, "slowest": slowest}


def run_tier1(tree: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True,
                          text=True)
    return parse_tier1(proc.stdout, time.perf_counter() - start)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: list[dict]) -> dict:
    """Per-workload entry: the runs, each metric's median and quartiles, the
    digest when every run agrees on it, and whether every run was correct."""
    digests = {run["digest"] for run in runs}
    entry = {"runs": len(runs),
             "correct": all(run["correct"] for run in runs) and len(digests) == 1,
             "digest": digests.pop() if len(digests) == 1 else None}
    for name in METRICS:
        values = [run[name] for run in runs if name in run]
        entry[name] = quartiles(values) if len(values) == len(runs) > 1 else None
    entry["per_run"] = [{k: run.get(k) for k in ("correct", "digest", *METRICS)}
                        for run in runs]
    return entry


def git(tree: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(tree), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def source_stats(tree: Path) -> tuple[int, str]:
    """(line count, 16-hex digest) of the Python files under src/."""
    files = sorted((tree / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(path.relative_to(tree).as_posix().encode() + b"\0" + data + b"\0")
    return lines, digest.hexdigest()[:16]


def tree_label(tree: Path) -> str:
    """The tree's short commit, with -dirty when src/ or perfbench/ differ from it."""
    sha = git(tree, "rev-parse", "--short=7", "HEAD")
    dirty = git(tree, "status", "--porcelain", "--", "src", "perfbench")
    return sha + ("-dirty" if dirty else "")


def run_once(tree: Path, workload: str, seconds: float, trace: int = 0) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    return (parse_trace if trace else parse_run)(proc.stdout, proc.returncode)


def compare(name_a: str, a: dict, name_b: str, b: dict) -> list[str]:
    """Lines comparing two trees' runs of each workload, pair by pair."""
    out = [f"{name_a} -> {name_b}: median (q1-q3), pairs where the second reads better"]
    for workload in a:
        for metric, better in METRICS.items():
            xs = [r[metric] for r in a[workload]["per_run"]]
            ys = [r[metric] for r in b[workload]["per_run"]]
            if None in xs or None in ys:
                continue
            wins = sum((y > x) if better == "higher" else (y < x) for x, y in zip(xs, ys))
            qa, qb = quartiles(xs), quartiles(ys)
            out.append(f"  {workload:20} {metric:12} {qa['median']:.6g} "
                       f"({qa['q1']:.6g}-{qa['q3']:.6g}) -> {qb['median']:.6g} "
                       f"({qb['q1']:.6g}-{qb['q3']:.6g})  {wins}/{len(xs)}")
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("trees", nargs="*", type=Path, default=[ROOT])
    p.add_argument("--workloads", help="comma list (default: every workload)")
    p.add_argument("--repeats", type=int, default=10)
    args = p.parse_args(argv)
    if args.repeats < MIN_REPEATS:
        p.error(f"--repeats must be at least {MIN_REPEATS}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = [tree.resolve() for tree in args.trees]
    spec = json.loads((trees[0] / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    day = time.strftime("%Y%m%d", time.gmtime())
    labels = [tree_label(tree) for tree in trees]
    tier1 = {}
    for tree in trees:
        tier1[tree] = run_tier1(tree)
        print(f"tier-1 {tree.name}: {tier1[tree]['passed']} passed, "
              f"{tier1[tree]['failed']} failed in {tier1[tree]['wall_s']:.1f} s", file=sys.stderr)
    runs = {tree: {w: [] for w in workloads} for tree in trees}
    for repeat in range(args.repeats):
        order = trees if repeat % 2 == 0 else trees[::-1]
        for workload in workloads:
            for tree in order:
                run = run_once(tree, workload, seconds)
                runs[tree][workload].append(run)
                print(f"repeat {repeat} {workload} {tree.name}: "
                      f"{run.get('work_per_s')} correct={run['correct']}", file=sys.stderr)
    traces = {tree: {} for tree in trees}
    for workload in workloads:
        for tree in trees:
            trace = traces[tree][workload] = run_once(tree, workload, seconds, trace=1)
            print(f"traced {workload} {tree.name}: correct={trace['correct']}", file=sys.stderr)
    summaries = []
    for tree, label in zip(trees, labels):
        lines, digest = source_stats(tree)
        environment = next((r["environment"] for rs in runs[tree].values() for r in rs
                            if r["environment"]), None)
        summary = {w: {**summarise(rs), "trace": traces[tree][w]}
                   for w, rs in runs[tree].items()}
        record = {"tree": label, "date": day,
                  "repeats": args.repeats, "seconds": seconds,
                  "src_lines": lines, "src_digest": digest, "environment": environment,
                  "tier1": tier1[tree], "workloads": summary}
        path = tree / f"BENCH_{day}_{label}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
        summaries.append(summary)
    if len(trees) == 2:
        print("\n".join(compare(labels[0], summaries[0], labels[1], summaries[1])))
    return 0 if all(e["correct"] and e["trace"]["correct"]
                    for s in summaries for e in s.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
