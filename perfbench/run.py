"""planlearn benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload train-slg --seed 0 --seconds 14 --trace 0

Run from the repository root; the program is imported from `src/`. The
workloads and why each was chosen are in `workloads.py` and
`BENCHMARK.json`. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones:
  setup_s      import time plus the median of SETUP_REPEATS set-ups
  peak_rss_mb  peak resident memory of this process
  work_per_s   median over rounds of work units per timed second: training
               samples (forward, backward, Adam), evaluated states (model and
               hff search), generated states (blind search) or theory runs

With `--trace 1` the first half of the time runs untraced rounds, then the
set-up and the same rounds run again with the public functions of every
module wrapped (see `spans.py`). Per-layer times and call counts are for one
set-up plus one round. Lines before the last report the environment, the
workload's metric under its descriptive name, a digest of the exact outputs
of round 0 (counters, loss traces, verdicts) and any unmeasured layer.

The exit code is 0 when every check passed, 1 when one failed (the result is
still printed) and 2 when the program cannot be found.
"""

import os

# One BLAS thread before numpy loads: the thread count changes float results.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINNED = HERE / "pinned.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 5

log = logging.getLogger("perfbench")


class OncePerMessage(logging.Filter):
    def __init__(self):
        super().__init__()
        self.seen = set()

    def filter(self, record):
        key = (record.name, record.getMessage())
        if key in self.seen:
            return False
        self.seen.add(key)
        return True


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=14.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    src_lines = sum(len(f.read_text().splitlines()) for f in sorted(SRC.rglob("*.py")))
    return {
        "python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(), "src_lines": src_lines, "seed": seed,
    }


def run_rounds(workload, state, seconds: float, count: int | None = None):
    """Rounds until `seconds` have passed (at least one), or exactly `count`."""
    rounds = []
    start = time.perf_counter()
    while True:
        if count is None:
            if rounds and time.perf_counter() - start >= seconds:
                break
        elif len(rounds) == count:
            break
        try:
            rounds.append(workload.round(state, len(rounds)))
        except Exception:
            log.error("round %d of %s raised:\n%s", len(rounds), workload.name,
                      traceback.format_exc())
            return rounds, False
    return rounds, True


def check_outputs(workload, rounds, seed) -> list[str]:
    """Problems with the exact outputs: rounds that should repeat and did
    not, and (default seed) counters differing from the pinned ones."""
    problems = []
    if workload.same_each_round:
        for i, r in enumerate(rounds[1:], 1):
            if r.outputs != rounds[0].outputs:
                problems.append(f"round {i} outputs differ from round 0")
    if seed == DEFAULT_SEED and rounds:
        pinned = json.loads(PINNED.read_text()).get(workload.name)
        if pinned is not None and pinned != rounds[0].outputs:
            problems.append(f"counters {rounds[0].outputs} differ from pinned {pinned}")
    return problems


def digest(outputs) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()[:16]


def end_to_end(workload, args, import_s):
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(args.seed)
        times.append(time.perf_counter() - t0)
    rounds, finished = run_rounds(workload, state, args.seconds)
    rates = [r.units / r.seconds for r in rounds]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"setup_s": (import_s + statistics.median(times), "s"),
               "peak_rss_mb": (rss_mb, "MB")}
    if rates:
        metrics["work_per_s"] = (statistics.median(rates), "1/s")
        print(f"# {workload.report_as}: work_per_s {metrics['work_per_s'][0]:.6g} "
              f"{workload.unit}/s, median round {statistics.median(r.seconds for r in rounds):.6g} s, "
              f"{len(rounds)} rounds")
    return rounds, finished, metrics


def traced(workload, args):
    from spans import Tracer, metric_names

    state = workload.setup(args.seed)
    plain, finished = run_rounds(workload, state, args.seconds / 2)
    if not finished:
        return plain, False, {}, []
    tracer = Tracer()
    with tracer:
        state = workload.setup(args.seed)
        mark = tracer.mark()
        rounds, finished = run_rounds(workload, state, 0, count=len(plain))
    values = tracer.metrics(mark, len(rounds))
    untraced_s = sum(r.seconds for r in plain[:len(rounds)])
    values["trace.overhead_frac"] = (
        sum(r.seconds for r in rounds) / untraced_s - 1 if untraced_s else 0.0)
    for layer in tracer.unmeasured:
        print(f"# unmeasured layer: {layer}")
    units = dict(metric_names())
    metrics = {name: (value, units[name]) for name, value in values.items()}
    return rounds, finished, metrics, [name for name in units if name not in values]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "planlearn" / "__init__.py").is_file():
        print(f"perfbench: no planlearn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The benchmark's log is standard error; grounding warns once per
    # instance about the same rejected actions, so repeats are dropped.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s %(levelname)s: %(message)s"))
    handler.addFilter(OncePerMessage())
    for name in ("planlearn", "perfbench"):
        logger = logging.getLogger(name)
        logger.addHandler(handler)
        logger.propagate = False

    t0 = time.perf_counter()
    import numpy as np
    from workloads import WORKLOADS
    np.ones((8, 8)) @ np.ones((8, 8))     # BLAS start-up
    import_s = time.perf_counter() - t0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print("# environment " + json.dumps(environment(args.seed), sort_keys=True))

    if args.trace:
        rounds, finished, metrics, unmeasured = traced(workload, args)
        expected = [m["name"] for m in spec["per_layer"]]
    else:
        rounds, finished, metrics = end_to_end(workload, args, import_s)
        expected, unmeasured = [m["name"] for m in spec["end_to_end"]], []

    problems = check_outputs(workload, rounds, args.seed)
    if rounds:
        print(f"# round-0 digest {digest(rounds[0].outputs)}")
    missing = sorted(set(expected) - set(metrics) - set(unmeasured))
    if finished and missing:
        problems.append(f"metrics missing from the report: {missing}")
    for problem in problems:
        log.error("%s", problem)
    attempted = sum(r.ops for r in rounds) + (0 if finished else 1)
    failed = sum(r.failed for r in rounds) + (0 if finished else 1)
    correct = finished and failed == 0 and not problems
    result = {
        "correct": correct, "attempted": max(attempted, 1), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if name in expected},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
