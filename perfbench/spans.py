"""Span tracing of planlearn's public functions, installed from outside.

Each traced layer is a public function or method, named by module and
attribute. Installing a tracer replaces every reference to the original
function object held by a loaded `planlearn` module or by a module-level
table in one (so `planlearn.task.model.successors`, its copy imported into
`planlearn.search.gbfs` and `h_ff` in the search oracle table are all
traced) and restores them on exit. A layer whose function no longer exists
is reported as unmeasured, never as an error.

Spans are kept in memory as flat arrays of (layer, parent span, start, end)
and reduced when the run ends: a layer's busy time is the sum of its span
durations and its self time subtracts the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from array import array


def _pack_stats(tracer, args, batch):
    tracer.observe("nn.batch_nodes.mean", batch.features.shape[0])
    tracer.observe("nn.batch_edges.mean",
                   sum(len(dst) for dst, _ in batch.adjacency.values()))


def _table_stats(tracer, args, table):
    tracer.observe("heuristics.relaxation_table.iterations", table.iterations)


def _eval_stats(tracer, args, values):
    tracer.observe("search.eval_batch_size.mean", len(args[1]))


def _search_stats(tracer, args, result):
    tracer.count("search.expansions", result.expansions)
    tracer.count("search.evaluations", result.evaluations)
    tracer.count("search.generated", result.generated)


# (layer, module, attribute or Class.method, observer of (args, result) or None)
LAYERS = (
    ("task.parse_pddl", "planlearn.task.pddl", "parse_pddl", None),
    ("task.ground", "planlearn.task.ground", "ground", None),
    ("task.successors", "planlearn.task.model", "successors", None),
    ("task.validate_plan", "planlearn.task.model", "validate_plan", None),
    ("graphs.build_slg", "planlearn.graphs.builders", "build_slg", None),
    ("graphs.build_llg", "planlearn.graphs.builders", "build_llg", None),
    ("graphs.with_features", "planlearn.graphs.core", "LearningGraph.with_features", None),
    ("nn.init_model", "planlearn.nn.model", "init_model", None),
    ("nn.pack_graphs", "planlearn.nn.model", "pack_graphs", _pack_stats),
    ("nn.forward_packed", "planlearn.nn.model", "forward_packed", None),
    ("nn.backward_packed", "planlearn.nn.model", "backward_packed", None),
    ("nn.forward", "planlearn.nn.model", "forward", None),
    ("nn.forward_batch", "planlearn.nn.model", "forward_batch", None),
    ("nn.adam_step", "planlearn.nn.train", "Adam.step", None),
    ("nn.train", "planlearn.nn.train", "train", None),
    ("heuristics.relaxation_table", "planlearn.heuristics.relaxation",
     "relaxation_table", _table_stats),
    ("heuristics.h_dp", "planlearn.heuristics.relaxation", "h_dp", None),
    ("heuristics.h_ff", "planlearn.heuristics.relaxation", "h_ff", None),
    ("heuristics.h_star", "planlearn.heuristics.exact", "h_star", None),
    ("heuristics.h_plus", "planlearn.heuristics.exact", "h_plus", None),
    ("heuristics.optimal_plan", "planlearn.heuristics.exact", "optimal_plan", None),
    ("heuristics.label_dataset", "planlearn.heuristics.labels", "label_dataset", None),
    ("search.gbfs", "planlearn.search.gbfs", "gbfs", _search_stats),
    ("search.evaluate_batch", "planlearn.search.heuristics",
     "ConstantHeuristic.evaluate_batch", _eval_stats),
    ("search.evaluate_batch", "planlearn.search.heuristics",
     "OracleHeuristic.evaluate_batch", _eval_stats),
    ("search.evaluate_batch", "planlearn.search.heuristics",
     "ModelHeuristic.evaluate_batch", _eval_stats),
    ("expressiveness.wl_refine", "planlearn.expressiveness.wl", "wl_refine", None),
    ("expressiveness.relaxation_program", "planlearn.expressiveness.program",
     "relaxation_program", None),
    ("expressiveness.model_gap", "planlearn.expressiveness.report", "model_gap", None),
    ("bench.generate", "planlearn.bench.suite", "generate", None),
    ("bench.build_training_set", "planlearn.bench.suite", "build_training_set", None),
)

LAYER_NAMES = tuple(dict.fromkeys(layer for layer, *_ in LAYERS))

# Metrics other than a layer's .s/.self_s/.calls, and the layer each comes from.
MEANS = {"nn.batch_nodes.mean": "nn.pack_graphs", "nn.batch_edges.mean": "nn.pack_graphs",
         "heuristics.relaxation_table.iterations": "heuristics.relaxation_table",
         "search.eval_batch_size.mean": "search.evaluate_batch"}
COUNTS = {"search.expansions": "search.gbfs", "search.evaluations": "search.gbfs",
          "search.generated": "search.gbfs"}
DERIVED = {**MEANS, **COUNTS,
           "search.evaluate_batch.ms_p50": "search.evaluate_batch",
           "search.evaluate_batch.ms_p99": "search.evaluate_batch",
           "search.fresh_ratio": "search.gbfs", "search.expanded_ratio": "search.gbfs"}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    names = [(f"{layer}.{stat}", unit) for layer in LAYER_NAMES
             for stat, unit in (("s", "s"), ("self_s", "s"), ("calls", "count"))]
    names += [(name, "ms" if name.endswith(("_p50", "_p99")) else
               "ratio" if name.endswith("_ratio") else "count") for name in DERIVED]
    return names + [("trace.overhead_frac", "ratio"), ("trace.unmeasured", "count")]


def _resolve(module_name: str, attribute: str):
    """(owner, name, original) for a module function or a class method."""
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    """Records spans while installed as a context manager."""

    def __init__(self):
        self._layer_ids = {name: i for i, name in enumerate(LAYER_NAMES)}
        self.layer = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._restore: list[tuple[object, object, object]] = []
        self.observations: dict[str, list[float]] = {name: [] for name in MEANS}
        self.counters: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self.unmeasured: list[str] = []

    def observe(self, name: str, value: float):
        self.observations[name].append(value)

    def count(self, name: str, value: int):
        self.counters[name] += value

    def _wrap(self, layer: str, fn, observer):
        layer_id = self._layer_ids[layer]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.layer.append(layer_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0)
            self.end.append(0)
            self._stack.append(idx)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if observer is not None:
                observer(self, args, result)
            return result

        return traced

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if (name == "planlearn" or name.startswith("planlearn.")) and m is not None]
        installed = set()
        for layer, module_name, attribute, observer in LAYERS:
            try:
                owner, name, original = _resolve(module_name, attribute)
            except (ImportError, AttributeError):
                continue
            installed.add(layer)
            wrapper = self._wrap(layer, original, observer)
            if isinstance(owner, type):
                self._patch(owner, name, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._patch(value, k, wrapper)
        self.unmeasured = [layer for layer in LAYER_NAMES if layer not in installed]
        return self

    def _patch(self, owner, name, wrapper):
        if isinstance(owner, dict):
            self._restore.append((owner.__setitem__, name, owner[name]))
            owner[name] = wrapper
        else:
            self._restore.append((functools.partial(setattr, owner), name,
                                  getattr(owner, name)))
            setattr(owner, name, wrapper)

    def __exit__(self, *exc):
        for put, name, original in reversed(self._restore):
            put(name, original)
        self._restore.clear()
        return False

    def mark(self) -> int:
        """Span index separating two phases (set-up and rounds)."""
        return len(self.start)

    def _totals(self, lo: int, hi: int):
        """Per layer id over spans [lo, hi): busy ns, self ns and calls."""
        n = len(LAYER_NAMES)
        busy, child, calls = [0] * n, [0] * n, [0] * n
        for i in range(lo, hi):
            dur = self.end[i] - self.start[i]
            busy[self.layer[i]] += dur
            calls[self.layer[i]] += 1
            if self.parent[i] >= 0:
                child[self.layer[self.parent[i]]] += dur
        return busy, [b - c for b, c in zip(busy, child)], calls

    def metrics(self, mark: int, rounds: int) -> dict[str, float]:
        """Per-layer metrics for one set-up (spans before `mark`) plus one of
        the `rounds` rounds after it, leaving out unmeasured layers."""
        end, n = self.mark(), max(rounds, 1)
        setup, per_round = self._totals(0, mark), self._totals(mark, end)
        out = {}
        for i, layer in enumerate(LAYER_NAMES):
            out[f"{layer}.s"] = (setup[0][i] + per_round[0][i] / n) / 1e9
            out[f"{layer}.self_s"] = (setup[1][i] + per_round[1][i] / n) / 1e9
            out[f"{layer}.calls"] = setup[2][i] + per_round[2][i] / n
        for name, values in self.observations.items():
            out[name] = statistics.fmean(values) if values else 0.0
        lid = self._layer_ids["search.evaluate_batch"]
        eval_ms = [(self.end[i] - self.start[i]) / 1e6
                   for i in range(mark, end) if self.layer[i] == lid]
        out["search.evaluate_batch.ms_p50"] = _percentile(eval_ms, 50)
        out["search.evaluate_batch.ms_p99"] = _percentile(eval_ms, 99)
        counts = {name: total / n for name, total in self.counters.items()}
        out.update(counts)
        expansions, evaluations, generated = counts.values()
        out["search.fresh_ratio"] = evaluations / generated if generated else 0.0
        out["search.expanded_ratio"] = expansions / evaluations if evaluations else 0.0
        out["trace.unmeasured"] = len(self.unmeasured)
        return {name: value for name, value in out.items()
                if DERIVED.get(name, name.rsplit(".", 1)[0]) not in self.unmeasured}


def _percentile(values: list[float], q: int) -> float:
    """q-th percentile (1..99); 0.0 without data."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
