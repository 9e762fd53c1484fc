"""The benchmark's workloads: what each runs, why, and how its outputs are checked.

Every workload is a closed loop with one caller on one thread: `setup`
builds the inputs from the seed, and `round` runs a fixed amount of work,
timing only the calls a user waits for. Rounds repeat until the run's time
is up; every round of a run does identical work except in `theory`, which
repeats the checks over seeds derived from the run seed.

Calls under measurement go through package attributes (`nn.train`,
`search.gbfs`, ...) so that the tracer can wrap them. The benchmark's own
checks use the references imported by name below, which the tracer does not
replace, so checking stays out of the spans.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from planlearn import bench, expressiveness, graphs, nn, search, task
from planlearn.seeding import derive_seed
from planlearn.task.model import initial_state, validate_plan

# Sizes keep a round to a second or two, so a run holds several, and bound
# what an untrained model can wander through: on gripper a search evaluates
# at most every reachable state, 2·(2^n + n·2^n + n(n-1)·2^(n-2)) for n
# balls, 256 for n = 4.
TRAIN_SIZES = tuple(range(1, 7))        # 66 labeled states
TRAIN_EPOCHS = 2                        # epochs per round, from a fresh model
TRAIN_SEED = 0
MODEL_LAYERS, MODEL_HIDDEN = 8, 64
SEARCH_CONFIG = search.SearchConfig(timeout_s=600.0)   # never the reason a search stops
# Model-guided search evaluates one state per call: an untrained model's
# trajectory decides how many fresh successors share a batch, and with them
# the cost per state, which would make the rate depend on the seed.
MODEL_SEARCH_CONFIG = search.SearchConfig(timeout_s=600.0, eval_batch=1)


@dataclass
class Round:
    units: int              # work units done in the timed region
    seconds: float          # timed wall seconds
    ops: int                # operations attempted: optimizer steps, searches or verdicts
    failed: int             # operations whose output failed a check
    outputs: list = field(default_factory=list)   # exact outputs: counters, losses, verdicts


class TrainWorkload:
    unit = "training samples"
    same_each_round = True

    def __init__(self, name, why, kind, aggregator, report_as):
        self.name, self.why, self.report_as = name, why, report_as
        self.kind, self.aggregator = kind, aggregator

    def setup(self, seed):
        spec = bench.SuiteSpec("gripper", TRAIN_SIZES, (), (TRAIN_SIZES[-1] + 1,), seed)
        suite = bench.generate(spec)
        samples = bench.build_training_set(suite.split("train"), self.kind,
                                           encoder_seed=derive_seed(seed, "encoder"))
        # The training seed picks the holdout split, and with it how many nodes
        # an epoch processes, so it stays fixed; the run seed reaches the suite,
        # the index encoder and the model.
        config = nn.TrainConfig(seed=TRAIN_SEED, max_epochs=TRAIN_EPOCHS,
                                layer_count=MODEL_LAYERS, hidden_dim=MODEL_HIDDEN,
                                aggregator=self.aggregator)
        model_seed = derive_seed(seed, "model")
        nn.forward(self._model(samples, config, model_seed), samples[0].graph)   # BLAS start-up
        return samples, config, model_seed

    @staticmethod
    def _model(samples, config, seed):
        return nn.init_model(samples[0].graph.kind, config.layer_count, config.hidden_dim,
                             config.aggregator, config.readout, seed=seed)

    def round(self, state, index):
        samples, config, model_seed = state
        model = self._model(samples, config, model_seed)
        t0 = time.perf_counter()
        _, trace = nn.train(samples, config, model)
        seconds = time.perf_counter() - t0
        # train() holds out round(frac * n) samples, at least one, and steps
        # the optimizer on the rest in batches.
        n_hold = min(max(1, round(config.holdout_frac * len(samples))), len(samples) - 1)
        n_train = len(samples) - n_hold
        epochs = len(trace.rows)
        steps = epochs * math.ceil(n_train / config.batch_size)
        losses = [(r.train_loss, r.holdout_loss) for r in trace.rows]
        ok = epochs == TRAIN_EPOCHS and all(math.isfinite(x) for pair in losses for x in pair)
        return Round(n_train * epochs, seconds, steps, 0 if ok else steps, losses)


@dataclass
class Problem:
    name: str
    strips: object
    heuristic: object


class SearchWorkload:
    same_each_round = True

    def __init__(self, name, why, problems, heuristic, unit, report_as,
                 config=SEARCH_CONFIG):
        self.name, self.why, self.report_as = name, why, report_as
        self.problems = problems      # (domain, size, copies): copies differ by seed
        self.heuristic = heuristic    # (strips, lifted, gmap, seed) -> heuristic
        self.unit = unit              # "evaluations" or "generated"
        self.config = config

    def setup(self, seed):
        problems = []
        for domain, size, copies in self.problems:
            for copy in range(copies):
                name = f"{domain}-{size}-{copy}"
                text = bench.GENERATORS[domain](size, seed=derive_seed(seed, name))
                lifted = task.parse_pddl(bench.DOMAIN_TEXT[domain], text)
                strips, gmap = task.ground(lifted)
                heuristic = self.heuristic(strips, lifted, gmap, derive_seed(seed, "model"))
                heuristic.evaluate_batch([initial_state(strips)])   # first-call effects
                problems.append(Problem(name, strips, heuristic))
        return problems

    def round(self, problems, index):
        units = failed = 0
        seconds = 0.0
        outputs = []
        for p in problems:
            t0 = time.perf_counter()
            result = search.gbfs(p.strips, p.heuristic, self.config)
            seconds += time.perf_counter() - t0
            units += getattr(result, self.unit)
            outputs.append({"problem": p.name, "status": result.status,
                            "expansions": result.expansions,
                            "evaluations": result.evaluations,
                            "generated": result.generated, "plan_cost": result.plan_cost})
            if result.status != "solved":
                failed += 1
                continue
            check = validate_plan(p.strips, result.plan)
            if not check.valid or check.cost != result.plan_cost:
                failed += 1
        return Round(units, seconds, len(problems), failed, outputs)


class TheoryWorkload:
    unit = "theory runs"
    name = "theory"
    why = ("expressiveness (WL, exact program) and h* Dijkstra; many forward calls on "
           "tiny graphs expose per-call overhead that big batches hide")
    report_as = "theory.run_s"
    same_each_round = False
    MODELS, RANDOM_TASKS = 100, 200

    def setup(self, seed):
        # The checks build their own inputs; set-up only pays first-call effects.
        twin, _ = expressiveness.grounded_twin_pair()
        graph = graphs.build_slg(twin, twin.init)
        model = nn.init_model(graph.kind, 4, 16, seed=derive_seed(seed, "warm-up"))
        nn.forward(model, graph)
        expressiveness.wl_refine(graph)
        return seed

    def round(self, seed, index):
        t0 = time.perf_counter()
        verdicts = expressiveness.run_theory_checks(
            derive_seed(seed, f"theory-{index}"), self.MODELS, self.RANDOM_TASKS)
        seconds = time.perf_counter() - t0
        outputs = [v.to_json_dict() for v in verdicts]
        return Round(1, seconds, len(verdicts), sum(not v.passed for v in verdicts), outputs)


def _model_heuristic(kind):
    def make(strips, lifted, gmap, seed):
        graph_kind = graphs.slg_kind() if kind == "slg" else graphs.llg_kind(4)
        model = nn.init_model(graph_kind, MODEL_LAYERS, MODEL_HIDDEN, "mean", "sum", seed=seed)
        if kind == "slg":
            return search.ModelHeuristic(model, strips)
        encoder = graphs.IndexEncoder(4, seed=derive_seed(seed, "encoder"))
        return search.ModelHeuristic(model, strips, lifted=lifted, gmap=gmap, encoder=encoder)
    return make


def _hff(strips, lifted, gmap, seed):
    return search.OracleHeuristic(strips, "hff")


def _blind(strips, lifted, gmap, seed):
    return search.ConstantHeuristic(0.0)


WORKLOADS = {w.name: w for w in (
    TrainWorkload(
        "train-slg",
        "nn training only: pack, forward, backward, Adam on 16-graph SLG batches with "
        "mean aggregation; no search",
        "slg", "mean", "train.slg.samples_per_s"),
    TrainWorkload(
        "train-llg",
        "nn training on lifted graphs: more labels and index features per node",
        "llg", "mean", "train.llg.samples_per_s"),
    TrainWorkload(
        "train-slg-max",
        "max aggregation takes the separate maximum.at and tie-splitting path, so a "
        "sum/mean speed-up that slows max shows",
        "slg", "max", "train.slg_max.samples_per_s"),
    SearchWorkload(
        "search-model-slg",
        "forward-only nn on one state per call, between successor generation and "
        "per-state feature rewrites (with_features)",
        [("gripper", 4, 1)], _model_heuristic("slg"),
        "evaluations", "search.model_slg.evals_per_s", MODEL_SEARCH_CONFIG),
    SearchWorkload(
        "search-model-llg",
        "forward-only nn on one state per call after a full build_llg per state",
        [("gripper", 4, 1)], _model_heuristic("llg"),
        "evaluations", "search.model_llg.evals_per_s", MODEL_SEARCH_CONFIG),
    SearchWorkload(
        "search-oracle-hff",
        "no nn: relaxation_table dominates; gripper, blocksworld and visitall vary "
        "action count and branching",
        [("gripper", 12, 1), ("blocksworld", 7, 8), ("visitall", 6, 1)], _hff,
        "evaluations", "search.hff.evals_per_s"),
    SearchWorkload(
        "search-oracle-blind",
        "no nn and no heuristic: task successor generation and gbfs heap and duplicate "
        "checks dominate",
        [("gripper", 8, 1), ("gripper", 9, 1)], _blind,
        "generated", "search.blind.generated_per_s"),
    TheoryWorkload(),
)}
