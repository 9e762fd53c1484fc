"""Executable expressiveness checks with machine-readable verdicts.

Each verdict records what was compared and whether the expected relation
held: refinement-equal graphs with different exact heuristic values, random
models agreeing on twin graphs, and the exact program agreeing with the
dynamic program.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..graphs.builders import build_llg, build_slg, state_graphs
from ..graphs.encoder import IndexEncoder
from ..heuristics.exact import h_plus, h_star
from ..heuristics.relaxation import h_add, h_dp, h_max
from ..nn.model import forward_models, init_model
from ..seeding import derive_seed
from ..task.ground import ground
from ..task.model import as_lifted, strips_state_atoms
from .pairs import (
    delete_relaxation_gap_task,
    grounded_twin_pair,
    lifted_twin_pair,
    scaling_twin_pair,
)
from .program import relaxation_program
from .sampling import random_unit_task
from .wl import wl_refine

_KINDS = ("slg", "flg", "llg")


@dataclass
class Verdict:
    check: str
    pair_id: str
    graph_kind: str
    wl_equal: bool | None
    h_values: dict
    model_gap: float | None
    passed: bool

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["pass"] = d.pop("passed")
        return d


def _views(task, seed: int) -> dict:
    """The three encodings of a propositional task at its initial state."""
    encoder = IndexEncoder(4, seed=derive_seed(seed, "theory-pe"))
    lifted = as_lifted(task)
    return {
        "slg": build_slg(task, task.init),
        "flg": state_graphs("flg", task)(task.init),
        "llg": build_llg(lifted, strips_state_atoms(task, task.init), encoder),
    }


# Models drawn and evaluated together by model_gap: one forward of a group
# costs less than one per model, and a larger group holds more weights at
# once. On the `theory` benchmark, groups of 10 were no faster than groups
# of 5 and held about 0.8 MB more at peak.
GAP_GROUP = 5


def model_gap(g1, g2, models: int, seed: int, layer_count: int = 4,
              hidden_dim: int = 16) -> float:
    """Largest |forward(G1) - forward(G2)| over seeded random models, taken
    in model order; the models are evaluated GAP_GROUP at a time."""
    worst = 0.0
    for start in range(0, models, GAP_GROUP):
        group = [init_model(g1.kind, layer_count, hidden_dim, aggregator="mean",
                            readout="sum", seed=derive_seed(seed, f"gap-model-{i}"))
                 for i in range(start, min(start + GAP_GROUP, models))]
        for a, b in zip(*forward_models(group, [g1, g2]).tolist()):
            worst = max(worst, abs(a - b))
    return worst


def _value(task, fn):
    return fn(task, task.init).json_value


def check_program_equivalence(seed: int, random_tasks: int = 200) -> Verdict:
    """The exact program must equal the dynamic program for both variants on
    the twin fixtures and a seeded random sweep (bound 64)."""
    tasks = list(grounded_twin_pair())
    rng = np.random.default_rng(derive_seed(seed, "theory-random-tasks"))
    tasks.extend(random_unit_task(rng) for _ in range(random_tasks))
    bound = 64
    mismatches = 0
    for task in tasks:
        graph = build_slg(task, task.init)
        for which in ("max", "add"):
            oracle = h_dp(task, task.init, which)
            got = relaxation_program(graph, which, rounds=oracle.iterations, bound=bound)
            if oracle.infinite != got.infinite:
                mismatches += 1
            elif not oracle.infinite and oracle.value != got.value:
                mismatches += 1
    return Verdict(
        check="program-dp-equivalence",
        pair_id=f"twin-fixtures+{random_tasks}-random",
        graph_kind="slg",
        wl_equal=None,
        h_values={"tasks": len(tasks), "variants": 2, "mismatches": mismatches},
        model_gap=None,
        passed=mismatches == 0)


def check_lifted_twins(seed: int, models: int = 100) -> Verdict:
    """Solvable/unsolvable lifted twins: grounded relaxation values 1 versus
    INFINITY, lifted graphs refinement-equal, random models agree."""
    t1, t2 = lifted_twin_pair()
    g1, _ = ground(t1, prune_statics=False)
    g2, _ = ground(t2, prune_statics=False)
    vals = {
        "h_max": [_value(g1, h_max), _value(g2, h_max)],
        "h_add": [_value(g1, h_add), _value(g2, h_add)],
        "ground_actions": [len(g1.actions), len(g2.actions)],
    }
    encoder = IndexEncoder(4, seed=derive_seed(seed, "theory-pe"))
    llg1 = build_llg(t1, t1.init, encoder)
    llg2 = build_llg(t2, t2.init, encoder)
    equal = wl_refine(llg1).same_colors(wl_refine(llg2))
    gap = model_gap(llg1, llg2, models, seed)
    # One goal fact reachable at cost 1 each: max combination 1, additive 2.
    passed = (equal and gap < 1e-5 and vals["ground_actions"] == [4, 4]
              and vals["h_max"] == [1, "inf"] and vals["h_add"] == [2, "inf"])
    return Verdict("lifted-twins", "q/w-two-objects", "llg", equal, vals, gap, passed)


def check_grounded_twins(seed: int, models: int = 100) -> Verdict:
    """The 6-action twins: exact values 4 versus 3, all three encodings
    refinement-equal, random models agree on each encoding."""
    t1, t2 = grounded_twin_pair()
    vals = {
        "h_star": [_value(t1, h_star), _value(t2, h_star)],
        "h_plus": [_value(t1, h_plus), _value(t2, h_plus)],
    }
    views1, views2 = _views(t1, seed), _views(t2, seed)
    equal_all = True
    worst_gap = 0.0
    for kind in _KINDS:
        equal_all &= wl_refine(views1[kind]).same_colors(wl_refine(views2[kind]))
        worst_gap = max(worst_gap, model_gap(views1[kind], views2[kind], models, seed))
    passed = (equal_all and worst_gap < 1e-5
              and vals["h_star"] == [4, 3] and vals["h_plus"] == [4, 3])
    return Verdict("grounded-twins", "six-action", "slg+flg+llg",
                   equal_all, vals, worst_gap, passed)


def check_scaling_twins(seed: int, sizes=(2, 3, 4, 5), models: int = 100) -> Verdict:
    """The grid family: exact costs (n*n, 2n-1), refinement-equal for all
    encodings, random models agree."""
    vals = {}
    equal_all = True
    worst_gap = 0.0
    ok = True
    for n in sizes:
        t1, t2 = scaling_twin_pair(n)
        v1, v2 = _value(t1, h_star), _value(t2, h_star)
        vals[f"n={n}"] = [v1, v2]
        ok &= (v1, v2) == (n * n, 2 * n - 1)
        views1, views2 = _views(t1, seed), _views(t2, seed)
        for kind in _KINDS:
            equal_all &= wl_refine(views1[kind]).same_colors(wl_refine(views2[kind]))
        worst_gap = max(worst_gap, model_gap(views1["slg"], views2["slg"], models, seed))
    passed = ok and equal_all and worst_gap < 1e-5
    return Verdict("scaling-twins", f"n-in-{list(sizes)}", "slg+flg+llg",
                   equal_all, vals, worst_gap, passed)


def check_relaxation_gap() -> Verdict:
    """The two-action task where deleting matters: optimal 2, relaxed 1."""
    task = delete_relaxation_gap_task()
    vals = {"h_star": _value(task, h_star), "h_plus": _value(task, h_plus)}
    passed = vals == {"h_star": 2, "h_plus": 1}
    return Verdict("relaxation-gap", "two-action", "slg", None, vals, None, passed)


def run_theory_checks(seed: int = 0, models: int = 100,
                      random_tasks: int = 200) -> list[Verdict]:
    return [
        check_program_equivalence(seed, random_tasks),
        check_lifted_twins(seed, models),
        check_grounded_twins(seed, models),
        check_scaling_twins(seed, models=models),
        check_relaxation_gap(),
    ]
