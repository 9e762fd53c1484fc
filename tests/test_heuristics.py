import math
from dataclasses import replace

import numpy as np
import pytest

from planlearn.bench.domains import DOMAIN_TEXT, GENERATORS
from planlearn.cli import cli_main
from planlearn.errors import BudgetExceeded, InvalidPlan
from planlearn.expressiveness import (
    delete_relaxation_gap_task,
    grounded_twin_pair,
    lifted_twin_pair,
    random_unit_task,
    scaling_twin_pair,
)
from planlearn.heuristics import (
    INFINITY,
    HeuristicValue,
    h_add,
    h_dp,
    h_ff,
    h_max,
    h_plus,
    h_star,
    label_dataset,
    optimal_plan,
    relaxation_table,
)
from planlearn.task import StripsTask, ground, parse_pddl, validate_plan

from helpers import delete_relax, reachable_states, reference_h_plus


def test_goal_satisfied_gives_zero(gripper_ground):
    task, _ = gripper_ground
    goal_state = task.init | task.goal
    for fn in (h_max, h_add, h_ff):
        assert fn(task, goal_state).value == 0
    assert h_plus(task, goal_state).value == 0
    assert h_star(task, goal_state).value == 0


def test_lifted_twins_dp_values():
    t1, t2 = lifted_twin_pair()
    g1, _ = ground(t1, prune_statics=False)
    g2, _ = ground(t2, prune_statics=False)
    assert h_max(g1, g1.init).value == 1
    assert h_add(g1, g1.init).value == 2   # one unit per goal fact
    assert h_max(g2, g2.init).value is INFINITY
    assert h_add(g2, g2.init).value is INFINITY


def test_twin_pair_relaxation_values():
    p1, p2 = grounded_twin_pair()
    assert h_add(p1, p1.init).value == 4   # two fact chains of cost 2 each
    assert h_add(p2, p2.init).value == 4
    assert h_max(p1, p1.init).value == 2
    assert h_ff(p1, p1.init).value == 4
    assert h_star(p1).value == 4 and h_star(p2).value == 3
    assert h_plus(p1).value == 4 and h_plus(p2).value == 3


def test_relaxation_gap_values():
    task = delete_relaxation_gap_task()
    assert h_star(task).value == 2
    assert h_plus(task).value == 1


def test_scaling_family_values():
    for n, (v1, v2) in [(3, (9, 5)), (5, (25, 9))]:
        p1, p2 = scaling_twin_pair(n)
        assert h_star(p1).value == v1
        assert h_star(p2).value == v2
    p1, p2 = scaling_twin_pair(3)
    assert h_plus(p1).value == 9 and h_plus(p2).value == 5


def test_delete_free_h_plus_equals_h_star():
    rng = np.random.default_rng(7)
    for _ in range(30):
        task = random_unit_task(rng)
        relaxed = delete_relax(task)
        hp = h_plus(relaxed)
        hs = h_star(relaxed)
        assert (hp.value is INFINITY) == (hs.value is INFINITY)
        if not hp.infinite:
            assert hp.value == hs.value


def test_h_ff_dominates_h_plus_on_random_tasks():
    rng = np.random.default_rng(43)
    checked = 0
    for _ in range(200):
        task = random_unit_task(rng)
        hp = h_plus(task)
        hf = h_ff(task, task.init)
        assert hf.infinite == hp.infinite
        if not hp.infinite:
            assert hf.value >= hp.value
            checked += 1
    assert checked > 50


def test_gripper_h_star_is_three(gripper_ground):
    task, _ = gripper_ground
    assert h_star(task).value == 3


def test_dp_iterations_reported(gripper_ground):
    task, _ = gripper_ground
    value = h_dp(task, task.init, "max")
    assert value.iterations >= 2
    table = relaxation_table(task, task.init, "max")
    assert table.iterations == value.iterations
    assert all(math.isfinite(c) for c in table.prop_cost)


def test_dp_monotone_in_iterations(gripper_ground):
    """The per-sweep proposition tables never increase. Only the reference
    DP in test_relaxation_diff keeps them; the fast one equals its final
    table and iteration count there."""
    from test_relaxation_diff import relaxation_table as reference_table

    task, _ = gripper_ground
    for which in ("max", "add"):
        table = reference_table(task, task.init, which, keep_history=True)
        assert len(table.history) == table.iterations + 1
        for earlier, later in zip(table.history, table.history[1:]):
            assert all(b <= a for a, b in zip(earlier, later))


def test_h_star_budget():
    p1, _ = scaling_twin_pair(4)
    with pytest.raises(BudgetExceeded):
        h_star(p1, state_cap=10)


def test_h_plus_budget():
    p1, _ = scaling_twin_pair(5)
    with pytest.raises(BudgetExceeded):
        h_plus(p1, fact_budget=3)


def _bench_task(domain, size, seed):
    strips, _ = ground(parse_pddl(DOMAIN_TEXT[domain], GENERATORS[domain](size, seed=seed)))
    return strips


def _h_plus_outcome(fn, task, state, fact_budget):
    try:
        return fn(task, state, fact_budget)
    except BudgetExceeded as exc:
        return str(exc)


def test_h_plus_matches_reference():
    """h_plus (h_star of the relevant delete relaxation) gives the reference
    value, or the same BudgetExceeded message, on every case."""
    cases = []
    for task in (*grounded_twin_pair(), delete_relaxation_gap_task(), *scaling_twin_pair(3)):
        cases += [(task, s, 25) for s in reachable_states(task)[:50]]
    rng = np.random.default_rng(16)
    for _ in range(200):
        task = random_unit_task(rng)
        cases += [(task, s, budget) for s in reachable_states(task)[:10] for budget in (25, 3)]
        costs = rng.integers(0, 4, size=len(task.actions)).tolist()
        weighted = StripsTask(task.propositions, tuple(
            replace(a, cost=c) for a, c in zip(task.actions, costs)), task.init, task.goal)
        cases.append((weighted, weighted.init, 25))
    for domain, size in (("gripper", 3), ("blocksworld", 4), ("visitall", 3), ("spanner", 3)):
        task = _bench_task(domain, size, seed=1)
        cases += [(task, s, 25) for s in reachable_states(task)[:100]]
    kinds = set()
    for task, state, budget in cases:
        want = _h_plus_outcome(reference_h_plus, task, state, budget)
        assert _h_plus_outcome(h_plus, task, state, budget) == want, (task.name, state, budget)
        kinds.add("budget" if isinstance(want, str) else "inf" if want.infinite else "finite")
    assert kinds == {"budget", "inf", "finite"}


@pytest.fixture
def small_state_cap(monkeypatch):
    monkeypatch.setattr("planlearn.heuristics.exact.DEFAULT_STATE_CAP", 1000)


def test_h_plus_state_cap(small_state_cap):
    """gripper-6 has 19 unreached relevant facts, within the fact budget, but
    its relaxed search stores far more than 1000 fact sets."""
    with pytest.raises(BudgetExceeded, match="state cap 1000 exceeded"):
        h_plus(_bench_task("gripper", 6, seed=0))


def test_oracle_hplus_state_cap_is_one_line_error(small_state_cap, tmp_path, capsys):
    domain, problem = tmp_path / "domain.pddl", tmp_path / "p.pddl"
    domain.write_text(DOMAIN_TEXT["gripper"])
    problem.write_text(GENERATORS["gripper"](6))
    assert cli_main(["oracle", "--domain", str(domain), "--problem", str(problem),
                     "--heuristic", "hplus"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if not line.startswith("WARNING")]
    assert errors == ["error: state cap 1000 exceeded in exact search"]


def test_h_star_consistency_small_fixture():
    task = delete_relaxation_gap_task()
    for state in reachable_states(task):
        hs = h_star(task, state)
        for aid in range(len(task.actions)):
            nxt = task.apply(task.encode(state), aid)
            if nxt is None:
                continue
            hn = h_star(task, task.decode(nxt))
            if not hn.infinite:
                assert float(hs) <= task.actions[aid].cost + float(hn)


def test_dominance_small_fixtures(gripper_ground):
    tasks = [gripper_ground[0], delete_relaxation_gap_task(), *grounded_twin_pair()]
    for task in tasks:
        for state in reachable_states(task):
            hm, hp, hs = h_max(task, state), h_plus(task, state), h_star(task, state)
            ha, hf = h_add(task, state), h_ff(task, state)
            assert float(hm) <= float(hp) <= float(hs)
            assert float(ha) >= float(hm)
            assert float(hf) >= float(hp)


# ── labels ────────────────────────────────────────────────────────────────

def test_label_dataset_counts(gripper_ground):
    task, _ = gripper_ground
    plan = optimal_plan(task)
    samples = label_dataset(task, plan)
    assert len(samples) == len(plan) + 1
    assert [t for _, t in samples] == [3, 2, 1, 0]
    assert samples[0][0] == task.init


def test_label_dataset_empty_plan():
    task = StripsTask(("p",), (), frozenset({0}), frozenset({0}))
    assert label_dataset(task, []) == [(frozenset({0}), 0)]


def test_label_dataset_targets_strictly_decreasing(gripper_ground):
    task, _ = gripper_ground
    samples = label_dataset(task, optimal_plan(task))
    targets = [t for _, t in samples]
    assert all(a - b == 1 for a, b in zip(targets, targets[1:]))


def test_label_dataset_rejects_invalid_plan(gripper_ground):
    task, _ = gripper_ground
    bad = [len(task.actions) - 1] * 2
    if validate_plan(task, bad).valid:
        pytest.skip("fixture changed")
    with pytest.raises(InvalidPlan):
        label_dataset(task, bad)


def test_infinity_marker_saturates():
    assert INFINITY + 1 is INFINITY
    assert 1 + INFINITY is INFINITY
    assert INFINITY > 10**9
    assert not (INFINITY < INFINITY)
    assert INFINITY == INFINITY
    assert float(INFINITY) == math.inf
    assert HeuristicValue(INFINITY).json_value == "inf"
    assert HeuristicValue(3).json_value == 3
