"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its runtime and enforcing the stated tolerance and time budget.

Run with: pytest tests/test_acceptance.py -v -s
"""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from planlearn.bench import SuiteSpec, build_training_set, generate
from planlearn.cli import cli_main
from planlearn.expressiveness import (
    delete_relaxation_gap_task,
    grounded_twin_pair,
    lifted_twin_pair,
    model_gap,
    random_unit_task,
    relaxation_program,
    scaling_twin_pair,
    wl_refine,
)
from planlearn.graphs import IndexEncoder, build_llg, build_slg, flg_kind, llg_kind, slg_kind
from planlearn.heuristics import h_add, h_dp, h_ff, h_max, h_plus, h_star
from planlearn.nn import TrainConfig, forward, train
from planlearn.search import ModelHeuristic, SearchConfig, gbfs
from planlearn.task import as_lifted, binary_fdr_view, ground, strips_state_atoms
from planlearn.task.ground import ground_state_atoms

from helpers import blind, build_flg, reachable_states

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "FAIL" if failed else "PASS"
        print(f"\nACCEPTANCE {number:2d} {name}: {status} ({elapsed:.1f}s, budget {budget_s:.0f}s)")
        if not failed:
            assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s ({elapsed:.1f}s)"


def _dp_vs_program(task, bound=64):
    graph = build_slg(task, task.init)
    for which in ("max", "add"):
        oracle = h_dp(task, task.init, which)
        got = relaxation_program(graph, which, rounds=oracle.iterations, bound=bound)
        if oracle.infinite:
            assert got.infinite, (task.name, which)
        else:
            assert oracle.value < bound, "random task violates the bound hypothesis"
            assert got.value == oracle.value, (task.name, which)


def test_criterion_1_program_equals_dp():
    with criterion(1, "exact program == relaxation DP (fixtures + 200 random)", 10):
        for task in grounded_twin_pair():
            _dp_vs_program(task)
        rng = np.random.default_rng(20240001)
        for _ in range(200):
            _dp_vs_program(random_unit_task(rng))


def _three_views(task, seed=0):
    encoder = IndexEncoder(4, seed=seed)
    fdr = binary_fdr_view(task)
    lifted = as_lifted(task)
    return {
        "slg": build_slg(task, task.init),
        "flg": build_flg(fdr, fdr.init),
        "llg": build_llg(lifted, strips_state_atoms(task, task.init), encoder),
    }


def test_criterion_2_grounded_twins():
    with criterion(2, "6-action twins: values 4/3, WL-equal, model gap < 1e-5", 30):
        p1, p2 = grounded_twin_pair()
        assert h_star(p1).value == 4 and h_star(p2).value == 3
        assert h_plus(p1).value == 4 and h_plus(p2).value == 3
        v1, v2 = _three_views(p1), _three_views(p2)
        for kind in ("slg", "flg", "llg"):
            assert wl_refine(v1[kind]).same_colors(wl_refine(v2[kind])), kind
            gap = model_gap([(v1[kind], v2[kind])], models=100, seed=7,
                            layer_count=8, hidden_dim=64)
            assert gap < 1e-5, (kind, gap)


def test_criterion_3_scaling_twins():
    with criterion(3, "scaling twins: exact n^2 / 2n-1, WL-equal, gap < 1e-5", 60):
        for n in (2, 3, 4, 5):
            p1, p2 = scaling_twin_pair(n)
            assert h_star(p1).value == n * n
            assert h_star(p2).value == 2 * n - 1
            v1, v2 = _three_views(p1), _three_views(p2)
            for kind in ("slg", "flg", "llg"):
                assert wl_refine(v1[kind]).same_colors(wl_refine(v2[kind])), (n, kind)
            gap = model_gap([(v1["slg"], v2["slg"])], models=100, seed=n)
            assert gap < 1e-5, (n, gap)


def test_criterion_4_lifted_twins():
    with criterion(4, "lifted twins: finite vs INFINITY, lifted graphs WL-equal", 5):
        t1, t2 = lifted_twin_pair()
        g1, _ = ground(t1, prune_statics=False)
        g2, _ = ground(t2, prune_statics=False)
        assert h_max(g1, g1.init).value == 1
        # additive value sums the two unit-cost goal facts (see ledger note)
        assert h_add(g1, g1.init).value == 2
        assert h_max(g2, g2.init).infinite
        assert h_add(g2, g2.init).infinite
        enc = IndexEncoder(4, seed=0)
        l1 = build_llg(t1, t1.init, enc)
        l2 = build_llg(t2, t2.init, enc)
        assert wl_refine(l1).same_colors(wl_refine(l2))


def test_criterion_5_relaxation_gap():
    with criterion(5, "deletion-sensitive task: h*=2, relaxed optimum 1", 1):
        task = delete_relaxation_gap_task()
        assert h_star(task).value == 2
        assert h_plus(task).value == 1


def test_criterion_6_gradient_check():
    from test_nn_grad import max_relative_gradient_error
    with criterion(6, "analytic gradients vs central differences < 1e-3", 30):
        for kind in (slg_kind(), flg_kind(), llg_kind(4)):
            err = max_relative_gradient_error(kind, "mean", "sum", seed=18)
            assert err < 1e-3, (kind.name, err)


def test_criterion_7_dominance_suite():
    with criterion(7, "h_max <= h+ <= h* and h_FF >= h+ on all fixture states", 60):
        from planlearn.bench.domains import DOMAIN_TEXT, blocksworld_problem, visitall_problem
        from planlearn.task import parse_pddl

        tasks = [*grounded_twin_pair(), delete_relaxation_gap_task(),
                 *scaling_twin_pair(3)]
        g, _ = ground(parse_pddl((FIXTURES / "gripper-domain.pddl").read_text(),
                                 (FIXTURES / "gripper-b1.pddl").read_text()))
        tasks.append(g)
        b, _ = ground(parse_pddl(DOMAIN_TEXT["blocksworld"], blocksworld_problem(3, seed=0)))
        tasks.append(b)
        v, _ = ground(parse_pddl(DOMAIN_TEXT["visitall"], visitall_problem(2)))
        tasks.append(v)
        states_checked = 0
        for task in tasks:
            states = reachable_states(task, state_cap=10_000)
            assert len(states) <= 10_000
            for state in states:
                hm = float(h_max(task, state))
                hp = float(h_plus(task, state))
                hs = float(h_star(task, state))
                hf = float(h_ff(task, state))
                ha = float(h_add(task, state))
                assert hm <= hp <= hs, (task.name, sorted(state))
                assert hf >= hp, (task.name, sorted(state))
                assert ha >= hm, (task.name, sorted(state))
                states_checked += 1
        assert states_checked > 250  # sweep must not be vacuous


@pytest.fixture(scope="module")
def gripper_training_suite():
    return generate(SuiteSpec("gripper", (1, 2, 3, 4, 5, 6), (7,), (8,), seed=0))


def test_criterion_8_learned_heuristic_beats_blind(gripper_training_suite):
    from planlearn.bench.domains import DOMAIN_TEXT, gripper_problem
    from planlearn.task import parse_pddl

    with criterion(8, "learned SLG heuristic: >=90% solved, fewer expansions "
                      "than blind on >=80% of joint solves", 600):
        samples = build_training_set(gripper_training_suite.split("train"), "slg",
                                     encoder_seed=0)
        model, _ = train(samples, TrainConfig(seed=0, layer_count=8, hidden_dim=64,
                                              aggregator="mean", readout="sum"))
        config = SearchConfig(timeout_s=120.0, node_cap=400_000)
        solved = joint = fewer = total = 0
        for balls in (7, 8, 9, 10):
            task = parse_pddl(DOMAIN_TEXT["gripper"], gripper_problem(balls))
            strips, _ = ground(task)
            total += 1
            learned = gbfs(strips, ModelHeuristic(model, strips), config)
            baseline = blind(strips, config)
            if learned.status == "solved":
                solved += 1
            if learned.status == baseline.status == "solved":
                joint += 1
                if learned.expansions < baseline.expansions:
                    fewer += 1
        assert solved / total >= 0.9, f"solved {solved}/{total}"
        assert joint > 0 and fewer / joint >= 0.8, f"fewer on {fewer}/{joint}"


def test_criterion_9_lifted_generalization(gripper_training_suite):
    from planlearn.bench.domains import DOMAIN_TEXT, gripper_problem
    from planlearn.task import parse_pddl

    with criterion(9, "lifted-graph model: mean relative h(s0) error < 25% "
                      "on 2x-larger instances", 600):
        samples = build_training_set(gripper_training_suite.split("train"), "llg",
                                     encoder_seed=0)
        model, _ = train(samples, TrainConfig(seed=0, layer_count=8, hidden_dim=64,
                                              aggregator="mean", readout="sum"))
        encoder = IndexEncoder(4, seed=0)
        errors = []
        for balls in (7, 8, 9, 10, 11, 12):
            task = parse_pddl(DOMAIN_TEXT["gripper"], gripper_problem(balls))
            strips, gmap = ground(task)
            graph = build_llg(task, ground_state_atoms(gmap, strips.init), encoder)
            predicted = max(0.0, forward(model, graph))
            exact = float(h_star(strips))
            errors.append(abs(predicted - exact) / exact)
        mean_error = sum(errors) / len(errors)
        assert mean_error < 0.25, f"mean relative error {mean_error:.1%}"


def test_criterion_10_byte_identical_reruns(tmp_path):
    with criterion(10, "identical seeds give byte-identical primary outputs", 600):
        fixtures = FIXTURES
        outputs = []
        for run_dir in (tmp_path / "r1", tmp_path / "r2"):
            suite = run_dir / "suite"
            assert cli_main(["gen", "--domain", "gripper", "--train", "1:2",
                             "--validate", "3", "--test", "4", "--seed", "11",
                             "--out-dir", str(suite)]) == 0
            assert cli_main(["train", "--suite", str(suite / "manifest.json"),
                             "--kind", "slg", "--layers", "2", "--hidden", "8",
                             "--max-epochs", "12", "--seed", "11",
                             "--out-dir", str(run_dir / "model")]) == 0
            assert cli_main(["solve", "--domain", str(fixtures / "gripper-domain.pddl"),
                             "--problem", str(fixtures / "gripper-b1.pddl"),
                             "--heuristic", "hff", "--seed", "11",
                             "--out-dir", str(run_dir / "solve")]) == 0
            assert cli_main(["theory", "--models", "5", "--random-tasks", "20",
                             "--seed", "11", "--out-dir", str(run_dir / "theory")]) == 0
            assert cli_main(["experiment", "--suite", str(suite / "manifest.json"),
                             "--split", "train", "--heuristics", "blind,hadd",
                             "--seed", "11", "--out-dir", str(run_dir / "exp")]) == 0
            outputs.append({
                "suite": (suite / "train" / "p00.pddl").read_bytes(),
                "manifest": (suite / "manifest.json").read_bytes(),
                "model": (run_dir / "model" / "model.json").read_bytes(),
                "trace": (run_dir / "model" / "trace.csv").read_bytes(),
                "plan": (run_dir / "solve" / "plan.txt").read_bytes(),
                "result": (run_dir / "solve" / "result.json").read_bytes(),
                "verdicts": (run_dir / "theory" / "verdicts.json").read_bytes(),
                "results_csv": (run_dir / "exp" / "results.csv").read_bytes(),
                "coverage_csv": (run_dir / "exp" / "coverage.csv").read_bytes(),
            })
        first, second = outputs
        for name in first:
            assert first[name] == second[name], f"{name} differs between identical runs"
