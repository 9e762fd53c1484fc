import pytest

from planlearn.bench import (
    SuiteSpec,
    build_training_set,
    default_suite,
    generate,
    load_suite,
)
from planlearn.bench.domains import (
    DOMAIN_TEXT,
    blocksworld_problem,
    gripper_problem,
    spanner_problem,
    visitall_problem,
)
from planlearn.errors import InvalidSize
from planlearn.heuristics import h_star, optimal_plan
from planlearn.task import Atom, ground, parse_pddl

from helpers import write_suite


def _task(domain, text):
    return parse_pddl(DOMAIN_TEXT[domain], text)


def test_gripper_goal_count():
    task = _task("gripper", gripper_problem(3))
    assert len(task.goal) == 3
    assert all(a.predicate == "at" for a in task.goal)


def test_blocksworld_solvable_and_seeded():
    text = blocksworld_problem(3, seed=4)
    assert text == blocksworld_problem(3, seed=4)
    assert text != blocksworld_problem(3, seed=5)
    strips, _ = ground(_task("blocksworld", text))
    assert not h_star(strips).infinite


def test_visitall_grid():
    task = _task("visitall", visitall_problem(3))
    assert sum(1 for a in task.goal if a.predicate == "visited") == 9
    strips, _ = ground(task)
    assert h_star(strips).value == 8  # snake walk covers the 3x3 grid in 8 moves
    # robot starts on a visited corner cell
    assert Atom("visited", ("c0-0",)) in task.init


def test_spanner_solvable():
    task = _task("spanner", spanner_problem(3, seed=2))
    strips, _ = ground(task)
    assert not h_star(strips).infinite


def test_all_domains_round_trip_and_solvable():
    cases = [("gripper", gripper_problem(2)), ("blocksworld", blocksworld_problem(4, seed=1)),
             ("visitall", visitall_problem(2)), ("spanner", spanner_problem(2, seed=1))]
    for domain, text in cases:
        task = _task(domain, text)
        strips, _ = ground(task)
        assert not h_star(strips).infinite, domain


def test_generator_size_validation():
    with pytest.raises(InvalidSize):
        gripper_problem(0)
    with pytest.raises(InvalidSize):
        visitall_problem(1)


def test_suite_split_invariant():
    with pytest.raises(InvalidSize):
        SuiteSpec("gripper", (1, 2, 8), (4,), (5, 6), seed=0)
    spec = SuiteSpec("gripper", (1, 2), (3,), (5, 6), seed=0)
    assert spec.train == (1, 2)


def test_default_suites_valid():
    for domain in ("gripper", "blocksworld", "visitall", "spanner"):
        spec = default_suite(domain)
        assert max(spec.train) < min(spec.test)


def test_repeated_sizes_get_distinct_instances():
    spec = SuiteSpec("blocksworld", (4, 4, 4), (5,), (6,), seed=0)
    suite = generate(spec)
    texts = [i.problem_text for i in suite.split("train")]
    assert len(set(texts)) == 3


def test_generate_write_load_round_trip(tmp_path):
    spec = SuiteSpec("gripper", (1, 2), (3,), (4,), seed=9)
    suite = generate(spec)
    root = write_suite(suite, tmp_path / "suite")
    again = load_suite(root / "manifest.json")
    assert again.spec == spec
    assert [i.name for i in again.instances] == [i.name for i in suite.instances]
    assert [i.problem_text for i in again.instances] == \
           [i.problem_text for i in suite.instances]


def test_generation_byte_deterministic(tmp_path):
    spec = SuiteSpec("blocksworld", (3, 4), (5,), (6,), seed=3)
    a = write_suite(generate(spec), tmp_path / "a")
    b = write_suite(generate(spec), tmp_path / "b")
    for rel in ("manifest.json", "domain.pddl", "train/p00.pddl", "test/p00.pddl"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_training_set_sample_counts():
    suite = generate(SuiteSpec("gripper", (1, 2), (3,), (4,), seed=0))
    train = suite.split("train")
    samples = build_training_set(train, "slg", encoder_seed=0)
    expected = 0
    for inst in train:
        strips, _ = ground(inst.task)
        expected += len(optimal_plan(strips)) + 1
    assert len(samples) == expected
    assert all(s.target >= 0 for s in samples)


def test_training_set_trivial_task():
    domain = "(define (domain d) (:requirements :strips) (:predicates (p)))"
    problem = "(define (problem x) (:domain d) (:init (p)) (:goal (p)))"
    from planlearn.bench.suite import Instance
    inst = Instance("trivial", "train", 1, problem, parse_pddl(domain, problem))
    samples = build_training_set([inst], "slg")
    assert len(samples) == 1 and samples[0].target == 0.0


@pytest.mark.parametrize("kind", ["slg", "flg", "llg"])
def test_training_set_kinds(kind):
    suite = generate(SuiteSpec("gripper", (1,), (2,), (3,), seed=0))
    samples = build_training_set(suite.split("train"), kind, encoder_seed=1)
    assert samples and samples[0].graph.kind.name == kind
