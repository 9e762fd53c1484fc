import os
import subprocess
import sys
from pathlib import Path

import pytest

from planlearn import bench
from planlearn.errors import GroundingExplosion
from planlearn.expressiveness import lifted_twin_pair
from planlearn.task import Atom, LiftedTask, Predicate, Schema, ground, parse_pddl
from planlearn.task.ground import static_predicates


def test_gripper_b1_grounds_to_ten_actions(gripper_ground):
    task, gmap = gripper_ground
    names = sorted(a.name for a in task.actions)
    assert len(task.actions) == 10
    assert sum(n.startswith("(pick") for n in names) == 4
    assert sum(n.startswith("(drop") for n in names) == 4
    assert sum(n.startswith("(move") for n in names) == 2


def test_static_predicates_pruned_from_ground_task(gripper_ground, gripper_lifted):
    task, gmap = gripper_ground
    assert gmap.static_predicates == {"room", "ball", "gripper"}
    for prop in task.propositions:
        assert not any(prop.startswith(f"({s} ") for s in gmap.static_predicates)
    assert static_predicates(gripper_lifted) == {"room", "ball", "gripper"}


def test_empty_parameter_schema_gives_one_action():
    task = LiftedTask(
        predicates=(Predicate("p", 0), Predicate("q", 0)),
        objects=("a", "b", "c"),
        schemas=(Schema("fire", (), frozenset({Atom("p")}),
                        frozenset({Atom("q")}), frozenset()),),
        init=frozenset({Atom("p")}),
        goal=frozenset({Atom("q")}))
    strips, _ = ground(task)
    assert len(strips.actions) == 1


def test_twin_pair_grounds_to_four_actions_each():
    for task in lifted_twin_pair():
        strips, gmap = ground(task, prune_statics=False)
        assert len(strips.actions) == 4
        assert {gmap.action_bindings[i][0] for i in range(4)} == {"a"}


def test_conflicting_instantiation_rejected(caplog):
    # move(x, x) deletes what it adds once bound; dropped and reported at INFO
    task = LiftedTask(
        predicates=(Predicate("at", 1),),
        objects=("a", "b"),
        schemas=(Schema("move", ("?f", "?t"),
                        frozenset({Atom("at", ("?f",))}),
                        frozenset({Atom("at", ("?t",))}),
                        frozenset({Atom("at", ("?f",))})),),
        init=frozenset({Atom("at", ("a",))}),
        goal=frozenset({Atom("at", ("b",))}))
    with caplog.at_level("INFO"):
        strips, _ = ground(task)
    assert len(strips.actions) == 2
    assert any("add and delete overlap" in r.message for r in caplog.records)


def test_grounding_explosion_cap():
    task = LiftedTask(
        predicates=(Predicate("r", 3),),
        objects=tuple(f"o{i}" for i in range(30)),
        schemas=(Schema("a", ("?x", "?y", "?z"), frozenset(),
                        frozenset({Atom("r", ("?x", "?y", "?z"))}), frozenset()),),
        init=frozenset(),
        goal=frozenset({Atom("r", ("o0", "o1", "o2"))}))
    with pytest.raises(GroundingExplosion):
        ground(task, cap=1000)


def test_grounding_map_provenance(gripper_ground):
    task, gmap = gripper_ground
    for i, action in enumerate(task.actions):
        schema, binding = gmap.action_bindings[i]
        assert action.name == f"({schema} {' '.join(binding)})"
    for p, name in enumerate(task.propositions):
        assert str(gmap.prop_atoms[p]) == name


@pytest.mark.parametrize("domain, size, expected", [
    ("gripper", 3, ["rejected 2 binding(s) of move, first ('rooma', 'rooma')"]),
    ("blocksworld", 4, ["rejected 4 binding(s) of stack, first ('b1', 'b1')",
                        "rejected 4 binding(s) of unstack, first ('b1', 'b1')"]),
])
def test_rejected_bindings_are_reported_once_per_schema(caplog, domain, size, expected):
    """Bindings whose add and delete lists overlap (gripper's move from a
    room to itself, blocksworld's stack and unstack of a block on itself)
    give one INFO line per schema with their count, and no warning."""
    text = bench.GENERATORS[domain](size, seed=0)
    with caplog.at_level("INFO", logger="planlearn.task.ground"):
        ground(parse_pddl(bench.DOMAIN_TEXT[domain], text))
    assert [r.levelname for r in caplog.records] == ["INFO"] * len(expected)
    assert [r.getMessage() for r in caplog.records] == [
        f"{line}: add and delete overlap after binding" for line in expected]


def test_ground_gripper_writes_nothing_to_stderr(tmp_path):
    """`ground` run as a program on a generated gripper instance prints
    its summary and nothing on stderr."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    suite = tmp_path / "suite"
    for argv in (["gen", "--domain", "gripper", "--train", "1", "--test", "3",
                  "--out-dir", str(suite)],
                 ["ground", "--domain", str(suite / "domain.pddl"),
                  "--problem", str(suite / "test" / "p00.pddl"),
                  "--out-dir", str(tmp_path / "out")]):
        done = subprocess.run([sys.executable, "-m", "planlearn.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0 and done.stderr == "", done.stderr
