import pytest

from planlearn.errors import GroundingExplosion
from planlearn.expressiveness import lifted_twin_pair
from planlearn.task import Atom, LiftedTask, Predicate, Schema, ground
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
    # move(x, x) deletes what it adds once bound; dropped with a warning
    task = LiftedTask(
        predicates=(Predicate("at", 1),),
        objects=("a", "b"),
        schemas=(Schema("move", ("?f", "?t"),
                        frozenset({Atom("at", ("?f",))}),
                        frozenset({Atom("at", ("?t",))}),
                        frozenset({Atom("at", ("?f",))})),),
        init=frozenset({Atom("at", ("a",))}),
        goal=frozenset({Atom("at", ("b",))}))
    with caplog.at_level("WARNING"):
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
