import numpy as np
import pytest

from planlearn.errors import NonFiniteOutput
from planlearn.expressiveness import grounded_twin_pair
from planlearn.graphs import (
    IndexEncoder,
    build_llg,
    build_slg,
    graph_to_dot,
    graph_to_json,
)
from planlearn.task import (
    Atom,
    FdrAction,
    FdrTask,
    FdrVariable,
    LiftedTask,
    Predicate,
    Schema,
    StripsAction,
    StripsTask,
)

from helpers import build_flg, graph_from_json, min_pairwise_distance


def test_slg_single_action_example():
    # one action: 3 preconditions, 2 adds, 2 deletes over 5 propositions
    task = StripsTask(
        ("p0", "p1", "p2", "p3", "p4"),
        (StripsAction("a", frozenset({0, 1, 2}), frozenset({3, 4}), frozenset({0, 2})),),
        frozenset({0, 1, 2}), frozenset({3}))
    g = build_slg(task, task.init)
    assert g.num_nodes == 6
    assert g.label_counts() == {"pre": 3, "add": 2, "del": 2}


def test_slg_empty_task_features():
    task = StripsTask(("p", "q"), (), frozenset({0, 1}), frozenset({0, 1}))
    g = build_slg(task, task.init)
    assert g.num_nodes == 2 and g.num_edges == 0
    assert np.array_equal(g.features, np.ones((2, 3)))


def test_slg_twin_counts():
    p1, _ = grounded_twin_pair()
    g = build_slg(p1, p1.init)
    assert g.num_nodes == 10       # 6 actions + 4 propositions
    # edge count = sum of |pre|+|add|+|del| = (0+1)*2 + (1+1)*4
    assert g.num_edges == 10
    assert g.label_counts() == {"pre": 4, "add": 6, "del": 0}


def test_slg_size_invariants(gripper_ground):
    task, _ = gripper_ground
    g = build_slg(task, task.init)
    assert g.num_nodes == len(task.actions) + len(task.propositions)
    expect = sum(len(a.pre) + len(a.add) + len(a.dele) for a in task.actions)
    assert g.num_edges == expect
    assert sum(g.label_counts().values()) == g.num_edges
    assert g.features.shape[1] == 3


def test_flg_example_counts():
    # 3 variables with domains 2/3/2, one action with 2 pre and 3 eff
    task = FdrTask(
        variables=(FdrVariable("v1", ("a", "b")),
                   FdrVariable("v2", ("c", "d", "e")),
                   FdrVariable("v3", ("f", "g"))),
        actions=(FdrAction("act", pre=((1, 0), (2, 1)), eff=((0, 0), (1, 1), (2, 0))),),
        init=(0, 0, 0),
        goal=((0, 1),))
    g = build_flg(task, task.init)
    assert g.num_nodes == 11       # 3 variables + 7 values + 1 action
    assert g.label_counts() == {"varval": 7, "pre": 2, "eff": 3}
    assert g.features.shape[1] == 5


def test_flg_one_variable_no_actions():
    task = FdrTask((FdrVariable("v", ("x",)),), (), (0,), ())
    g = build_flg(task, task.init)
    assert g.num_nodes == 2
    assert g.label_counts() == {"varval": 1, "pre": 0, "eff": 0}


def test_flg_value_nodes_distinct_per_variable():
    # identical value names on two variables still get distinct nodes
    task = FdrTask(
        (FdrVariable("v1", ("on", "off")), FdrVariable("v2", ("on", "off"))),
        (), (0, 0), ())
    g = build_flg(task, task.init)
    assert g.num_nodes == 6
    assert len(set(g.node_names)) == 6


def _stacking_task():
    preds = (Predicate("on", 2),)
    objects = ("a", "b", "c")
    schema = Schema("noop", ("?x",), frozenset(), frozenset({Atom("on", ("?x", "?x"))}),
                    frozenset())
    init = frozenset({Atom("on", ("a", "b")), Atom("on", ("b", "c"))})
    return LiftedTask(preds, objects, (schema,), init, frozenset())


def test_llg_instance_subgraph():
    task = _stacking_task()
    enc = IndexEncoder(4, seed=0)
    g = build_llg(task, task.init, enc)
    atom_nodes = [i for i, n in enumerate(g.node_names) if n.startswith("(on ")
                  and ":" not in n]
    arg_nodes = [i for i, n in enumerate(g.node_names) if n.startswith("(on ") and ":" in n]
    assert len(atom_nodes) == 2 and len(arg_nodes) == 4
    gamma = set(map(tuple, (sorted((u, v)) for u, v, lab in g.edges if lab == "gamma")))
    pred = g.node_names.index("on")
    for atom in atom_nodes:
        assert tuple(sorted((atom, pred))) in gamma     # atom links to its predicate
    # each ground-argument node links its atom to the object in that slot
    obj_a = g.node_names.index("a")
    first_arg = g.node_names.index("(on a b):1")
    assert tuple(sorted((first_arg, obj_a))) in gamma
    atom_ab = g.node_names.index("(on a b)")
    assert tuple(sorted((atom_ab, first_arg))) in gamma


def test_llg_zero_ary_goal_atom():
    task = LiftedTask((Predicate("done", 0),), (),
                      (Schema("fin", (), frozenset(), frozenset({Atom("done")}), frozenset()),),
                      frozenset(), frozenset({Atom("done")}))
    g = build_llg(task, frozenset(), IndexEncoder(4, seed=0))
    atom = g.node_names.index("(done)")
    gamma_edges = [e for e in g.edges if e[2] == "gamma"]
    assert gamma_edges == [(atom, g.node_names.index("done"), "gamma")]
    # zero-ary schema atom wires predicate -> relay -> action directly
    relay = g.node_names.index("fin:add:(done)")
    add_edges = {tuple(sorted((u, v))) for u, v, lab in g.edges if lab == "add"}
    assert tuple(sorted((relay, g.node_names.index("fin")))) in add_edges


def test_llg_feature_layout(gripper_lifted):
    enc = IndexEncoder(4, seed=3)
    g = build_llg(gripper_lifted, gripper_lifted.init, enc)
    assert g.features.shape[1] == 9
    pred = g.node_names.index("room")
    assert g.features[pred, :5].tolist() == [1, 0, 0, 0, 0]
    assert not g.features[pred, 5:].any()
    arg = next(i for i, n in enumerate(g.node_names) if n.endswith(":1") and "(" in n)
    assert np.allclose(np.linalg.norm(g.features[arg, 5:]), 1.0)


def test_llg_state_change_keeps_schema_subgraph(gripper_lifted, gripper_ground):
    from planlearn.task import ground_state_atoms

    strips, gmap = gripper_ground
    enc = IndexEncoder(4, seed=0)
    s0 = strips.init
    s1 = strips.decode(next(nxt for a in range(len(strips.actions))
                            if (nxt := strips.apply(strips.encode(s0), a)) is not None))
    g0 = build_llg(gripper_lifted, ground_state_atoms(gmap, s0), enc)
    g1 = build_llg(gripper_lifted, ground_state_atoms(gmap, s1), enc)

    def schema_part(g):
        keep = [i for i, n in enumerate(g.node_names) if not n.startswith("(")]
        edges = sorted((g.node_names[u], g.node_names[v], lab) for u, v, lab in g.edges
                       if not g.node_names[u].startswith("(")
                       and not g.node_names[v].startswith("("))
        feats = {g.node_names[i]: g.features[i].tolist() for i in keep}
        return edges, feats

    assert schema_part(g0) == schema_part(g1)


def test_label_partition_general(gripper_ground, gripper_fdr):
    task, _ = gripper_ground
    for g in (build_slg(task, task.init), build_flg(gripper_fdr, gripper_fdr.init)):
        assert sum(g.label_counts().values()) == g.num_edges


def test_builders_pure(gripper_ground):
    task, _ = gripper_ground
    g1 = build_slg(task, task.init)
    g2 = build_slg(task, task.init)
    assert np.array_equal(g1.features, g2.features)
    assert g1.edges == g2.edges


def test_graph_json_round_trip(gripper_ground):
    task, _ = gripper_ground
    g = build_slg(task, task.init)
    again = graph_from_json(graph_to_json(g))
    assert again.kind == g.kind
    assert np.array_equal(again.features, g.features)
    assert again.edges == g.edges
    dot = graph_to_dot(g)
    assert dot.startswith("graph") and "--" in dot
    g.features[0, 0] = np.nan
    with pytest.raises(NonFiniteOutput, match="^out/graph.json not written"):
        graph_to_json(g, "out/graph.json")


# ── index encoder ─────────────────────────────────────────────────────────

def test_pe_unit_norm():
    enc = IndexEncoder(4, seed=0)
    for i in range(1, 1001):
        assert abs(np.linalg.norm(enc.pe(i)) - 1.0) < 1e-9


def test_pe_deterministic_across_instances():
    a, b = IndexEncoder(4, seed=9), IndexEncoder(4, seed=9)
    b.pe(7)  # query order must not matter
    assert np.array_equal(a.pe(3), b.pe(3))
    assert not np.array_equal(a.pe(3), IndexEncoder(4, seed=10).pe(3))


def test_pe_min_pairwise_distance_regression():
    enc = IndexEncoder(4, seed=0)
    dist = min_pairwise_distance(enc, 100)
    assert dist > 0
    assert dist == pytest.approx(0.05111377855160821, rel=1e-12)


def test_pe_rejects_zero_index():
    with pytest.raises(ValueError):
        IndexEncoder(4, seed=0).pe(0)
