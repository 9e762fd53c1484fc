"""Differential test: the template builders behind `state_graphs` give the
same graph as the full per-state builders they replaced (kept as the
reference in helpers.py), at every reachable state of the fixtures and of
random tasks; lifted graphs also give the reference network's outputs, bit
for bit, while sharing the schema subgraph's storage."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planlearn import bench
from planlearn.expressiveness import (
    grounded_twin_pair,
    lifted_twin_pair,
    random_unit_task,
    wl_refine,
)
from planlearn.graphs import IndexEncoder, LearningGraph, build_llg, build_slg, core
from planlearn.graphs import builders, state_graphs
from planlearn.nn import forward, init_model
from planlearn.nn.model import AGGREGATORS
from planlearn.task import (
    Atom,
    binary_fdr_view,
    fdr_state_to_strips,
    ground,
    ground_state_atoms,
    parse_pddl,
    strips_view,
)

from helpers import (
    build_flg,
    reachable_states,
    reference_flg,
    reference_forward_backward,
    reference_llg,
    reference_slg,
)

SCHEMA_LABELS = ("nu", "pre", "add", "del")


def assert_same_graph(got, want):
    assert got.kind == want.kind
    assert got.node_names == want.node_names
    assert np.array_equal(got.features, want.features)
    assert got.features.dtype == want.features.dtype
    assert got.features.tobytes() == want.features.tobytes()
    assert got.color_keys == want.color_keys
    assert [type(x) for key in got.color_keys for x in key] == \
        [type(x) for key in want.color_keys for x in key]
    assert got.seed == want.seed
    assert got.edges == want.edges
    for label in want.kind.labels:
        for a, b in zip(got.adjacency(label), want.adjacency(label)):
            assert np.array_equal(a, b)
    assert wl_refine(got) == wl_refine(want)


def assert_matches_reference(kind, task, states):
    """slg graphs of STRIPS states, or flg graphs of FDR value tuples."""
    reference = reference_slg if kind == "slg" else reference_flg
    graph_of = state_graphs(kind, task) if kind == "slg" else builders.flg_graphs(task)
    for s in states:
        assert_same_graph(graph_of(s), reference(task, s))


def _tasks(gripper_ground):
    strips, _ = gripper_ground
    return {"gripper": strips, **dict(zip(("twin1", "twin2"), grounded_twin_pair()))}


def test_slg_matches_reference_on_fixtures(gripper_ground):
    for task in _tasks(gripper_ground).values():
        assert_matches_reference("slg", task, reachable_states(task))
        assert_matches_reference("slg", task, [frozenset(), task.goal])


def test_flg_matches_reference_on_fixtures(gripper_ground, gripper_fdr):
    tasks = [gripper_fdr] + [binary_fdr_view(t) for t in _tasks(gripper_ground).values()]
    for task in tasks:
        assert_matches_reference("flg", task, reachable_states(task))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000), st.integers(0, 2**8 - 1))
def test_builders_match_reference_on_random_tasks(seed, subset):
    task = random_unit_task(np.random.default_rng(seed))
    arbitrary = frozenset(p for p in range(len(task.propositions)) if subset >> p & 1)
    assert_matches_reference("slg", task, reachable_states(task) + [arbitrary])
    fdr = binary_fdr_view(task)
    assert_matches_reference("flg", fdr, reachable_states(fdr))


def test_invalid_states_still_raise(gripper_ground, gripper_fdr):
    strips, _ = gripper_ground
    outside = frozenset({len(strips.propositions)})
    for build in (build_slg, reference_slg):
        with pytest.raises(ValueError, match="outside the task"):
            build(strips, outside)
    for build in (build_flg, reference_flg):
        with pytest.raises(ValueError, match="every variable"):
            build(gripper_fdr, gripper_fdr.init[:-1])
    # The full build left an out-of-domain variable without a state bit; the
    # template rewrite would set another variable's value, so it raises.
    for d in (-1, len(gripper_fdr.variables[0].values)):
        with pytest.raises(ValueError, match="outside the domain"):
            build_flg(gripper_fdr, (d,) + gripper_fdr.init[1:])


def test_state_graphs_rejects_mismatched_inputs(gripper_ground, gripper_fdr):
    """Every encoding takes the STRIPS task; flg's finite-domain source must
    be the task that STRIPS task is the view of."""
    strips, _ = gripper_ground
    for kind in ("slg", "flg", "llg"):
        with pytest.raises(TypeError):
            state_graphs(kind, gripper_fdr)
    with pytest.raises(ValueError, match="not the view"):
        state_graphs("flg", strips, fdr=gripper_fdr)


def test_flg_strips_states_are_checked(gripper_ground, gripper_fdr):
    """A set of proposition ids that stands for no state of the flg source
    raises, for the binary view as for a SAS task's view."""
    strips, _ = gripper_ground
    with pytest.raises(ValueError, match="outside the task"):
        state_graphs("flg", strips)(frozenset({len(strips.propositions)}))
    graph_of = state_graphs("flg", strips_view(gripper_fdr), fdr=gripper_fdr)
    init = fdr_state_to_strips(gripper_fdr, gripper_fdr.init)
    with pytest.raises(ValueError, match="every variable"):
        graph_of(init - {min(init)})
    with pytest.raises(TypeError):
        state_graphs("llg", strips)
    with pytest.raises(ValueError, match="unknown graph kind"):
        state_graphs("xlg", strips)


# ── lifted encoding ───────────────────────────────────────────────────────

def _lifted_cases(gripper_lifted, gripper_ground):
    """(lifted task, ground task, grounding map) of the gripper fixture and
    of a generated blocksworld instance."""
    strips, gmap = gripper_ground
    blocks = parse_pddl(bench.DOMAIN_TEXT["blocksworld"], bench.GENERATORS["blocksworld"](4, seed=1))
    return [(gripper_lifted, strips, gmap), (blocks, *ground(blocks))]


def assert_llg_matches_reference(lifted, atom_states, encoder):
    models = [init_model(build_llg(lifted, frozenset(), encoder).kind, 2, 8, aggregator,
                         seed=i) for i, aggregator in enumerate(AGGREGATORS)]
    for atoms, got in atom_states:
        want = reference_llg(lifted, atoms, encoder)
        assert_same_graph(got, want)
        assert_same_graph(build_llg(lifted, atoms, encoder), want)
        for model in models:   # the got graphs share the schema labels' plan entries
            want_out, _ = reference_forward_backward(model, [want], np.ones(1))
            assert np.float64(forward(model, got)).tobytes() == want_out[0].tobytes()


def test_llg_matches_reference_on_every_reachable_state(gripper_lifted, gripper_ground):
    encoder = IndexEncoder(4, seed=5)
    for lifted, strips, gmap in _lifted_cases(gripper_lifted, gripper_ground):
        graph_of = state_graphs("llg", strips, lifted, gmap, encoder)
        states = reachable_states(strips) + [frozenset()]
        assert len(states) > 5
        assert_llg_matches_reference(
            lifted, [(ground_state_atoms(gmap, s), graph_of(s)) for s in states], encoder)


def test_llg_matches_reference_on_lifted_twins():
    """Including a task whose empty state and goal give no instance node."""
    encoder = IndexEncoder(3, seed=1)
    twin1, twin2 = lifted_twin_pair()
    for lifted in (twin1, twin2, replace(twin1, goal=frozenset())):
        graph_of = builders.llg_graphs(lifted, encoder)
        atom_states = [(s, graph_of(s)) for s in (lifted.init, frozenset(), lifted.goal)]
        assert_llg_matches_reference(lifted, atom_states, encoder)


def test_llg_unknown_symbols_raise_as_before(gripper_lifted):
    encoder = IndexEncoder(4, seed=0)
    graph_of = builders.llg_graphs(gripper_lifted, encoder)
    for atom in (Atom("nosuch", ("ball1",)), Atom("at", ("nowhere", "rooma")),
                 Atom("at", ("ball1", "nowhere"))):
        state = gripper_lifted.init | {atom}
        with pytest.raises(KeyError) as want:
            reference_llg(gripper_lifted, state, encoder)
        for build in (graph_of, lambda s: build_llg(gripper_lifted, s, encoder)):
            with pytest.raises(KeyError) as got:
                build(state)
            assert got.value.args == want.value.args
    # a refused state leaves the bound template as it was
    assert_same_graph(graph_of(gripper_lifted.init),
                      reference_llg(gripper_lifted, gripper_lifted.init, encoder))


def test_llg_states_share_the_schema_storage(gripper_lifted, gripper_ground, monkeypatch):
    """Per state only the instance part is built: no build_llg call, schema
    edges neither checked nor indexed again, and the schema labels'
    adjacency arrays and plan entries shared by identity."""
    strips, gmap = gripper_ground
    checked, indexed = [], []
    check, index = LearningGraph._check_edges, core._index
    monkeypatch.setattr(LearningGraph, "_check_edges",
                        lambda g, edges, first: checked.extend(edges) or check(g, edges, first))
    monkeypatch.setattr(core, "_index",
                        lambda labels, edges: indexed.extend(edges) or index(labels, edges))
    graph_of = state_graphs("llg", strips, gripper_lifted, gmap, IndexEncoder(4, seed=0))
    template_edges = len(checked)
    monkeypatch.setattr(builders, "build_llg", None)
    states = reachable_states(strips)
    graph_of(states[0])     # the first state indexes the template's edges, once
    checked.clear()
    indexed.clear()
    first, second = graph_of(states[1]), graph_of(states[2])
    assert {lab for _, _, lab in checked + indexed} == {"gamma"}
    assert len(checked) == first.num_edges + second.num_edges - 2 * template_edges
    model = init_model(first.kind, 2, 8)
    forward(model, first)
    forward(model, second)
    for lab in SCHEMA_LABELS:
        assert all(a is b for a, b in zip(first.adjacency(lab), second.adjacency(lab)))
        assert first._plans[lab][8] is second._plans[lab][8] is not None
    assert first.adjacency("gamma")[0] is not second.adjacency("gamma")[0]
    assert first._plans["gamma"][8] is not second._plans["gamma"][8]
