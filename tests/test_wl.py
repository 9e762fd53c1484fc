import numpy as np

from planlearn.expressiveness import (
    grounded_twin_pair,
    lifted_twin_pair,
    scaling_twin_pair,
    wl_refine,
)
from planlearn.graphs import IndexEncoder, LearningGraph, build_llg, build_slg, slg_kind
from planlearn.heuristics import h_star
from planlearn.task import as_lifted, binary_fdr_view, strips_state_atoms

from helpers import build_flg, wl_equal


def _chain_graph(edge_pairs, n):
    features = np.zeros((n, 3))
    features[:, 0] = 1.0
    return LearningGraph(slg_kind(), features, [(u, v, "pre") for u, v in edge_pairs])


def test_isomorphic_graphs_equal():
    path1 = _chain_graph([(0, 1), (1, 2), (2, 3)], 4)
    path2 = _chain_graph([(3, 2), (2, 1), (1, 0)], 4)
    assert wl_refine(path1).same_colors(wl_refine(path2))
    assert wl_equal(path1, path2)


def test_path_vs_star_differ():
    path = _chain_graph([(0, 1), (1, 2), (2, 3)], 4)
    star = _chain_graph([(0, 1), (0, 2), (0, 3)], 4)
    assert not wl_refine(path).same_colors(wl_refine(star))
    assert not wl_equal(path, star)


def test_twins_wl_equal_but_h_star_differs():
    p1, p2 = grounded_twin_pair()
    g1 = build_slg(p1, p1.init)
    g2 = build_slg(p2, p2.init)
    assert wl_refine(g1).same_colors(wl_refine(g2))
    assert wl_equal(g1, g2)  # hash mode cross-checked exactly
    assert h_star(p1).value != h_star(p2).value


def test_twins_wl_equal_across_encodings():
    p1, p2 = grounded_twin_pair()
    enc = IndexEncoder(4, seed=0)
    views = []
    for task in (p1, p2):
        fdr = binary_fdr_view(task)
        lifted = as_lifted(task)
        views.append({
            "slg": build_slg(task, task.init),
            "flg": build_flg(fdr, fdr.init),
            "llg": build_llg(lifted, strips_state_atoms(task, task.init), enc),
        })
    for kind in ("slg", "flg", "llg"):
        assert wl_refine(views[0][kind]).same_colors(wl_refine(views[1][kind])), kind


def test_lifted_twins_wl_equal():
    t1, t2 = lifted_twin_pair()
    enc = IndexEncoder(4, seed=1)
    g1 = build_llg(t1, t1.init, enc)
    g2 = build_llg(t2, t2.init, enc)
    assert sorted(map(tuple, g1.features.tolist())) == sorted(map(tuple, g2.features.tolist()))
    assert wl_refine(g1).same_colors(wl_refine(g2))
    assert wl_equal(g1, g2)


def test_scaling_twins_wl_equal():
    for n in (2, 3, 4):
        p1, p2 = scaling_twin_pair(n)
        g1 = build_slg(p1, p1.init)
        g2 = build_slg(p2, p2.init)
        assert wl_refine(g1).same_colors(wl_refine(g2)), n


def test_refinement_rounds_bounded(gripper_ground):
    task, _ = gripper_ground
    g = build_slg(task, task.init)
    hist = wl_refine(g)
    assert hist.rounds <= g.num_nodes + g.num_edges


def test_histogram_total_counts(gripper_ground):
    task, _ = gripper_ground
    g = build_slg(task, task.init)
    hist = wl_refine(g)
    assert sum(c for _, c in hist.counts) == g.num_nodes + g.num_edges
