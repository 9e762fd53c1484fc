import pytest

from planlearn.expressiveness import run_theory_checks
from planlearn.expressiveness.pairs import lifted_twin_pair, scaling_twin_pair
from planlearn.expressiveness.report import GAP_GROUP, _views, model_gap
from planlearn.graphs import IndexEncoder, build_llg, build_slg
from planlearn.expressiveness import grounded_twin_pair

from helpers import reference_model_gap


def test_all_checks_pass_and_are_json_ready():
    verdicts = run_theory_checks(seed=3, models=10, random_tasks=25)
    assert [v.check for v in verdicts] == [
        "program-dp-equivalence", "lifted-twins", "grounded-twins",
        "scaling-twins", "relaxation-gap"]
    for v in verdicts:
        assert v.passed, v.check
        d = v.to_json_dict()
        assert set(d) == {"check", "pair_id", "graph_kind", "wl_equal",
                          "h_values", "model_gap", "pass"}
        assert d["pass"] is True


def test_model_gap_is_tiny_on_twins_and_seeded():
    p1, p2 = grounded_twin_pair()
    g1, g2 = build_slg(p1, p1.init), build_slg(p2, p2.init)
    a = model_gap([(g1, g2)], models=5, seed=1)
    b = model_gap([(g1, g2)], models=5, seed=1)
    assert a == b < 1e-9
    assert model_gap([(g1, g1)], models=3, seed=2) == 0.0


def _gap_pairs():
    """(id, pairs): the pair lists the theory run measures model gaps on,
    and lists holding pairs of unrelated graphs."""
    twins = [_views(task, seed=3) for task in grounded_twin_pair()]
    cases = [(f"grounded-{kind}", [(twins[0][kind], twins[1][kind])])
             for kind in ("slg", "flg", "llg")]
    encoder = IndexEncoder(4, seed=3)
    cases.append(("lifted-llg",
                  [tuple(build_llg(t, t.init, encoder) for t in lifted_twin_pair())]))
    scaling = [[_views(task, seed=3) for task in scaling_twin_pair(n)] for n in (2, 3, 4, 5)]
    cases.append(("scaling5-slg", [(scaling[3][0]["slg"], scaling[3][1]["slg"])]))
    cases.append(("scaling2to5-slg", [(v1["slg"], v2["slg"]) for v1, v2 in scaling]))
    # Twins give gaps of 0 or a few ulps; unrelated graphs give every model
    # its own gap, so a model or a pair left out or evaluated wrongly shows.
    unrelated = (twins[0]["slg"], scaling[3][0]["slg"])
    cases.append(("unrelated-slg", [unrelated]))
    cases.append(("twins-and-unrelated-slg", [(twins[0]["slg"], twins[1]["slg"]), unrelated,
                                              (scaling[0][1]["slg"], twins[1]["slg"])]))
    return cases


GAP_PAIRS = _gap_pairs()


@pytest.mark.parametrize("models", [1, GAP_GROUP - 1, GAP_GROUP + 1, 100])
@pytest.mark.parametrize("pairs", [pairs for _, pairs in GAP_PAIRS],
                         ids=[name for name, _ in GAP_PAIRS])
def test_model_gap_equals_the_per_model_reference(pairs, models):
    """Grouping the models and the pairs changes no value: the gap is exactly
    the one the per-model loop finds pair by pair, whatever the last group's
    size."""
    assert model_gap(pairs, models, seed=5) == reference_model_gap(pairs, models, seed=5)


def test_model_gap_equals_the_reference_at_the_acceptance_width():
    _, pairs = GAP_PAIRS[0]
    got = model_gap(pairs, models=100, seed=7, layer_count=8, hidden_dim=64)
    assert got == reference_model_gap(pairs, models=100, seed=7, layer_count=8, hidden_dim=64)
