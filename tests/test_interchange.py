import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planlearn.errors import ParseError
from planlearn.expressiveness import random_unit_task
from planlearn.task import dump_strips

from helpers import load_strips


def test_round_trip_identity(gripper_ground):
    task, _ = gripper_ground
    text = dump_strips(task)
    again = load_strips(text)
    assert again.propositions == task.propositions
    assert again.init == task.init and again.goal == task.goal
    assert len(again.actions) == len(task.actions)
    for a, b in zip(task.actions, again.actions):
        assert (a.name, a.pre, a.add, a.dele, a.cost) == (b.name, b.pre, b.add, b.dele, b.cost)
    assert dump_strips(again) == text


def test_action_names_with_spaces_survive(gripper_ground):
    task, _ = gripper_ground
    again = load_strips(dump_strips(task))
    assert again.actions[2].name.startswith("(pick ")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_round_trip_random_tasks(seed):
    task = random_unit_task(np.random.default_rng(seed))
    assert dump_strips(load_strips(dump_strips(task))) == dump_strips(task)


def test_bad_header_rejected():
    with pytest.raises(ParseError):
        load_strips("something-else 1\n")


def test_truncated_dump_rejected(gripper_ground):
    text = dump_strips(gripper_ground[0])
    with pytest.raises(ParseError):
        load_strips("\n".join(text.splitlines()[:5]))
