"""Task transformations that only the tests need."""

from planlearn.task import StripsTask


def delete_relax(task: StripsTask) -> StripsTask:
    """The delete relaxation: same task with empty delete lists."""
    actions = tuple(
        type(a)(a.name, a.pre, a.add, frozenset(), a.cost) for a in task.actions)
    return StripsTask(task.propositions, actions, task.init, task.goal,
                      name=task.name + "+")
