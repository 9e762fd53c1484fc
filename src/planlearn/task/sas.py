"""Parser for SAS+ task files, translator format version 3.

Prevail conditions and pre/post pairs are folded into the action's pre/eff
partial assignments. Axioms and conditional effects are rejected.
"""

from __future__ import annotations

from ..errors import ParseError, UnsupportedFeature
from .model import FdrAction, FdrTask, FdrVariable


class _Lines:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next(self, expected: str | None = None) -> str:
        if self.pos >= len(self.lines):
            raise ParseError("unexpected end of file", line=self.pos + 1, expected=expected)
        line = self.lines[self.pos].strip()
        self.pos += 1
        return line

    def expect(self, literal: str):
        line = self.next(expected=literal)
        if line != literal:
            raise ParseError(f"got '{line}'", line=self.pos, expected=literal)

    def next_int(self, what: str) -> int:
        line = self.next(expected=what)
        try:
            return int(line)
        except ValueError:
            raise ParseError(f"got '{line}'", line=self.pos, expected=what) from None

    def next_ints(self, what: str, count: int | None = None) -> list[int]:
        """The integers of the next line; exactly `count` of them unless
        count is None."""
        line = self.next(expected=what)
        try:
            ints = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(f"got '{line}'", line=self.pos, expected=what) from None
        if count is not None and len(ints) != count:
            raise ParseError(f"got '{line}'", line=self.pos,
                             expected=f"{what} of {count} integers")
        return ints


def parse_sas(text: str) -> FdrTask:
    src = _Lines(text)
    src.expect("begin_version")
    version = src.next_int("format version")
    if version != 3:
        raise UnsupportedFeature(f"SAS format version {version}, only 3 supported")
    src.expect("end_version")
    src.expect("begin_metric")
    metric = src.next_int("metric flag")
    src.expect("end_metric")

    n_vars = src.next_int("variable count")
    variables: list[FdrVariable] = []
    for _ in range(n_vars):
        src.expect("begin_variable")
        name = src.next("variable name")
        axiom_layer = src.next_int("axiom layer")
        if axiom_layer != -1:
            raise UnsupportedFeature("axioms (derived variables)")
        size = src.next_int("domain size")
        if size < 1:
            raise ParseError("domain size must be positive", line=src.pos)
        values = tuple(src.next("value name") for _ in range(size))
        src.expect("end_variable")
        variables.append(FdrVariable(name, values))

    def check_fact(v: int, d: int, where: str):
        if not 0 <= v < n_vars:
            raise ParseError(f"{where}: unknown variable {v}", line=src.pos)
        if not 0 <= d < len(variables[v].values):
            raise ParseError(f"{where}: value {d} out of domain range of variable {v}",
                             line=src.pos)

    n_mutexes = src.next_int("mutex group count")
    for _ in range(n_mutexes):
        src.expect("begin_mutex_group")
        size = src.next_int("mutex group size")
        for _ in range(size):
            v, d = src.next_ints("mutex fact", 2)
            check_fact(v, d, "mutex group")
        src.expect("end_mutex_group")

    src.expect("begin_state")
    init = []
    for v in range(n_vars):
        d = src.next_int("initial value")
        check_fact(v, d, "initial state")
        init.append(d)
    src.expect("end_state")

    src.expect("begin_goal")
    n_goal = src.next_int("goal size")
    goal = []
    for _ in range(n_goal):
        v, d = src.next_ints("goal fact", 2)
        check_fact(v, d, "goal")
        goal.append((v, d))
    src.expect("end_goal")

    n_ops = src.next_int("operator count")
    actions: list[FdrAction] = []
    for _ in range(n_ops):
        src.expect("begin_operator")
        name = src.next("operator name")
        pre: dict[int, int] = {}
        eff: dict[int, int] = {}
        n_prevail = src.next_int("prevail count")
        for _ in range(n_prevail):
            v, d = src.next_ints("prevail condition", 2)
            check_fact(v, d, f"operator {name}")
            pre[v] = d
        n_effects = src.next_int("effect count")
        for _ in range(n_effects):
            nums = src.next_ints("pre/post line")
            if len(nums) >= 4 and nums[0] != 0:
                raise UnsupportedFeature("conditional effects")
            if len(nums) != 4:
                raise ParseError("malformed pre/post line", line=src.pos,
                                 expected="4 integers when the condition count is 0")
            _, v, d_pre, d_post = nums
            check_fact(v, 0 if d_pre == -1 else d_pre, f"operator {name}")
            check_fact(v, d_post, f"operator {name}")
            if d_pre != -1:
                pre[v] = d_pre
            eff[v] = d_post
        cost = src.next_int("operator cost")
        src.expect("end_operator")
        actions.append(FdrAction(
            name,
            tuple(sorted(pre.items())),
            tuple(sorted(eff.items())),
            cost if metric == 1 else 1))

    n_axioms = src.next_int("axiom count")
    if n_axioms != 0:
        raise UnsupportedFeature("axioms")

    return FdrTask(tuple(variables), tuple(actions), tuple(init), tuple(sorted(goal)))
