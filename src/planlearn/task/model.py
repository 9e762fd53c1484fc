"""Task formalisms: lifted, propositional (STRIPS) and finite-domain (FDR).

Search, labels and oracles run on one kind of state: a STRIPS search state
is one Python int with bit p set for proposition p. `StripsTask.encode`
turns a frozenset of proposition ids into its packed int and `decode` turns
it back. STRIPS task fields (`init`, `goal`, action sets) stay frozensets,
and so do the states taken by heuristics, graph builders and the CLI;
lifted states are frozensets of ground atoms. An FDR task is searched
through `strips_view`, whose state space is isomorphic to its own with the
same action ids, names and costs; only the finite-domain graph builder
reads FDR value tuples (see `strips_state_to_fdr`).

A StripsTask carries the successor semantics on search states:
`apply(state, aid)` returns the successor, or None when the action is
inapplicable, `is_goal(state)` tests the goal and `successors(state)`
returns (action id, successor) pairs in action order, which gbfs's
first-in-first-out tie-break (and with it breadth-first optimality of blind
search) relies on. An action applies when `state & pre == pre` and leads to
`(state & keep) | add`, with keep the complement of its delete mask; the
masks are compiled once per task. `successors` does not test the actions
one by one: it ORs, per group of 4 propositions, a 16-entry table of the
actions blocked by the group's missing facts, and walks the set bits of the
unblocked actions from the lowest, which yields them in ascending action id
(see `PackedMasks`).

All task objects are immutable after construction and safe to share across
threads; derived tables (a StripsTask's relaxation incidence and packed
masks, an FdrTask's value offsets) are computed on first use and kept,
derived only from the immutable fields.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import ArityMismatch, UndeclaredSymbol, UnknownActionId


@dataclass(frozen=True)
class Atom:
    """A predicate applied to terms (objects or schema variables)."""

    predicate: str
    args: tuple[str, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return f"({self.predicate})"
        return f"({self.predicate} {' '.join(self.args)})"


@dataclass(frozen=True)
class Predicate:
    name: str
    arity: int


@dataclass(frozen=True)
class Schema:
    """Action schema: parameters plus precondition/add/delete atom sets.

    Atoms may mention parameters or task objects. Every variable used in the
    body must appear in params.
    """

    name: str
    params: tuple[str, ...]
    pre: frozenset[Atom]
    add: frozenset[Atom]
    dele: frozenset[Atom]
    cost: int = 1


@dataclass(frozen=True)
class LiftedTask:
    predicates: tuple[Predicate, ...]
    objects: tuple[str, ...]
    schemas: tuple[Schema, ...]
    init: frozenset[Atom]
    goal: frozenset[Atom]

    def __post_init__(self):
        arities = {p.name: p.arity for p in self.predicates}
        objs = set(self.objects)
        for where, atoms in (("init", self.init), ("goal", self.goal)):
            for atom in atoms:
                _check_ground_atom(atom, arities, objs, where)
        for schema in self.schemas:
            scope = objs | set(schema.params)
            for atoms in (schema.pre, schema.add, schema.dele):
                for atom in atoms:
                    if atom.predicate not in arities:
                        raise UndeclaredSymbol(
                            f"schema {schema.name} uses undeclared predicate {atom.predicate}")
                    if len(atom.args) != arities[atom.predicate]:
                        raise ArityMismatch(
                            f"{atom} in schema {schema.name}: predicate "
                            f"{atom.predicate} has arity {arities[atom.predicate]}")
                    for term in atom.args:
                        if term not in scope:
                            raise UndeclaredSymbol(
                                f"schema {schema.name} uses unknown term {term} in {atom}")


def _check_ground_atom(atom: Atom, arities: dict[str, int], objs: set[str], where: str):
    if atom.predicate not in arities:
        raise UndeclaredSymbol(f"{where} atom {atom}: undeclared predicate {atom.predicate}")
    if len(atom.args) != arities[atom.predicate]:
        raise ArityMismatch(
            f"{where} atom {atom}: predicate {atom.predicate} "
            f"has arity {arities[atom.predicate]}, got {len(atom.args)}")
    for term in atom.args:
        if term not in objs:
            raise UndeclaredSymbol(f"{where} atom {atom}: undeclared object {term}")


@dataclass(frozen=True)
class StripsAction:
    name: str
    pre: frozenset[int]
    add: frozenset[int]
    dele: frozenset[int]
    cost: int = 1

    def __post_init__(self):
        if self.add & self.dele:
            raise ValueError(f"action {self.name}: add and delete sets overlap")
        if self.cost < 0:
            raise ValueError(f"action {self.name}: negative cost")


@dataclass(frozen=True)
class StripsTask:
    """Propositional task. Proposition ids are 0..len(propositions)-1."""

    propositions: tuple[str, ...]
    actions: tuple[StripsAction, ...]
    init: frozenset[int]
    goal: frozenset[int]
    name: str = "strips"

    def __post_init__(self):
        n = len(self.propositions)
        for label, s in (("init", self.init), ("goal", self.goal)):
            if not all(0 <= p < n for p in s):
                raise ValueError(f"{label} mentions proposition id outside 0..{n - 1}")
        for a in self.actions:
            for s in (a.pre, a.add, a.dele):
                if not all(0 <= p < n for p in s):
                    raise ValueError(f"action {a.name} mentions unknown proposition id")

    def encode(self, state: frozenset[int]) -> int:
        """The packed search state of a set of proposition ids."""
        bits = 0
        for p in state:
            bits |= 1 << p
        return bits

    def decode(self, state: int) -> frozenset[int]:
        """The proposition ids set in a packed search state."""
        props = []
        while state:
            low = state & -state
            props.append(low.bit_length() - 1)
            state ^= low
        return frozenset(props)

    def apply(self, state: int, action_id: int) -> int | None:
        """Successor state, or None when the action is inapplicable."""
        _, pre, keep, add = self.masks.actions[action_id]
        if state & pre != pre:
            return None
        return (state & keep) | add

    def is_goal(self, state: int) -> bool:
        goal = self.masks.goal
        return state & goal == goal

    def successors(self, state: int) -> list[tuple[int, int]]:
        """All (action_id, successor) pairs applicable in state, in action order."""
        masks = self.masks
        missing = masks.every ^ state
        blocked = 0
        for table in masks.blocked:
            blocked |= table[missing & 15]
            missing >>= 4
        usable = masks.all_actions & ~blocked
        effects = masks.effects
        out = []
        while usable:
            low = usable & -usable
            aid = low.bit_length() - 1
            keep, add = effects[aid]
            out.append((aid, (state & keep) | add))
            usable ^= low
        return out

    @cached_property
    def masks(self) -> PackedMasks:
        """Action and goal bit masks, built on first use and kept for the
        task's lifetime (outside eq and hash)."""
        return PackedMasks.of(self)

    @cached_property
    def incidence(self) -> RelaxedIncidence:
        """Precondition and achiever incidence, built on first use and kept
        for the task's lifetime (outside eq and hash)."""
        return RelaxedIncidence.of(self)


@dataclass(frozen=True, eq=False)
class PackedMasks:
    """Bit masks of a STRIPS task over packed states.

    `actions[aid]` is `(aid, pre, keep, add)`: the precondition mask, the
    complement of the delete mask within the task's propositions (kept
    non-negative, which makes `&` cheaper than with `~dele`) and the add
    mask; `effects[aid]` is its `(keep, add)`. `goal` is the goal mask,
    `every` the mask of all propositions and `all_actions` the mask of all
    action ids.

    `blocked` answers which actions a state rules out. Proposition ids are
    split into groups of 4 consecutive ids, 0-3, 4-7 and so on; group g's
    entry is a 16-tuple whose item v is the action-id bitset of the actions
    with a precondition among the group members `4g + i` with bit i set in v.
    The actions blocked in a state are the OR of each group's item at the
    state's missing facts in that group: one lookup per 4 propositions,
    whatever the action count. The tables hold 4 entries per proposition.
    """

    actions: tuple[tuple[int, int, int, int], ...]
    goal: int
    every: int
    all_actions: int
    effects: tuple[tuple[int, int], ...]
    blocked: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, task: StripsTask) -> PackedMasks:
        encode = task.encode
        n = len(task.propositions)
        every = (1 << n) - 1
        actions = tuple((aid, encode(a.pre), every ^ encode(a.dele), encode(a.add))
                        for aid, a in enumerate(task.actions))
        needs = [0] * (n + 3)      # padded to a whole last group
        for aid, a in enumerate(task.actions):
            for p in a.pre:
                needs[p] |= 1 << aid
        blocked = []
        for base in range(0, n, 4):
            table = [0] * 16
            for v in range(1, 16):
                low = v & -v
                table[v] = table[v ^ low] | needs[base + low.bit_length() - 1]
            blocked.append(tuple(table))
        return cls(actions, encode(task.goal), every, (1 << len(actions)) - 1,
                   tuple((keep, add) for _, _, keep, add in actions), tuple(blocked))


@dataclass(frozen=True, eq=False)
class RelaxedIncidence:
    """Flat index arrays of a STRIPS task's delete relaxation, padded so
    that every segment is non-empty.

    With n propositions and A actions, proposition slot n and action slot A
    are sentinels. `pre` lists precondition ids in one segment per action
    slot 0..A, ascending action order, starting at `pre_starts`; an action
    without preconditions, and the sentinel action, read the sentinel
    proposition n, which the relaxation holds at cost 0. `achievers` lists
    achiever action ids in one segment per proposition slot 0..n, ascending
    action id within each, starting at `ach_starts`; `ach_prop` is the
    owning proposition of each entry. A proposition without achievers, and
    the sentinel proposition, read the sentinel action A, whose `cost`
    entry is inf; `cost` holds the A action costs and then that inf.
    `supporters[p]` is the unpadded achiever group of p as a tuple, empty
    when p has none.
    """

    pre: np.ndarray
    pre_starts: np.ndarray
    achievers: np.ndarray
    ach_starts: np.ndarray
    ach_prop: np.ndarray
    supporters: tuple[tuple[int, ...], ...]
    cost: np.ndarray

    @classmethod
    def of(cls, task: StripsTask) -> RelaxedIncidence:
        n, actions = len(task.propositions), len(task.actions)
        pres = [sorted(a.pre) or [n] for a in task.actions]
        pres.append([n])
        pre = np.array([p for ps in pres for p in ps], dtype=np.intp)
        pre_sizes = np.array([len(ps) for ps in pres], dtype=np.intp)
        pre_starts = np.cumsum(pre_sizes) - pre_sizes
        add_sizes = [len(a.add) for a in task.actions]
        added = np.array([p for a in task.actions for p in a.add], dtype=np.intp)
        counts = np.bincount(added, minlength=n + 1)
        unachieved = np.flatnonzero(counts == 0)      # includes the sentinel n
        owner = np.concatenate((added, unachieved))
        adder = np.repeat(np.arange(actions + 1, dtype=np.intp),
                          add_sizes + [len(unachieved)])
        order = np.argsort(owner, kind="stable")
        achievers, ach_prop = adder[order], owner[order]
        counts[unachieved] = 1
        ach_starts = np.cumsum(counts) - counts
        flat, starts, sizes = achievers.tolist(), ach_starts.tolist(), counts.tolist()
        supporters = tuple(() if flat[lo] == actions else tuple(flat[lo:lo + k])
                           for lo, k in zip(starts[:n], sizes))
        cost = np.array([a.cost for a in task.actions] + [np.inf], dtype=np.float64)
        return cls(pre, pre_starts, achievers, ach_starts, ach_prop, supporters, cost)


@dataclass(frozen=True)
class FdrVariable:
    name: str
    values: tuple[str, ...]


@dataclass(frozen=True)
class FdrAction:
    """pre and eff map variable index -> value index (partial assignments)."""

    name: str
    pre: tuple[tuple[int, int], ...]
    eff: tuple[tuple[int, int], ...]
    cost: int = 1


@dataclass(frozen=True)
class FdrTask:
    variables: tuple[FdrVariable, ...]
    actions: tuple[FdrAction, ...]
    init: tuple[int, ...]
    goal: tuple[tuple[int, int], ...]
    name: str = "fdr"

    def __post_init__(self):
        n = len(self.variables)
        if len(self.init) != n:
            raise ValueError("init must assign every variable exactly once")
        for v, d in enumerate(self.init):
            if not 0 <= d < len(self.variables[v].values):
                raise ValueError(f"init value out of domain for variable {v}")
        for pairs, label in [(self.goal, "goal")] + [
            (a.pre, f"pre({a.name})") for a in self.actions
        ] + [(a.eff, f"eff({a.name})") for a in self.actions]:
            seen = set()
            for v, d in pairs:
                if not 0 <= v < n:
                    raise ValueError(f"{label}: unknown variable {v}")
                if not 0 <= d < len(self.variables[v].values):
                    raise ValueError(f"{label}: value {d} outside domain of variable {v}")
                if v in seen:
                    raise ValueError(f"{label}: variable {v} assigned twice")
                seen.add(v)

    @cached_property
    def value_offsets(self) -> tuple[int, ...]:
        """Index of each variable's first value when all values are numbered
        consecutively, variable by variable (fact <v,d> gets offsets[v] + d)."""
        offsets = []
        total = 0
        for var in self.variables:
            offsets.append(total)
            total += len(var.values)
        return tuple(offsets)


# ── state semantics ───────────────────────────────────────────────────────

def initial_state(task: StripsTask) -> int:
    """The task's initial search state."""
    return task.encode(task.init)


def successors(task: StripsTask, state: int) -> list[tuple[int, int]]:
    """All (action_id, successor) pairs applicable in a search state, in
    action order."""
    return task.successors(state)


@dataclass(frozen=True)
class PlanCheck:
    valid: bool
    cost: int
    reason: str = ""


def validate_plan(task: StripsTask, plan) -> PlanCheck:
    """Replay the plan from the initial state; valid iff every step applies
    and the final state satisfies the goal. Cost is the sum of action costs."""
    n = len(task.actions)
    for aid in plan:
        if not 0 <= aid < n:
            raise UnknownActionId(f"plan refers to action id {aid}, task has {n} actions")
    state = initial_state(task)
    cost = 0
    for step, aid in enumerate(plan):
        nxt = task.apply(state, aid)
        if nxt is None:
            return PlanCheck(False, cost, f"step {step} ({task.actions[aid].name}) inapplicable")
        cost += task.actions[aid].cost
        state = nxt
    if not task.is_goal(state):
        return PlanCheck(False, cost, "final state does not satisfy the goal")
    return PlanCheck(True, cost)


def plan_from_parents(parents, state) -> list[int]:
    """The action ids leading to state, read back through a parent map of
    state -> (predecessor, action id), with None at the start state."""
    plan = []
    while parents[state] is not None:
        state, aid = parents[state]
        plan.append(aid)
    plan.reverse()
    return plan


# ── views between formalisms ──────────────────────────────────────────────

def strips_view(task: FdrTask) -> StripsTask:
    """Propositional view of an FDR task: one proposition per fact <v,d>.

    An effect <v,d> deletes every other fact of v; sound because FDR states
    are total assignments, and it makes the two state spaces isomorphic.
    """
    offsets = task.value_offsets
    names = [f"{var.name}={val}" for var in task.variables for val in var.values]
    actions = []
    for a in task.actions:
        pre = frozenset(offsets[v] + d for v, d in a.pre)
        add = frozenset(offsets[v] + d for v, d in a.eff)
        dele = frozenset(
            offsets[v] + d2
            for v, d in a.eff
            for d2 in range(len(task.variables[v].values))
            if d2 != d)
        actions.append(StripsAction(a.name, pre, add, dele, a.cost))
    init = fdr_state_to_strips(task, task.init)
    goal = frozenset(offsets[v] + d for v, d in task.goal)
    return StripsTask(tuple(names), tuple(actions), init, goal, name=task.name)


def fdr_state_to_strips(task: FdrTask, state: tuple[int, ...]) -> frozenset[int]:
    """Map an FDR state to the corresponding strips_view state."""
    offsets = task.value_offsets
    return frozenset(offsets[v] + d for v, d in enumerate(state))


def strips_state_to_fdr(task: FdrTask, state: frozenset[int]) -> tuple[int, ...]:
    """Map a strips_view state to the FDR state it stands for, the inverse of
    fdr_state_to_strips: each variable takes the value of its one set fact."""
    offsets = task.value_offsets
    values = [-1] * len(offsets)
    for p in state:
        v = bisect_right(offsets, p) - 1
        if v < 0 or p - offsets[v] >= len(task.variables[v].values) or values[v] >= 0:
            raise ValueError(f"fact {p} is outside the view or sets a variable twice")
        values[v] = p - offsets[v]
    if -1 in values:
        raise ValueError("state must assign every variable")
    return tuple(values)


def binary_fdr_view(task: StripsTask) -> FdrTask:
    """Naive FDR encoding of a propositional task: one binary variable per
    proposition, with value 1 where the proposition holds, so its states
    and successors match the STRIPS ones state for state."""
    variables = tuple(FdrVariable(p, ("false", "true")) for p in task.propositions)
    actions = []
    for a in task.actions:
        pre = tuple(sorted((p, 1) for p in a.pre))
        eff = tuple(sorted([(p, 1) for p in a.add] + [(p, 0) for p in a.dele]))
        actions.append(FdrAction(a.name, pre, eff, a.cost))
    init = tuple(1 if p in task.init else 0 for p in range(len(task.propositions)))
    goal = tuple(sorted((p, 1) for p in task.goal))
    return FdrTask(variables, tuple(actions), init, goal, name=task.name)


def as_lifted(task: StripsTask) -> LiftedTask:
    """Lift a propositional task trivially: every proposition becomes a
    0-ary predicate, every action a parameterless schema."""
    predicates = tuple(Predicate(p, 0) for p in task.propositions)
    atom = [Atom(p) for p in task.propositions]
    schemas = tuple(
        Schema(
            a.name,
            (),
            frozenset(atom[p] for p in a.pre),
            frozenset(atom[p] for p in a.add),
            frozenset(atom[p] for p in a.dele),
            a.cost,
        )
        for a in task.actions)
    return LiftedTask(
        predicates,
        (),
        schemas,
        frozenset(atom[p] for p in task.init),
        frozenset(atom[p] for p in task.goal))


def strips_state_atoms(task: StripsTask, state: frozenset[int]) -> frozenset[Atom]:
    """State of the 0-ary lifting corresponding to a propositional state."""
    return frozenset(Atom(task.propositions[p]) for p in state)
