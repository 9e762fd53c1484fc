"""Grounding: instantiate schema parameters with objects.

Naive Cartesian instantiation with static-predicate pruning. A predicate is
static when it never occurs in any schema's add or delete list; instantiations
whose static preconditions do not hold in the initial state are dropped, and
static facts are then removed from the ground task entirely (they can never
change). Instantiations whose bound add and delete sets overlap are rejected
and reported once per schema, with their count, at INFO level.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

from ..errors import GroundingExplosion
from .model import Atom, LiftedTask, StripsAction, StripsTask

log = logging.getLogger(__name__)

DEFAULT_INSTANTIATION_CAP = 10**7


@dataclass(frozen=True)
class GroundingMap:
    """Provenance: ground ids back to schema bindings and atoms."""

    prop_atoms: tuple[Atom, ...]
    action_bindings: tuple[tuple[str, tuple[str, ...]], ...]
    static_predicates: frozenset[str]


def static_predicates(task: LiftedTask) -> frozenset[str]:
    fluent = set()
    for schema in task.schemas:
        for atom in schema.add | schema.dele:
            fluent.add(atom.predicate)
    return frozenset(p.name for p in task.predicates) - frozenset(fluent)


def _bind(atom: Atom, binding: dict[str, str]) -> Atom:
    return Atom(atom.predicate, tuple(binding.get(t, t) for t in atom.args))


def ground(task: LiftedTask, cap: int = DEFAULT_INSTANTIATION_CAP,
           prune_statics: bool = True):
    """Ground a lifted task. Returns (StripsTask, GroundingMap).

    With prune_statics=False the full Cartesian enumeration is kept and
    static facts stay in the ground task (useful when the literal binding
    count matters)."""
    statics = static_predicates(task) if prune_statics else frozenset()
    static_init = {a for a in task.init if a.predicate in statics}

    # Per-parameter candidate objects from unary static preconditions.
    def candidates(schema) -> list[list[str]]:
        per_param: dict[str, set[str] | None] = {p: None for p in schema.params}
        for atom in schema.pre:
            if atom.predicate in statics and len(atom.args) == 1:
                term = atom.args[0]
                if term in per_param:
                    objs = {a.args[0] for a in static_init if a.predicate == atom.predicate}
                    prev = per_param[term]
                    per_param[term] = objs if prev is None else prev & objs
        return [sorted(per_param[p]) if per_param[p] is not None else list(task.objects)
                for p in schema.params]

    total = 0
    for schema in task.schemas:
        count = 1
        for cand in candidates(schema):
            count *= len(cand)
        total += count
        if total > cap:
            raise GroundingExplosion(
                f"instantiation count exceeds cap {cap} at schema {schema.name}")

    prop_ids: dict[Atom, int] = {}
    prop_atoms: list[Atom] = []

    def intern(atom: Atom) -> int:
        pid = prop_ids.get(atom)
        if pid is None:
            pid = len(prop_atoms)
            prop_ids[atom] = pid
            prop_atoms.append(atom)
        return pid

    # Fluent init/goal facts first so fixture dumps are stable.
    fluent_init = sorted((a for a in task.init if a.predicate not in statics), key=str)
    for atom in fluent_init:
        intern(atom)

    actions: list[StripsAction] = []
    bindings: list[tuple[str, tuple[str, ...]]] = []
    rejected: dict[str, list[tuple[str, ...]]] = {}
    for schema in task.schemas:
        for combo in itertools.product(*candidates(schema)):
            binding = dict(zip(schema.params, combo))
            pre = {_bind(a, binding) for a in schema.pre}
            static_pre = {a for a in pre if a.predicate in statics}
            if not static_pre <= static_init:
                continue
            add = {_bind(a, binding) for a in schema.add}
            dele = {_bind(a, binding) for a in schema.dele}
            if add & dele:
                rejected.setdefault(schema.name, []).append(combo)
                continue
            name = f"({schema.name} {' '.join(combo)})" if combo else f"({schema.name})"
            # Atoms first seen here get ids in str order, not set order, which
            # would make the ids depend on the hash seed.
            actions.append(StripsAction(
                name,
                frozenset(intern(a) for a in sorted(pre - static_pre, key=str)),
                frozenset(intern(a) for a in sorted(add, key=str)),
                frozenset(intern(a) for a in sorted(dele, key=str)),
                schema.cost))
            bindings.append((schema.name, combo))

    for name, combos in rejected.items():
        log.info("rejected %d binding(s) of %s, first %s: add and delete overlap "
                 "after binding", len(combos), name, combos[0])
    init = frozenset(prop_ids[a] for a in fluent_init)
    goal_ids = set()
    for atom in sorted(task.goal, key=str):
        if atom.predicate in statics:
            if atom in static_init:
                continue  # permanently satisfied
            goal_ids.add(intern(atom))  # permanently unsatisfiable, no achievers
        else:
            goal_ids.add(intern(atom))

    strips = StripsTask(
        tuple(str(a) for a in prop_atoms),
        tuple(actions),
        init,
        frozenset(goal_ids),
        name="ground")
    gmap = GroundingMap(tuple(prop_atoms), tuple(bindings), statics)
    return strips, gmap


def ground_state_atoms(gmap: GroundingMap, state: frozenset[int]) -> frozenset[Atom]:
    """Fluent atoms of a ground state, for building lifted graphs."""
    return frozenset(gmap.prop_atoms[p] for p in state)
