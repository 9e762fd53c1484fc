"""Experiment harness: a (task x heuristic) sweep with CSV output.

Cells run one after another in input order. Wall times live in a separate
timings table; the primary CSV carries only deterministic columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gbfs import SearchConfig, SearchResult, gbfs


@dataclass
class ExperimentRow:
    task: str
    heuristic: str
    result: SearchResult


@dataclass
class ExperimentTable:
    rows: list[ExperimentRow] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["task,heuristic,status,plan_cost,expansions,evaluations,generated"]
        for r in self.rows:
            cost = "" if r.result.plan_cost is None else r.result.plan_cost
            lines.append(f"{r.task},{r.heuristic},{r.result.status},{cost},"
                         f"{r.result.expansions},{r.result.evaluations},{r.result.generated}")
        return "\n".join(lines) + "\n"

    def timings_csv(self) -> str:
        lines = ["task,heuristic,wall_nanos"]
        lines.extend(f"{r.task},{r.heuristic},{r.result.wall_nanos}" for r in self.rows)
        return "\n".join(lines) + "\n"

    def coverage(self) -> dict[str, tuple[int, int]]:
        """heuristic -> (solved, total)."""
        out: dict[str, list[int]] = {}
        for r in self.rows:
            solved, total = out.setdefault(r.heuristic, [0, 0])
            out[r.heuristic][0] = solved + (1 if r.result.status == "solved" else 0)
            out[r.heuristic][1] = total + 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def coverage_csv(self) -> str:
        lines = ["heuristic,solved,total"]
        for name, (solved, total) in sorted(self.coverage().items()):
            lines.append(f"{name},{solved},{total}")
        return "\n".join(lines) + "\n"


def run_experiment(tasks, heuristic_factories,
                   config: SearchConfig | None = None) -> ExperimentTable:
    """tasks: list of (name, task); heuristic_factories: list of
    (name, task -> heuristic). Every pair is searched once."""
    config = config or SearchConfig()
    return ExperimentTable([ExperimentRow(tname, hname, gbfs(task, factory(task), config))
                            for tname, task in tasks
                            for hname, factory in heuristic_factories])
