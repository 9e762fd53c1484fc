"""Line-oriented interchange format for propositional tasks.

Grammar (UTF-8, one record per line, see docs/formats.md):

    planlearn-strips 1
    props <N>
    <name>                      # N lines, id = order of appearance
    actions <M>
    action <cost> <name>        # then exactly three id-list lines:
    pre <ids...>
    add <ids...>
    del <ids...>
    init <ids...>
    goal <ids...>

`planlearn ground` writes it; only the tests read it back, checking that
the round trip gives an identical task (same ids).
"""

from __future__ import annotations

from .model import StripsTask

MAGIC = "planlearn-strips"
VERSION = 1


def dump_strips(task: StripsTask) -> str:
    out = [f"{MAGIC} {VERSION}", f"props {len(task.propositions)}"]
    out.extend(task.propositions)
    out.append(f"actions {len(task.actions)}")
    for a in task.actions:
        out.append(f"action {a.cost} {a.name}")
        out.append("pre " + " ".join(str(p) for p in sorted(a.pre)))
        out.append("add " + " ".join(str(p) for p in sorted(a.add)))
        out.append("del " + " ".join(str(p) for p in sorted(a.dele)))
    out.append("init " + " ".join(str(p) for p in sorted(task.init)))
    out.append("goal " + " ".join(str(p) for p in sorted(task.goal)))
    return "\n".join(out) + "\n"
