"""Seeded mutation gate for the input parsers: token-level damage to the
gripper PDDL fixtures, the gripper SAS fixture and a generated suite
manifest either loads or raises a PlanlearnError, which the CLI prints as
one error line; any other exception would end in a traceback."""

import random
import re
from pathlib import Path

from planlearn import bench
from planlearn.bench.suite import _read_manifest
from planlearn.errors import PlanlearnError
from planlearn.task import parse_pddl, parse_sas

FIXTURES = Path(__file__).parent / "fixtures"
# Each mutation acts on tokens: a quoted string, one bracket, comma or
# colon, or another run of characters without whitespace. PDDL lists break
# apart, and a JSON key or value moves as a whole, so some manifest mutants
# are valid JSON with a value of the wrong type or in the wrong place.
TOKEN = re.compile(r'"[^"\n]*"|[()\[\]{},:]|[^\s()\[\]{},:"]+')
MUTANTS_PER_INPUT = 500
SEED = 29


def _mutants(text: str, rng: random.Random, count: int):
    """`count` copies of `text`, each truncated after a token or with one
    token deleted, duplicated elsewhere or swapped with another."""
    spans = [m.span() for m in TOKEN.finditer(text)]
    for _ in range(count):
        op = rng.choice(("truncate", "delete", "insert", "swap"))
        i, j = sorted(rng.sample(range(len(spans)), 2))
        (a, b), (c, d) = spans[i], spans[j]
        if op == "truncate":
            yield text[:b]
        elif op == "delete":
            yield text[:a] + text[b:]
        elif op == "insert":
            yield text[:c] + text[a:b] + " " + text[c:]
        else:
            yield text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]


def _escapes(name, load, text, rng):
    """The mutants of `text` on which `load` raised something other than a
    PlanlearnError, with the exception."""
    found = []
    for mutant in _mutants(text, rng, MUTANTS_PER_INPUT):
        try:
            load(mutant)
        except PlanlearnError:
            pass
        except Exception as exc:     # the escapes this gate looks for
            found.append((name, mutant, repr(exc)))
    return found


def test_mutated_inputs_load_or_raise_a_planlearn_error(tmp_path):
    rng = random.Random(SEED)
    domain = (FIXTURES / "gripper-domain.pddl").read_text()
    problem = (FIXTURES / "gripper-b1.pddl").read_text()
    suite = bench.generate(bench.SuiteSpec("gripper", (1, 2), (3,), (4,), seed=0))
    manifest = bench.suite_files(suite, tmp_path)["manifest.json"]
    inputs = [
        ("gripper-domain.pddl", lambda text: parse_pddl(text, problem), domain),
        ("gripper-b1.pddl", lambda text: parse_pddl(domain, text), problem),
        ("gripper-b1.sas", parse_sas, (FIXTURES / "gripper-b1.sas").read_text()),
        ("manifest.json", _read_manifest, manifest),
    ]
    escapes = [e for name, load, text in inputs for e in _escapes(name, load, text, rng)]
    assert not escapes, escapes[:3]
