"""Import budget: loading planlearn must not pull in heavy optional packages,
and the graph layer must not pull in the model.

Every workload imports the package, so a module-level scipy import would add
its memory and start-up time to every run.
"""

import os
import subprocess
import sys
from pathlib import Path

import planlearn

SCRIPT = """
import pkgutil, sys
import planlearn
for info in pkgutil.walk_packages(planlearn.__path__, "planlearn."):
    __import__(info.name)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def run_fresh(script: str) -> str:
    """Standard output of `script` run by a fresh interpreter on this source tree."""
    src = str(Path(planlearn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_importing_every_module_leaves_scipy_unloaded():
    assert run_fresh(SCRIPT) == "[]"


def test_importing_graphs_loads_no_nn_module():
    """The graph layer stays below the model: nn.model reads a graph's plan
    table, but planlearn.graphs never imports planlearn.nn."""
    assert run_fresh("import sys, planlearn.graphs\n"
                     "print(sorted(m for m in sys.modules if m.startswith('planlearn.nn')))"
                     ) == "[]"
