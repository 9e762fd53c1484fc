"""Import budget: loading planlearn must not pull in heavy optional packages.

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


def test_importing_every_module_leaves_scipy_unloaded():
    src = str(Path(planlearn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
