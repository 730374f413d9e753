"""The package's import surface: each name has one path, through its module."""
import os
import subprocess
import sys
from pathlib import Path

import mqmotion

SRC = Path(mqmotion.__file__).resolve().parent.parent

# run in a child process, which starts with no mqmotion module loaded
EACH_ALONE = """
import importlib, pkgutil, sys
import mqmotion
names = sorted(m.name for m in pkgutil.iter_modules(mqmotion.__path__))
for name in names:
    for key in [k for k in sys.modules if k == "mqmotion" or k.startswith("mqmotion.")]:
        del sys.modules[key]
    importlib.import_module("mqmotion." + name)
print(" ".join(names))
"""


def test_each_module_imports_on_its_own():
    # the package imports no module, so one that leans on a sibling being
    # loaded already fails here
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", EACH_ALONE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == sorted(p.stem for p in (SRC / "mqmotion").glob("*.py")
                                         if p.stem != "__init__")


def test_the_package_holds_no_names():
    assert {k for k in vars(mqmotion) if not k.startswith("__")} <= {
        m.stem for m in (SRC / "mqmotion").glob("*.py")}
