"""Each figr module imports first in a fresh interpreter.

Within one interpreter the first import of a module settles the order in
which the others load, so an import cycle can pass there and still fail
for a program that imports another module first.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_each_module_imports_first_in_a_fresh_interpreter():
    modules = sorted(p.stem for p in (SRC / "figr").glob("*.py") if p.stem != "__init__")
    assert {"config", "models", "reptile", "cli"} <= set(modules)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for name in modules:
        proc = subprocess.run([sys.executable, "-c", f"import figr.{name}"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, f"figr.{name}:\n{proc.stderr}"
