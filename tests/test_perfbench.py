"""The benchmark's self-test, run as a tier-1 test.

The traced benchmark wraps figr functions by name and by call signature,
so renaming one or changing how figr calls it breaks the benchmark; this
catches that without a full benchmark run.  No timing is asserted.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_self_test_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-test"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert ", 0 failures" in proc.stdout
