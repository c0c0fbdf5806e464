"""The benchmark harness still runs against this tree.

`perfbench/tracer.py` wraps named functions and methods of the engine
(`ExactMatrix.__mul__` and `kron`, `LinearSystem.add_row`, `kernel` and
`solve`, the algebra-law checks, the `CycNum` operators).  Its self-test runs
the small "smoke" workload untraced and traced, so a refactor that renames
or moves one of those hooks fails here rather than only in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
