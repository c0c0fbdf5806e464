"""Fast self-test of the benchmark harness on a tiny input (the z2 "smoke" part).

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Checks that both modes print a well-formed result line naming every metric
of BENCHMARK.json with its unit, that the smoke part, which every workload
ends with, passes its output checks and reaches every traced span (no
per-layer metric reads 0), and that the harness fails without printing a
result when the modskein sources are missing.  Takes a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, trace):
    cmd = SPEC["command"][1:] + ["--workload", "smoke", "--seed", "7",
                                 "--seconds", "0.5", "--trace", str(trace)]
    return subprocess.run([sys.executable] + cmd, cwd=cwd, capture_output=True,
                          text=True, timeout=120)


def _check_mode(trace, section):
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected, (sorted(set(got) ^ set(expected)), got)
    for key, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float)), key
    return result["metrics"]


def test_untraced_reports_every_end_to_end_metric():
    _check_mode(0, "end_to_end")


def test_traced_reports_every_per_layer_metric():
    metrics = _check_mode(1, "per_layer")
    zero = [k for k, v in metrics.items() if v["value"] == 0]
    assert not zero, zero


def test_fails_without_sources():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-selftest-") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(tmp, 0)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


if __name__ == "__main__":
    for test in (test_untraced_reports_every_end_to_end_metric,
                 test_traced_reports_every_per_layer_metric,
                 test_fails_without_sources):
        test()
        print("ok", test.__name__)
