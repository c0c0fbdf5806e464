"""Record a baseline of the benchmark, plus the long one-off timings.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For every workload in BENCHMARK.json this runs the untraced benchmark once
per seed (seeds 1..10, each in a fresh process) and records each end-to-end
metric's median, quartiles and quartile spread (q3 - q1, as a share of the
median).  It then runs the traced benchmark twice on seed 1 in this process,
checks that every count repeats exactly and records the per-layer metrics,
the span table and the tracing overhead.  Last, it times once the two
numbers the benchmark's runs are too short to hold: `validate_bundle` on
u_q sl2 at p = 3 and the dense L (x) L module for u_q sl2 at p = 2.  Python
version, CPU count and git revision go into the record.
Takes about 25 minutes on 2 cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10
TRACED_SEED = 1

sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the harness, beside this file)


def bench(workload, seed):
    """One untraced run in a fresh process, as the benchmark's command."""
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print("%s seed %d: NOT CORRECT\n%s" % (workload, seed, proc.stderr),
              file=sys.stderr)
    return result


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "values": values}


def one_off():
    """The ROADMAP's re-anchor timings, which no benchmark run can hold."""
    from modskein import bundles, coend, hopf

    out = {}
    t0 = time.perf_counter()
    b3 = bundles.uqsl2_bundle(3, with_r=True)
    out["uqsl2_bundle(3, with_r=True)_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    failures = hopf.validate_bundle(b3, threads=1)
    out["validate_bundle(uqsl2 p=3)_s"] = time.perf_counter() - t0
    out["validate_bundle(uqsl2 p=3)_failures"] = failures

    b2 = bundles.uqsl2_bundle(2)
    coad = coend.coadjoint_rep(b2)
    t0 = time.perf_counter()
    power = hopf.tensor_rep(b2, coad, coad)
    out["tensor_rep(L, L) uqsl2 p=2 (dense L(x)L build)_s"] = (
        time.perf_counter() - t0)
    t0 = time.perf_counter()
    dim = len(hopf.hom_space(b2, hopf.trivial_rep(b2), power))
    out["hom_space(1, L(x)L) uqsl2 p=2_s"] = time.perf_counter() - t0
    out["dim Hom(1, L(x)L) uqsl2 p=2"] = dim
    return out


def git_revision():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args(argv)

    record = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "run_seconds": SPEC["run_seconds"],
        "seeds": list(range(1, RUNS + 1)),
        "traced_seed": TRACED_SEED,
        "workloads": {},
    }
    workloads = run._import_workloads()
    for w in (w["name"] for w in SPEC["workloads"]):
        runs = [bench(w, seed) for seed in record["seeds"]]
        end_to_end = {m["name"]: summarize([r["metrics"][m["name"]]["value"]
                                            for r in runs])
                      for m in SPEC["end_to_end"]}
        traced = [run.traced_run(workloads, w, TRACED_SEED,
                                 SPEC["run_seconds"]) for _ in range(2)]
        (first, first_metrics), (second, second_metrics) = traced
        counts_repeat = all(first_metrics[m["name"]] == second_metrics[m["name"]]
                            for m in SPEC["per_layer"] if m["unit"] != "s")
        record["workloads"][w] = {
            "all_correct": (all(r["correct"] for r in runs)
                            and first.failed == second.failed == 0),
            "failed": sum(r["failed"] for r in runs) + first.failed
            + second.failed,
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in first_metrics.items()},
            "counts_repeat_across_two_traced_runs": counts_repeat,
            "trace": first.report,
        }
        print("%s: wall_s %.4f (spread %.3f), cpu_s %.4f, setup_s %.4f, "
              "counts repeat %s" % (w, end_to_end["wall_s"]["median"],
                                    end_to_end["wall_s"]["spread"],
                                    end_to_end["cpu_s"]["median"],
                                    end_to_end["setup_s"]["median"],
                                    counts_repeat), flush=True)
    record["one_off"] = one_off()
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
