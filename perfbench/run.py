"""Benchmark harness for modskein.

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 45 --trace 0

Run from the repository root.  One single-threaded process repeats the
workload's pass (fresh bundles, then every operation with its output checked)
until `--seconds` have elapsed, and prints one JSON object as the last line of
standard output.  With `--trace 0` it reports the end-to-end metrics (medians
over passes); with `--trace 1` it alternates untraced and traced passes and
reports the per-layer metrics of the traced ones.  A human-readable summary goes
to standard error.  The library is called directly, so the CLI result cache
stays out of the measured path.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 5


def _import_workloads():
    if not (SRC / "modskein" / "__init__.py").is_file():
        sys.exit("perfbench: no modskein sources at %s; run from a checkout "
                 "of the repository" % SRC)
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads


def _setup_child(name: str) -> None:
    """Import modskein and build the workload's bundles, then report ready."""
    workloads = _import_workloads()
    for part in workloads.WORKLOADS[name]:
        workloads.PARTS[part][0]()
    print("ready", flush=True)


def measure_setup(name: str) -> float:
    """Seconds from interpreter start to "bundles built", in a fresh process."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                           "--setup-child", "--workload", name,
                           "--seconds", "0"],
                          stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
        code = child.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError("set-up child for %s failed (exit %d)" % (name, code))
    return elapsed


class Passes:
    """Outcome of the passes of one run."""

    def __init__(self):
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.parts: dict[str, list[float]] = {}  # part -> wall time per pass
        self.outputs: list[list] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.report: dict = {}  # harness figures for standard error only


def run_pass(workloads, name: str, seed: int, passes: Passes, tracer=None):
    """Run every part of the workload: build fresh bundles (untimed), then
    run and check every operation.  Returns the share of the timed interval
    that top-level spans cover, when traced."""
    outputs, wall, cpu, covered = [], 0.0, 0.0, 0.0
    for part in workloads.WORKLOADS[name]:
        build, make_ops = workloads.PARTS[part]
        ops = make_ops(build(), seed)
        covered0 = tracer.covered[0] if tracer else 0.0
        w0, c0 = time.perf_counter(), time.process_time()
        for label, call, expected in ops:
            try:
                out = call()
                ok = workloads.check(out, expected)
            except Exception as exc:  # a raising operation is a counted failure
                out, ok = ("raised", type(exc).__name__, str(exc)), False
            outputs.append(out)
            if not ok:
                passes.failed += 1
                passes.failures.append("%s -> %r" % (label, out))
        part_wall = time.perf_counter() - w0
        cpu += time.process_time() - c0
        wall += part_wall
        passes.parts.setdefault(part, []).append(part_wall)
        passes.attempted += len(ops)
        if tracer:
            covered += tracer.covered[0] - covered0
    passes.wall.append(wall)
    passes.cpu.append(cpu)
    passes.outputs.append(outputs)
    return covered / wall if tracer else None


def peak_rss_mb() -> float:
    """Peak resident memory of this process, from VmHWM.  Linux carries
    ru_maxrss across exec, so it would report the forking parent's peak
    whenever that is larger; VmHWM starts afresh with the new program."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def untraced_run(workloads, name, seed, seconds):
    setup = [measure_setup(name) for _ in range(SETUP_REPEATS)]
    passes = Passes()
    deadline = time.perf_counter() + seconds
    while True:
        run_pass(workloads, name, seed, passes)
        if time.perf_counter() >= deadline:
            break
    peak_mb = peak_rss_mb()
    metrics = {
        "wall_s": _metric(statistics.median(passes.wall), "s"),
        "cpu_s": _metric(statistics.median(passes.cpu), "s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(peak_mb, "MB"),
    }
    passes.report["setup_s samples"] = setup
    return passes, metrics


def traced_run(workloads, name, seed, seconds):
    """Alternate untraced and traced passes until `seconds` have elapsed, so
    both see the same machine; the tracer is installed for the traced pass
    only."""
    from tracer import PER_LAYER, Tracer

    tracer = Tracer()
    plain, passes, snaps, uncovered = Passes(), Passes(), [], []
    deadline = time.perf_counter() + seconds
    while True:
        run_pass(workloads, name, seed, plain)
        tracer.reset()
        tracer.install()
        try:
            covered = run_pass(workloads, name, seed, passes, tracer)
        finally:
            tracer.uninstall()
        snaps.append(tracer.snapshot())
        uncovered.append(1.0 - covered)
        if time.perf_counter() >= deadline:
            break

    passes.attempted += plain.attempted
    passes.failed += plain.failed
    passes.failures += plain.failures
    reference = plain.outputs[0]
    if any(out != reference for out in plain.outputs + passes.outputs):
        passes.failed += 1
        passes.failures.append("traced outputs differ from untraced outputs")
    metrics = {}
    for key, (unit, get) in PER_LAYER.items():
        values = [get(s) for s in snaps]
        if unit == "s":
            metrics[key] = _metric(statistics.median(values), unit)
            continue
        if any(v != values[0] for v in values):
            passes.failed += 1
            passes.failures.append("%s differs between passes: %r"
                                   % (key, values))
        metrics[key] = _metric(values[0], unit)
    # The tracer's own cost and coverage describe the harness, not the
    # program, so they go to standard error and the baseline record only.
    passes.report["untraced pass wall_s"] = plain.wall
    passes.report["trace overhead (traced / untraced median pass)"] = (
        statistics.median(passes.wall) / statistics.median(plain.wall))
    passes.report["share of traced pass no top-level span covers"] = (
        statistics.median(uncovered))
    passes.report["spans"] = {
        span: {"calls": calls,
               "self_s": statistics.median(s["spans"][span][1] for s in snaps)}
        for span, (calls, _) in snaps[0]["spans"].items() if calls}
    return passes, metrics


def _summary(name, passes, metrics):
    err = sys.stderr
    print("perfbench %s: %d passes, %d operations, fail_frac %.6f ratio"
          % (name, len(passes.wall), passes.attempted,
             passes.failed / passes.attempted), file=err)
    print("  pass wall_s: %s" % " ".join("%.4f" % w for w in passes.wall),
          file=err)
    for part, walls in passes.parts.items():
        print("  part %s wall_s median: %.4f" % (part, statistics.median(walls)),
              file=err)
    for key, m in metrics.items():
        print("  %-40s %r %s" % (key, m["value"], m["unit"]), file=err)
    report = dict(passes.report)
    spans = report.pop("spans", {})
    for key, value in report.items():
        if isinstance(value, list):
            value = " ".join("%.4f" % v for v in value)
        print("  %s: %s" % (key, value), file=err)
    if spans:
        print("  %-40s %10s %12s" % ("span", "calls", "self_s"), file=err)
    for span in sorted(spans, key=lambda k: spans[k]["self_s"], reverse=True):
        print("  %-40s %10d %12.6f" % (span, spans[span]["calls"],
                                       spans[span]["self_s"]), file=err)
    for line in passes.failures[:20]:
        print("  FAILED %s" % line, file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child:
        _setup_child(args.workload)
        return 0
    workloads = _import_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    run = traced_run if args.trace else untraced_run
    passes, metrics = run(workloads, args.workload, args.seed, args.seconds)
    _summary(args.workload, passes, metrics)
    print(json.dumps({"correct": passes.failed == 0,
                      "attempted": passes.attempted,
                      "failed": passes.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
