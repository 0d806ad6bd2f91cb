#!/usr/bin/env python3
"""Benchmark for fanoray, stdlib only, one workload per run.

    python3 bench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Runs in one single-threaded process from the root of a source checkout and
imports fanoray from ``src/``.  A run writes the workload's inputs from the
seed, sets up and runs one warm-up pass, checks that the checks reject an
altered output (self-test), then alternates set-up and pass until
``--seconds`` have gone by (at least three passes).  Every pass is checked
by the benchmark's own arithmetic (see ``workloads.py``).

Set-up is timed over fresh imports: every set-up drops fanoray from
``sys.modules``, imports it again and loads the inputs through its loaders,
and the objects it builds serve the next pass, so no pass reuses memoised
results.  With ``--trace 1``, passes alternate between untraced and traced
(see ``tracing.py``); the per-layer metrics come from the traced passes
and the overhead is the difference of the two medians.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record of the run, with every sample,
goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"


def fresh_import():
    """Import fanoray anew; returns (package, cli module)."""
    for name in [n for n in sys.modules
                 if n == "fanoray" or n.startswith("fanoray.")]:
        del sys.modules[name]
    return (importlib.import_module("fanoray"),
            importlib.import_module("fanoray.cli"))


def set_up(workload):
    t0 = time.perf_counter()
    fanoray, cli = fresh_import()
    state = workload.load(fanoray, cli)
    return time.perf_counter() - t0, (fanoray, cli, state)


def run_pass(workload, env):
    """One pass; returns (seconds inside fanoray, results, crash reports)."""
    elapsed, results, crashed = 0.0, {}, []
    for key, op in workload.operations(*env):
        t0 = time.perf_counter()
        try:
            results[key] = op()
        except Exception:
            crashed.append(f"{key}: {traceback.format_exc()}")
        elapsed += time.perf_counter() - t0
    return elapsed, results, crashed


def host_loop() -> float:
    """A fixed pure-Python loop that calls no fanoray code: tracks the
    speed of the machine from one run to the next."""
    t0 = time.perf_counter()
    s = 0
    for i in range(200_000):
        s += i * i % 7
    return time.perf_counter() - t0


class Tally:
    """Attempted and failed operations and check errors over a run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def add(self, results, crashed) -> None:
        self.attempted += len(results) + len(crashed)
        self.failed += len(crashed)
        self.errors += crashed
        try:
            errors, failed = self.workload.check(results)
        except Exception:
            errors, failed = [f"check raised: {traceback.format_exc()}"], 0
        self.errors += errors
        self.failed += failed


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    data_dir = SRC / "fanoray" / "data"
    if not ((SRC / "fanoray" / "__init__.py").is_file()
            and data_dir.is_dir()):
        print(f"error: no fanoray source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]()
    tag = f"{args.workload}-seed{args.seed}"
    work_dir = OUT / "inputs" / tag
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    workload.make_inputs(data_dir, work_dir, random.Random(args.seed))

    tally = Tally(workload)
    _, env = set_up(workload)                       # warm-up
    _, results, crashed = run_pass(workload, env)
    tally.add(results, crashed)
    try:
        self_test = bool(workload.check(workload.corrupt(results))[0])
    except Exception:
        self_test = False
    if not self_test:
        tally.errors.append("self-test: the check accepted an altered output")

    tracer = Tracer() if args.trace else None
    setup_s, pass_s, traced_s, loop_s = [], [], [], []
    layers: dict[str, list] = {}
    start = time.perf_counter()
    n = 0
    while n < 3 or time.perf_counter() - start < args.seconds:
        for _ in range(workload.setups_per_pass):
            # Every fresh import leaves module and class cycles behind;
            # collecting them untimed keeps the peak resident set that of
            # one set-up and pass, whatever the number of passes.
            env = results = None
            gc.collect()
            seconds, env = set_up(workload)
            setup_s.append(seconds)
        traced = tracer is not None and n % 2 == 1
        if traced:
            tracer.install(env[0])
            tracer.begin_pass(n)
        seconds, results, crashed = run_pass(workload, env)
        (traced_s if traced else pass_s).append(seconds)
        if traced:
            for name, value in tracer.pass_metrics().items():
                layers.setdefault(name, []).append(value)
        tally.add(results, crashed)
        loop_s.append(host_loop())
        n += 1
    measured = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is None:
        metrics = {"setup_s": (statistics.median(setup_s), "s"),
                   "pass_s": (statistics.median(pass_s), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        metrics = {}
        for name, values in layers.items():
            if name.endswith("_s"):
                metrics[name] = (statistics.median(values), "s")
            else:
                metrics[name] = (values[-1], "count")
        metrics["trace.overhead_s"] = (
            statistics.median(traced_s) - statistics.median(pass_s), "s")
        metrics["host.loop_s"] = (statistics.median(loop_s), "s")

    result = {"correct": not tally.errors, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    summary = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "python": platform.python_version(), "nproc": os.cpu_count(),
               "measured_s": measured, "self_test_rejects": self_test,
               "samples": {"setup_s": setup_s, "pass_s": pass_s,
                           "traced_pass_s": traced_s, "host_loop_s": loop_s},
               "errors": tally.errors, "result": result}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"{tag}-spans.jsonl")

    for error in tally.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print(f"{args.workload}: {len(pass_s)} untraced and {len(traced_s)} "
          f"traced passes, {len(setup_s)} set-ups, host loop "
          f"{statistics.median(loop_s):.6f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
