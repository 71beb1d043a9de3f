"""One benchmark process: set a workload up, then measure it.

``run.py`` starts this script in a fresh interpreter, so no number
depends on what ran before it.  It prints ``ready`` once the workload
is set up (imports, session or service built, warm-up call done).  In
``setup`` mode it then tears down and exits; in ``measure`` mode it runs
the workload and prints one JSON record as its last line.

Untraced (``--trace 0``) it runs units for ``--seconds``, closes the
instance (reaping pool workers), reads the peak RSS, and verifies.

Traced (``--trace 1``) it runs units untraced for half the time, then
installs the span wrappers (:mod:`spans`) and replays exactly those
units, so the two passes differ only by tracing.  ``fig5_perf`` adds a
one-worker traced pass of its first unit: wrapped calls inside forked
pool workers report nothing back, so the perf stage times come from
that in-process pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Service cache directories live here while a run is in progress.
SCRATCH = ROOT / ".perfbench-tmp"


def percentile_ms(latencies, q: float) -> float:
    return float(np.percentile(latencies, q)) * 1000.0 if latencies else 0.0


def make_workload(name: str):
    from servicemix import ServiceMix
    from workloads import WORKLOADS

    return ServiceMix(SCRATCH) if name == ServiceMix.name else WORKLOADS[name]()


def run_for(workload, instance, units, seconds: float):
    """Closed loop for ``seconds``; returns (units run, steps), one
    ``(ops, seconds)`` step per unit."""
    done, steps = [], []
    deadline = time.perf_counter() + seconds
    for unit in units:
        unit_started = time.perf_counter()
        ops = workload.run_unit(instance, unit)
        now = time.perf_counter()
        steps.append((ops, now - unit_started))
        done.append(unit)
        if now >= deadline:
            break
    return done, steps


def replay(workload, instance, units) -> list:
    """Run exactly ``units`` again; returns their ops."""
    return [op for unit in units for op in workload.run_unit(instance, unit)]


def median_latency(ops) -> float:
    return statistics.median(op.latency_s for op in ops)


def flatten(steps) -> list:
    return [op for ops, _ in steps for op in ops]


def peak_rss_mb() -> float:
    """Largest RSS of this process and of every reaped child (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(steps, units_per_block: int) -> dict:
    """Throughputs are medians over blocks of consecutive units (one
    unit, or one service schedule block, which has a fixed path mix):
    the host's slow spells then move a run's figure far less than a
    whole-run total would."""
    ops = flatten(steps)
    blocks = [
        steps[i : i + units_per_block]
        for i in range(0, len(steps) - units_per_block + 1, units_per_block)
    ] or [steps]

    def rate(count) -> float:
        return statistics.median(
            sum(count(op) for unit_ops, _ in block for op in unit_ops)
            / sum(seconds for _, seconds in block)
            for block in blocks
        )

    latencies = [op.latency_s for op in ops if op.error is None]
    return {
        "trials_per_s": rate(lambda op: op.trials),
        "jobs_per_s": rate(lambda op: 1),
        "latency_p50_ms": percentile_ms(latencies, 50),
    }


def path_metrics(ops, wrong: int) -> dict:
    """Per-admission-path latencies; every engine call is a miss."""
    def latencies(*paths):
        return [op.latency_s for op in ops if op.error is None and op.path in paths]

    every = latencies("run", "queued", "store", "coalesced")
    miss = latencies("run", "queued")
    store = latencies("store")
    failed = sum(op.error is not None for op in ops)
    return {
        "latency_p99_ms": percentile_ms(every, 99),
        "miss_p50_ms": percentile_ms(miss, 50),
        "miss_p99_ms": percentile_ms(miss, 99),
        "store_p50_ms": percentile_ms(store, 50),
        "store_p99_ms": percentile_ms(store, 99),
        "coalesced_p50_ms": percentile_ms(latencies("coalesced"), 50),
        "error_rate": min((failed + wrong) / max(len(ops), 1), 1.0),
    }


def provenance(workload_name: str, ops, units_run: int) -> dict:
    paths: dict = {}
    for op in ops:
        paths[op.path] = paths.get(op.path, 0) + 1
    return {
        "workload": workload_name,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "client_threads": 2 if workload_name == "service_mix" else 1,
        "units": units_run,
        "operations": len(ops),
        "path_share": {path: n / max(len(ops), 1) for path, n in sorted(paths.items())},
    }


def measure(workload, instance, units, args) -> dict:
    done, steps = run_for(workload, instance, units, args.seconds)
    ops = flatten(steps)
    # Closing reaps pool workers, so their RSS is counted; the checks
    # build sessions of their own and must not be.
    workload.close(instance)
    rss = peak_rss_mb()
    wrong = workload.verify(instance, done, ops, args.seed)
    metrics = end_to_end(steps, workload.units_per_block)
    metrics["peak_rss_mb"] = rss
    return record(ops, wrong, metrics, provenance(workload.name, ops, len(done)))


def traced(workload, instance, units, args) -> dict:
    import servicemix
    import spans

    done, steps = run_for(workload, instance, units, args.seconds / 2)
    ops_a = flatten(steps)
    recorder = spans.SpanRecorder()
    spans.install(recorder)
    wrong = []
    try:
        instance = workload.reopen(instance)
        recorder.clear()
        ops_b = replay(workload, instance, done)
        layers = spans.engine_metrics(recorder)
        layers.update(spans.perf_metrics(recorder))
        if workload.name == "service_mix":
            layers.update(servicemix.layer_metrics(instance, ops_b, recorder))
        else:
            layers.update(dict.fromkeys(servicemix.LAYER_METRICS, 0))
        if workload.name == "fig5_perf":
            chunks = spans.grid_chunk_counts(recorder)
            if not chunks or min(chunks) < 2:
                wrong.append(f"fig5_perf: a grid fanned out fewer than 2 chunks: {chunks}")
    finally:
        recorder.unpatch()
    workload.close(instance)
    if [op.fingerprint for op in ops_a] != [op.fingerprint for op in ops_b]:
        wrong.append("traced replay returned different bytes")
    if workload.name == "fig5_perf":
        layers.update(perf_pass(workload, done[0]))
    wrong += workload.verify(instance, done, ops_b, args.seed)
    layers.update(path_metrics(ops_a, len(wrong)))
    # Same operations in both passes; medians keep a slow spell of the
    # host out of the comparison.
    layers["trace_overhead_frac"] = median_latency(ops_b) / median_latency(ops_a) - 1.0
    return record(ops_a + ops_b, wrong, layers, provenance(workload.name, ops_a, len(done)))


def perf_pass(workload, unit) -> dict:
    """Perf stage times from one in-process (one-worker) traced unit."""
    import spans

    recorder = spans.SpanRecorder()
    spans.install(recorder)
    try:
        session = workload.open(workers=1)
        recorder.clear()
        try:
            workload.run_unit(session, unit)
        finally:
            workload.close(session)
        return spans.perf_metrics(recorder)
    finally:
        recorder.unpatch()


def record(ops, wrong: "list[str]", metrics: dict, provenance: dict) -> dict:
    """The result line: operations that raised plus every wrong result
    count as failed (never more than were attempted)."""
    errors = [f"operation failed: {op.error}" for op in ops if op.error is not None]
    attempted = max(len(ops), 1)
    failed = min(len(errors) + len(wrong), attempted)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "findings": (errors + wrong)[:20],
        "provenance": provenance,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "measure"), default="measure")
    args = parser.parse_args(argv)
    # The checkout's sources, ahead of anything installed.
    sys.path.insert(0, str(ROOT / "src"))

    workload = make_workload(args.workload)
    instance = workload.open()
    print("ready", flush=True)
    if args.mode == "setup":
        workload.close(instance)
        return 0
    units = workload.units(args.seed)
    result = (traced if args.trace else measure)(workload, instance, units, args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
