"""Layered host-time benchmark of the repro package.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig3_clustered --seed 1 --seconds 15 --trace 0

Each invocation starts fresh interpreters (``child.py``) so no number
depends on what ran earlier in the same process.  Untraced, it first
sets the workload up in ``SETUP_SAMPLES - 1`` throwaway processes, then
measures in one more; ``setup_s`` is the median of all their
interpreter-start-to-ready times.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it carries the run's provenance and any findings.

The end-to-end metrics (``--trace 0``) and per-layer metrics
(``--trace 1``) are listed, with units, in ``BENCHMARK.json``.  Per-layer
times in seconds are totals over the traced replay of a run's units;
``*_ms`` figures are medians per operation; counts are exact.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig3_clustered", "dense_faults", "fig5_perf", "service_mix")
#: Set-ups timed per untraced run (the measuring process is the last).
SETUP_SAMPLES = 3
#: Whole-run bound: a hung child is killed and the run fails.
RUN_TIMEOUT_S = 170.0


class ChildError(RuntimeError):
    pass


def run_child(args, mode: str, deadline: float):
    """Run ``child.py`` to completion; returns (set-up seconds, output lines)."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--mode", mode,
    ]
    started = time.perf_counter()
    # A session of its own, so a hung child is killed with its pool workers.
    process = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), kill, (process,))
    watchdog.start()
    try:
        setup = None
        for line in process.stdout:
            if line.strip() == "ready":
                setup = time.perf_counter() - started
                break
        lines = process.stdout.read().splitlines()
        code = process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            kill(process)
            process.wait()
    if code != 0 or setup is None:
        raise ChildError(f"child exited with code {code}")
    return setup, lines


def kill(process) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(process.pid, signal.SIGKILL)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = []
    try:
        for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
            setups.append(run_child(args, "setup", deadline)[0])
        setup, lines = run_child(args, "measure", deadline)
        setups.append(setup)
        record = json.loads(lines[-1])
    except (ChildError, IndexError, json.JSONDecodeError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        record["metrics"]["setup_s"] = statistics.median(setups)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
        for m in declared
    }
    info = {
        "provenance": record["provenance"],
        "findings": record["findings"],
        "setup_samples_s": setups,
    }
    print("perfbench " + json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
