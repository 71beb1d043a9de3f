"""Gate fresh ``BENCH_*.json`` runs against the committed baselines.

The benchmark suite records machine-readable measurements
(``reporting.write_bench``); the committed snapshots under
``benchmarks/baselines/`` pin the performance trajectory.  This script
compares a fresh run against them::

    python -m pytest benchmarks -q          # writes BENCH_*.json to CWD
    python benchmarks/compare.py            # diffs CWD vs baselines

The comparison semantics live in ``trend.py`` beside this script
(shared with its trend dashboard): nested payloads are flattened to
dotted metric ids, throughput-like metrics may regress by at most their
tolerance band, latency-like metrics may grow by the same, and
direction-unknown metrics are surfaced but never judged.
Bands come from the checked-in ``benchmarks/tolerances.json``
(``--tolerances`` overrides the file, ``--tolerance`` the default
band).

Exit status: 0 when nothing regressed beyond tolerance, 1 otherwise.
CI runs this as a *gating* step; ``--no-fail`` is the escape hatch for
pure report mode (exit 0 regardless), e.g. on known-noisy runners.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import trend  # noqa: E402  the record semantics beside this script


def _format(result: dict) -> "tuple[list[str], list[str]]":
    """Render compare_records() output as (report lines, regression lines)."""
    lines: "list[str]" = []
    regressions: "list[str]" = []
    for name in result["missing"]:
        lines.append(f"{name}: no fresh record (benchmark not run?)")
    for name in result["extra"]:
        lines.append(f"{name}: new benchmark, no baseline yet")
    judged = quiet = 0
    for entry in result["entries"]:
        label = (
            f"{entry['metric']}: {entry['old']:g} -> {entry['new']:g} "
            f"({entry['change']:+.1%}, band {entry['band']:.0%})"
        )
        status = entry["status"]
        if status == "regression":
            judged += 1
            regressions.append(f"  REGRESSION {label}")
        elif status == "ok":
            judged += 1
            lines.append(f"  ok {label}")
        elif status == "info":
            lines.append(f"  (info, large shift) {label}")
        else:  # quiet: direction-unknown, inside the band
            quiet += 1
    lines.append(
        f"compared {len(result['entries'])} numeric metrics "
        f"({judged} direction-judged, {quiet} direction-unknown within band)"
    )
    return lines, regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate fresh BENCH_*.json files against committed baselines."
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path(__file__).parent / "baselines",
        help="directory of committed baseline BENCH_*.json files",
    )
    parser.add_argument(
        "--fresh",
        type=Path,
        default=Path("."),
        help="directory containing the fresh run's BENCH_*.json files",
    )
    parser.add_argument(
        "--tolerances",
        type=Path,
        default=Path(__file__).parent / "tolerances.json",
        help="per-metric tolerance band file (default: benchmarks/tolerances.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="override the file's default band (per-metric patterns still apply)",
    )
    parser.add_argument(
        "--no-fail",
        action="store_true",
        help="always exit 0 (pure report mode; the documented escape hatch "
        "for known-noisy runners)",
    )
    args = parser.parse_args(argv)
    if not args.baseline.is_dir():
        print(f"error: baseline directory {args.baseline} not found", file=sys.stderr)
        return 0 if args.no_fail else 1

    if args.tolerances.is_file():
        tolerances = trend.Tolerances.from_file(args.tolerances)
    else:
        print(
            f"warning: tolerance file {args.tolerances} not found, "
            "using defaults",
            file=sys.stderr,
        )
        tolerances = trend.Tolerances()
    if args.tolerance is not None:
        tolerances = trend.Tolerances(
            default=args.tolerance, bands=tolerances.bands
        )

    result = trend.compare_records(
        trend.load_bench_dir(args.baseline),
        trend.load_bench_dir(args.fresh),
        tolerances,
    )
    lines, regressions = _format(result)
    print(f"benchmark comparison (default band {tolerances.default:.0%}):")
    for line in lines:
        print(line)
    for line in regressions:
        print(line)
    if regressions:
        print(f"{len(regressions)} regression(s) beyond tolerance")
        return 0 if args.no_fail else 1
    print("no regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
