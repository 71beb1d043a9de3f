"""``BENCH_*.json`` record semantics and the benchmark trend dashboard.

The benchmark suite writes machine-readable measurement files
(``reporting.write_bench``); the committed snapshots under
``benchmarks/baselines/`` pin the performance trajectory.  This module
is the single home for what those records *mean*, shared by the gating
``compare.py`` beside it:

- :func:`load_bench_dir` — read every ``BENCH_*.json`` in a directory
  into ``{benchmark_name: record}``.
- :func:`flatten` / :func:`numeric_metrics` — nested figure payloads
  become dotted keys (``fat.speedup``) so every numeric leaf
  participates.
- :func:`direction` — +1 for throughput-like metrics (``*_per_second``,
  ``speedup``), -1 for latency-like ones (``ms_per_*``, ``*_elapsed``),
  ``None`` when unknown; ``target_*`` keys are configured gates, never
  judged.
- :class:`Tolerances` — the per-metric tolerance bands from
  ``tolerances.json``: a default band plus ``fnmatch`` patterns over
  fully-qualified metric ids (``perf.fat.speedup``).
- :func:`compare_records` — the structured baseline-vs-fresh diff
  ``compare.py`` gates on.

Run as a script, it renders benchmark-record directories (oldest first:
committed baselines, then newer runs such as a fresh CI output) as a
sparkline trend dashboard, one row per metric with a direction-aware
first→last status (arrow + word, never color alone) judged against the
tolerance bands; the ingested numbers are embedded under
``id="repro-bench-trend"``::

    python benchmarks/trend.py benchmarks/baselines fresh/ -o bench-trend.html

Exit status: 0 on success, 2 when a directory or the tolerance file is
missing or malformed.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import logging
import math
import sys
from dataclasses import dataclass
from html import escape
from pathlib import Path
from typing import Any, Mapping, Sequence

try:
    from repro.viz._page import embed_json, page
except ImportError:  # running from a checkout without the package installed
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.viz._page import embed_json, page

#: DOM id of the embedded trend JSON block.
TREND_JSON_ID = "repro-bench-trend"

_log = logging.getLogger("benchmarks.trend")

#: Fallback band when no tolerance file/pattern applies.  CI machines
#: are noisy; the point is catching collapses, not jitter.
DEFAULT_TOLERANCE = 0.6

#: Top-level keys never compared: bookkeeping/provenance, not
#: measurements (``elapsed_seconds`` is numeric but describes the
#: harness, not the benchmark).
SKIP_KEYS = frozenset(
    {"recorded_at", "workload", "git_commit", "python_version", "elapsed_seconds"}
)

#: Key fragments that identify a metric's good direction.
_HIGHER_IS_BETTER = ("per_second", "speedup", "trials_per")
_LOWER_IS_BETTER = ("ms_per", "seconds_per", "elapsed", "_ms")


def direction(metric_key: str) -> "int | None":
    """+1 higher-is-better, -1 lower-is-better, ``None`` unknown.

    Accepts either a bare leaf key (``speedup``) or a dotted path
    (``perf.fat.speedup``).  ``target_*`` leaves are configured gates
    rather than measurements and are never judged.
    """
    lowered = metric_key.lower()
    if lowered.rsplit(".", 1)[-1].startswith("target_"):
        return None
    if any(fragment in lowered for fragment in _HIGHER_IS_BETTER):
        return 1
    if any(fragment in lowered for fragment in _LOWER_IS_BETTER):
        return -1
    return None


def flatten(record: Mapping, prefix: str = "") -> "dict[str, Any]":
    """Flatten nested measurement dicts into dotted keys.

    The fig* benchmarks record structured payloads (per-scheme, per-bar
    nested mappings); flattening lets every leaf participate in a
    comparison instead of being skipped as "not a number".
    """
    flat: "dict[str, Any]" = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, Mapping):
            flat.update(flatten(value, prefix=f"{name}."))
        else:
            flat[name] = value
    return flat


def numeric_metrics(record: Mapping) -> "dict[str, float]":
    """The record's judgeable numbers: flattened, bookkeeping and
    non-numeric leaves dropped (bools are flags, not measurements)."""
    metrics = {}
    for key, value in flatten(record).items():
        if key.split(".", 1)[0] in SKIP_KEYS:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        metrics[key] = float(value)
    return metrics


def load_bench_dir(directory: "Path | str") -> "dict[str, dict]":
    """Read every ``BENCH_*.json`` under ``directory``.

    Returns ``{benchmark_name: record}`` (``BENCH_engine.json`` →
    ``"engine"``).  Unreadable files are logged as warnings and
    skipped — one corrupt record must not take down a CI report.
    """
    directory = Path(directory)
    records: "dict[str, dict]" = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        name = path.stem[len("BENCH_"):]
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            _log.warning("skipping unreadable benchmark record %s: %s", path, exc)
            continue
        if not isinstance(payload, dict):
            _log.warning("skipping non-object benchmark record %s", path)
            continue
        records[name] = payload
    return records


@dataclass(frozen=True)
class Tolerances:
    """Per-metric tolerance bands for benchmark gating.

    ``default`` applies when no pattern matches; ``bands`` is an
    ordered sequence of ``(fnmatch_pattern, band)`` pairs matched
    against fully-qualified metric ids (``engine.speedup``,
    ``perf.fat.speedup``, ``engine_scaling.ms_per_trial_*``) — first
    match wins, so put specific patterns before broad ones.

    The checked-in ``benchmarks/tolerances.json`` file serializes this
    as ``{"default": 0.6, "metrics": {pattern: band, ...}}``.
    """

    default: float = DEFAULT_TOLERANCE
    bands: "tuple[tuple[str, float], ...]" = ()

    def band_for(self, metric_id: str) -> float:
        for pattern, band in self.bands:
            if fnmatch.fnmatchcase(metric_id, pattern):
                return band
        return self.default

    @classmethod
    def from_file(cls, path: "Path | str") -> "Tolerances":
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: tolerance file must be a JSON object")
        default = float(payload.get("default", DEFAULT_TOLERANCE))
        metrics = payload.get("metrics", {})
        if not isinstance(metrics, dict):
            raise ValueError(f"{path}: 'metrics' must map patterns to bands")
        bands = tuple((str(k), float(v)) for k, v in metrics.items())
        for pattern, band in bands:
            if band < 0:
                raise ValueError(f"{path}: negative band for {pattern!r}")
        return cls(default=default, bands=bands)


def compare_records(
    baselines: "Mapping[str, Mapping]",
    fresh: "Mapping[str, Mapping]",
    tolerances: "Tolerances | None" = None,
) -> dict:
    """Structured diff of fresh benchmark records against baselines.

    Every shared numeric leaf becomes one entry::

        {"metric": "perf.fat.speedup", "old": 62.6, "new": 61.0,
         "change": -0.026, "direction": 1, "band": 0.6, "status": "ok"}

    ``status`` is ``"regression"`` when a direction-judged metric moved
    the wrong way beyond its band, ``"info"`` for direction-unknown
    metrics that shifted beyond the band (surfaced, never gating),
    ``"quiet"`` for direction-unknown metrics inside it, else ``"ok"``.

    Returns ``{"entries": [...], "missing": [...], "extra": [...],
    "regressions": [...]}`` — ``missing`` are baselines with no fresh
    record, ``extra`` fresh records with no baseline (neither gates).
    """
    tolerances = tolerances or Tolerances()
    entries: "list[dict]" = []
    missing = sorted(set(baselines) - set(fresh))
    extra = sorted(set(fresh) - set(baselines))

    for name in sorted(set(baselines) & set(fresh)):
        base = numeric_metrics(baselines[name])
        new = numeric_metrics(fresh[name])
        for key in sorted(set(base) & set(new)):
            old_value, new_value = base[key], new[key]
            if old_value == 0:
                change = 0.0 if new_value == 0 else float("inf")
            else:
                change = (new_value - old_value) / abs(old_value)
            metric_id = f"{name}.{key}"
            sign = direction(key)
            band = tolerances.band_for(metric_id)
            if sign is None:
                status = "info" if abs(change) > band else "quiet"
            elif (sign == 1 and change < -band) or (sign == -1 and change > band):
                status = "regression"
            else:
                status = "ok"
            entries.append({
                "metric": metric_id,
                "old": old_value,
                "new": new_value,
                "change": change,
                "direction": sign,
                "band": band,
                "status": status,
            })
    return {
        "entries": entries,
        "missing": missing,
        "extra": extra,
        "regressions": [e for e in entries if e["status"] == "regression"],
    }


def sparkline(
    values: "Sequence[float]",
    *,
    width: int = 180,
    height: int = 36,
    tooltip: str = "",
) -> str:
    """Minimal inline trend line (no axes) for dashboard rows."""
    finite = [v for v in values if v is not None and math.isfinite(v)]
    if not finite:
        return '<svg class="viz-spark" width="%d" height="%d"></svg>' % (width, height)
    lo, hi = min(finite), max(finite)
    if hi <= lo:
        hi = lo + (abs(lo) or 1.0)
    pad = 4
    n = len(values)
    step = (width - 2 * pad) / max(n - 1, 1)

    def to_y(v: float) -> float:
        return pad + (height - 2 * pad) * (1 - (v - lo) / (hi - lo))

    points = " ".join(
        f"{pad + step * i:.1f},{to_y(v):.1f}"
        for i, v in enumerate(values)
        if v is not None and math.isfinite(v)
    )
    last_x = pad + step * (n - 1)
    last = next((v for v in reversed(values) if v is not None and math.isfinite(v)), None)
    parts = [
        f'<svg class="viz-spark" role="img" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}">'
    ]
    if tooltip:
        parts.append(f"<title>{escape(tooltip)}</title>")
    parts.append(f'<polyline class="viz-line" points="{points}"/>')
    if last is not None:
        parts.append(
            f'<circle class="viz-marker" cx="{last_x:.1f}" cy="{to_y(last):.1f}" r="3"/>'
        )
    parts.append("</svg>")
    return "".join(parts)


def load_runs(directories: "Sequence[Path | str]") -> "list[dict]":
    """Each directory becomes one trend point: ``{"label", "records"}``.

    Order is significant (oldest first); the directory name is the
    point's label.  Directories without any ``BENCH_*.json`` still
    appear (empty records) so a missing benchmark run is visible.
    """
    runs = []
    for directory in directories:
        path = Path(directory)
        label = path.resolve().name or str(path)
        runs.append({"label": label, "records": load_bench_dir(path)})
    return runs


def _fmt(value: "float | None") -> str:
    if value is None or not math.isfinite(value):
        return "—"
    if value == 0:
        return "0"
    if abs(value) >= 1e6 or abs(value) < 1e-3:
        return f"{value:.2e}"
    return f"{value:,.4g}"


def _status(values: "list[float | None]", metric_id: str, band: float) -> str:
    """First→last judgment as arrow + word (never color-alone)."""
    finite = [v for v in values if v is not None and math.isfinite(v)]
    if len(finite) < 2:
        return "· single point"
    first, last = finite[0], finite[-1]
    change = (last - first) / abs(first) if first else (0.0 if last == 0 else math.inf)
    sign = direction(metric_id)
    if sign is None:
        return f"· shifted {change:+.1%}" if abs(change) > band else "→ steady"
    bad = (sign == 1 and change < -band) or (sign == -1 and change > band)
    good = (sign == 1 and change > band) or (sign == -1 and change < -band)
    if bad:
        return f"↓ regressed {change:+.1%}"
    if good:
        return f"↑ improved {change:+.1%}"
    return f"→ steady {change:+.1%}"


def render_trend(
    runs: "Sequence[Mapping]", tolerances: "Tolerances | None" = None
) -> str:
    """The runs as one self-contained trend dashboard (HTML string)."""
    tolerances = tolerances or Tolerances()
    # Points are labelled per commit when records carry the provenance
    # write_bench adds ("dir@sha" instead of just the directory name).
    labels = []
    for run in runs:
        commit = next(
            (
                record.get("git_commit")
                for record in run["records"].values()
                if record.get("git_commit")
            ),
            None,
        )
        labels.append(
            f"{run['label']}@{str(commit)[:8]}" if commit else run["label"]
        )
    metrics_per_run = [
        {
            name: numeric_metrics(record)
            for name, record in run["records"].items()
        }
        for run in runs
    ]
    bench_names = sorted({name for per in metrics_per_run for name in per})

    body = [
        "<h1>Benchmark trends</h1>",
        f'<p class="subtitle">{len(bench_names)} benchmarks × '
        f"{len(runs)} runs (oldest → newest): "
        f"{escape(' → '.join(labels))}</p>",
    ]
    if not bench_names:
        body.append("<p>No BENCH_*.json records found in any input directory.</p>")
    for bench in bench_names:
        metric_keys = sorted({
            key for per in metrics_per_run for key in per.get(bench, {})
        })
        rows = []
        for key in metric_keys:
            metric_id = f"{bench}.{key}"
            values = [per.get(bench, {}).get(key) for per in metrics_per_run]
            band = tolerances.band_for(metric_id)
            tooltip = ", ".join(
                f"{label}: {_fmt(v)}" for label, v in zip(labels, values)
            )
            finite = [v for v in values if v is not None and math.isfinite(v)]
            rows.append(
                "<tr>"
                f"<td class=\"mono\">{escape(key)}</td>"
                f"<td>{sparkline(values, tooltip=tooltip)}</td>"
                f"<td class=\"num\">{_fmt(finite[0] if finite else None)}</td>"
                f"<td class=\"num\">{_fmt(finite[-1] if finite else None)}</td>"
                f"<td class=\"status\">{escape(_status(values, metric_id, band))}</td>"
                f"<td class=\"num\">{band:.0%}</td>"
                "</tr>"
            )
        body.append(f"<h2>{escape(bench)}</h2>")
        workloads = {
            run["records"][bench].get("workload")
            for run in runs
            if bench in run["records"]
        } - {None}
        if workloads:
            body.append(
                f'<p class="subtitle">{escape("; ".join(sorted(map(str, workloads))))}</p>'
            )
        body.append(
            "<table><thead><tr><th>metric</th><th>trend</th>"
            '<th class="num">first</th><th class="num">last</th>'
            '<th>status</th><th class="num">band</th></tr></thead>'
            f"<tbody>{''.join(rows)}</tbody></table>"
        )

    body.append("<h2>Embedded data</h2>")
    body.append(
        f"<p>The ingested records are embedded under "
        f"<code>#{TREND_JSON_ID}</code>.</p>"
    )
    payload = {
        "runs": [
            {"label": run["label"], "records": dict(run["records"])} for run in runs
        ],
        "tolerances": {
            "default": tolerances.default,
            "metrics": {pattern: band for pattern, band in tolerances.bands},
        },
    }
    body.append(embed_json(TREND_JSON_ID, json.dumps(payload, sort_keys=True)))
    return page("Benchmark trends — repro", "\n".join(body))


def write_trend(
    runs: "Sequence[Mapping]",
    path: "Path | str",
    tolerances: "Tolerances | None" = None,
) -> Path:
    path = Path(path)
    path.write_text(render_trend(runs, tolerances), encoding="utf-8")
    return path


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="Render BENCH_*.json directories as a trend dashboard."
    )
    parser.add_argument(
        "directories", metavar="DIR", nargs="+",
        help="benchmark-record directories, oldest first",
    )
    parser.add_argument(
        "-o", "--output", metavar="PATH", default="bench-trend.html",
        help="output HTML path (default: bench-trend.html)",
    )
    parser.add_argument(
        "--tolerances", metavar="FILE", type=Path,
        default=Path(__file__).parent / "tolerances.json",
        help="per-metric tolerance bands JSON (default: tolerances.json "
        "beside this script)",
    )
    args = parser.parse_args(argv)
    for directory in args.directories:
        if not Path(directory).is_dir():
            print(f"error: benchmark directory {directory} not found", file=sys.stderr)
            return 2
    try:
        tolerances = Tolerances.from_file(args.tolerances)
    except (OSError, ValueError) as exc:
        print(f"error: bad tolerance file {args.tolerances}: {exc}", file=sys.stderr)
        return 2
    output = write_trend(load_runs(args.directories), args.output, tolerances)
    print(f"wrote {output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
