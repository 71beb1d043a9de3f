"""Self-contained HTML rendering for results and benchmark trends.

``repro.viz`` turns the project's two machine-readable artifacts into
human-readable, fully self-contained HTML (inline SVG + inline JSON,
zero external fetches, stdlib only):

:func:`render_report` / :func:`write_report`
    One :class:`~repro.api.result.Result` → a figure-style report:
    every series plotted as inline SVG (bars for categorical axes,
    lines with confidence bands for numeric ones), the full data
    table, the run's ``meta["telemetry"]`` digest, and spec provenance
    (content hash included).  The exact result JSON is embedded in a
    ``<script type="application/json" id="repro-result">`` block, so
    the report doubles as a lossless carrier of its own data.

:func:`render_trend` / :func:`write_trend`
    A sequence of benchmark-record directories (committed baselines,
    fresh CI runs, ...) → a per-metric sparkline trend dashboard with
    direction-aware regression highlighting against the checked-in
    tolerance bands (``benchmarks/tolerances.json``).  The ingested
    numbers are embedded under ``id="repro-bench-trend"``.

:func:`render_timeline` / :func:`write_timeline`
    One persisted job trace (the service's ``--cache-dir`` trace files or a
    saved ``GET /jobs/{id}/trace`` response) → a span-timeline gantt
    with per-span offsets/durations/events and the exact trace payload
    embedded under ``id="repro-trace"`` (which keeps it loadable in
    ``chrome://tracing``/Perfetto too).  CLI:
    ``python -m repro trace job.json -o timeline.html``.

:func:`render_flamegraph` / :func:`write_flamegraph`
    One sampled-stack profile (collapsed text such as a
    ``--profile-out`` file, a ``GET /debug/profile`` JSON, or a result
    JSON carrying ``meta.telemetry.profile``) → an inline-SVG
    icicle flamegraph with a top-functions table and the collapsed
    payload embedded under ``id="repro-profile"``.  CLI:
    ``python -m repro flamegraph profile.json -o flame.html``.

:mod:`repro.viz.bench`
    The shared benchmark-record semantics both the dashboard and the
    gating ``benchmarks/compare.py`` CI step use: loading/flattening
    ``BENCH_*.json``, metric direction inference, per-metric tolerance
    bands, and the comparison itself.

Both renderers are exposed on the CLI as ``python -m repro report`` and
``python -m repro bench-trend``.
"""

from .bench import Tolerances, compare_records, direction, flatten, load_bench_dir
from .flamegraph import (
    load_profile,
    parse_collapsed,
    render_flamegraph,
    write_flamegraph,
)
from .report import render_report, write_report
from .timeline import load_trace, render_timeline, write_timeline
from .trend import load_runs, render_trend, write_trend

__all__ = [
    "Tolerances",
    "compare_records",
    "direction",
    "flatten",
    "load_bench_dir",
    "load_profile",
    "load_runs",
    "load_trace",
    "parse_collapsed",
    "render_flamegraph",
    "render_report",
    "render_timeline",
    "render_trend",
    "write_flamegraph",
    "write_report",
    "write_timeline",
    "write_trend",
]
