"""Explain one run from its own artifacts: one loader, one HTML page.

:func:`load_source` reads any artifact a run leaves and tells the
carrier from its shape:

- a saved :class:`~repro.api.result.Result` JSON (``run --json``, a
  ``serve`` result mirror);
- a job trace: the :meth:`repro.obs.trace.Trace.export` shape the
  service persists (``<cache_dir>/traces/<job_id>.json``, a
  ``GET /jobs/{id}/trace`` body) or a bare ``{"trace_id", "spans"}``;
- a profile JSON (``GET /debug/profile``, anything with a ``"stacks"``
  mapping);
- collapsed-stack text (``frameA;frameB count`` per line, a
  ``run --profile-out`` ``.collapsed`` file).

It validates everything the page reads, so malformed input is a
:class:`ValueError` with a one-line message, never a broken page.
:func:`render_page` draws every section the source carries: the
result's figures, data tables and provenance, the telemetry cards (which
path ran, what the estimator achieved), the span Gantt and span table,
and the flamegraph (of a profile, or of a result's
``meta.telemetry.profile``).  The source payload is embedded as-is under
``<script type="application/json" id="repro-<kind>">``, so the page
parses back to its input; a trace page keeps the ``traceEvents`` array
that ``chrome://tracing``/Perfetto load.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from repro.api.result import Result

from ._page import _esc, cards, embed_json, page, table
from .svg import bar_rows, series_chart

__all__ = ["Source", "load_source", "parse_collapsed", "render_page", "write_page"]

#: Bar fills, cycled per span name (Gantt) or per stack depth (icicle).
_PALETTE = ("#2a78d6", "#2f9e62", "#c2701e", "#8e5bc0", "#c24a4a", "#3b8ea5")

_UNKNOWN = "not a saved Result, job trace, profile or collapsed-stack text"


def parse_collapsed(text: str) -> "dict[str, int]":
    """Collapsed-stack text → ``{stack: count}`` (blank lines skipped,
    duplicate stacks summed).

    Raises :class:`ValueError` on a line without a trailing
    non-negative integer count.
    """
    counts: "dict[str, int]" = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        stack, _, count = line.rpartition(" ")
        if not stack or not count.isdecimal():
            raise ValueError(
                f"line {lineno} is not collapsed-stack format "
                f"('frames... count', count >= 0): {line!r}"
            )
        counts[stack] = counts.get(stack, 0) + int(count)
    return counts


def _check_stacks(profile: object) -> None:
    stacks = profile.get("stacks") if isinstance(profile, dict) else None
    if not isinstance(stacks, dict):
        raise ValueError("a profile needs a 'stacks' mapping")
    for stack, count in stacks.items():
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            raise ValueError(
                f"stack {stack!r} has count {count!r}; "
                "counts must be non-negative integers"
            )


def _is_number(value: object) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _spans(trace: dict) -> "list[tuple[int, dict]]":
    """The trace's spans as ``(depth, span)``, sorted by start time."""
    spans = trace.get("spans")
    if "trace_id" not in trace or not isinstance(spans, list):
        raise ValueError("a trace needs 'trace_id' and a 'spans' list")
    for i, span in enumerate(spans):
        if not isinstance(span, dict):
            raise ValueError(f"span {i} is not an object")
        end = span.get("end")
        if (
            not isinstance(span.get("span_id"), str)
            or not isinstance(span.get("parent_id"), (str, type(None)))
            or not _is_number(span.get("start"))
            or not (end is None or _is_number(end))
            or not isinstance(span.get("attrs", {}), dict)
            or not isinstance(span.get("events", []), list)
            or not all(
                isinstance(e, dict) and _is_number(e.get("t", 0.0))
                for e in span.get("events", [])
            )
        ):
            raise ValueError(
                f"span {i} needs string ids, a numeric 'start' and 'end', an "
                "'attrs' object and an 'events' list of timed objects"
            )
    by_id = {span["span_id"]: span for span in spans}
    depths: "dict[str, int]" = {}
    for span in spans:
        chain, seen, span_id = [], set(), span["span_id"]
        while span_id in by_id and span_id not in depths:
            if span_id in seen:
                raise ValueError(f"span parent links form a cycle at {span_id!r}")
            chain.append(span_id)
            seen.add(span_id)
            span_id = by_id[span_id].get("parent_id")
        base = depths.get(span_id, -1)  # -1: the chain ends at a root
        for offset, link in enumerate(reversed(chain), start=1):
            depths[link] = base + offset
    ordered = sorted(spans, key=lambda s: (s["start"], s["span_id"]))
    return [(depths[s["span_id"]], s) for s in ordered]


@dataclass(frozen=True)
class Source:
    """One loaded artifact: its ``kind`` (``"result"``, ``"trace"`` or
    ``"profile"``), the ``payload`` embedded in the page, and the parts
    the page draws.  Build one with :meth:`of` or :func:`load_source`."""

    kind: str
    payload: dict
    name: str = ""
    result: "Result | None" = None
    trace: "dict | None" = None
    spans: "list[tuple[int, dict]] | None" = None
    profile: "dict | None" = None

    @classmethod
    def of(cls, payload: object, name: str = "") -> "Source":
        """Classify and validate one JSON payload (:class:`ValueError`
        when it is no known carrier or is malformed)."""
        if not isinstance(payload, dict):
            raise ValueError(_UNKNOWN)
        if "experiment" in payload:
            try:
                result = Result.from_json(json.dumps(payload))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise ValueError(f"not a saved Result: {exc}") from None
            telemetry = result.telemetry()
            if telemetry is not None and not isinstance(telemetry, dict):
                raise ValueError("meta.telemetry must be an object")
            profile = (telemetry or {}).get("profile")
            if profile is not None:
                _check_stacks(profile)
            return cls("result", payload, name, result=result, profile=profile)
        trace = payload.get("trace")
        if isinstance(trace, dict) or "spans" in payload:
            trace = trace if isinstance(trace, dict) else payload
            return cls("trace", payload, name, trace=trace, spans=_spans(trace))
        if "stacks" in payload:
            _check_stacks(payload)
            return cls("profile", payload, name, profile=payload)
        raise ValueError(_UNKNOWN)


def load_source(path: "str | Path") -> Source:
    """Read one artifact file; :class:`ValueError` names the file and
    what is wrong with it."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            try:
                payload = {"stacks": parse_collapsed(text)}
            except ValueError as exc:
                raise ValueError(f"not JSON, and {exc}") from None
        return Source.of(payload, path.name)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------
def _flat(mapping: dict, prefix: str = "") -> "list[list[object]]":
    rows: "list[list[object]]" = []
    for key, value in mapping.items():
        if isinstance(value, dict):
            rows += _flat(value, f"{prefix}{key}.")
        else:
            if isinstance(value, (list, tuple)):
                value = ", ".join(map(str, value))
            rows.append([f"{prefix}{key}", value])
    return rows


def _result_sections(result: Result) -> "list[str]":
    spec, telemetry = result.spec, result.telemetry() or {}
    elapsed = telemetry.get("elapsed_seconds")
    from_cache = {True: "yes", False: "no"}.get(telemetry.get("from_cache"), "n/a")
    pools = (telemetry.get("executor") or {}).get("pools_started")
    counts = [("trials", spec.trials), ("seed", spec.seed)]
    body = [
        cards([  # which path ran, and what the estimator achieved
            ("backend", result.backend),
            ("series", len(result.series)),
            *counts,
            ("elapsed", None if elapsed is None else f"{elapsed} s"),
            ("served from cache", from_cache if telemetry else None),
            ("workers", telemetry.get("workers")),
            ("pools started", pools),
            ("realized trials", telemetry.get("realized_trials")),
            ("ESS", telemetry.get("ess")),
            ("variance reduction", telemetry.get("variance_reduction_factor")),
        ]),
        "<h2>Provenance</h2>",
        table(["field", "value"], [
            ["experiment", result.experiment],
            ["spec hash", result.spec_hash],
            *([k, v] for k, v in counts if v is not None),
            ["confidence", spec.confidence],
            *([f"param {k}", v] for k, v in sorted(spec.param_dict().items())),
        ]),
        "<h2>Figures</h2>",
    ]
    for series in result.series:
        bounds = series.lower is not None and series.upper is not None
        xs = list(series.x) or list(range(len(series.y)))
        rows = [
            [x, y, *((series.lower[i], series.upper[i]) if bounds else ())]
            for i, (x, y) in enumerate(zip(xs, series.y))
        ]
        head = ["x", "y", *(("lower", "upper") if bounds else ())]
        caption = _esc(series.name + (f" ({series.units})" if series.units else ""))
        chart = series_chart(
            series.x, series.y, title=series.name, units=series.units,
            lower=series.lower, upper=series.upper,
        )
        body.append(
            f"<figure>{chart}<figcaption>{caption}</figcaption></figure>"
            f"<details><summary>Data table — {caption}</summary>"
            f"{table(head, rows, numeric=(1, 2, 3))}</details>"
        )
    if not result.series:
        body.append("<p>This result carries no series.</p>")
    body.append("<h2>Telemetry</h2>")
    if not telemetry:
        return body + ["<p>No telemetry recorded for this run.</p>"]
    rest = {k: v for k, v in telemetry.items() if k != "profile"}  # flamegraph
    return body + [table(["field", "value"], _flat(rest))]


def _span_sections(trace: dict, spans: "list[tuple[int, dict]]") -> "list[str]":
    t0 = min((span["start"] for _, span in spans), default=0.0)
    t1 = max(
        (s["start"] if s.get("end") is None else s["end"] for _, s in spans),
        default=t0,
    )
    head = cards([
        ("trace id", str(trace["trace_id"])[:16]),
        ("job", trace.get("name") or "—"),
        ("spans", len(spans)),
        ("total", f"{(t1 - t0) * 1e3:.2f} ms"),
    ])
    if not spans:
        return [head, "<p>This trace contains no finished spans.</p>"]
    total = max(t1 - t0, 1e-9)
    gutter, plot_w, row_h, top = 210, 760, 20, 22
    scale = plot_w / total
    colors: "dict[str, str]" = {}
    under, over, bars, rows = [], [], [], []
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = gutter + frac * plot_w
        under.append(
            f'<line class="viz-grid" x1="{x:.1f}" y1="{top - 6}" '
            f'x2="{x:.1f}" y2="{top + row_h * len(spans)}"/>'
            f'<text class="viz-tick" x="{x:.1f}" y="{top - 10}" '
            f'text-anchor="middle">{frac * total * 1e3:.2f} ms</text>'
        )
    for row, (depth, span) in enumerate(spans):
        name, start, end = str(span.get("name", "?")), span["start"], span.get("end")
        color = colors.setdefault(name, _PALETTE[len(colors) % len(_PALETTE)])
        took = "open" if end is None else f"{(end - start) * 1e3:.3f} ms"
        y = top + row * row_h + row_h / 2
        under.append(
            f'<text class="viz-gutter" x="{8 + 12 * min(depth, 8)}" '
            f'y="{y + 3:.1f}">{_esc(name)}</text>'
        )
        width = max(((start if end is None else end) - start) * scale, 2.0)
        tooltip = f"{name} — {took} ({span.get('thread', '?')})"
        bars.append((row, (start - t0) * scale, width, color, tooltip, ""))
        for event in span.get("events", ()):
            t = event.get("t", start)
            over.append(
                f'<circle class="viz-event" cx="{gutter + (t - t0) * scale:.1f}" '
                f'cy="{y - 1:.1f}" r="2.5"><title>{_esc(event.get("name", "?"))} '
                f"at {(t - t0) * 1e3:.3f} ms</title></circle>"
            )
        attrs = sorted(span.get("attrs", {}).items())
        rows.append([
            "\u00a0" * 3 * min(depth, 8) + name,
            span["span_id"],
            f"{(start - t0) * 1e3:.3f}",
            "—" if end is None else f"{(end - start) * 1e3:.3f}",
            span.get("thread", ""),
            len(span.get("events", ())),
            ", ".join(f"{k}={v}" for k, v in attrs),
        ])
    gantt = bar_rows(
        bars, n_rows=len(spans), width=gutter + plot_w + 20, row_h=row_h,
        label="span timeline", left=gutter, top=top, under=under, over=over,
    )
    columns = [
        "span", "id", "offset (ms)", "duration (ms)", "thread", "events", "attributes",
    ]
    return [
        head,
        "<h2>Timeline</h2>",
        '<p class="subtitle">One row per span, indented by parent; dots are '
        "span events.</p>",
        gantt,
        "<h2>Spans</h2>",
        table(columns, rows, numeric=(2, 3, 5)),
    ]


def _build_tree(stacks: "dict[str, int]") -> dict:
    """Collapsed counts → an inclusive-value frame trie rooted at 'all'."""
    root = {"name": "all", "value": 0, "children": {}}
    for stack, count in stacks.items():
        root["value"] += count
        node = root
        for frame in stack.split(";"):
            node = node["children"].setdefault(
                frame, {"name": frame, "value": 0, "children": {}}
            )
            node["value"] += count
    return root


def _flame_sections(profile: dict) -> "list[str]":
    stacks = profile["stacks"]
    root = _build_tree(stacks)
    total = root["value"]
    duration = profile.get("duration_seconds")
    rss = (profile.get("process") or {}).get("max_rss_bytes")
    body = [
        "<h2>Flamegraph</h2>",
        cards([
            ("samples", profile.get("samples", total)),
            ("unique stacks", len(stacks)),
            ("rate", f"{profile['hz']} Hz" if "hz" in profile else None),
            ("duration", f"{duration:.2f} s" if _is_number(duration) else None),
            ("peak RSS", f"{rss / 1e6:.1f} MB" if _is_number(rss) else None),
        ]),
    ]
    if total <= 0:
        return body + ["<p>This profile contains no samples.</p>"]
    width, row_h = 980, 18
    bars, todo, max_depth = [], [(root, 0, 0.0)], 0
    while todo:  # iterative: a collapsed file may hold arbitrarily deep stacks
        node, depth, x = todo.pop()
        w = node["value"] / total * width
        if w < 0.5:
            continue
        max_depth = max(max_depth, depth)
        value = node["value"]
        tooltip = f"{node['name']} — {value} samples ({value / total:.1%})"
        fill = _PALETTE[(depth + 2) % len(_PALETTE)]
        bars.append((depth, x, w, fill, tooltip, node["name"].rsplit(":", 1)[-1]))
        children = node["children"].values()
        for child in sorted(children, key=lambda c: (-c["value"], c["name"])):
            todo.append((child, depth + 1, x))
            x += child["value"] / total * width
    self_counts: "dict[str, int]" = {}
    incl_counts: "dict[str, int]" = {}
    for stack, count in stacks.items():
        frames = stack.split(";")
        self_counts[frames[-1]] = self_counts.get(frames[-1], 0) + count
        for frame in set(frames):
            incl_counts[frame] = incl_counts.get(frame, 0) + count
    top = sorted(self_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:25]
    rows = [
        [
            frame, n, f"{n / total:.1%}",
            incl_counts[frame], f"{incl_counts[frame] / total:.1%}",
        ]
        for frame, n in top
    ]
    return body + [
        '<p class="subtitle">Frame width is the inclusive share of samples; '
        "hover any frame for exact counts.</p>",
        bar_rows(
            bars, n_rows=max_depth + 1, width=width, row_h=row_h, label="flamegraph"
        ),
        "<h2>Top functions</h2>",
        table(
            ["function", "self", "self %", "incl", "incl %"], rows, numeric=(1, 2, 3, 4)
        ),
    ]


def render_page(source: Source) -> str:
    """The source as one self-contained HTML explain page (a string)."""
    result, trace = source.result, source.trace
    if result is not None:
        heading = f"{result.experiment} ({result.backend})"
        subtitle, body = f"spec {result.spec_hash}", _result_sections(result)
    elif trace is not None:
        heading = f"Trace {str(trace['trace_id'])[:12]}"
        heading += f" — {trace['name']}" if trace.get("name") else ""
        subtitle = "The embedded JSON also loads in chrome://tracing / Perfetto."
        body = _span_sections(trace, source.spans)
    else:
        heading, subtitle, body = "Sampled profile", "", []
    if source.profile is not None:
        body += _flame_sections(source.profile)
    element_id = f"repro-{source.kind}"
    subtitle = " · ".join(part for part in (source.name, subtitle) if part)
    return page(f"{heading} — repro explain", "\n".join([
        f"<h1>{_esc(heading)}</h1>",
        f'<p class="subtitle">{_esc(subtitle)}</p>',
        *body,
        "<h2>Embedded data</h2>",
        "<p>The source payload is embedded as-is; parse "
        f"<code>#{element_id}</code> to recover it losslessly.</p>",
        embed_json(element_id, json.dumps(source.payload, sort_keys=True)),
    ]))


def write_page(source: Source, path: "str | Path") -> Path:
    """Render ``source`` and write the page to ``path``; returns the path."""
    path = Path(path)
    path.write_text(render_page(source), encoding="utf-8")
    return path
