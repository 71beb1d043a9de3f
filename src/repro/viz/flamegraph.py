"""Render a sampled-stack profile as a self-contained HTML flamegraph.

Input is any carrier of collapsed stacks the profiling layer produces:

- collapsed-stack text (``frameA;frameB count`` per line, the
  ``--profile-out`` ``.collapsed`` file);
- a profile payload dict (:meth:`repro.obs.RunProfiler.profile`, the
  service's ``GET /debug/profile`` body) — anything with a
  ``"stacks"`` mapping;
- a full result JSON whose ``meta.telemetry.profile`` carries one (a
  ``serve --profile`` result mirror included).

Output follows the project's report pattern: one HTML file, inline SVG
icicle (root at the top, frame width ∝ inclusive sample count), a
top-functions table, zero external fetches, and the exact collapsed
payload embedded under ``<script type="application/json"
id="repro-profile">`` so the flamegraph doubles as a lossless carrier
of its own samples.
"""

from __future__ import annotations

import html
import json
from pathlib import Path

from ._page import embed_json, page

__all__ = [
    "PROFILE_JSON_ID",
    "load_profile",
    "parse_collapsed",
    "render_flamegraph",
    "write_flamegraph",
]

#: DOM id of the embedded profile JSON block.
PROFILE_JSON_ID = "repro-profile"

#: Frame fills cycled per depth (same family as the timeline palette).
_PALETTE = ("#c2701e", "#2a78d6", "#2f9e62", "#8e5bc0", "#c24a4a", "#3b8ea5")

_FLAME_CSS = """
.fg-frame { stroke: var(--viz-surface); stroke-width: 1; }
.fg-label { fill: #fff; font-size: 11px; pointer-events: none;
  font-family: ui-monospace, Menlo, Consolas, monospace; }
"""


def _esc(value: object) -> str:
    return html.escape(str(value), quote=True)


def parse_collapsed(text: str) -> "dict[str, int]":
    """Collapsed-stack text → ``{stack: count}`` (blank lines skipped).

    Raises :class:`ValueError` on a line without a trailing integer
    count.
    """
    counts: "dict[str, int]" = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        stack, _, count = line.rpartition(" ")
        if not stack or not count.lstrip("-").isdigit():
            raise ValueError(
                f"line {lineno} is not collapsed-stack format "
                f"('frames... count'): {line!r}"
            )
        counts[stack] = counts.get(stack, 0) + int(count)
    return counts


def load_profile(source: "str | Path") -> dict:
    """Read and normalize a profile payload from any supported carrier.

    Returns ``{"stacks": {...}, ...metadata}``.  Accepts collapsed-stack
    text, a profile JSON (``"stacks"`` mapping at the top level), or a
    result JSON with ``meta.telemetry.profile``.  Raises
    :class:`ValueError` for anything else.
    """
    path = Path(source)
    text = path.read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return {"stacks": parse_collapsed(text), "source": path.name}
    if isinstance(payload, dict):
        if isinstance(payload.get("stacks"), dict):
            return payload
        nested = (
            payload.get("meta", {}).get("telemetry", {}).get("profile")
            if isinstance(payload.get("meta"), dict)
            else None
        )
        if isinstance(nested, dict) and isinstance(nested.get("stacks"), dict):
            return nested
    raise ValueError(
        f"{path} is not a profile (expected collapsed-stack text, a "
        "'stacks' mapping, or a result JSON with meta.telemetry.profile)"
    )


def _build_tree(stacks: "dict[str, int]") -> dict:
    """Collapsed counts → an inclusive-value frame trie rooted at 'all'."""
    root = {"name": "all", "value": 0, "children": {}}
    for stack, count in stacks.items():
        count = int(count)
        root["value"] += count
        node = root
        for frame in stack.split(";"):
            child = node["children"].get(frame)
            if child is None:
                child = {"name": frame, "value": 0, "children": {}}
                node["children"][frame] = child
            child["value"] += count
            node = child
    return root


def _icicle(root: dict) -> str:
    """The frame trie as an inline SVG icicle (root row on top)."""
    total = root["value"]
    if total <= 0:
        return "<p>This profile contains no samples.</p>"

    width, row_h, min_w = 980, 18, 0.5
    rows: "list[str]" = []
    max_depth = 0

    def draw(node: dict, depth: int, x: float) -> None:
        nonlocal max_depth
        max_depth = max(max_depth, depth)
        w = node["value"] / total * width
        if w < min_w:
            return
        y = depth * row_h
        fill = _PALETTE[depth % len(_PALETTE)]
        pct = node["value"] / total * 100.0
        rows.append(
            f'<rect class="fg-frame" x="{x:.2f}" y="{y}" '
            f'width="{w:.2f}" height="{row_h - 1}" rx="1" fill="{fill}">'
            f"<title>{_esc(node['name'])} — {node['value']} samples "
            f"({pct:.1f}%)</title></rect>"
        )
        if w > 40:
            label = node["name"].rsplit(":", 1)[-1]
            max_chars = max(int(w / 6.5), 1)
            if len(label) > max_chars:
                label = label[: max(max_chars - 1, 1)] + "…"
            rows.append(
                f'<text class="fg-label" x="{x + 4:.2f}" '
                f'y="{y + row_h - 6}">{_esc(label)}</text>'
            )
        cx = x
        for child in sorted(
            node["children"].values(), key=lambda c: (-c["value"], c["name"])
        ):
            draw(child, depth + 1, cx)
            cx += child["value"] / total * width

    draw(root, 0, 0.0)
    height = (max_depth + 1) * row_h + 2
    return (
        f'<svg class="viz-chart" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}" role="img" '
        f'aria-label="flamegraph">{"".join(rows)}</svg>'
    )


def _top_functions(stacks: "dict[str, int]", limit: int = 25) -> str:
    """Leaf-attributed (self) and inclusive sample counts per frame."""
    total = sum(int(c) for c in stacks.values())
    if total <= 0:
        return ""
    self_counts: "dict[str, int]" = {}
    incl_counts: "dict[str, int]" = {}
    for stack, count in stacks.items():
        count = int(count)
        frames = stack.split(";")
        self_counts[frames[-1]] = self_counts.get(frames[-1], 0) + count
        for frame in set(frames):
            incl_counts[frame] = incl_counts.get(frame, 0) + count
    top = sorted(self_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:limit]
    rows = "".join(
        "<tr>"
        f"<td class=\"mono\">{_esc(frame)}</td>"
        f"<td class=\"num\">{count}</td>"
        f"<td class=\"num\">{count / total * 100:.1f}%</td>"
        f"<td class=\"num\">{incl_counts[frame]}</td>"
        f"<td class=\"num\">{incl_counts[frame] / total * 100:.1f}%</td>"
        "</tr>"
        for frame, count in top
    )
    return (
        "<table><thead><tr><th>function</th>"
        '<th class="num">self</th><th class="num">self %</th>'
        '<th class="num">incl</th><th class="num">incl %</th>'
        f"</tr></thead><tbody>{rows}</tbody></table>"
    )


def render_flamegraph(profile: dict, *, title: "str | None" = None) -> str:
    """The profile payload as a self-contained HTML page (string)."""
    stacks = {str(k): int(v) for k, v in (profile.get("stacks") or {}).items()}
    total = sum(stacks.values())
    heading = title or "Sampled profile"
    duration = profile.get("duration_seconds")
    rss = (profile.get("process") or {}).get("max_rss_bytes")
    cards = "".join(
        f'<div class="card"><div class="label">{_esc(label)}</div>'
        f'<div class="value">{_esc(value)}</div></div>'
        for label, value in (
            ("samples", profile.get("samples", total)),
            ("unique stacks", len(stacks)),
            ("rate", f"{profile.get('hz', '—')} Hz"),
            (
                "duration",
                f"{duration:.2f} s" if isinstance(duration, (int, float)) else "—",
            ),
            ("peak RSS", f"{rss / 1e6:.1f} MB" if isinstance(rss, int) else "—"),
        )
    )
    body = (
        f"<style>{_FLAME_CSS}</style>"
        f"<h1>{_esc(heading)}</h1>"
        '<p class="subtitle">Flamegraph — frame width is the inclusive '
        "share of samples; hover any frame for exact counts. The "
        "collapsed-stack payload is embedded under "
        f"<code>#{PROFILE_JSON_ID}</code>.</p>"
        f'<div class="cards">{cards}</div>'
        f"<h2>Flamegraph</h2>{_icicle(_build_tree(stacks))}"
        f"<h2>Top functions</h2>{_top_functions(stacks)}"
        + embed_json(PROFILE_JSON_ID, json.dumps(profile, sort_keys=True))
    )
    return page(heading, body, generator="repro.viz.flamegraph")


def write_flamegraph(
    profile: dict, path: "str | Path", *, title: "str | None" = None
) -> Path:
    """Render ``profile`` and write it to ``path``; returns the path."""
    path = Path(path)
    path.write_text(render_flamegraph(profile, title=title), encoding="utf-8")
    return path
