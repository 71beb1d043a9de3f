"""The HTML page shell: stylesheet, escaping, embedded JSON.

One stylesheet defines the color system as CSS custom properties with a
light and a dark theme (``prefers-color-scheme``), so the SVG primitives
can reference ``var(--viz-*)`` and render correctly in both.  Pages are
fully self-contained: no external fetches, scripts, or fonts.
"""

from __future__ import annotations

import html

__all__ = ["cards", "embed_json", "page", "table"]

_CSS = """
:root {
  color-scheme: light dark;
  --viz-surface: #fcfcfb;
  --viz-surface-raised: #f4f3f1;
  --viz-ink: #0b0b0b;
  --viz-ink-secondary: #52514e;
  --viz-ink-muted: #7a786f;
  --viz-border: #e4e2dd;
  --viz-grid: #ececea;
  --viz-series-1: #2a78d6;
}
@media (prefers-color-scheme: dark) {
  :root {
    --viz-surface: #1a1a19;
    --viz-surface-raised: #232322;
    --viz-ink: #f3f2ef;
    --viz-ink-secondary: #b7b5ae;
    --viz-ink-muted: #8a887f;
    --viz-border: #3a3936;
    --viz-grid: #2c2c2a;
    --viz-series-1: #3987e5;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0 auto; padding: 2rem 1.5rem 4rem; max-width: 1100px;
  background: var(--viz-surface); color: var(--viz-ink);
  font: 15px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 1.4rem; margin: 0 0 .25rem; }
h2 { font-size: 1.05rem; margin: 2.2rem 0 .6rem; }
h3 { font-size: .95rem; margin: 1.4rem 0 .4rem; color: var(--viz-ink-secondary); }
p.subtitle { margin: 0 0 1.5rem; color: var(--viz-ink-secondary); }
code, .mono {
  font-family: ui-monospace, "SF Mono", Menlo, Consolas, monospace;
  font-size: .86em;
}
table {
  border-collapse: collapse; margin: .4rem 0 1rem; width: 100%;
  font-size: .88rem;
}
th, td {
  text-align: left; padding: .3rem .7rem;
  border-bottom: 1px solid var(--viz-border);
}
th { color: var(--viz-ink-secondary); font-weight: 600; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.cards { display: flex; flex-wrap: wrap; gap: 1rem; }
.card {
  background: var(--viz-surface-raised); border: 1px solid var(--viz-border);
  border-radius: 8px; padding: .8rem 1rem;
}
.card .label {
  font-size: .72rem; text-transform: uppercase; letter-spacing: .04em;
  color: var(--viz-ink-muted);
}
.card .value { font-size: 1.25rem; font-variant-numeric: tabular-nums; }
figure { margin: 0 0 1rem; }
figcaption { font-size: .85rem; color: var(--viz-ink-secondary); margin-top: .2rem; }
svg.viz-chart, svg.viz-spark { display: block; max-width: 100%; height: auto; }
.viz-grid { stroke: var(--viz-grid); stroke-width: 1; }
.viz-tick { fill: var(--viz-ink-muted); font-size: 11px;
  font-family: system-ui, sans-serif; }
.viz-bar { fill: var(--viz-series-1); }
.viz-line { fill: none; stroke: var(--viz-series-1); stroke-width: 2;
  stroke-linejoin: round; stroke-linecap: round; }
.viz-marker { fill: var(--viz-series-1); stroke: var(--viz-surface);
  stroke-width: 2; }
.viz-band { fill: var(--viz-series-1); fill-opacity: .14; }
.viz-errorbar { stroke: var(--viz-ink-secondary); stroke-width: 1.5; }
.viz-row-label { fill: #fff; font-size: 11px; pointer-events: none;
  font-family: ui-monospace, Menlo, Consolas, monospace; }
.viz-gutter { fill: var(--viz-ink-secondary); font-size: 11px;
  font-family: ui-monospace, Menlo, Consolas, monospace; }
.viz-event { fill: var(--viz-ink); fill-opacity: .75; }
.status { font-weight: 600; }
details > summary { cursor: pointer; color: var(--viz-ink-secondary); }
footer { margin-top: 3rem; font-size: .8rem; color: var(--viz-ink-muted); }
"""


def _esc(value: object) -> str:
    return html.escape(str(value), quote=True)


def cards(items: "list[tuple[str, object]]") -> str:
    """A row of label/value cards; ``None`` values are left out."""
    cells = "".join(
        f'<div class="card"><div class="label">{_esc(label)}</div>'
        f'<div class="value">{_esc(value)}</div></div>'
        for label, value in items
        if value is not None
    )
    return f'<div class="cards">{cells}</div>'


def table(head: "list[str]", rows: "list[list[object]]", *, numeric=()) -> str:
    """An escaped table; columns whose index is in ``numeric`` align right."""

    def cell(tag: str, i: int, value: object) -> str:
        cls = ' class="num"' if i in numeric else ""
        return f"<{tag}{cls}>{_esc(value)}</{tag}>"

    header = "".join(cell("th", i, h) for i, h in enumerate(head))
    body = "".join(
        "<tr>" + "".join(cell("td", i, v) for i, v in enumerate(row)) + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{header}</tr></thead><tbody>{body}</tbody></table>"


def embed_json(element_id: str, json_text: str) -> str:
    """Embed raw JSON losslessly in a ``<script type="application/json">``.

    ``</`` must be escaped so a string containing ``</script>`` cannot
    terminate the block early; JSON readers must reverse the ``<\\/``
    escape (standard JSON treats ``\\/`` as ``/``, so ``json.loads``
    already does).
    """
    safe = json_text.replace("</", "<\\/")
    return (
        f'<script type="application/json" id="{_esc(element_id)}">'
        f"{safe}</script>"
    )


def page(title: str, body: str) -> str:
    """Wrap rendered body HTML in the self-contained page shell."""
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        '<meta name="viewport" content="width=device-width, initial-scale=1">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_CSS}</style>\n</head>\n<body>\n"
        f"{body}\n"
        "<footer>Generated by repro — self-contained: "
        "inline SVG + embedded JSON, no external resources.</footer>\n"
        "</body>\n</html>\n"
    )
