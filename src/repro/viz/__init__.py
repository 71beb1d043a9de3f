"""Explain a run from its own artifacts as one self-contained HTML page.

``python -m repro explain SOURCE [-o PATH]`` is the one command: it
reads a saved :class:`~repro.api.result.Result` JSON, a job trace, a
profile JSON or collapsed-stack text, and renders every section that
source carries (figures, data tables and provenance; telemetry cards;
the span Gantt and table; the flamegraph) into one page of inline SVG
and embedded JSON, with zero external fetches (stdlib only).  The
source payload is embedded under ``id="repro-<kind>"`` (``result``,
``trace`` or ``profile``), so the page parses back to its input.

:func:`load_source` / :meth:`Source.of`
    The one loader: tell the carrier from its shape and validate it;
    malformed input is a :class:`ValueError` with a one-line message.
:func:`render_page` / :func:`write_page`
    The one page renderer (``run --profile-out BASE`` writes
    ``BASE.html`` through it too).
:func:`parse_collapsed`
    Collapsed-stack text → ``{stack: count}``.

The benchmark-record tooling (``BENCH_*.json`` semantics, tolerance
bands, the trend dashboard) lives beside ``benchmarks/compare.py`` in
``benchmarks/trend.py``, outside the package.
"""

from .explain import Source, load_source, parse_collapsed, render_page, write_page

__all__ = ["Source", "load_source", "parse_collapsed", "render_page", "write_page"]
