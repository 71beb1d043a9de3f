"""The explain page of a job trace: loading, validating, self-contained HTML.

Acceptance: a persisted job trace renders to a single HTML file whose
embedded JSON parses back to the exact input payload (and keeps the
Chrome ``traceEvents`` array intact), and malformed inputs (cyclic
parent links, non-object spans included) fail with a one-line
:class:`ValueError` rather than a broken page or a traceback.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.api.cli import main
from repro.obs.trace import Trace
from repro.viz import Source, load_source, render_page, write_page

TRACE_JSON_ID = "repro-trace"


def render_timeline(payload: dict) -> str:
    return render_page(Source.of(payload))


def make_export() -> dict:
    trace = Trace(name="fig3.coverage")
    with trace.span("worker.run", job="j000001"):
        with trace.span("engine.execute") as inner:
            inner.add_event("engine.shard", blocks=2)
    trace.add_span("queue.wait", start=trace.created, end=trace.created + 0.01)
    return trace.export()


def extract_embedded_json(html_text: str) -> dict:
    pattern = (
        rf'<script type="application/json" id="{TRACE_JSON_ID}">(.*?)</script>'
    )
    match = re.search(pattern, html_text, re.S)
    assert match, f"no embedded JSON block #{TRACE_JSON_ID}"
    return json.loads(match.group(1))


class TestLoadTrace:
    def test_loads_export_shape(self, tmp_path):
        export = make_export()
        path = tmp_path / "job.json"
        path.write_text(json.dumps(export))
        loaded = load_source(path)
        assert loaded.kind == "trace"
        assert loaded.payload == export
        assert loaded.trace == export["trace"]

    def test_wraps_bare_span_json(self, tmp_path):
        trace = make_export()["trace"]
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(trace))
        loaded = load_source(path)
        assert loaded.payload == loaded.trace == trace
        # A bare span JSON is embedded as-is, not wrapped.
        assert extract_embedded_json(render_page(loaded)) == trace

    def test_non_json_raises_value_error(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json {")
        with pytest.raises(ValueError, match="not JSON"):
            load_source(path)

    def test_wrong_shape_raises_value_error(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises(ValueError, match="not a saved Result, job trace"):
            load_source(path)

    def test_trace_without_required_keys_raises(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text('{"trace": {"spans": "nope"}}')
        with pytest.raises(ValueError, match="trace_id"):
            load_source(path)

    @pytest.mark.parametrize(
        "spans, message",
        [
            (
                [
                    {"span_id": "a", "parent_id": "b", "start": 0.0, "end": 1.0},
                    {"span_id": "b", "parent_id": "a", "start": 0.0, "end": 1.0},
                ],
                "cycle",
            ),
            ([{"span_id": "a", "parent_id": "a", "start": 0.0}], "cycle"),
            ([1, 2], "span 0 is not an object"),
            ([{"span_id": "a", "start": "soon"}], "numeric 'start'"),
            ([{"span_id": "a", "start": 0.0, "events": [3]}], "'events' list"),
            ([{"span_id": "a", "parent_id": ["b"], "start": 0.0}], "string ids"),
            ([{"span_id": "a", "start": float("nan")}], "numeric 'start'"),
        ],
    )
    def test_malformed_spans_raise_value_error(self, tmp_path, spans, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"trace_id": "t", "spans": spans}))
        with pytest.raises(ValueError, match=message):
            load_source(path)

    def test_cli_refuses_cyclic_parents_with_one_line(self, tmp_path, capsys):
        spans = [
            {"span_id": "a", "parent_id": "b", "start": 0.0, "end": 1.0},
            {"span_id": "b", "parent_id": "a", "start": 0.0, "end": 1.0},
        ]
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps({"trace_id": "t", "spans": spans}))
        assert main(["explain", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cycle" in err and err.count("\n") == 1

    def test_depths_follow_parent_links(self):
        export = make_export()
        depths = {
            span["name"]: depth for depth, span in Source.of(export).spans
        }
        assert depths == {"worker.run": 0, "engine.execute": 1, "queue.wait": 0}


class TestRenderTimeline:
    def test_embedded_json_round_trips_exact_payload(self):
        export = make_export()
        html_text = render_timeline(export)
        assert extract_embedded_json(html_text) == export

    def test_page_is_self_contained_with_svg_and_table(self):
        export = make_export()
        html_text = render_timeline(export)
        assert "<svg" in html_text
        for name in ("worker.run", "engine.execute", "queue.wait"):
            assert name in html_text
        assert export["trace"]["trace_id"][:12] in html_text
        # Self-contained: no external fetches of any kind.
        assert "http://" not in html_text and "https://" not in html_text
        assert "<link" not in html_text

    def test_span_attrs_are_escaped(self):
        trace = Trace(name="escape<&>me")
        with trace.span("s", note='<script>alert("x")</script>'):
            pass
        html_text = render_timeline(trace.export())
        # The embedded JSON block carries the raw payload (inside a
        # type="application/json" script, where markup is inert); the
        # rendered markup itself must escape everything.
        markup = re.sub(r"<script[^>]*>.*?</script>", "", html_text, flags=re.S)
        assert "<script>alert(" not in markup
        assert "&lt;script&gt;" in markup

    def test_title_override_and_open_span(self):
        trace = Trace(name="open")
        span = trace._new_span("never.finished", start=trace.created,
                               parent_id=None, attrs={})
        trace._register(span)  # open span: end/duration are None
        html_text = render_page(Source.of(trace.export(), name="Custom Title"))
        assert "Custom Title" in html_text
        assert "open" in html_text  # rendered, not crashed, on duration=None

    def test_empty_trace_renders_placeholder(self):
        export = Trace(name="empty").export()
        html_text = render_timeline(export)
        assert "no finished spans" in html_text

    def test_write_timeline_writes_file(self, tmp_path):
        export = make_export()
        out = write_page(Source.of(export), tmp_path / "timeline.html")
        assert out.is_file()
        assert extract_embedded_json(out.read_text()) == export
