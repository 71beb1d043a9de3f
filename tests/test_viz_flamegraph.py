"""Flamegraph rendering: parsing, tree building, HTML self-containment.

Pins the three input carriers :func:`load_profile` accepts (collapsed
text, profile JSON, result JSON), the inclusive-value frame trie, and
the report contract shared with the other viz pages: one HTML file,
zero external fetches, the exact payload embedded under
``#repro-profile``.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.viz.flamegraph import (
    PROFILE_JSON_ID,
    _build_tree,
    load_profile,
    parse_collapsed,
    render_flamegraph,
    write_flamegraph,
)

_PROFILE = {
    "hz": 97.0,
    "samples": 5,
    "duration_seconds": 0.0515,
    "stacks": {"main:run;engine:step": 2, "main:run;io:read": 3},
    "threads_observed": ["MainThread"],
    "process": {"cpu_seconds": 0.05, "max_rss_bytes": 52_428_800},
}


class TestParseCollapsed:
    def test_round_trip(self):
        text = "a;b 2\na;c 3\n"
        assert parse_collapsed(text) == {"a;b": 2, "a;c": 3}

    def test_blank_lines_skipped_and_duplicates_summed(self):
        assert parse_collapsed("a;b 1\n\na;b 4\n") == {"a;b": 5}

    def test_rejects_lines_without_count(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_collapsed("just some words\n")
        with pytest.raises(ValueError):
            parse_collapsed("a;b not_a_number\n")


class TestBuildTree:
    def test_inclusive_values(self):
        root = _build_tree({"a;b": 2, "a;c": 3})
        assert root["value"] == 5
        a = root["children"]["a"]
        assert a["value"] == 5
        assert a["children"]["b"]["value"] == 2
        assert a["children"]["c"]["value"] == 3


class TestLoadProfile:
    def test_collapsed_text_file(self, tmp_path):
        path = tmp_path / "prof.collapsed"
        path.write_text("x;y 7\n")
        loaded = load_profile(path)
        assert loaded["stacks"] == {"x;y": 7}

    def test_profile_json_passthrough(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(_PROFILE))
        assert load_profile(path)["stacks"] == _PROFILE["stacks"]

    def test_result_json_nested_profile(self, tmp_path):
        path = tmp_path / "result.json"
        path.write_text(
            json.dumps({"data": {}, "meta": {"telemetry": {"profile": _PROFILE}}})
        )
        assert load_profile(path)["hz"] == 97.0

    def test_rejects_non_profile_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"data": {"something": 1}}))
        with pytest.raises(ValueError, match="not a profile"):
            load_profile(path)


class TestRenderFlamegraph:
    def test_payload_embedded_losslessly(self):
        html_text = render_flamegraph(_PROFILE, title="Test profile")
        match = re.search(
            rf'<script type="application/json" id="{PROFILE_JSON_ID}">(.*?)</script>',
            html_text,
            re.DOTALL,
        )
        assert match, "embedded profile JSON block missing"
        embedded = json.loads(match.group(1).replace("<\\/", "</"))
        assert embedded == json.loads(json.dumps(_PROFILE))
        assert "Test profile" in html_text

    def test_self_contained_no_external_fetches(self):
        html_text = render_flamegraph(_PROFILE)
        for needle in ("http://", "https://", "<link", "src=", "@import"):
            assert needle not in html_text, f"external reference: {needle}"
        assert "<svg" in html_text
        assert "52.4 MB" in html_text  # peak RSS card rendered

    def test_empty_profile_renders_gracefully(self):
        html_text = render_flamegraph({"stacks": {}})
        assert "no samples" in html_text

    def test_write_flamegraph(self, tmp_path):
        out = write_flamegraph(_PROFILE, tmp_path / "flame.html")
        assert out.exists()
        assert PROFILE_JSON_ID in out.read_text()


class TestCliFlamegraph:
    def _main(self, argv):
        from repro.api.cli import main

        return main(argv)

    def test_renders_collapsed_file(self, tmp_path, capsys):
        src = tmp_path / "prof.collapsed"
        src.write_text("m:f;m:g 4\n")
        code = self._main(["flamegraph", str(src)])
        assert code == 0
        out = tmp_path / "prof.html"
        assert out.exists() and PROFILE_JSON_ID in out.read_text()

    def test_explicit_output_path(self, tmp_path):
        src = tmp_path / "profile.json"
        src.write_text(json.dumps(_PROFILE))
        out = tmp_path / "custom.html"
        assert self._main(["flamegraph", str(src), "-o", str(out)]) == 0
        assert out.exists()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert self._main(["flamegraph", str(tmp_path / "nope.collapsed")]) == 2

    def test_non_profile_input_exits_2(self, tmp_path, capsys):
        src = tmp_path / "bad.json"
        src.write_text('{"not": "a profile"}')
        assert self._main(["flamegraph", str(src)]) == 2
