"""The explain page's flamegraph: parsing, tree building, loading.

Pins the three profile carriers :func:`load_source` reads (collapsed
text, profile JSON, a result JSON's ``meta.telemetry.profile``), the
inclusive-value frame trie, the refusal of malformed counts, and the
page contract: one HTML file, zero external fetches, the exact payload
embedded under ``#repro-profile``.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.api import ExperimentSpec, Result
from repro.viz import Source, load_source, parse_collapsed, render_page, write_page
from repro.viz.explain import _build_tree

PROFILE_JSON_ID = "repro-profile"

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

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_collapsed("a;b 10\nc;d -4\n")


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
        loaded = load_source(path)
        assert loaded.kind == "profile"
        assert loaded.profile["stacks"] == {"x;y": 7}

    def test_profile_json_passthrough(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(_PROFILE))
        loaded = load_source(path)
        assert loaded.payload == _PROFILE
        assert loaded.profile["stacks"] == _PROFILE["stacks"]

    def test_result_json_nested_profile(self, tmp_path):
        result = Result(
            experiment="fig1.storage",
            backend="analytical",
            spec=ExperimentSpec("fig1.storage"),
            data={},
            meta={"telemetry": {"profile": _PROFILE}},
        )
        path = tmp_path / "result.json"
        path.write_text(result.to_json())
        loaded = load_source(path)
        assert loaded.kind == "result"
        assert loaded.profile["hz"] == 97.0
        assert "<h2>Flamegraph</h2>" in render_page(loaded)

    def test_rejects_non_profile_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"data": {"something": 1}}))
        with pytest.raises(ValueError, match="not a saved Result, job trace, profile"):
            load_source(path)

    @pytest.mark.parametrize(
        "stacks", [{"a;b": "x"}, {"a;b": -4}, {"a;b": True}, ["a;b"]]
    )
    def test_rejects_malformed_counts(self, tmp_path, stacks):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"stacks": stacks}))
        with pytest.raises(ValueError, match="profile.json: "):
            load_source(path)


class TestRenderFlamegraph:
    def test_payload_embedded_losslessly(self):
        html_text = render_page(Source.of(_PROFILE, name="Test profile"))
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
        html_text = render_page(Source.of(_PROFILE))
        for needle in ("http://", "https://", "<link", "src=", "@import"):
            assert needle not in html_text, f"external reference: {needle}"
        assert "<svg" in html_text
        assert "52.4 MB" in html_text  # peak RSS card rendered

    def test_empty_profile_renders_gracefully(self):
        html_text = render_page(Source.of({"stacks": {}}))
        assert "no samples" in html_text

    def test_write_flamegraph(self, tmp_path):
        out = write_page(Source.of(_PROFILE), tmp_path / "flame.html")
        assert out.exists()
        assert PROFILE_JSON_ID in out.read_text()


class TestCliFlamegraph:
    def _main(self, argv):
        from repro.api.cli import main

        return main(argv)

    def test_renders_collapsed_file(self, tmp_path, capsys):
        src = tmp_path / "prof.collapsed"
        src.write_text("m:f;m:g 4\n")
        code = self._main(["explain", str(src)])
        assert code == 0
        out = tmp_path / "prof.html"
        assert out.exists() and PROFILE_JSON_ID in out.read_text()

    def test_explicit_output_path(self, tmp_path):
        src = tmp_path / "profile.json"
        src.write_text(json.dumps(_PROFILE))
        out = tmp_path / "custom.html"
        assert self._main(["explain", str(src), "-o", str(out)]) == 0
        assert out.exists()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert self._main(["explain", str(tmp_path / "nope.collapsed")]) == 2

    def test_non_profile_input_exits_2(self, tmp_path, capsys):
        src = tmp_path / "bad.json"
        src.write_text('{"not": "a profile"}')
        assert self._main(["explain", str(src)]) == 2

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("strs.json", '{"stacks": {"a;b": "x"}}', "counts must be non-negative"),
            ("neg.collapsed", "a;b 10\nc;d -4\n", "line 2"),
        ],
    )
    def test_malformed_counts_exit_2_with_one_line(
        self, tmp_path, capsys, name, text, message
    ):
        src = tmp_path / name
        src.write_text(text)
        assert self._main(["explain", str(src)]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not (tmp_path / name).with_suffix(".html").exists()
