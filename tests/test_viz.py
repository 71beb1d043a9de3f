"""The explain page of a Result, the benchmark trend dashboard, gating.

The acceptance bar: both pages are self-contained HTML whose embedded
JSON parses back to the exact input, and ``benchmarks/compare.py``
exits non-zero on a synthetic regression while honoring per-metric
tolerance bands and ``--no-fail``.  The record semantics and the trend
dashboard live in ``benchmarks/trend.py``, loaded here by path.
"""

from __future__ import annotations

import importlib.util
import json
import re
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, Result, Session
from repro.viz import Source, render_page

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_JSON_ID = "repro-result"


def _load_bench_module(name: str):
    """A script module beside ``benchmarks/compare.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", REPO_ROOT / "benchmarks" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


trend = _load_bench_module("trend")
Tolerances = trend.Tolerances
TREND_JSON_ID = trend.TREND_JSON_ID


def render_report(result: Result) -> str:
    return render_page(Source.of(json.loads(result.to_json())))


def extract_embedded_json(html_text: str, element_id: str):
    """Parse the inline application/json block back out of a page."""
    pattern = (
        rf'<script type="application/json" id="{element_id}">(.*?)</script>'
    )
    match = re.search(pattern, html_text, re.S)
    assert match, f"no embedded JSON block #{element_id}"
    return match.group(1)


@pytest.fixture(scope="module")
def mc_result():
    with Session() as session:
        return session.run(ExperimentSpec("fig3.coverage", trials=128, seed=7))


class TestBenchSemantics:
    def test_direction_heuristics(self):
        assert trend.direction("engine_trials_per_second") == 1
        assert trend.direction("perf.fat.speedup") == 1
        assert trend.direction("ms_per_trial_512") == -1
        assert trend.direction("shard_elapsed") == -1
        assert trend.direction("target_speedup") is None
        assert trend.direction("perf.target_speedup") is None
        assert trend.direction("coverage_fraction") is None

    def test_flatten_nests_to_dotted_keys(self):
        flat = trend.flatten({"a": {"b": {"c": 1}}, "d": 2})
        assert flat == {"a.b.c": 1, "d": 2}

    def test_numeric_metrics_drops_bookkeeping_and_non_numbers(self):
        metrics = trend.numeric_metrics({
            "speedup": 3.0,
            "workload": "fig3",
            "recorded_at": "2026-01-01",
            "enabled": True,
            "label": "x",
            "nested": {"count": 4},
        })
        assert metrics == {"speedup": 3.0, "nested.count": 4.0}

    def test_tolerances_first_match_wins(self):
        tol = Tolerances(default=0.5, bands=(
            ("perf.fat.*", 0.1),
            ("perf.*", 0.9),
        ))
        assert tol.band_for("perf.fat.speedup") == 0.1
        assert tol.band_for("perf.lean.speedup") == 0.9
        assert tol.band_for("engine.speedup") == 0.5

    def test_tolerances_from_file(self, tmp_path):
        path = tmp_path / "tol.json"
        path.write_text(json.dumps({
            "default": 0.4, "metrics": {"engine.*": 0.2},
        }))
        tol = Tolerances.from_file(path)
        assert tol.default == 0.4
        assert tol.band_for("engine.speedup") == 0.2

    def test_tolerances_rejects_negative_band(self, tmp_path):
        path = tmp_path / "tol.json"
        path.write_text(json.dumps({"metrics": {"x": -1}}))
        with pytest.raises(ValueError):
            Tolerances.from_file(path)

    def test_compare_records_statuses(self):
        baselines = {"bench": {
            "trials_per_second": 100.0,   # throughput, will collapse
            "ms_per_op": 10.0,            # latency, will improve
            "accuracy": 0.5,              # direction unknown, big shift
        }}
        fresh = {"bench": {
            "trials_per_second": 10.0,
            "ms_per_op": 5.0,
            "accuracy": 0.9,
        }, "newcomer": {"x": 1}}
        result = trend.compare_records(baselines, fresh, Tolerances(default=0.5))
        by_metric = {e["metric"]: e for e in result["entries"]}
        assert by_metric["bench.trials_per_second"]["status"] == "regression"
        assert by_metric["bench.ms_per_op"]["status"] == "ok"
        assert by_metric["bench.accuracy"]["status"] == "info"
        assert result["extra"] == ["newcomer"]
        assert result["missing"] == []
        assert len(result["regressions"]) == 1

    def test_load_bench_dir_skips_unreadable(self, tmp_path, caplog):
        (tmp_path / "BENCH_good.json").write_text('{"speedup": 2.0}')
        (tmp_path / "BENCH_bad.json").write_text("{not json")
        records = trend.load_bench_dir(tmp_path)
        assert list(records) == ["good"]


class TestReport:
    def test_embedded_json_round_trips_exactly(self, mc_result, tmp_path):
        html_text = render_report(mc_result)
        embedded = extract_embedded_json(html_text, RESULT_JSON_ID)
        assert json.loads(embedded) == json.loads(mc_result.to_json())
        restored = Result.from_json(embedded)
        assert restored == mc_result
        assert restored.telemetry() == mc_result.telemetry()

    def test_report_is_self_contained(self, mc_result):
        html_text = render_report(mc_result)
        # No external fetches of any kind.
        assert "http://" not in html_text
        assert "https://" not in html_text
        assert "src=" not in html_text
        assert "@import" not in html_text

    def test_report_svgs_are_well_formed(self, mc_result):
        html_text = render_report(mc_result)
        svgs = re.findall(r"<svg.*?</svg>", html_text, re.S)
        assert svgs, "report rendered no figures"
        for svg in svgs:
            ET.fromstring(svg)

    def test_report_shows_provenance_and_telemetry(self, mc_result):
        html_text = render_report(mc_result)
        assert mc_result.spec_hash in html_text
        assert "Telemetry" in html_text
        assert "Provenance" in html_text
        for series in mc_result.series:
            assert series.name in html_text
        # Which path ran: the cache verdict, worker count and pool starts.
        for card in ("served from cache", "workers", "pools started"):
            assert f'<div class="label">{card}</div>' in html_text

    def test_script_content_cannot_escape_its_block(self):
        # A result whose strings contain "</script>" must not break the
        # page; the embed escapes "</" and json.loads reverses it.
        result = Result(
            experiment="fig1.storage",
            backend="analytical",
            spec=ExperimentSpec("fig1.storage"),
            data={"note": "</script><script>alert(1)</script>"},
        )
        html_text = render_report(result)
        embedded = extract_embedded_json(html_text, RESULT_JSON_ID)
        assert "</script>" not in embedded
        restored = Result.from_json(embedded)
        assert restored.data_dict()["note"] == (
            "</script><script>alert(1)</script>"
        )


    def test_malformed_result_is_refused(self, mc_result):
        payload = json.loads(mc_result.to_json())
        payload["series"][0]["y"][0] = "high"
        with pytest.raises(ValueError, match="not a saved Result"):
            Source.of(payload)


class TestTrend:
    @pytest.fixture()
    def two_runs(self, tmp_path):
        old = tmp_path / "old"
        new = tmp_path / "new"
        old.mkdir(), new.mkdir()
        (old / "BENCH_engine.json").write_text(json.dumps(
            {"trials_per_second": 100.0, "workload": "toy"}
        ))
        (new / "BENCH_engine.json").write_text(json.dumps(
            {"trials_per_second": 10.0, "workload": "toy"}
        ))
        return [old, new]

    def test_embedded_json_round_trips(self, two_runs):
        runs = trend.load_runs(two_runs)
        html_text = trend.render_trend(runs, Tolerances(default=0.5))
        payload = json.loads(extract_embedded_json(html_text, TREND_JSON_ID))
        assert [r["label"] for r in payload["runs"]] == ["old", "new"]
        assert payload["runs"][0]["records"]["engine"]["trials_per_second"] == 100.0
        assert payload["tolerances"]["default"] == 0.5

    def test_regression_marked_with_word_not_color_alone(self, two_runs):
        runs = trend.load_runs(two_runs)
        html_text = trend.render_trend(runs, Tolerances(default=0.5))
        assert "regressed" in html_text
        assert "↓" in html_text

    def test_trend_over_real_baselines(self):
        baseline_dir = REPO_ROOT / "benchmarks" / "baselines"
        runs = trend.load_runs([baseline_dir])
        html_text = trend.render_trend(runs)
        payload = json.loads(extract_embedded_json(html_text, TREND_JSON_ID))
        assert "engine" in payload["runs"][0]["records"]
        for svg in re.findall(r"<svg.*?</svg>", html_text, re.S):
            ET.fromstring(svg)

    def test_empty_directory_still_renders(self, tmp_path):
        html_text = trend.render_trend(trend.load_runs([tmp_path]))
        assert "No BENCH_*.json records" in html_text

    def test_script_renders_directories(self, capsys, tmp_path):
        bench_dir = tmp_path / "records"
        bench_dir.mkdir()
        (bench_dir / "BENCH_toy.json").write_text('{"speedup": 2.0}')
        out_path = tmp_path / "trend.html"
        assert trend.main([str(bench_dir), "-o", str(out_path)]) == 0
        text = out_path.read_text()
        assert f'id="{TREND_JSON_ID}"' in text
        assert "toy" in text

    def test_script_missing_directory_exits_usage_error(self, capsys, tmp_path):
        code = trend.main([str(tmp_path / "missing"), "-o", "t.html"])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_script_bad_tolerance_file_exits_usage_error(self, capsys, tmp_path):
        bench_dir = tmp_path / "records"
        bench_dir.mkdir()
        bad = tmp_path / "tol.json"
        bad.write_text("[1, 2, 3]")
        code = trend.main([
            str(bench_dir), "-o", str(tmp_path / "t.html"), "--tolerances", str(bad),
        ])
        assert code == 2
        assert "tolerance" in capsys.readouterr().err


def _load_compare_module():
    return _load_bench_module("compare")


class TestCompareGating:
    @pytest.fixture()
    def dirs(self, tmp_path):
        baseline = tmp_path / "baseline"
        fresh = tmp_path / "fresh"
        baseline.mkdir(), fresh.mkdir()
        record = {"trials_per_second": 100.0, "workload": "toy"}
        (baseline / "BENCH_engine.json").write_text(json.dumps(record))
        (fresh / "BENCH_engine.json").write_text(json.dumps(record))
        tolerances = tmp_path / "tolerances.json"
        tolerances.write_text(json.dumps({"default": 0.5, "metrics": {}}))
        return baseline, fresh, tolerances

    def _argv(self, baseline, fresh, tolerances, *extra):
        return [
            "--baseline", str(baseline), "--fresh", str(fresh),
            "--tolerances", str(tolerances), *extra,
        ]

    def test_identical_records_pass(self, dirs, capsys):
        compare = _load_compare_module()
        assert compare.main(self._argv(*dirs)) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_synthetic_regression_fails(self, dirs, capsys):
        baseline, fresh, tolerances = dirs
        (fresh / "BENCH_engine.json").write_text(json.dumps(
            {"trials_per_second": 1.0, "workload": "toy"}
        ))
        compare = _load_compare_module()
        assert compare.main(self._argv(*dirs)) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_no_fail_escape_hatch(self, dirs, capsys):
        baseline, fresh, tolerances = dirs
        (fresh / "BENCH_engine.json").write_text(json.dumps(
            {"trials_per_second": 1.0, "workload": "toy"}
        ))
        compare = _load_compare_module()
        assert compare.main(self._argv(*dirs, "--no-fail")) == 0

    def test_per_metric_band_overrides_default(self, dirs, capsys):
        baseline, fresh, tolerances = dirs
        # 40% drop: beyond a 0.2 band, within the 0.5 default.
        (fresh / "BENCH_engine.json").write_text(json.dumps(
            {"trials_per_second": 60.0, "workload": "toy"}
        ))
        compare = _load_compare_module()
        assert compare.main(self._argv(*dirs)) == 0
        tolerances.write_text(json.dumps({
            "default": 0.5, "metrics": {"engine.trials_per_second": 0.2},
        }))
        assert compare.main(self._argv(*dirs)) == 1

    def test_cli_default_tolerance_overrides_file_default(self, dirs):
        baseline, fresh, tolerances = dirs
        (fresh / "BENCH_engine.json").write_text(json.dumps(
            {"trials_per_second": 60.0, "workload": "toy"}
        ))
        compare = _load_compare_module()
        assert compare.main(self._argv(*dirs, "--tolerance", "0.1")) == 1

    def test_checked_in_tolerance_file_is_valid(self):
        tol = Tolerances.from_file(REPO_ROOT / "benchmarks" / "tolerances.json")
        assert tol.default > 0
        assert tol.band_for("perf.fat.speedup") == 0.7
        # Every committed pattern matches at least one baseline metric,
        # so the file cannot silently rot.
        records = trend.load_bench_dir(REPO_ROOT / "benchmarks" / "baselines")
        metric_ids = {
            f"{name}.{key}"
            for name, record in records.items()
            for key in trend.numeric_metrics(record)
        }
        import fnmatch

        for pattern, _band in tol.bands:
            assert any(
                fnmatch.fnmatchcase(metric_id, pattern) for metric_id in metric_ids
            ), f"tolerance pattern {pattern!r} matches no baseline metric"
