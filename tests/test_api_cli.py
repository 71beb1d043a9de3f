"""CLI smoke tests: `python -m repro list` / `run` behavior and exit codes."""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import threading

import pytest

from repro.api import ExperimentSpec, Result, Session, SpecError
from repro.api.cli import build_parser, main


class TestList:
    def test_lists_every_figure(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig1.storage", "fig3.coverage", "fig8.yield", "sweep.mc_coverage"):
            assert name in out

    def test_json_listing_parses(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in payload}
        assert by_name["fig3.coverage"]["backends"] == ["analytical", "monte_carlo"]
        assert by_name["fig3.coverage"]["defaults"]["monte_carlo"]["trials"] == 2048


class TestRun:
    def test_run_prints_summary(self, capsys):
        assert main(["run", "fig1.storage"]) == 0
        out = capsys.readouterr().out
        assert "fig1.storage (analytical)" in out
        assert "SECDED" in out

    def test_run_writes_json_matching_direct_session(self, capsys, tmp_path):
        out_path = tmp_path / "out.json"
        code = main([
            "run", "fig3.coverage", "--trials", "128", "--seed", "7",
            "--json", str(out_path), "-q",
        ])
        assert code == 0
        from_cli = Result.from_json(out_path.read_text())
        # Same spec the CLI builds: backend "auto", resolved to monte_carlo
        # by the trial count.  Payloads match bit-for-bit; only the
        # observational meta["telemetry"] block (wall-clock timings)
        # differs between two independent runs.
        direct = Session().run(ExperimentSpec("fig3.coverage", trials=128, seed=7))
        assert from_cli.data == direct.data
        assert from_cli.series == direct.series
        assert from_cli.spec == direct.spec
        assert from_cli.backend == "monte_carlo"

    def test_run_writes_csv(self, capsys, tmp_path):
        out_path = tmp_path / "out.csv"
        assert main(["run", "fig8.reliability", "-q", "--csv", str(out_path)]) == 0
        rows = Result.rows_from_csv(out_path.read_text())
        assert any(row["series"] == "With 2D coding" for row in rows)

    def test_param_values_parse_as_json(self, capsys):
        code = main([
            "run", "fig8.yield", "-p", "failing_cells=[0, 1000]",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ECC Only" in out

    def test_scenario_flag_selects_scenario(self, capsys, tmp_path):
        out_path = tmp_path / "bursts.json"
        code = main([
            "run", "fig3.coverage", "--trials", "64", "--seed", "7",
            "-p", "scenario=burst_row", "--json", str(out_path), "-q",
        ])
        assert code == 0
        result = Result.from_json(out_path.read_text())
        assert result.spec.param_dict()["scenario"] == "burst_row"
        assert result.data_dict()["scenario"]["model"] == "burst_row"

    #: ``content_hash()`` of the spec that ``run sweep.mc_coverage
    #: --trials 512 --seed 5 -q`` built with each removed shorthand
    #: flag, recorded before the flags were dropped.
    _SHORTHAND_HASHES = {
        "scenario=hard_fault_map":
            "b04982c95ac5c2afbcc064a6b0f2f166a2e27cd9e613268f09910d2f765911b4",
        "tolerance=0.01":
            "37b1eddba28410257e28b7623c15bc412d46b47a5fbaa0bdb579b93bc5942daa",
        "estimator=tilted":
            "3d4321255d61c641705d87dfd3c12226ba5da051fc1767594daa212d48a15610",
        "tilt=0.5":
            "55dc7d022a8813f3db38897e2addc3d1c1959619ad30d58f43ff59ebbf96093b",
    }

    def test_scenario_flag_matches_param_spelling(self, capsys, monkeypatch):
        """``-p KEY=VALUE`` builds the very spec each removed shorthand
        (``--scenario``, ``--tolerance``, ``--estimator``, ``--tilt``)
        built: the same content hash, so the same cache and store keys."""
        specs = []

        def capture(self, spec, **kwargs):
            specs.append(spec)
            raise SpecError("captured")

        monkeypatch.setattr(Session, "run", capture)
        argv = ["run", "sweep.mc_coverage", "--trials", "512", "--seed", "5", "-q"]
        for param, expected in self._SHORTHAND_HASHES.items():
            assert main([*argv, "-p", param]) == 2
            assert specs[-1].content_hash() == expected, param

    def test_workers_passthrough_matches_single_worker(self, capsys, tmp_path):
        serial_path = tmp_path / "serial.json"
        workers_path = tmp_path / "workers.json"
        argv = ["run", "fig3.coverage", "--trials", "256", "--seed", "7", "-q"]
        assert main([*argv, "--json", str(serial_path)]) == 0
        assert main([*argv, "--workers", "2", "--json", str(workers_path)]) == 0
        # Worker count is pure scheduling: byte-identical results
        # (telemetry records the differing schedules, in meta only).
        assert Result.from_json(serial_path.read_text()).without_telemetry() == (
            Result.from_json(workers_path.read_text()).without_telemetry()
        )

    def test_broken_worker_pool_exits_with_clean_error(self, capsys, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        def killed_worker(self, spec, **kwargs):
            raise BrokenProcessPool("a worker process was killed")

        monkeypatch.setattr(Session, "run", killed_worker)
        code = main([
            "run", "fig3.coverage", "--trials", "256", "--workers", "2", "-q",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: a worker process was killed\n"

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_non_positive_workers_exit_usage_error(self, capsys, count):
        code = main([
            "run", "fig3.coverage", "--trials", "8", "--workers", count,
        ])
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_unknown_scenario_exits_usage_error(self, capsys):
        code = main([
            "run", "fig3.coverage", "--trials", "8", "-p", "scenario=bogus_scenario",
        ])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_weighted_composite_population_exits_with_clean_error(self, capsys):
        code = main([
            "run", "fig3.coverage", "--backend", "monte_carlo", "--trials", "8",
            "-p", "scenario=composite", "-p",
            'scenario_params={"soft": {"scenario": "tilted_clustered_mbu", "tilt": 0.1}}',
        ])
        assert code == 1
        assert "weighted" in capsys.readouterr().err

    def test_unsupported_scenario_for_experiment_exits_usage_error(self, capsys):
        code = main(["run", "fig8.yield", "--trials", "8", "-p", "scenario=burst_row"])
        assert code == 2
        assert "iid_uniform" in capsys.readouterr().err

    def test_param_ignored_by_scenario_exits_usage_error(self, capsys):
        code = main([
            "run", "fig3.coverage", "--trials", "8", "-p", "scenario=burst_row",
            "-p", "footprints=[[[8, 8], 1.0]]",
        ])
        assert code == 2
        assert "does not accept param(s) footprints" in capsys.readouterr().err

    def test_scenario_on_deterministic_experiment_exits_usage_error(self, capsys):
        code = main(["run", "fig1.storage", "-p", "scenario=clustered_mbu"])
        assert code == 2
        assert "does not accept" in capsys.readouterr().err

    def test_unknown_experiment_exits_nonzero(self, capsys):
        assert main(["run", "figX.nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_bad_param_syntax_exits_nonzero(self, capsys):
        assert main(["run", "fig1.storage", "-p", "no-equals-sign"]) == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_bad_backend_for_experiment_exits_nonzero(self, capsys):
        assert main(["run", "fig1.storage", "--backend", "monte_carlo"]) == 2
        assert "no 'monte_carlo' backend" in capsys.readouterr().err

    def test_bad_sweep_param_exits_nonzero(self, capsys):
        code = main([
            "run", "sweep.mc_coverage", "--trials", "8", "-p", "scheme=bogus",
        ])
        assert code == 2
        assert "unknown scheme" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep.mc_coverage", "-p", "scheme=nope"], "unknown scheme"),
            (["sweep.mc_coverage", "-p", "scenario=nope"], "unknown scenario"),
            (["sweep.scheme_cost", "-p", "cache=l3"], "cache must be"),
            (["sweep.scheme_cost", "-p", 'schemes=["nope"]'], "unknown scheme keys"),
            (["sweep.perf_sensitivity", "-p", "cmp=thin"], "unknown cmp"),
            (["sweep.perf_sensitivity", "-p", "workload=nope"], "unknown workload"),
            (["sweep.perf_sensitivity", "-p", "protection=nope"], "protection must be"),
            (["fig3.coverage", "--backend", "monte_carlo", "--trials", "8",
              "-p", "array_data_columns=100"], "array_data_columns must equal"),
            (["fig8.yield", "--backend", "monte_carlo", "--trials", "16",
              "-p", "failing_cells=[20000]"], "failing_cells must lie in"),
            (["fig8.yield", "--backend", "monte_carlo", "--trials", "16",
              "-p", "failing_cells=[-3]"], "failing_cells must lie in"),
            (["fig8.yield", "--backend", "monte_carlo", "--trials", "64",
              "-p", "failing_cells=[1.5, 2.9]"], "whole cell counts, got [1.5, 2.9]"),
            (["fig8.yield", "-p", "failing_cells=[0, 2.5]"], "whole cell counts"),
            (["fig8.yield", "-p", "failing_cells=5"], "failing_cells must be a list"),
            (["sweep.mc_coverage", "--trials", "8", "-p", "scenario_params=5"],
             "scenario_params must be a mapping"),
        ],
        ids=["scheme", "error-model", "cache", "scheme-keys", "cmp", "workload",
             "protection", "fig3-columns", "fig8-cells-above", "fig8-cells-negative",
             "fig8-cells-fraction", "fig8-analytical-cells-fraction",
             "fig8-cells-not-list", "scenario-params-not-mapping"],
    )
    def test_catalog_param_errors_are_usage_errors(self, capsys, argv, message):
        """A bad catalog parameter is a usage error (exit 2), not an
        execution failure (exit 1)."""
        assert main(["run", *argv]) == 2
        assert message in capsys.readouterr().err


class TestTelemetryFlags:
    def test_telemetry_writes_json_lines(self, capsys, tmp_path):
        path = tmp_path / "events.jsonl"
        code = main([
            "run", "fig3.coverage", "--trials", "64", "--seed", "7", "-q",
            "--telemetry", str(path),
        ])
        assert code == 0
        events = [json.loads(line) for line in path.read_text().splitlines()]
        names = [e["event"] for e in events]
        assert names[0] == "run.start" and names[-1] == "run.finish"
        assert "engine.run.start" in names

    def test_telemetry_dash_makes_stdout_pure_json_lines(self, capsys):
        code = main(["run", "fig1.storage", "--telemetry", "-"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        events = [json.loads(line) for line in lines]  # no summary noise
        assert [e["event"] for e in events] == ["run.start", "run.finish"]

    @pytest.mark.parametrize(
        "flags",
        [
            ["--json", "-", "--csv", "-"],
            ["--json", "--telemetry", "-"],
            ["--csv", "-", "--telemetry", "-"],
        ],
    )
    def test_two_stdout_payloads_exit_usage_error_before_running(
        self, capsys, tmp_path, flags
    ):
        code = main([
            "run", "fig3.coverage", "--trials", "64", "--seed", "7",
            "--cache-dir", str(tmp_path), *flags,
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "stdout" in captured.err
        assert not list(tmp_path.iterdir())  # the run never started

    def test_telemetry_unknown_directory_exits_usage_error(self, capsys, tmp_path):
        code = main([
            "run", "fig1.storage", "-q",
            "--telemetry", str(tmp_path / "missing" / "events.jsonl"),
        ])
        assert code == 2
        assert "--telemetry" in capsys.readouterr().err

    def test_verbose_streams_info_telemetry_to_stderr(self, capsys):
        code = main([
            "run", "fig3.coverage", "--trials", "64", "--seed", "7", "-q", "-v",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "engine.run.start" in err
        assert "repro.engine.runner" in err

    def test_without_verbose_stderr_stays_quiet(self, capsys):
        assert main(["run", "fig3.coverage", "--trials", "64", "--seed", "7", "-q"]) == 0
        assert "engine.run.start" not in capsys.readouterr().err


def _embedded(html_path, kind: str = "profile") -> dict:
    """The source payload an explain page carries under #repro-<kind>."""
    match = re.search(
        rf'<script type="application/json" id="repro-{kind}">(.*?)</script>',
        html_path.read_text(),
        re.DOTALL,
    )
    assert match, f"{html_path} has no embedded {kind}"
    return json.loads(match.group(1).replace("<\\/", "</"))


@pytest.fixture(scope="class")
def profiled_json(tmp_path_factory):
    """One ``run --profile --json`` result file shared by the class."""
    out = tmp_path_factory.mktemp("profiled") / "out.json"
    assert main([*TestProfileFlags.RUN, "--profile", "--json", str(out)]) == 0
    return out


class TestProfileFlags:
    #: ~0.3 s of engine work, so the 47 Hz sampler takes samples.
    RUN = ["run", "fig3.coverage", "--trials", "65536", "--seed", "7", "-q"]

    def test_profile_samples_the_running_thread_only(self, profiled_json):
        profile = json.loads(profiled_json.read_text())["meta"]["telemetry"]["profile"]
        assert profile["samples"] > 0
        assert profile["threads_observed"] == [threading.current_thread().name]
        assert any("repro.engine" in stack for stack in profile["stacks"])

    def test_flamegraph_renders_a_result_json(self, profiled_json):
        """``explain`` of a profiled ``run --json`` draws the result and
        its flamegraph, and embeds the whole result as-is."""
        assert main(["explain", str(profiled_json)]) == 0
        html_path = profiled_json.with_suffix(".html")
        assert "<h2>Flamegraph</h2>" in html_path.read_text()
        payload = json.loads(profiled_json.read_text())
        assert _embedded(html_path, "result") == payload

    def test_profile_out_writes_collapsed_and_html(self, tmp_path):
        from repro.viz import parse_collapsed

        base = tmp_path / "prof"
        assert main([*self.RUN, "--profile-out", str(base)]) == 0
        collapsed = parse_collapsed((tmp_path / "prof.collapsed").read_text())
        assert collapsed
        assert _embedded(tmp_path / "prof.html")["stacks"] == collapsed
        rerender = tmp_path / "rerender.html"
        assert main([
            "explain", str(tmp_path / "prof.collapsed"), "-o", str(rerender),
        ]) == 0
        assert _embedded(rerender) == {"stacks": collapsed}

    def test_flamegraph_keeps_the_profile_out_html(self, tmp_path, capsys):
        """``explain BASE.collapsed`` defaults to ``BASE.html``, the
        full profile ``--profile-out BASE`` wrote: without ``-o`` it is
        refused, not overwritten by a stacks-only page."""
        base = tmp_path / "prof"
        assert main([*self.RUN, "--profile-out", str(base)]) == 0
        html = tmp_path / "prof.html"
        written = html.read_text()
        assert "process" in _embedded(html)
        capsys.readouterr()
        assert main(["explain", str(tmp_path / "prof.collapsed")]) == 2
        assert "-o" in capsys.readouterr().err
        assert html.read_text() == written


class TestReportCommand:
    def test_report_renders_saved_result(self, capsys, tmp_path):
        result_path = tmp_path / "r.json"
        assert main([
            "run", "fig3.coverage", "--trials", "64", "--seed", "7", "-q",
            "--json", str(result_path),
        ]) == 0
        assert main(["explain", str(result_path)]) == 0
        html_path = tmp_path / "r.html"
        assert html_path.is_file()
        text = html_path.read_text()
        assert _embedded(html_path, "result") == json.loads(result_path.read_text())
        assert "fig3.coverage" in text
        # A second render without -o would overwrite it: refused.
        assert main(["explain", str(result_path)]) == 2
        assert html_path.read_text() == text

    def test_report_output_flag(self, capsys, tmp_path):
        result_path = tmp_path / "r.json"
        out_path = tmp_path / "custom.html"
        main([
            "run", "fig1.storage", "-q", "--json", str(result_path),
        ])
        assert main(["explain", str(result_path), "-o", str(out_path)]) == 0
        assert out_path.is_file()

    def test_report_missing_file_exits_usage_error(self, capsys, tmp_path):
        assert main(["explain", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_report_non_result_file_exits_usage_error(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"hello": "world"}')
        assert main(["explain", str(bogus)]) == 2
        assert "not a saved Result" in capsys.readouterr().err


class TestTraceCommand:
    """`python -m repro explain JOB.json` of a persisted job trace."""

    @staticmethod
    def _trace_file(tmp_path):
        from repro.obs.trace import Trace

        trace = Trace(name="fig3.coverage")
        with trace.span("worker.run"):
            with trace.span("engine.execute"):
                pass
        path = tmp_path / "j000001.json"
        path.write_text(json.dumps(trace.export()))
        return path

    def test_trace_renders_default_output(self, capsys, tmp_path):
        source = self._trace_file(tmp_path)
        assert main(["explain", str(source)]) == 0
        out_path = tmp_path / "j000001.html"
        assert out_path.is_file()
        text = out_path.read_text()
        assert _embedded(out_path, "trace") == json.loads(source.read_text())
        assert "<svg" in text
        assert "engine.execute" in text
        assert str(out_path) in capsys.readouterr().err  # "wrote ..." note
        assert main(["explain", str(source)]) == 2
        assert "-o" in capsys.readouterr().err

    def test_trace_output_flag(self, capsys, tmp_path):
        source = self._trace_file(tmp_path)
        out_path = tmp_path / "custom.html"
        assert main(["explain", str(source), "-o", str(out_path)]) == 0
        assert out_path.is_file()

    def test_trace_missing_file_exits_usage_error(self, capsys, tmp_path):
        assert main(["explain", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_trace_non_trace_file_exits_usage_error(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"hello": "world"}')
        assert main(["explain", str(bogus)]) == 2
        assert "not a saved Result, job trace" in capsys.readouterr().err


def _subparsers() -> argparse._SubParsersAction:
    return next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )


def _options(command: str) -> "list[list[str]]":
    return [
        action.option_strings
        for action in _subparsers().choices[command]._actions
        if action.option_strings
    ]


def test_subcommands_are_list_run_explain_serve_cache():
    """``explain`` is the one page command, with one option (``-o``)."""
    assert list(_subparsers().choices) == ["list", "run", "explain", "serve", "cache"]
    assert _options("explain") == [["-h", "--help"], ["-o", "--output"]]


def test_run_has_one_spelling_per_input():
    """Besides ``--help``, ``run`` has 14 options; every experiment
    input outside the spec fields is a ``-p`` param."""
    assert _options("run") == [
        ["-h", "--help"], ["--backend"], ["--trials"], ["--seed"],
        ["--confidence"], ["--workers"], ["--cache-dir"], ["-p", "--param"],
        ["--json"], ["--csv"], ["-q", "--quiet"], ["-v", "--verbose"],
        ["--telemetry"], ["--profile"], ["--profile-out"],
    ]


@pytest.mark.parametrize("argv", [["list"], ["run", "fig1.storage", "-q"]])
def test_python_dash_m_entry_point(argv):
    """`python -m repro ...` works end to end in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_python_dash_m_unknown_experiment_fails():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", "not.an.experiment"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert "unknown experiment" in proc.stderr


class TestRunJsonStdout:
    """Satellite: bare `--json` streams the full Result JSON to stdout."""

    def test_bare_json_prints_result_and_suppresses_summary(self, capsys):
        assert main(["run", "fig1.storage", "--json"]) == 0
        out = capsys.readouterr().out
        result = Result.from_json(out)
        assert result.experiment == "fig1.storage"
        assert "fig1.storage (analytical)" not in out  # no summary noise

    def test_explicit_dash_is_the_same_as_bare(self, capsys):
        assert main(["run", "fig1.storage", "--json", "-"]) == 0
        Result.from_json(capsys.readouterr().out)

    def test_file_json_keeps_the_summary(self, capsys, tmp_path):
        out_path = tmp_path / "r.json"
        assert main(["run", "fig1.storage", "--json", str(out_path)]) == 0
        assert "fig1.storage (analytical)" in capsys.readouterr().out
        Result.from_json(out_path.read_text())

    def test_bare_json_pipes_cleanly_through_a_fresh_interpreter(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "fig1.storage", "--json"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert Result.from_json(proc.stdout).experiment == "fig1.storage"


class TestCacheCommand:
    """Satellite: `python -m repro cache` stats and pruning."""

    @staticmethod
    def _populate(root, key, *, age_seconds=0.0):
        import os
        import time

        import numpy as np

        from repro.engine import ResultCache

        cache = ResultCache(root)
        path = cache.store(key, {"counts": np.arange(64)}, {"k": key})
        if age_seconds:
            stamp = time.time() - age_seconds
            os.utime(path, (stamp, stamp))

    def test_missing_directory_is_exit_2(self, capsys, tmp_path):
        code = main(["cache", "--dir", str(tmp_path / "nope")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_stats_text_output(self, capsys, tmp_path):
        self._populate(tmp_path, "aaaa")
        assert main(["cache", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries:     1" in out

    def test_stats_json_output(self, capsys, tmp_path):
        self._populate(tmp_path, "aaaa")
        assert main(["cache", "--dir", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 1
        assert payload["total_bytes"] > 0

    def test_prune_requires_a_bound(self, capsys, tmp_path):
        tmp_path.mkdir(exist_ok=True)
        code = main(["cache", "--dir", str(tmp_path), "--prune"])
        assert code == 2
        assert "--prune needs" in capsys.readouterr().err

    def test_bounds_require_prune(self, capsys, tmp_path):
        code = main(["cache", "--dir", str(tmp_path), "--ttl", "60"])
        assert code == 2
        assert "require --prune" in capsys.readouterr().err

    def test_prune_sweeps_every_namespace(self, capsys, tmp_path):
        import os
        import time

        from repro.engine.blobstore import NAMESPACES, BlobStore, namespace_root

        stale = time.time() - 7200.0
        for namespace in NAMESPACES:
            blobs = BlobStore(namespace_root(tmp_path, namespace), namespace)
            os.utime(blobs.write("stale", b"{}"), (stale, stale))
            blobs.write("fresh", b"{}")
        code = main([
            "cache", "--dir", str(tmp_path), "--prune", "--ttl", "3600",
            "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pruned"] == 3
        assert payload["entries"] == 3

    def test_prune_ttl_removes_stale_entries(self, capsys, tmp_path):
        self._populate(tmp_path, "stale", age_seconds=7200.0)
        self._populate(tmp_path, "fresh")
        code = main([
            "cache", "--dir", str(tmp_path), "--prune", "--ttl", "3600",
            "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pruned"] == 1
        assert payload["entries"] == 1


class TestServeCommand:
    """Satellite: `python -m repro serve` argument gate + live smoke."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--workers", "0"],
            ["serve", "--engine-workers", "0"],
            ["serve", "--queue-capacity", "0"],
            ["serve", "--ttl", "-1"],
            ["serve", "--port", "70000"],
            ["serve", "--job-timeout", "0"],
            ["serve", "--job-timeout", "-3"],
            ["serve", "--job-timeout", "nan"],
        ],
    )
    def test_bad_arguments_are_exit_2(self, capsys, monkeypatch, argv):
        # An argument the CLI fails to refuse must fail here, not start a
        # real server that never returns.
        def serve_forever(*args, **kwargs):
            raise AssertionError(f"{argv} was not refused: the server started")

        monkeypatch.setattr("repro.service.serve_forever", serve_forever)
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_sigterm_drains_and_exits_zero(self, tmp_path):
        import signal
        import time

        from repro.service import ServiceClient, ServiceError

        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--workers", "1",
                "--no-metrics", "--cache-dir", str(tmp_path),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            announce = proc.stderr.readline()
            assert "http://" in announce, announce
            port = int(announce.split("http://127.0.0.1:")[1].split(" ")[0])
            client = ServiceClient(port=port)
            client.wait_ready(timeout=15.0)
            job = client.run(
                "fig8.reliability",
                timeout=60.0,
                params={"years": [1.0]},
            )
            assert job["state"] == "done"
            # --no-metrics: the exposition endpoint is switched off ...
            with pytest.raises(ServiceError) as excinfo:
                client.metrics()
            assert excinfo.value.status == 404
            # ... and --cache-dir persists the settled job's trace.
            trace_path = tmp_path / "traces" / f"{job['id']}.json"
            deadline = 100
            while not trace_path.is_file() and deadline:
                deadline -= 1
                time.sleep(0.1)
            payload = json.loads(trace_path.read_text())
            assert payload["trace"]["trace_id"] == job["trace_id"]
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30.0)
            assert proc.returncode == 0, proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
