"""On-disk faults of the one blob store, each tested once.

Engine entries (npz), result mirrors (JSON) and job traces share one
write, one read and one prune (:mod:`repro.engine.blobstore`); these
tests pin what each fault turns into: a truncated or corrupt entry is
quarantined with one WARNING, an unwritable root is a warning and never
a failed run, and an entry pruned mid-read is a plain miss.
"""

from __future__ import annotations

import builtins
import logging
import os

import numpy as np

from repro.api import ExperimentSpec, Session
from repro.api.result import Result
from repro.engine import ResultCache
from repro.obs import RunRecorder, Trace
from repro.obs.metrics import default_registry
from repro.service import ResultStore

from test_service_store import make_result


def _warnings(caplog) -> "list[str]":
    return [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]


def _ops(namespace: str, op: str, result: str) -> float:
    family = default_registry().get("repro_store_ops_total")
    return family.labels(namespace=namespace, op=op, result=result).value


def test_truncated_npz_is_quarantined(tmp_path, caplog):
    cache = ResultCache(tmp_path)
    path = cache.store("deadbeef", {"counts": np.arange(64)}, {"k": 1})
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    before = _ops("engine", "read", "corrupt")
    with caplog.at_level(logging.WARNING):
        assert cache.load("deadbeef") is None
        assert cache.load("deadbeef") is None  # now a plain miss
    assert len(_warnings(caplog)) == 1
    assert not path.exists() and path.with_suffix(".corrupt").exists()
    assert _ops("engine", "read", "corrupt") == before + 1


def test_corrupt_results_json_is_quarantined_and_read_once(
    tmp_path, monkeypatch, caplog
):
    result = make_result()
    ResultStore(ttl_seconds=None, root=tmp_path).put(result)
    path = tmp_path / f"{result.spec_hash}.json"
    path.write_text("{not json")
    parses = []
    parse = Result.from_json

    def counting_parse(text):
        parses.append(text)
        return parse(text)

    monkeypatch.setattr(Result, "from_json", staticmethod(counting_parse))
    cold = ResultStore(ttl_seconds=None, root=tmp_path)
    with caplog.at_level(logging.WARNING):
        assert cold.get_json(result.spec_hash) is None
        assert cold.get_json(result.spec_hash) is None
    assert len(parses) == 1
    assert len(_warnings(caplog)) == 1
    assert not path.exists() and path.with_suffix(".corrupt").exists()


def test_root_that_is_a_file_warns_and_the_run_returns(tmp_path, caplog):
    root = tmp_path / "not-a-directory"
    root.write_text("")
    spec = ExperimentSpec("fig3.coverage", trials=64, seed=3)
    before = _ops("engine", "write", "error")
    with caplog.at_level(logging.WARNING), Session(cache_dir=root) as session:
        result = session.run(spec)
    assert result.without_telemetry() == Session().run(spec).without_telemetry()
    errors = [m for m in _warnings(caplog) if m.startswith("cache.error")]
    assert errors and _ops("engine", "write", "error") == before + len(errors)


def test_prune_mid_read_is_a_miss_not_corrupt(tmp_path, monkeypatch, caplog):
    cache = ResultCache(tmp_path)
    path = cache.store("deadbeef", {"counts": np.arange(64)}, {"k": 1})
    real_open = builtins.open

    def open_after_a_sweep(file, *args, **kwargs):
        # The entry vanishes between the reader's lookup and its open.
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == str(path):
            cache.prune(max_bytes=0)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", open_after_a_sweep)
    with caplog.at_level(logging.WARNING), Trace().span("read") as span:
        assert cache.load("deadbeef") is None
    events = [event["event"] for event in RunRecorder(span).events]
    assert events == ["cache.evict", "cache.miss"]
    assert not _warnings(caplog)
    assert not path.with_suffix(".corrupt").exists()
