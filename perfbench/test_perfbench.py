"""Self-checks of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import servicemix  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def _hashes(units) -> list:
    return [[spec.content_hash() for spec in unit] for unit in units]


@pytest.mark.parametrize("name", NAMES)
def test_generators_are_deterministic_in_their_seed(name):
    workload = child.make_workload(name)
    first = _hashes(islice(workload.units(11), 25))
    assert first == _hashes(islice(workload.units(11), 25))
    assert first != _hashes(islice(workload.units(12), 25))


def test_service_schedule_has_fixed_path_shares():
    workload = servicemix.ServiceMix(Path("unused"))
    rounds = list(islice(workload.units(5), 10 * len(servicemix.ROUND_BLOCK)))
    seen: set = set()
    kinds = {"fresh": 0, "store": 0, "coalesce": 0}
    for specs in rounds:
        hashes = [spec.content_hash() for spec in specs]
        if len(set(hashes)) == 1 and hashes[0] not in seen:
            kinds["coalesce"] += 1
        elif all(h in seen for h in hashes):
            kinds["store"] += 1
        else:
            kinds["fresh"] += 1
        seen.update(hashes)
    # Ten blocks of 4 miss / 4 store / 2 coalesce rounds; only store
    # rounds drawn before anything settled turn into misses.
    assert kinds["coalesce"] == 20
    assert kinds["fresh"] + kinds["store"] == 80
    assert kinds["store"] >= 36


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_declared_metric_is_emitted_with_its_unit(name, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def _corrupt(ops) -> None:
    ops[0].fingerprint = "0" * 64


def test_wrong_engine_fingerprint_raises_error_rate():
    workload = workloads.Fig3Clustered()
    units = list(islice(workload.units(3), 2))
    session = workload.open()
    try:
        ops = [op for unit in units for op in workload.run_unit(session, unit)]
    finally:
        workload.close(session)
    assert workload.verify(None, units, ops, 3) == []
    _corrupt(ops)
    wrong = workload.verify(None, units, ops, 3)
    assert wrong
    assert child.path_metrics(ops, len(wrong))["error_rate"] > 0
    assert not child.record(ops, wrong, {}, {})["correct"]


def test_wrong_served_fingerprint_raises_error_rate(tmp_path):
    workload = servicemix.ServiceMix(tmp_path)
    units = list(islice(workload.units(3), 4))
    harness = workload.open()
    try:
        ops = [op for unit in units for op in workload.run_unit(harness, unit)]
    finally:
        workload.close(harness)
    assert workload.verify(harness, units, ops, 3) == []
    _corrupt(ops)
    wrong = workload.verify(harness, units, ops, 3)
    assert wrong
    assert child.path_metrics(ops, len(wrong))["error_rate"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
