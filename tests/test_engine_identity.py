"""The packed engine path against the ``uint8`` reference, trial for trial.

Every block the engine evaluates runs on packed words
(:mod:`repro.engine.packed`).  The ``uint8`` kernels of
:mod:`repro.engine.batch` (``ParityVectorDecoder``,
``SecdedVectorDecoder``, ``run_recovery_batch``) are kept as the
reference: driven with the dense masks a scenario's ``sample_block``
derives for the same block, they must reproduce the engine's verdicts
(and likelihood-ratio weights) exactly — for every registered scenario,
over the small 2D geometries, for generic and non-dividing parity group
maps, and for any worker count.  The default fig3/fig8/``sweep.mc_coverage``
result bytes and engine cache keys are pinned: fig3 and the sweep to
their values before the packed rewrite, fig8 to its values since its
exact-count cells moved to the one distinct-cell draw.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import ExperimentSpec, Session
from repro.engine import EngineSpec, SharedExecutor, run_experiment, run_recovery_batch
from repro.engine.batch import VERDICT_SILENT, ParityVectorDecoder
from repro.engine.packed import PackedParityDecoder, run_recovery_batch_sparse
from repro.scenarios import ScenarioBase, SparseRowBatch, list_scenarios, make_scenario

from helpers import ENGINE_CONFIGS, ScrambledParityCode, reference_verdicts

#: Denser settings for the small property-test banks, where the Fig. 3
#: sized ``example_params`` would mostly draw clean dies.  Scenarios not
#: listed run with their ``example_params`` alone.
_SMALL_BANK_PARAMS = {
    "iid_uniform": {"n_cells": 5},
    "hard_fault_map": {"defect_density": 0.004},
    "composite": {"hard": {"scenario": "hard_fault_map", "defect_density": 0.002}},
    "tilted_hard_fault_map": {"defect_density": 0.002, "tilt": 1.5},
    "tilted_clustered_mbu": {"tilt": 0.4},
    "fault_count_band": {"defect_density": 0.002, "k_min": 1, "k_max": 6},
}

#: Extra configurations that take other sampling branches (Bernoulli
#: flips are drawn dense and packed with ``SparseRowBatch.from_masks``,
#: also as a composite population; spread and column bursts of width > 1).
_VARIANTS = [
    ("iid_uniform", {"flip_probability": 0.01}),
    ("clustered_mbu", {"spread": 0.3}),
    ("burst_column", {"span": 3}),
    ("burst_row", {"span": 2}),
    ("composite", {"soft": {"scenario": "burst_column", "span": 2}}),
    ("composite", {"hard": {"scenario": "iid_uniform", "flip_probability": 0.004}}),
]

SCENARIOS = [
    (name, {**cls.example_params, **_SMALL_BANK_PARAMS.get(name, {})})
    for name, cls in list_scenarios().items()
] + _VARIANTS


def _spec(index: int) -> EngineSpec:
    rows, data_bits, d, code, v = ENGINE_CONFIGS[index]
    return EngineSpec(rows=rows, data_bits=data_bits, interleave_degree=d,
                      horizontal_code=code, vertical_groups=v)


def _assert_matches_reference(spec, model, n_trials, seed, block_size, **kwargs):
    result = run_experiment(spec, model, n_trials, seed, block_size=block_size,
                            **kwargs)
    verdicts, weights = reference_verdicts(spec, model, n_trials, seed, block_size)
    assert np.array_equal(result.verdicts, verdicts)
    if weights is not None:
        assert np.array_equal(result.weights, weights)
    return result


def test_every_registered_scenario_is_covered():
    assert {name for name, _ in SCENARIOS} >= set(list_scenarios())


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    scenario=st.sampled_from(SCENARIOS),
    config=st.integers(0, len(ENGINE_CONFIGS) - 1),
    one_d=st.booleans(),
    seed=st.integers(0, 2**16),
    block_size=st.sampled_from([16, 48, 64]),
)
def test_packed_verdicts_equal_reference(scenario, config, one_d, seed, block_size):
    name, params = scenario
    spec = _spec(config)
    if one_d:
        spec = EngineSpec(rows=spec.rows, data_bits=spec.data_bits,
                          interleave_degree=spec.interleave_degree,
                          horizontal_code=spec.horizontal_code)
    _assert_matches_reference(spec, make_scenario(name, **params), 100, seed,
                              block_size)


@pytest.mark.parametrize("name,params", SCENARIOS, ids=[s[0] for s in SCENARIOS])
def test_one_and_four_workers_equal_reference(name, params):
    spec = _spec(2)
    model = make_scenario(name, **params)
    serial = _assert_matches_reference(spec, model, 160, 11, 32)
    with SharedExecutor(workers=4) as pool:
        pooled = run_experiment(spec, model, 160, 11, block_size=32, executor=pool)
    assert np.array_equal(pooled.verdicts, serial.verdicts)
    assert pooled.counts == serial.counts
    if serial.tally is not None:
        assert pooled.tally == serial.tally


#: Codewords past one 64-bit word (every ``ENGINE_CONFIGS`` codeword fits
#: in one): ``(data_bits, D, code)`` with ``W = 2, 3, 4`` words per slot.
#: The last two end in a word that mixes data and check bits, so the
#: word-by-word data-bit reduction sees a partial mask.
_MULTI_WORD_GEOMETRIES = [
    (64, 2, "SECDED"),  # 72-bit codeword
    (136, 2, "EDC8"),  # 144-bit codeword
    (200, 1, "SECDED"),  # 209-bit codeword
]

_MULTI_WORD_SCENARIOS = [
    ("iid_uniform", {"n_cells": 12}),
    ("clustered_mbu", {}),
    ("fixed_cluster", {"height": 3, "width": 5}),
    ("burst_column", {"span": 3}),
    ("burst_row", {"span": 1}),
]


@pytest.mark.parametrize("two_d", [True, False], ids=["2d", "1d"])
@pytest.mark.parametrize(
    "data_bits,degree,code", _MULTI_WORD_GEOMETRIES,
    ids=[f"{code}{bits}" for bits, _d, code in _MULTI_WORD_GEOMETRIES],
)
def test_packed_verdicts_equal_reference_beyond_one_word(data_bits, degree, code, two_d):
    spec = EngineSpec(rows=16, data_bits=data_bits, interleave_degree=degree,
                      horizontal_code=code, vertical_groups=8 if two_d else None)
    assert -(-spec.codeword_bits // 64) >= 2
    verdicts = [
        _assert_matches_reference(spec, make_scenario(name, **params), 96, 7, 32).verdicts
        for name, params in _MULTI_WORD_SCENARIOS
    ]
    # Some trials end silent, so the data-bit reduction decides verdicts.
    assert (np.concatenate(verdicts) == VERDICT_SILENT).any()


@dataclass(frozen=True)
class _DiagonalStripe(ScenarioBase):
    """A user scenario that defines only its one sampler,
    ``sample_sparse``, by wrapping dense masks it builds itself: one
    diagonal stripe of ``length`` cells from a random start per trial."""

    length: int = 5

    def sample_sparse(self, rng, count, spec):
        masks = np.zeros((count, spec.rows, spec.row_bits), dtype=np.uint8)
        rows = rng.integers(0, spec.rows, size=count)
        cols = rng.integers(0, spec.row_bits, size=count)
        steps = np.arange(self.length)
        masks[np.arange(count)[:, None], (rows[:, None] + steps) % spec.rows,
              (cols[:, None] + steps) % spec.row_bits] = 1
        return SparseRowBatch.from_masks(masks, spec.interleave_degree)

    def to_key(self):
        return {"model": "diagonal_stripe", "length": self.length}


@pytest.mark.parametrize("config", range(len(ENGINE_CONFIGS)))
def test_sample_only_user_scenario_equals_reference(config):
    with SharedExecutor(workers=2) as pool:
        result = _assert_matches_reference(_spec(config), _DiagonalStripe(), 150, 3, 32,
                                           executor=pool)
    assert result.counts.n == 150


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    group_seed=st.integers(0, 10_000),
    shape=st.sampled_from([(32, 4, 2), (16, 5, 3), (24, 6, 1), (64, 8, 4)]),
    two_d=st.booleans(),
    p=st.sampled_from([0.005, 0.03, 0.2]),
    mask_seed=st.integers(0, 2**16),
)
def test_generic_group_maps_equal_reference(group_seed, shape, two_d, p, mask_seed):
    """Scrambled (and non-dividing) bit->group maps through the whole
    recovery pipeline: packed tables vs the reference's gather path."""
    data_bits, interleave, degree = shape
    code = ScrambledParityCode(data_bits, interleave, seed=group_seed)
    spec = EngineSpec(rows=16, data_bits=data_bits, interleave_degree=degree,
                      horizontal_code=f"EDC{interleave}",
                      vertical_groups=8 if two_d else None)
    reference = ParityVectorDecoder(code, degree)
    assert reference._pattern == "generic"
    rng = np.random.default_rng(mask_seed)
    masks = (rng.random((48, spec.rows, spec.row_bits)) < p).astype(np.uint8)
    expected = run_recovery_batch(spec, masks, reference)
    batch = SparseRowBatch.from_masks(masks, degree)
    got = run_recovery_batch_sparse(spec, batch, PackedParityDecoder(code, degree))
    assert np.array_equal(got, expected)


# ----------------------------------------------------------------------
# pinned bytes
# ----------------------------------------------------------------------

#: sha256 of ``Result.without_telemetry().to_json()`` for the default
#: Monte Carlo run of each experiment.
PINNED_RESULTS = {
    "fig3.coverage": "575c5762492dd14bab1a3858bb65ee647c48766e4e1bb06f83b49375115a7e0e",
    "fig8.yield": "d4a611110dd4b60b5d1fb18db306c0855b4618e1224b2ba93587b09a1d81ce8d",
    "sweep.mc_coverage": "ccdb220abf4d0db1528ee335bffa9949d80d54115e6a181690f8127fbdb9c4f1",
}

#: The engine ``.npz`` cache entries those three runs write.
PINNED_CACHE_KEYS = sorted([
    "000c9e4ceb7909e3ba79e5108c38e16cbe3d2ad1bc7fc8c8b39c1428a452e8c0",
    "0c0986453b10ed0f5809ca6bea487360d5fbc4d80d0bd05c82a647a2d815cd66",
    "20246745dc386ecaaa13761e62d854dcde491c16628e03eac2e9ce66e77ba1b2",
    "4bc4d091b283ca1b83f51fe7f2feae72807bb15f7ba7766e43b3c095cb4d5e40",
    "5a8b3f00dd5242f852f2286f07e8b865d16ccc026bae39c8d3066c66e00f38b8",
    "70a0d48e713ee0762c95d174f480fc8cde8c408009bdbb9216225ea6ef9510ad",
    "b741d8f803f199de69fed603f5f592a8d2ef3f539c2357900a6f408b114aaae2",
    "c4c8ef8495e13e6a7b0aa9b2014d4ab3234c114378d9d4109d0e702a6eac0969",
    "c85d3d65738a5f4c9ef9494b229ad0d89d76074eec1163c57c0ea9ece83068d1",
])


def test_default_result_bytes_and_cache_keys_are_pinned(tmp_path):
    with Session(workers=1, cache_dir=tmp_path) as session:
        digests = {
            name: hashlib.sha256(
                session.run(ExperimentSpec(name, backend="monte_carlo"))
                .without_telemetry()
                .to_json()
                .encode()
            ).hexdigest()
            for name in PINNED_RESULTS
        }
    assert digests == PINNED_RESULTS
    assert sorted(p.stem for p in tmp_path.rglob("*.npz")) == PINNED_CACHE_KEYS


#: The perf-model figures at small, multi-block settings: 40 trials is
#: one full 32-trial block plus a partial second one.
_PERF_SPECS = {
    "fig5.performance": {"n_cycles": 600},
    "fig6.access_breakdown": {"n_cycles": 600},
    "sweep.perf_sensitivity": {
        "n_cycles": 600, "store_queue": [2, 64], "l1_ports": [1, 2],
    },
}

#: ``(result sha256, sha256 of the sorted perf .npz keys, key count)``
#: per experiment, each run in a fresh cache.
PINNED_PERF_RESULTS = {
    "fig5.performance": (
        "0ddccd2788490f04293947524bfc48bcb9d38df02caf90a6a443b0c12ea0f6dc",
        "be5432ff939be6409bd919d781c4ef7e10ab783aff5a56614dbd118f3fb0132c",
        60,
    ),
    "fig6.access_breakdown": (
        "30e7ea59d779fca0c1d6d578b69689313b9b20787f7f1fa0667757984824c2d2",
        "d4e4b890f7bb04b7f2d2dd9ddbbd4c6cdb0d8a05e015bfb7d261968b56073a61",
        12,
    ),
    "sweep.perf_sensitivity": (
        "5986e7d42eaeff60d7387514b5dc57dfe059012f9c84a3ff733d6cd21fc511b9",
        "e37128fd08a788658f6eb83fd19398b9240e3eeb4e36cedd986e4d2c46a46329",
        16,
    ),
}


def _perf_pins(tmp_path, workers: int) -> dict:
    pins = {}
    for name, params in _PERF_SPECS.items():
        cache_dir = tmp_path / name
        with Session(workers=workers, cache_dir=cache_dir) as session:
            result = session.run(
                ExperimentSpec(name, backend="monte_carlo", trials=40, params=params)
            )
        keys = sorted(p.stem for p in cache_dir.rglob("*.npz"))
        pins[name] = (
            hashlib.sha256(result.without_telemetry().to_json().encode()).hexdigest(),
            hashlib.sha256("\n".join(keys).encode()).hexdigest(),
            len(keys),
        )
    return pins


@pytest.mark.parametrize("workers", [1, 2])
def test_perf_result_bytes_and_cache_keys_are_pinned(tmp_path, workers):
    assert _perf_pins(tmp_path, workers) == PINNED_PERF_RESULTS


def test_perf_pins_hold_when_evaluation_groups_split(tmp_path, monkeypatch):
    """A one-element budget evaluates every piece of trials on its own,
    splitting evaluation groups inside and across cells."""
    from repro.perf import backend

    monkeypatch.setattr(backend, "_EVAL_GROUP_ELEMENTS", 1)
    assert _perf_pins(tmp_path, 2) == PINNED_PERF_RESULTS
