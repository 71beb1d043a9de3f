"""The fault-scenario subsystem: registry, models, engine integration.

Covers the subsystem's contracts:

* every registered scenario emits well-formed ``(trials, rows,
  row_bits)`` uint8 masks, deterministically per block;
* engine runs are bit-identical for 1 vs 4 workers under **every**
  registered scenario (the scheduling-invariance guarantee extends to
  the new subsystem, including composite's RNG lanes);
* the historical engine model names are bit-exact aliases of scenario
  classes, so pre-scenario results and cache entries stay reachable;
* scenario configs round-trip through ``ExperimentSpec`` params and the
  registry factory (hypothesis-checked).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import (
    BlockStreams,
    EngineSpec,
    SharedExecutor,
    block_generator,
    lane_generator,
    run_experiment,
)
from repro.scenarios import (
    BurstColumnScenario,
    BurstRowScenario,
    ClusteredMbuScenario,
    CompositeScenario,
    FixedClusterScenario,
    HardFaultMapScenario,
    IidUniformScenario,
    UnknownScenarioError,
    list_scenarios,
    make_scenario,
    scenario_from_config,
)

SPEC = EngineSpec(
    rows=16, data_bits=16, interleave_degree=2,
    horizontal_code="EDC4", vertical_groups=8,
)

#: One representative configuration per registered scenario; tests that
#: claim "every scenario" iterate this and assert it stays exhaustive.
SCENARIO_CONFIGS = {
    "iid_uniform": {"n_cells": 3},
    "clustered_mbu": {"footprints": (((1, 1), 0.6), ((3, 3), 0.4))},
    "fixed_cluster": {"height": 2, "width": 3},
    "burst_row": {"span": 2},
    "burst_column": {"span": 2},
    "hard_fault_map": {"defect_density": 0.002},
    "composite": {
        "soft": {"scenario": "clustered_mbu"},
        "hard": {"scenario": "hard_fault_map", "defect_density": 0.001},
    },
    "tilted_hard_fault_map": {"defect_density": 0.002, "tilt": 1.5},
    "tilted_clustered_mbu": {
        "footprints": (((1, 1), 0.6), ((3, 3), 0.4)),
        "tilt": 0.4,
    },
    "fault_count_band": {"defect_density": 0.002, "k_min": 1, "k_max": 3},
}


def _sample_any(model, rng, count, spec):
    """Masks from either sampling protocol (weights dropped for the
    shape/determinism contracts, which are weight-agnostic)."""
    if getattr(model, "weighted", False):
        masks, weights = model.sample_weighted(rng, count, spec)
        assert weights.shape == (count,)
        assert np.isfinite(weights).all() and (weights >= 0).all()
        return masks
    return model.sample(rng, count, spec)


def test_config_table_covers_every_registered_scenario():
    assert set(SCENARIO_CONFIGS) == set(list_scenarios())


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

class TestRegistry:
    def test_builtins_registered(self):
        names = set(list_scenarios())
        assert {
            "iid_uniform", "clustered_mbu", "fixed_cluster",
            "burst_row", "burst_column", "hard_fault_map", "composite",
        } <= names

    def test_make_scenario(self):
        model = make_scenario("burst_row", span=3)
        assert isinstance(model, BurstRowScenario)
        assert model.span == 3
        assert model.scenario_name == "burst_row"

    def test_unknown_scenario_suggests(self):
        with pytest.raises(UnknownScenarioError, match="clustered_mbu"):
            make_scenario("clustered_mbus")

    def test_bad_params_are_value_errors(self):
        with pytest.raises(ValueError, match="invalid parameters"):
            make_scenario("burst_row", not_a_param=1)

    def test_scenario_from_config_forms(self):
        assert isinstance(scenario_from_config("burst_row"), BurstRowScenario)
        built = scenario_from_config({"scenario": "fixed_cluster", "height": 2, "width": 2})
        assert built == FixedClusterScenario(2, 2)
        assert scenario_from_config(built) is built
        with pytest.raises(ValueError, match="'scenario' name key"):
            scenario_from_config({"span": 2})
        with pytest.raises(ValueError):
            scenario_from_config(42)


# ----------------------------------------------------------------------
# mask contracts, for every registered scenario
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SCENARIO_CONFIGS))
class TestEveryScenario:
    def test_masks_well_formed(self, name):
        model = make_scenario(name, **SCENARIO_CONFIGS[name])
        masks = _sample_any(model, block_generator(0, 0), 24, SPEC)
        assert masks.shape == (24, SPEC.rows, SPEC.row_bits)
        assert masks.dtype == np.uint8
        assert set(np.unique(masks)) <= {0, 1}

    def test_deterministic_per_block(self, name):
        model = make_scenario(name, **SCENARIO_CONFIGS[name])
        if getattr(model, "weighted", False):
            a_masks, a_w = model.sample_weighted(BlockStreams(5, 3).root(), 16, SPEC)
            b_masks, b_w = model.sample_weighted(BlockStreams(5, 3).root(), 16, SPEC)
            assert np.array_equal(a_w, b_w)
            assert np.array_equal(a_masks, b_masks)
        else:
            a = model.sample_block(BlockStreams(5, 3), 16, SPEC)
            b = model.sample_block(BlockStreams(5, 3), 16, SPEC)
            assert np.array_equal(a, b)

    def test_to_key_is_json_pure_and_stable(self, name):
        import json

        model = make_scenario(name, **SCENARIO_CONFIGS[name])
        key = model.to_key()
        assert json.loads(json.dumps(key)) == key
        assert key == make_scenario(name, **SCENARIO_CONFIGS[name]).to_key()

    def test_one_vs_four_workers_bit_identical(self, name):
        model = make_scenario(name, **SCENARIO_CONFIGS[name])
        kwargs = dict(n_trials=96, seed=13, block_size=16)
        serial = run_experiment(SPEC, model, **kwargs)
        with SharedExecutor(workers=4) as pool:
            parallel = run_experiment(SPEC, model, **kwargs, executor=pool)
        assert serial.counts == parallel.counts
        assert np.array_equal(serial.verdicts, parallel.verdicts)
        if getattr(model, "weighted", False):
            assert np.array_equal(serial.weights, parallel.weights)
            assert np.array_equal(
                serial.tally.as_array(), parallel.tally.as_array()
            )


# ----------------------------------------------------------------------
# individual model semantics
# ----------------------------------------------------------------------

class TestIidUniform:
    def test_exact_count_mode(self):
        masks = IidUniformScenario(n_cells=5).sample(block_generator(1, 0), 12, SPEC)
        assert (masks.sum(axis=(1, 2)) == 5).all()

    def test_bernoulli_mode(self):
        model = IidUniformScenario(flip_probability=0.05)
        masks = model.sample(block_generator(1, 0), 200, SPEC)
        mean = masks.mean()
        assert 0.03 < mean < 0.07

    def test_default_is_one_cell(self):
        model = IidUniformScenario()
        masks = model.sample(block_generator(1, 0), 8, SPEC)
        assert (masks.sum(axis=(1, 2)) == 1).all()

    def test_both_knobs_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            IidUniformScenario(n_cells=2, flip_probability=0.1)

    def test_key_distinguishes_modes(self):
        assert IidUniformScenario(n_cells=2).to_key() == {
            "model": "iid_uniform", "n_cells": 2,
        }
        assert IidUniformScenario(flip_probability=0.1).to_key() == {
            "model": "iid_uniform", "flip_probability": 0.1,
        }


class TestClusteredMbu:
    def test_default_footprints_are_mostly_single_bit(self):
        model = ClusteredMbuScenario()
        sizes = dict(model.footprints)[(1, 1)]
        assert sizes == pytest.approx(0.9)

    def test_spread_stretches_footprints(self):
        tight = ClusteredMbuScenario(footprints=(((2, 2), 1.0),))
        loose = ClusteredMbuScenario(footprints=(((2, 2), 1.0),), spread=0.6)
        big_spec = EngineSpec(rows=64, data_bits=16, interleave_degree=2,
                              horizontal_code="EDC4", vertical_groups=8)
        t = tight.sample(block_generator(3, 0), 300, big_spec).sum(axis=(1, 2))
        l = loose.sample(block_generator(3, 0), 300, big_spec).sum(axis=(1, 2))
        assert (t == 4).all()
        assert l.mean() > t.mean()

    def test_spread_zero_is_bit_exact_with_unspread(self):
        a = ClusteredMbuScenario(footprints=(((2, 2), 1.0),))
        b = ClusteredMbuScenario(footprints=(((2, 2), 1.0),), spread=0.0)
        assert np.array_equal(
            a.sample(block_generator(4, 0), 32, SPEC),
            b.sample(block_generator(4, 0), 32, SPEC),
        )

    def test_spread_changes_key_but_default_does_not(self):
        base = ClusteredMbuScenario(footprints=(((2, 2), 1.0),))
        spread = ClusteredMbuScenario(footprints=(((2, 2), 1.0),), spread=0.3)
        assert "spread" not in base.to_key()
        assert spread.to_key()["spread"] == 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusteredMbuScenario(footprints=())
        with pytest.raises(ValueError):
            ClusteredMbuScenario(footprints=(((0, 1), 1.0),))
        with pytest.raises(ValueError):
            ClusteredMbuScenario(footprints=(((1, 1), 0.0),))
        with pytest.raises(ValueError):
            ClusteredMbuScenario(spread=1.0)


class TestBursts:
    def test_burst_row_spans_full_width(self):
        masks = BurstRowScenario(span=2).sample(block_generator(2, 0), 16, SPEC)
        rows_hit = masks.any(axis=2).sum(axis=1)
        assert (rows_hit == 2).all()
        # every hit row fails end to end
        assert (masks.sum(axis=(1, 2)) == 2 * SPEC.row_bits).all()

    def test_burst_column_spans_full_height(self):
        masks = BurstColumnScenario(span=3).sample(block_generator(2, 0), 16, SPEC)
        cols_hit = masks.any(axis=1).sum(axis=1)
        assert (cols_hit == 3).all()
        assert (masks.sum(axis=(1, 2)) == 3 * SPEC.rows).all()

    def test_oversized_span_clamps_to_array(self):
        masks = BurstRowScenario(span=1000).sample(block_generator(2, 0), 4, SPEC)
        assert (masks == 1).all()

    def test_invalid_span(self):
        with pytest.raises(ValueError):
            BurstRowScenario(span=0)


class TestHardFaultMap:
    def test_poisson_mean_density(self):
        model = HardFaultMapScenario(defect_density=0.01)
        masks = model.sample(block_generator(6, 0), 400, SPEC)
        per_trial = masks.sum(axis=(1, 2))
        expected = 0.01 * SPEC.rows * SPEC.row_bits
        assert per_trial.mean() == pytest.approx(expected, rel=0.25)
        # genuinely per-trial random, not one shared map
        assert len(np.unique(per_trial)) > 1

    def test_zero_density(self):
        masks = HardFaultMapScenario(0.0).sample(block_generator(6, 0), 8, SPEC)
        assert masks.sum() == 0


class TestComposite:
    def test_union_of_populations(self):
        model = CompositeScenario(
            soft={"scenario": "fixed_cluster", "height": 2, "width": 2},
            hard={"scenario": "hard_fault_map", "defect_density": 0.003},
        )
        streams = BlockStreams(9, 0)
        combined = model.sample_block(streams, 32, SPEC)
        hard = model.hard.sample(streams.lane(0), 32, SPEC)
        soft = model.soft.sample(streams.lane(1), 32, SPEC)
        assert np.array_equal(combined, hard | soft)

    def test_lanes_decouple_populations(self):
        """Reconfiguring the soft population must not move the hard map."""
        hard_cfg = {"scenario": "hard_fault_map", "defect_density": 0.003}
        a = CompositeScenario(soft={"scenario": "fixed_cluster", "height": 1, "width": 1},
                              hard=hard_cfg)
        b = CompositeScenario(soft={"scenario": "clustered_mbu"}, hard=hard_cfg)
        hard_a = a.hard.sample(BlockStreams(9, 0).lane(0), 16, SPEC)
        hard_b = b.hard.sample(BlockStreams(9, 0).lane(0), 16, SPEC)
        assert np.array_equal(hard_a, hard_b)

    def test_lane_streams_are_independent(self):
        root = block_generator(3, 1).random(64)
        lane0 = lane_generator(3, 1, 0).random(64)
        lane1 = lane_generator(3, 1, 1).random(64)
        assert not np.array_equal(root, lane0)
        assert not np.array_equal(lane0, lane1)

    def test_defaults_build(self):
        model = CompositeScenario()
        assert isinstance(model.soft, ClusteredMbuScenario)
        assert isinstance(model.hard, HardFaultMapScenario)
        key = model.to_key()
        assert key["model"] == "composite"
        assert key["soft"]["model"] == "cluster_distribution"

    @pytest.mark.parametrize("population", ["soft", "hard"])
    def test_rejects_weighted_populations(self, population):
        # A union of populations has no per-trial likelihood ratio, so a
        # weighted sub-scenario is a configuration error, not a crash
        # inside the engine.
        weighted = {"scenario": "tilted_clustered_mbu", "tilt": 0.1}
        with pytest.raises(ValueError, match="weighted"):
            CompositeScenario(**{population: weighted})


# ----------------------------------------------------------------------
# weighted scenarios: no draw without its weights
# ----------------------------------------------------------------------

WEIGHTED = sorted(
    name for name, cls in list_scenarios().items() if getattr(cls, "weighted", False)
)


def test_weighted_scenarios_are_found():
    assert {"tilted_hard_fault_map", "tilted_clustered_mbu"} <= set(WEIGHTED)


@pytest.mark.parametrize("name", WEIGHTED)
def test_weighted_scenario_refuses_unweighted_draws(name):
    # A tilted draw without its likelihood ratios is a biased estimate.
    model = make_scenario(name, **SCENARIO_CONFIGS[name])
    with pytest.raises(TypeError, match="likelihood-ratio weights"):
        model.sample(block_generator(1, 0), 4, SPEC)
    with pytest.raises(TypeError, match="likelihood-ratio weights"):
        model.sample_block(BlockStreams(1, 0), 4, SPEC)


# ----------------------------------------------------------------------
# knob validation: a value the draw would change is refused up front
# ----------------------------------------------------------------------

BAD_KNOBS = [
    ("burst_row", {"span": 2.5}),
    ("burst_row", {"span": True}),
    ("burst_column", {"span": 1.5}),
    ("fixed_cluster", {"height": 2.9, "width": 2}),
    ("fixed_cluster", {"height": 2, "width": True}),
    ("iid_uniform", {"n_cells": 2.5}),
    ("iid_uniform", {"n_cells": True}),
    ("tilted_hard_fault_map", {"shift": 2.7}),
    ("tilted_hard_fault_map", {"shift": True}),
    ("fault_count_band", {"k_min": 1.5}),
    ("fault_count_band", {"k_max": 3.5}),
    ("fault_count_band", {"k_max": True}),
    ("clustered_mbu", {"footprints": [[[1.5, 2], 1.0]]}),
    ("clustered_mbu", {"footprints": [[[True, 2], 1.0]]}),
    ("tilted_clustered_mbu", {"footprints": [[[2, 2.5], 1.0]]}),
    ("clustered_mbu", {"footprints": [[[1, 1], float("nan")]]}),
    ("clustered_mbu", {"footprints": [[[1, 1], float("inf")], [[2, 2], 1.0]]}),
    ("tilted_clustered_mbu", {"footprints": [[[1, 1], float("nan")]]}),
    ("tilted_clustered_mbu", {"footprints": [[[1, 1], 1.0], [[2, 2], float("inf")]]}),
    ("fault_count_band", {"defect_density": 0.0, "k_min": 1}),
] + [
    (name, {"defect_density": density})
    for name in ("hard_fault_map", "tilted_hard_fault_map", "fault_count_band")
    for density in (float("nan"), float("inf"))
]


@pytest.mark.parametrize(
    "name,params", BAD_KNOBS,
    ids=[n + "-" + ",".join(f"{k}={v}" for k, v in p.items()) for n, p in BAD_KNOBS],
)
def test_bad_knob_is_refused_at_construction(name, params):
    with pytest.raises(ValueError):
        make_scenario(name, **params)


def test_bad_knob_is_refused_by_a_session(tmp_path):
    from repro.api import ExperimentSpec, Session

    spec = ExperimentSpec(
        "fig3.coverage", backend="monte_carlo", trials=64,
        params={"scenario": "burst_row", "scenario_params": {"span": 2.5}},
    )
    with Session(workers=1, cache_dir=tmp_path) as session:
        with pytest.raises(ValueError, match="span must be an integer"):
            session.run(spec)


@pytest.mark.parametrize(
    "name,params,key",
    [
        ("burst_row", {"span": 2}, {"model": "burst_row", "span": 2}),
        ("burst_row", {"span": 2.0}, {"model": "burst_row", "span": 2.0}),
        ("tilted_hard_fault_map", {"shift": 2.0, "tilt": 0.5},
         {"model": "tilted_hard_fault_map", "defect_density": 1e-4,
          "tilt": 0.5, "shift": 2}),
        ("fault_count_band", {"k_min": 1.0, "k_max": 3},
         {"model": "fault_count_band", "defect_density": 1e-4,
          "k_min": 1, "k_max": 3}),
        ("clustered_mbu", {"footprints": [[[2.0, 2], 1.0]]},
         {"model": "cluster_distribution", "footprints": [[[2, 2], 1.0]]}),
    ],
)
def test_accepted_integral_knobs_keep_their_keys(name, params, key):
    assert make_scenario(name, **params).to_key() == key


def test_integral_float_cell_count_draws_as_the_integer():
    as_float = IidUniformScenario(n_cells=2.0)
    assert as_float.to_key() == IidUniformScenario(n_cells=2).to_key()
    assert np.array_equal(
        as_float.sample(block_generator(4, 0), 8, SPEC),
        IidUniformScenario(n_cells=2).sample(block_generator(4, 0), 8, SPEC),
    )


# ----------------------------------------------------------------------
# back-compat: the historical engine models' cache keys
# ----------------------------------------------------------------------

class TestLegacyAliases:
    def test_legacy_keys_unchanged(self):
        """Pre-scenario cache entries must stay addressable; the
        exact-count cells left the ``random_cells`` name with their old
        draw, whose entries no longer match the stream."""
        assert IidUniformScenario(7).to_key() == {"model": "iid_uniform", "n_cells": 7}
        assert FixedClusterScenario(2, 3).to_key() == {
            "model": "fixed_cluster", "height": 2, "width": 3,
        }
        footprints = (((1, 1), 0.5), ((2, 2), 0.5))
        assert ClusteredMbuScenario(footprints=footprints).to_key() == {
            "model": "cluster_distribution",
            "footprints": [[[1, 1], 0.5], [[2, 2], 0.5]],
        }

    def test_mostly_single_bit_matches_scalar_distribution(self):
        from repro.errors import FootprintDistribution

        model = ClusteredMbuScenario.mostly_single_bit(0.3)
        dist = FootprintDistribution.mostly_single_bit(0.3)
        assert model.footprints == tuple(sorted(dist.weights.items()))


# ----------------------------------------------------------------------
# hypothesis properties
# ----------------------------------------------------------------------

_footprints = st.lists(
    st.tuples(
        st.tuples(st.integers(1, 8), st.integers(1, 8)),
        st.floats(0.01, 10.0, allow_nan=False),
    ),
    min_size=1,
    max_size=5,
).map(tuple)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(footprints=_footprints, spread=st.floats(0.0, 0.8), seed=st.integers(0, 2**16))
def test_clustered_mbu_masks_always_within_bounds(footprints, spread, seed):
    model = ClusteredMbuScenario(footprints=footprints, spread=spread)
    masks = model.sample(block_generator(seed, 0), 16, SPEC)
    assert masks.shape == (16, SPEC.rows, SPEC.row_bits)
    assert (masks.sum(axis=(1, 2)) >= 1).all()


@settings(max_examples=25, deadline=None)
@given(footprints=_footprints, spread=st.floats(0.0, 0.8))
def test_scenario_key_roundtrips_through_spec_params(footprints, spread):
    """A scenario config survives ExperimentSpec freezing and rebuilds
    an equal scenario — what the catalog does with CLI params."""
    from repro.api.spec import ExperimentSpec

    params = {
        "scenario": "clustered_mbu",
        "scenario_params": {"footprints": [[list(f), w] for f, w in footprints],
                            "spread": spread},
    }
    spec = ExperimentSpec("fig3.coverage", trials=1, params=params)
    thawed = spec.param_dict()
    rebuilt = make_scenario(thawed["scenario"], **thawed["scenario_params"])
    assert rebuilt == ClusteredMbuScenario(footprints=footprints, spread=spread)
    assert spec.content_hash() == ExperimentSpec(
        "fig3.coverage", trials=1, params=params
    ).content_hash()


@settings(max_examples=20, deadline=None)
@given(n_cells=st.integers(0, 40), seed=st.integers(0, 2**16))
def test_iid_uniform_places_exactly_n_distinct_cells(n_cells, seed):
    masks = IidUniformScenario(n_cells=n_cells).sample(
        block_generator(seed, 0), 8, SPEC
    )
    assert (masks.sum(axis=(1, 2)) == n_cells).all()
