"""ExperimentSpec: validation, canonical freezing, content hashing."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.api import ExperimentSpec, SpecError, content_hash
from repro.api.spec import freeze_params, thaw_params


class TestValidation:
    def test_minimal_spec(self):
        spec = ExperimentSpec("fig1.storage")
        assert spec.backend == "auto"
        assert spec.trials is None
        assert spec.param_dict() == {}

    def test_rejects_bad_fields(self):
        with pytest.raises(SpecError):
            ExperimentSpec("")
        with pytest.raises(SpecError):
            ExperimentSpec("x", backend="quantum")
        with pytest.raises(SpecError):
            ExperimentSpec("x", trials=0)
        with pytest.raises(SpecError):
            ExperimentSpec("x", confidence=1.0)
        with pytest.raises(SpecError):
            ExperimentSpec("x", params={"f": object()})

    def test_resolve_backend(self):
        spec = ExperimentSpec("x")
        assert spec.resolve_backend(("analytical", "monte_carlo")) == "analytical"
        assert spec.resolve_backend(("monte_carlo",)) == "monte_carlo"
        mc = ExperimentSpec("x", trials=100)
        assert mc.resolve_backend(("analytical", "monte_carlo")) == "monte_carlo"
        with pytest.raises(SpecError):
            ExperimentSpec("x", backend="monte_carlo").resolve_backend(("analytical",))

    def test_replaced_refreezes_params(self):
        spec = ExperimentSpec("x", params={"a": 1})
        other = spec.replaced(params={"b": [2, 3]})
        assert other.param_dict() == {"b": [2, 3]}
        assert spec.param_dict() == {"a": 1}


class TestContentHash:
    def test_equal_specs_built_in_different_orders_hash_identically(self):
        """The satellite guarantee: key construction cannot drift on ordering."""
        first = ExperimentSpec(
            "fig8.yield",
            backend="monte_carlo",
            trials=512,
            seed=1946,
            params={"failing_cells": [0, 8, 16], "rows": 64},
        )
        second = ExperimentSpec(
            params={"rows": 64, "failing_cells": [0, 8, 16]},  # reversed order
            seed=1946,
            trials=512,
            backend="monte_carlo",
            experiment="fig8.yield",
        )
        assert first == second
        assert first.content_hash() == second.content_hash()

    def test_nested_mapping_order_is_canonicalized(self):
        a = ExperimentSpec("x", params={"m": {"p": 1, "q": {"r": 2, "s": 3}}})
        b = ExperimentSpec("x", params={"m": {"q": {"s": 3, "r": 2}, "p": 1}})
        assert a.content_hash() == b.content_hash()

    def test_any_field_change_changes_the_hash(self):
        base = ExperimentSpec("x", trials=10, seed=1, params={"a": 1})
        variants = [
            base.replaced(experiment="y"),
            base.replaced(backend="monte_carlo"),
            base.replaced(trials=11),
            base.replaced(seed=2),
            base.replaced(confidence=0.99),
            base.replaced(params={"a": 2}),
            base.replaced(params={"a": 1, "b": 0}),
        ]
        hashes = {spec.content_hash() for spec in variants}
        assert base.content_hash() not in hashes
        assert len(hashes) == len(variants)

    def test_key_round_trip(self):
        spec = ExperimentSpec(
            "sweep.mc_coverage", trials=128, seed=3, params={"scheme": "l1.baseline"}
        )
        assert ExperimentSpec.from_key(spec.to_key()) == spec

    def test_engine_cache_key_routes_through_spec_content_hash(self):
        from repro.engine.cache import cache_key

        params = {"b": 1, "a": {"y": 2, "x": [1, 2]}}
        expected = ExperimentSpec(
            experiment="engine.run_experiment", backend="monte_carlo", params=params
        ).content_hash()
        assert cache_key(params) == expected
        assert cache_key({"a": {"x": [1, 2], "y": 2}, "b": 1}) == cache_key(params)

    def test_runner_stores_entries_under_cache_key(self, tmp_path):
        """The exported cache_key() locates what run_experiment writes."""
        from repro.engine import EngineSpec, ResultCache, run_experiment
        from repro.engine.cache import ENGINE_VERSION, cache_key
        from repro.scenarios import FixedClusterScenario

        spec = EngineSpec(
            rows=8, data_bits=8, interleave_degree=2,
            horizontal_code="EDC4", vertical_groups=4,
        )
        model = FixedClusterScenario(1, 1)
        cache = ResultCache(tmp_path)
        run_experiment(spec, model, 32, seed=3, block_size=16, cache=cache)
        key = cache_key({
            "engine_version": ENGINE_VERSION,
            "spec": spec.to_key(),
            "model": model.to_key(),
            "n_trials": 32,
            "seed": 3,
            "block_size": 16,
        })
        assert cache.path_for(key).exists()


# Strategy for JSON-pure parameter trees.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**31), 2**31),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
_params = st.dictionaries(
    st.text(min_size=1, max_size=10),
    st.recursive(
        _scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.dictionaries(st.text(min_size=1, max_size=8), inner, max_size=4),
        ),
        max_leaves=12,
    ),
    max_size=6,
)


class TestFreezeProperties:
    def test_thaw_distinguishes_dicts_from_pair_shaped_lists(self):
        """Empty lists and [[k, v], ...] lists must not thaw into dicts."""
        tree = {"empty": [], "pairs": [["a", 1.0], ["b", 2.0]], "map": {"a": 1}}
        assert thaw_params(freeze_params(tree)) == tree

    def test_frozen_params_pickle(self):
        import pickle

        spec = ExperimentSpec("x", params={"a": {"b": [1, 2]}, "c": []})
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and clone.param_dict() == spec.param_dict()

    @given(_params)
    def test_freeze_is_idempotent_and_thaw_inverts(self, params):
        frozen = freeze_params(params)
        assert freeze_params(frozen) == frozen
        assert freeze_params(thaw_params(frozen)) == frozen
        assert thaw_params(freeze_params(thaw_params(frozen))) == thaw_params(frozen)

    @given(_params)
    def test_hash_is_insertion_order_independent(self, params):
        reordered = dict(reversed(list(params.items())))
        assert (
            ExperimentSpec("x", params=params).content_hash()
            == ExperimentSpec("x", params=reordered).content_hash()
        )
