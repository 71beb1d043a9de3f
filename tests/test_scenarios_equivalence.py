"""One source of geometry truth: vectorized scenarios vs scalar injector.

The scalar :class:`repro.errors.ErrorInjector` delegates placement and
footprint sampling to :mod:`repro.scenarios.generators`.  These tests
pin the two paths together from both directions:

* **bit-exact** — a single-event vectorized draw (``count=1``) consumes
  the RNG stream identically to the scalar injection it replaced, so a
  same-seeded injector produces the *same cells* the scenario mask
  marks;
* **distribution-wise** — batched draws reproduce the scalar sampler's
  footprint frequencies and uniform placement (hypothesis-driven, with
  generous statistical tolerances);
* **the one distinct-cell draw** — exact-count cells are ``k``
  distinct, uniform sites per trial at a cost that grows with ``k``,
  and fig8's Monte Carlo intervals contain the exact occupancy yield;
* **experiment-level back-compat** — the scenario-threaded
  ``fig3.coverage`` Monte Carlo experiment hits the same engine cache
  keys and produces the same Wilson intervals as the pre-scenario
  implementation.
"""

from __future__ import annotations

import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.array import SramArray
from repro.engine import EngineSpec, block_generator, cache_key, run_experiment
from repro.engine.cache import ENGINE_VERSION
from repro.errors import ErrorInjector, ErrorKind, FootprintDistribution
from repro.scenarios import make_scenario
from repro.scenarios.generators import exact_cells_sparse, sample_footprints

SPEC = EngineSpec(
    rows=24, data_bits=16, interleave_degree=2,
    horizontal_code="EDC4", vertical_groups=8,
)


def _mask_from_array(array: SramArray) -> np.ndarray:
    return np.asarray(array.snapshot(), dtype=np.uint8)


class _Geometry:
    """Bare geometry for sampling masks the injector's shape."""

    def __init__(self, rows: int, row_bits: int):
        self.rows = rows
        self.row_bits = row_bits


# ----------------------------------------------------------------------
# bit-exact single-event equivalence
# ----------------------------------------------------------------------

@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), height=st.integers(1, 8), width=st.integers(1, 8))
def test_fixed_cluster_matches_scalar_injection_bit_exactly(seed, height, width):
    geometry = _Geometry(24, 36)
    mask = make_scenario("fixed_cluster", height=height, width=width).sample(
        np.random.default_rng(seed), 1, geometry
    )[0]
    array = SramArray(24, 36)
    ErrorInjector(array, seed=seed).inject_cluster(height, width)
    assert np.array_equal(mask, _mask_from_array(array))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), fraction=st.floats(0.0, 1.0))
def test_clustered_mbu_matches_scalar_distribution_injection_bit_exactly(seed, fraction):
    """Same seed, one event: the vectorized scenario marks exactly the
    cells the scalar ``inject_from_distribution`` flips."""
    dist = FootprintDistribution.mostly_single_bit(fraction)
    model = make_scenario(
        "clustered_mbu", footprints=tuple(sorted(dist.weights.items()))
    )
    geometry = _Geometry(24, 36)
    mask = model.sample(np.random.default_rng(seed), 1, geometry)[0]

    array = SramArray(24, 36)
    injector = ErrorInjector(array, seed=seed)
    # The injector samples footprints in insertion order of the weights
    # mapping; hand it the scenario's canonical (sorted) order so both
    # paths draw the same categorical.
    sorted_dist = FootprintDistribution(weights=dict(sorted(dist.weights.items())))
    injector.inject_from_distribution(sorted_dist, count=1)
    assert np.array_equal(mask, _mask_from_array(array))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_burst_scenarios_match_scalar_failures_bit_exactly(seed):
    geometry = _Geometry(24, 36)
    row_mask = make_scenario("burst_row").sample(np.random.default_rng(seed), 1, geometry)[0]
    array = SramArray(24, 36)
    ErrorInjector(array, seed=seed).inject_row_failure(kind=ErrorKind.SOFT)
    assert np.array_equal(row_mask, _mask_from_array(array))

    col_mask = make_scenario("burst_column").sample(
        np.random.default_rng(seed), 1, geometry
    )[0]
    array = SramArray(24, 36)
    ErrorInjector(array, seed=seed).inject_column_failure(kind=ErrorKind.SOFT)
    assert np.array_equal(col_mask, _mask_from_array(array))


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), probability=st.floats(0.0, 0.2))
def test_iid_bernoulli_matches_scalar_hard_fault_injection(seed, probability):
    geometry = _Geometry(24, 36)
    mask = make_scenario("iid_uniform", flip_probability=probability).sample(
        np.random.default_rng(seed), 1, geometry
    )[0]
    array = SramArray(24, 36)
    events = ErrorInjector(array, seed=seed).inject_random_hard_faults(probability)
    cells = {event.cells[0] for event in events}
    assert cells == {(int(r), int(c)) for r, c in zip(*np.nonzero(mask))}


# ----------------------------------------------------------------------
# distribution-wise batch equivalence
# ----------------------------------------------------------------------

def test_batched_footprint_frequencies_match_scalar_sampler():
    """N vectorized footprint draws and N scalar draws see the same
    categorical distribution (they share one implementation; this pins
    the frequencies against drift in either entry point)."""
    dist = FootprintDistribution.mostly_single_bit(0.5)
    footprints = tuple(dist.weights.items())
    n = 4000
    heights, widths = sample_footprints(np.random.default_rng(0), footprints, n)
    vector_counts = {
        shape: int(((heights == shape[0]) & (widths == shape[1])).sum())
        for shape, _w in footprints
    }
    rng = np.random.default_rng(1)
    scalar_counts = {shape: 0 for shape, _w in footprints}
    for _ in range(n):
        scalar_counts[dist.sample(rng)] += 1
    total_weight = sum(dist.weights.values())
    for shape, weight in dist.weights.items():
        expected = n * weight / total_weight
        tolerance = 4 * np.sqrt(expected) + 8
        assert abs(vector_counts[shape] - expected) < tolerance
        assert abs(scalar_counts[shape] - expected) < tolerance


def test_batched_cluster_placement_is_uniform_like_scalar():
    """Cluster anchors cover the legal placement range uniformly in both
    paths: compare per-row anchor histograms loosely."""
    geometry = _Geometry(16, 16)
    model = make_scenario("fixed_cluster", height=2, width=2)
    n = 6000
    masks = model.sample(np.random.default_rng(3), n, geometry)
    anchors_vec = np.array([np.argwhere(m)[0] for m in masks])

    rng_rows = np.zeros(15, dtype=int)
    for i in range(n // 10):
        array = SramArray(16, 16)
        event = ErrorInjector(array, seed=1000 + i).inject_cluster(2, 2)
        rng_rows[event.bounding_box()[0]] += 1

    # 2x2 clusters anchor uniformly in [0, 15): chi-square-ish bound.
    hist_vec = np.bincount(anchors_vec[:, 0], minlength=15)
    expected_vec = n / 15
    assert (np.abs(hist_vec - expected_vec) < 5 * np.sqrt(expected_vec) + 10).all()
    expected_scalar = (n // 10) / 15
    assert (np.abs(rng_rows - expected_scalar) < 5 * np.sqrt(expected_scalar) + 10).all()


# ----------------------------------------------------------------------
# the one distinct-cell draw
# ----------------------------------------------------------------------

_N_SITES = SPEC.rows * SPEC.row_bits


@pytest.mark.parametrize(
    "n_cells",
    # Both branches of the draw: index draws up to n_sites // 8 cells,
    # one ranked score per site above that.
    [0, 1, 40, _N_SITES // 8, _N_SITES // 8 + 1, _N_SITES],
)
def test_exact_cells_are_k_distinct_sites_per_trial(n_cells):
    batch = exact_cells_sparse(np.random.default_rng(11), 48, SPEC, n_cells)
    assert batch.n_trials == 48
    assert ((batch.row_idx >= 0) & (batch.row_idx < SPEC.rows)).all()
    masks = batch.densify()
    assert masks.shape == (48, SPEC.rows, SPEC.row_bits)
    # A 0/1 mask summing to k holds exactly k distinct in-range sites.
    assert set(np.unique(masks)) <= {0, 1}
    assert (masks.sum(axis=(1, 2)) == n_cells).all()


@pytest.mark.parametrize("n_cells", [40, _N_SITES // 8 + 1])
def test_exact_cells_have_uniform_site_marginals(n_cells):
    """Pearson chi-square of per-site hit counts against the uniform
    marginal ``n_cells / n_sites``.  Hits within a trial are drawn
    without replacement, so each site's count has variance
    ``T p (1 - p)``; scaling by ``1 - p`` makes the statistic
    approximately chi-square with ``n_sites - 1`` degrees of freedom.  The bound is
    its 0.999 quantile (Wilson-Hilferty) at a fixed seed.  A per-site
    z bound (Bonferroni over the sites) catches one missing or
    favoured site, which moves the sum too little to fail it."""
    n_trials = 2000
    masks = exact_cells_sparse(
        np.random.default_rng(2024), n_trials, SPEC, n_cells
    ).densify()
    hits = masks.reshape(n_trials, -1).sum(axis=0, dtype=np.int64)
    p = n_cells / _N_SITES
    expected = n_trials * p
    z_sites = (hits - expected) / math.sqrt(expected * (1 - p))
    statistic = float((z_sites**2).sum())
    df = _N_SITES - 1
    z = NormalDist().inv_cdf(0.999)
    bound = df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3
    assert statistic < bound
    assert np.abs(z_sites).max() < NormalDist().inv_cdf(1 - 0.001 / (2 * _N_SITES))


def test_exact_cells_cost_scales_with_faults_not_array():
    """8 cells in a 2**24-site bank: a per-site score draw would
    allocate 4 x 2**24 float64 (512 MB); the draw must stay small."""
    geometry = _Geometry(2**18, 64)
    exact_cells_sparse(np.random.default_rng(0), 4, geometry, 8)  # warm tables
    tracemalloc.start()
    try:
        batch = exact_cells_sparse(np.random.default_rng(1), 4, geometry, 8)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert batch.n_pairs <= 32


def test_fig8_monte_carlo_is_worker_count_invariant():
    from repro.api import ExperimentSpec, Session

    spec = ExperimentSpec("fig8.yield", backend="monte_carlo", trials=2048, seed=5)
    with Session(workers=1) as serial, Session(workers=2) as pooled:
        one = serial.run(spec)
        two = pooled.run(spec)
        assert pooled.executor.started  # the blocks really fanned out
    assert one.data_dict() == two.data_dict()


def _exact_ecc_only_yield(n_cells: int, n_sites: int, word_bits: int) -> float:
    """P(``n_cells`` distinct uniform sites land in distinct words):
    the occupancy product of prod_{i<n} (S - w i) / (S - i)."""
    return math.prod(
        (n_sites - word_bits * i) / (n_sites - i) for i in range(n_cells)
    )


@pytest.fixture(scope="module")
def fig8_gate_data():
    """fig8.yield Monte Carlo at 8192 trials (seed 1946), each interval
    at a Bonferroni-adjusted confidence over the sweep's 6 points."""
    from repro.api import ExperimentSpec, Session

    points = 6
    result = Session().run(
        ExperimentSpec("fig8.yield", backend="monte_carlo", trials=8192,
                       seed=1946, confidence=1 - 0.05 / points)
    )
    data = result.data_dict()
    assert len(data["failing_cells"]) == points
    return data


def test_fig8_monte_carlo_intervals_contain_exact_occupancy_yield(fig8_gate_data):
    """Exactness gate for the cell draw: every fig8 Monte Carlo interval
    contains the exact ECC-only yield of its bank (64 rows x 4 SECDED
    words: S = 18432 sites, w = 72 per word)."""
    data = fig8_gate_data
    for n, lower, upper in zip(
        data["failing_cells"], data["simulated_lower"], data["simulated_upper"]
    ):
        exact = _exact_ecc_only_yield(int(n), 18432, 72)
        assert lower <= exact <= upper, (n, lower, exact, upper)


def test_fig8_analytic_curve_is_exact_and_inside_every_interval(fig8_gate_data):
    """Agreement gate for the model: the experiment's own analytic point
    is the occupancy product of the simulated bank and lies inside every
    Monte Carlo interval."""
    data = fig8_gate_data
    for n, analytic, lower, upper in zip(
        data["failing_cells"], data["analytical"],
        data["simulated_lower"], data["simulated_upper"],
    ):
        exact = _exact_ecc_only_yield(int(n), 18432, 72)
        assert analytic == pytest.approx(exact, rel=1e-12, abs=0), (n, analytic, exact)
        assert lower <= analytic <= upper, (n, lower, analytic, upper)


# ----------------------------------------------------------------------
# experiment-level back-compat
# ----------------------------------------------------------------------

class TestExperimentBackCompat:
    def test_fig3_scenario_hits_pre_scenario_cache_key(self):
        """The catalog's default scenario model must serialize to the
        exact params the pre-scenario fig3.coverage cached under."""
        from repro.core.coverage import FIG3_MC_FOOTPRINTS

        model = make_scenario("clustered_mbu", footprints=FIG3_MC_FOOTPRINTS)
        legacy_params = {
            "engine_version": ENGINE_VERSION,
            "spec": SPEC.to_key(),
            "model": {
                "model": "cluster_distribution",
                "footprints": [[list(f), w] for f, w in FIG3_MC_FOOTPRINTS],
            },
            "n_trials": 256,
            "seed": 2007,
            "block_size": 256,
        }
        current_params = dict(legacy_params, model=model.to_key())
        assert cache_key(current_params) == cache_key(legacy_params)

    def test_fig3_coverage_scenario_runs_are_bit_exact_with_default(self, tmp_path):
        """scenario="clustered_mbu" == the unset default: same estimates,
        one shared cache entry (same content-hash inputs, same CIs)."""
        from repro.api import ExperimentSpec, Session
        from repro.engine import ResultCache

        session = Session(cache_dir=tmp_path / "cache")
        default = session.run(ExperimentSpec("fig3.coverage", trials=96, seed=2007))
        explicit = session.run(
            ExperimentSpec(
                "fig3.coverage", trials=96, seed=2007,
                params={"scenario": "clustered_mbu"},
            )
        )
        assert default.data_dict()["estimates"] == explicit.data_dict()["estimates"]
        assert len(ResultCache(tmp_path / "cache")) == len(
            default.data_dict()["estimates"]
        )

    def test_fig8_yield_default_scenario_matches_legacy_model(self):
        """fig8.yield's iid_uniform default is the engine run of the
        same iid_uniform cells, estimate for estimate."""
        from repro.api import ExperimentSpec, Session

        result = Session().run(
            ExperimentSpec("fig8.yield", trials=64, seed=3,
                           params={"failing_cells": [8], "rows": 16})
        )
        engine_spec = EngineSpec(rows=16, data_bits=64, interleave_degree=4,
                                 horizontal_code="SECDED", vertical_groups=None)
        legacy = run_experiment(
            engine_spec, make_scenario("iid_uniform", n_cells=8), 64, seed=3 + 8
        )
        assert result.data_dict()["simulated"][0] == pytest.approx(
            legacy.estimate(0.95).point
        )

    #: Each removed ``model=`` shorthand (and fig3's ``footprints``
    #: param), its ``scenario``/``scenario_params`` replacement, and the
    #: engine cache keys the shorthand wrote at 64 trials, seed 3
    #: (recorded before the shorthands were dropped).  The first row is
    #: also the one behaviour change: an explicit ``clustered_mbu`` with
    #: no footprints draws the Fig. 3 mix, where it used to draw the
    #: scenario's mostly-single-bit default (key ``6bf606d8...``).
    _SHORTHAND_KEYS = [
        ("sweep.mc_coverage", "model=cluster",
         {"scenario": "clustered_mbu"},
         ["94da4e387c0fb1268dc827f54dcb5e5e01c68e023a28fc68738b227f7c294a11"]),
        ("sweep.mc_coverage", "model=cluster footprints=[[[8, 8], 1.0]]",
         {"scenario_params": {"footprints": [[[8, 8], 1.0]]}},
         ["5333d1674835a415309124d865ff5b98389e9c5c88bef9d248f60d4927a9a0b4"]),
        ("sweep.mc_coverage", "model=fixed",
         {"scenario": "fixed_cluster",
          "scenario_params": {"height": 8, "width": 8}},
         ["05fce81d958f52152ea955cedd222cbb234a7f1a2abfd1fd3e0b63faae71d20a"]),
        ("sweep.mc_coverage", "model=fixed height=2 width=3",
         {"scenario": "fixed_cluster",
          "scenario_params": {"height": 2, "width": 3}},
         ["b6ec79eac659b94615325be20c58905460f7841a7ae16dc8df223325f97a3c9d"]),
        ("sweep.mc_coverage", "model=random_cells",
         {"scenario": "iid_uniform", "scenario_params": {"n_cells": 2}},
         ["56c80e6304869a4f8b2e1ececa142ae842bcaabdcc9fdbd3f107c26fd843d980"]),
        ("sweep.mc_coverage", "model=random_cells n_cells=5",
         {"scenario": "iid_uniform", "scenario_params": {"n_cells": 5}},
         ["fccc0a8adaec57ce9c2397078823f3d720229a66c5603ba4c0215bd92ea18d6a"]),
        ("sweep.mc_coverage", "model=burst_row scenario_params={span: 2}",
         {"scenario": "burst_row", "scenario_params": {"span": 2}},
         ["0607775146d0b112ade6c4ddc070795dba48dfac28b160037bbef14882a76bdf"]),
        ("fig3.coverage", "footprints=[[[8, 8], 1.0]]",
         {"scenario_params": {"footprints": [[[8, 8], 1.0]]}},
         ["5333d1674835a415309124d865ff5b98389e9c5c88bef9d248f60d4927a9a0b4",
          "9bed9cc24ff46739c872548f49ecd37185e90f2976fc29232c580246885ab871"]),
    ]

    def test_sweep_mc_coverage_scenario_knob_matches_model_spelling(self, tmp_path):
        """Every removed shorthand's ``scenario`` spelling builds the same
        engine model: it writes the shorthand's engine cache keys."""
        from repro.api import ExperimentSpec, Session

        for i, (name, shorthand, params, keys) in enumerate(self._SHORTHAND_KEYS):
            cache_dir = tmp_path / str(i)
            with Session(cache_dir=cache_dir) as session:
                session.run(ExperimentSpec(name, backend="monte_carlo", trials=64,
                                           seed=3, params=params))
            written = sorted(p.stem for p in cache_dir.rglob("*.npz"))
            assert written == keys, shorthand

    def test_params_unused_by_chosen_scenario_are_rejected(self):
        """The removed shorthand params (``model``, ``footprints``,
        ``height``/``width``/``n_cells``) are no experiment params: a
        spec naming one is a SpecError, not a silently misleading
        provenance entry."""
        from repro.api import ExperimentSpec, Session
        from repro.api.spec import SpecError

        session = Session()
        for name, params in [
            ("fig3.coverage", {"scenario": "burst_row", "footprints": [[[8, 8], 1.0]]}),
            ("sweep.mc_coverage", {"scenario": "burst_row", "height": 4}),
            ("sweep.mc_coverage", {"model": "fixed", "n_cells": 4}),
        ]:
            with pytest.raises(SpecError, match="does not accept param"):
                session.run(ExperimentSpec(name, trials=8, params=params))

    def test_mbu_cluster_sweep_monotone_in_cluster_size(self):
        """Bigger clusters can only hurt: coverage is non-increasing
        along the sweep's cluster-size axis for the 2D scheme."""
        from repro.api import ExperimentSpec, Session

        result = Session().run(
            ExperimentSpec(
                "sweep.mbu_cluster", trials=96, seed=5,
                params={"cluster_sizes": [1, 8, 40], "degrees": [4],
                        "rows": 32, "vertical_groups": 8},
            )
        )
        curve = [
            result.data_dict()["coverage"]["4"][str(s)]["point"] for s in (1, 8, 40)
        ]
        assert curve[0] >= curve[1] >= curve[2]
        assert curve[0] == 1.0


def test_scalar_cluster_history_is_seed_stable():
    """Regression pin: delegation must not have changed the injector's
    seeded draw sequence (placement values, not just shapes)."""
    array = SramArray(32, 48)
    injector = ErrorInjector(array, seed=42)
    event = injector.inject_cluster(4, 6)
    rng = np.random.default_rng(42)
    row = int(rng.integers(0, 32 - 4 + 1))
    column = int(rng.integers(0, 48 - 6 + 1))
    assert event.bounding_box()[:2] == (row, column)
