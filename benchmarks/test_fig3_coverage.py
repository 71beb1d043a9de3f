"""Figure 3: error coverage vs storage overhead on a 256x256-bit array.

Beyond the analytical comparison, this benchmark also validates the 2D
scheme's claimed coverage by bit-level simulation, two ways:

* scalar — build the actual 256x256 protected array, inject a 32x32
  clustered error, and check that every word is reconstructed;
* Monte Carlo — run the vectorized engine over thousands of random
  clustered events and check the estimated coverage probabilities agree
  with the scalar oracle within 95% confidence intervals.

Both analytical and Monte Carlo paths run through the unified API:
``Session.run(ExperimentSpec("fig3.coverage", backend=...))``.
"""

from __future__ import annotations

import numpy as np

from repro.api import ExperimentSpec
from repro.core import build_protected_bank, fig3_schemes
from repro.core.coverage import FIG3_MC_FOOTPRINTS
from repro.engine import (
    EngineSpec,
    StreamingAggregator,
    run_experiment,
    scalar_verdicts,
)
from repro.engine.rng import block_generator
from repro.errors import ErrorInjector
from repro.scenarios import ClusteredMbuScenario

from reporting import print_series, write_bench


def test_fig3_coverage_and_overhead(benchmark, api_session):
    result = benchmark(lambda: api_session.run(ExperimentSpec("fig3.coverage")))
    reports = result.data_dict()
    print_series(
        "Fig. 3 — correctable cluster (rows x cols) and storage overhead",
        {
            report["scheme_name"]: {
                "rows": report["correctable_rows"],
                "cols": report["correctable_columns"],
                "storage %": round(100 * report["storage_overhead"], 1),
            }
            for report in reports.values()
        },
    )
    write_bench(
        "fig3_coverage",
        {
            key: {
                "correctable_rows": report["correctable_rows"],
                "correctable_columns": report["correctable_columns"],
                "storage_overhead": report["storage_overhead"],
            }
            for key, report in reports.items()
        },
    )
    secded = reports["secded_intv4"]
    oecned = reports["oecned_intv4"]
    two_d = reports["2d_edc8_edc32"]

    # The paper's Fig. 3 claims:
    assert secded["correctable_columns"] == 4  # a 1x5 burst is NOT covered
    assert oecned["correctable_columns"] == 32
    assert two_d["correctable_rows"] >= 32 and two_d["correctable_columns"] >= 32
    assert abs(secded["storage_overhead"] - 0.125) < 0.001     # 12.5%
    assert abs(oecned["storage_overhead"] - 0.891) < 0.01      # 89.1%
    assert two_d["storage_overhead"] < 0.3                     # ~25%


def test_fig3_simulated_32x32_correction(benchmark):
    def run() -> int:
        scheme = fig3_schemes()["2d_edc8_edc32"]
        bank = build_protected_bank(scheme, n_words=256 * 4)
        rng = np.random.default_rng(0)
        reference = {}
        for word in range(bank.layout.n_words):
            data = rng.integers(0, 2, 64, dtype=np.uint8)
            reference[word] = data
            bank.write_word(word, data)
        ErrorInjector(bank, seed=1).inject_cluster(32, 32)
        mismatches = 0
        for word, expected in reference.items():
            outcome = bank.read_word(word)
            if not np.array_equal(outcome.data, expected):
                mismatches += 1
        return mismatches

    mismatches = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n=== Fig. 3 (simulated) — 32x32 cluster on 2D-protected 8kB array ===")
    print(f"  words with wrong data after correction: {mismatches}")
    assert mismatches == 0


def test_fig3_monte_carlo_coverage_engine(benchmark, api_session):
    """Engine-estimated coverage probabilities behind Fig. 3.

    The 2D scheme must correct (essentially) every event of the Fig. 3
    workload — whose cluster tail reaches its full 32x32 claimed
    footprint — while interleaved SECDED visibly loses the multi-bit
    tail.  Estimates carry Wilson 95% intervals.
    """
    spec = ExperimentSpec(
        "fig3.coverage", backend="monte_carlo", trials=2048, seed=2007
    )
    result = benchmark(lambda: api_session.run(spec))
    estimates = result.data_dict()["estimates"]
    print_series(
        "Fig. 3 (Monte Carlo) — P[event fully corrected], 95% CI",
        {
            key: f"{e['point']:.4f} [{e['lower']:.4f}, {e['upper']:.4f}]"
            for key, e in estimates.items()
        },
    )
    write_bench(
        "fig3_monte_carlo",
        {
            "trials": 2048,
            "coverage": {key: e["point"] for key, e in estimates.items()},
        },
    )
    two_d = estimates["2d_edc8_edc32"]
    secded = estimates["secded_intv4"]
    assert two_d["point"] == 1.0, "2D must correct every in-coverage event"
    assert two_d["lower"] <= 1.0 <= two_d["upper"]
    # SECDED's interval must sit strictly below the 2D scheme's.
    assert secded["upper"] < two_d["lower"]
    assert secded["point"] < 0.95
    # The OECNED scheme has no vectorized decoder and is reported skipped.
    assert result.data_dict()["skipped"] == ["oecned_intv4"]


def test_fig3_monte_carlo_agrees_with_scalar_oracle(benchmark):
    """The engine's Fig. 3 estimate vs the bit-level scalar oracle.

    The same error masks are pushed through the vectorized path and
    through the original TwoDProtectedArray recovery walk; the oracle's
    coverage estimate (on an affordable subsample) must agree with the
    engine's full-run estimate within the 95% intervals — and on the
    shared trials the verdicts must match outright.
    """
    scheme = fig3_schemes()["2d_edc8_edc32"]
    spec = EngineSpec.from_scheme(scheme, rows=256)
    model = ClusteredMbuScenario(footprints=FIG3_MC_FOOTPRINTS)

    engine_result = benchmark.pedantic(
        lambda: run_experiment(spec, model, 2048, seed=2007, block_size=256),
        rounds=1,
        iterations=1,
    )
    engine_estimate = engine_result.estimate()

    n_oracle = 32  # scalar trials are ~4 orders of magnitude slower
    masks = model.sample(block_generator(2007, 0), 256, spec)[:n_oracle]
    oracle = scalar_verdicts(spec, masks)
    oracle_estimate = StreamingAggregator().update(oracle).estimate()

    print_series(
        "Fig. 3 (Monte Carlo) — engine vs scalar oracle",
        {
            "engine (2048 trials)": str(engine_estimate),
            f"oracle ({n_oracle} trials)": str(oracle_estimate),
        },
    )
    assert np.array_equal(engine_result.verdicts[:n_oracle], oracle)
    assert oracle_estimate.overlaps(engine_estimate)
    assert oracle_estimate.contains(engine_estimate.point)
