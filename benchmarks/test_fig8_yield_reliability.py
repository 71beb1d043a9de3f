"""Figure 8: yield and in-the-field reliability of ECC-based hard-error repair."""

from __future__ import annotations

from repro.api import ExperimentSpec

from reporting import print_series, write_bench


def test_fig8a_yield(benchmark, api_session):
    spec = ExperimentSpec(
        "fig8.yield", params={"failing_cells": list(range(0, 4001, 400))}
    )
    result = benchmark(lambda: api_session.run(spec))
    curves = result.data_dict()
    print_series(
        "Fig. 8(a) — 16MB L2 yield vs failing cells",
        {label: [round(v, 3) for v in values] for label, values in curves.items()},
    )
    spares_only = curves["Spare_128"]
    ecc_only = curves["ECC Only"]
    ecc_16 = curves["ECC + Spare_16"]
    ecc_32 = curves["ECC + Spare_32"]
    write_bench(
        "fig8_yield",
        {
            "final_yield_at_4000_cells": {
                "Spare_128": spares_only[-1],
                "ECC Only": ecc_only[-1],
                "ECC + Spare_16": ecc_16[-1],
                "ECC + Spare_32": ecc_32[-1],
            }
        },
    )

    # Spares-only collapses first, ECC-only degrades steadily, and the
    # combination keeps the yield high across the whole sweep.
    assert spares_only[-1] < 0.01
    assert ecc_only[-1] < 0.2
    assert min(ecc_16) > 0.9
    assert min(ecc_32) >= min(ecc_16)
    # Monotone non-increasing curves.
    for series in (spares_only, ecc_only, ecc_16, ecc_32):
        assert all(a >= b - 1e-9 for a, b in zip(series, series[1:]))


def test_fig8b_reliability(benchmark, api_session):
    result = benchmark(lambda: api_session.run(ExperimentSpec("fig8.reliability")))
    curves = result.data_dict()
    print_series(
        "Fig. 8(b) — probability all soft errors avoid faulty words (5-year horizon)",
        {label: [round(v, 3) for v in values] for label, values in curves.items()},
    )
    write_bench(
        "fig8_reliability",
        {
            "survival_at_5_years": {
                label: values[-1]
                for label, values in curves.items()
                if label != "years"
            }
        },
    )
    assert all(value == 1.0 for value in curves["With 2D coding"])
    # Without 2D coding, reliability decays over time and with the hard
    # error rate; at HER=0.005% a large fraction of systems see an
    # uncorrectable combination within 5 years (paper Fig. 8(b)).
    low = curves["Without 2D, HER=0.0005%"]
    high = curves["Without 2D, HER=0.005%"]
    assert high[-1] < low[-1]
    assert high[-1] < 0.5
    for series in (low, high):
        assert all(a >= b - 1e-12 for a, b in zip(series, series[1:]))


def test_fig8a_yield_monte_carlo(benchmark, api_session):
    """Engine-simulated validation of the ECC-only yield curve.

    The analytical ECC-only yield is exact: the occupancy probability
    that N distinct faulty cells land in N distinct 72-bit codewords.
    Here the engine actually throws N faulty cells into a bit-accurate
    SECDED-protected bank and counts surviving trials.  The analytical
    curve for the same (scaled) geometry must fall inside the simulated
    Wilson band at every sweep point.  Each band is 99%, so the six
    points hold jointly with at least 94% confidence (Bonferroni).
    """
    spec = ExperimentSpec(
        "fig8.yield",
        backend="monte_carlo",
        trials=512,
        confidence=0.99,
        params={"failing_cells": [0, 8, 16, 24, 32, 40]},
    )
    result = benchmark.pedantic(
        lambda: api_session.run(spec), rounds=1, iterations=1
    )
    curves = result.data_dict()
    print_series(
        "Fig. 8(a) (Monte Carlo) — ECC-only yield, simulated vs analytical",
        {label: [round(v, 3) for v in values] for label, values in curves.items()},
    )
    for analytical, lower, upper in zip(
        curves["analytical"], curves["simulated_lower"], curves["simulated_upper"]
    ):
        assert lower <= analytical <= upper, (
            f"analytical yield {analytical:.3f} outside simulated 99% band "
            f"[{lower:.3f}, {upper:.3f}]"
        )
    # Yield must decay along the sweep in both views.
    assert curves["simulated"][0] == 1.0
    assert curves["simulated"][-1] < 0.2
