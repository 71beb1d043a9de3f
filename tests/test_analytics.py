"""Tests for the VLSI cost models, reliability models, schemes and experiments."""

from __future__ import annotations

import math

import pytest

from repro.api import ExperimentSpec, Session
from repro.core import (
    CodingScheme,
    CoverageReport,
    TWO_D_L1,
    TWO_D_L2,
    analyze_scheme,
    build_protected_bank,
    fig3_schemes,
    l1_schemes,
    l2_schemes,
)
from repro.errors.rates import (
    PAPER_HARD_ERROR_RATES,
    PAPER_SOFT_ERROR_RATE,
    poisson_band_probability,
)
from repro.reliability import (
    FieldReliabilityModel,
    MemoryGeometry,
    ReliabilityScenario,
    YieldModel,
)
from repro.vlsi import OptimizationTarget, SramArrayModel


def _figure(name: str, **params) -> dict:
    """A figure's data payload, as the experiment API returns it."""
    return Session().run(ExperimentSpec(name, params=params)).data_dict()


class TestSramArrayModel:
    def test_energy_grows_with_interleaving(self):
        energies = [
            SramArrayModel(64, 8, 8192, interleave_degree=d).read_energy()
            for d in (1, 2, 4, 8, 16)
        ]
        assert energies == sorted(energies)
        assert energies[-1] > 3 * energies[0]

    def test_power_optimization_flattens_small_cache(self):
        delay_opt = SramArrayModel(
            64, 8, 8192, 16, OptimizationTarget.DELAY_AREA
        ).read_energy()
        power_opt = SramArrayModel(
            64, 8, 8192, 16, OptimizationTarget.POWER
        ).read_energy()
        assert power_opt < delay_opt

    def test_large_wide_word_cache_cannot_be_optimized(self):
        # Fig. 2(c): for the 4MB cache the power-optimal curve is as steep
        # as the delay-optimal one.
        n_words = 4 * 1024 * 1024 * 8 // 256
        delay_opt = SramArrayModel(
            256, 10, n_words, 16, OptimizationTarget.DELAY_AREA
        ).read_energy()
        power_opt = SramArrayModel(
            256, 10, n_words, 16, OptimizationTarget.POWER
        ).read_energy()
        assert power_opt > 0.7 * delay_opt

    def test_area_grows_with_check_bits(self):
        base = SramArrayModel(64, 0, 8192).area()
        protected = SramArrayModel(64, 57, 8192).area()
        assert protected > base * 1.5

    def test_delay_grows_with_interleaving(self):
        d1 = SramArrayModel(64, 8, 8192, 1).access_delay()
        d16 = SramArrayModel(64, 8, 8192, 16).access_delay()
        assert d16 > d1

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            SramArrayModel(64, 8, 100, interleave_degree=3)


class TestYieldModel:
    def setup_method(self):
        self.model = YieldModel(MemoryGeometry.l2_16mb())

    def test_no_faults_full_yield(self):
        assert self.model.yield_with_spares_only(0, 0) == 1.0
        assert self.model.yield_with_ecc_only(0) == 1.0

    def test_spares_only_collapses_quickly(self):
        # Fig. 8(a): spare rows alone cannot keep up once the fault count
        # exceeds the spare budget.
        assert self.model.yield_with_spares_only(1600, 128) < 0.01

    def test_ecc_only_degrades_with_multi_bit_words(self):
        values = [self.model.yield_with_ecc_only(n) for n in (0, 800, 1600, 3200)]
        assert all(values[i] >= values[i + 1] for i in range(len(values) - 1))
        assert values[-1] < 0.2

    def test_ecc_plus_spares_dominates_both(self):
        n = 2400
        combined = self.model.yield_with_ecc_and_spares(n, 16)
        assert combined > self.model.yield_with_ecc_only(n)
        assert combined > self.model.yield_with_spares_only(n, 128)

    def test_sweep_output_shape(self):
        curves = self.model.sweep(range(0, 1001, 500), {"ECC Only": {"ecc": True}})
        assert len(curves["ECC Only"]) == 3

    def test_cells_are_the_stored_bits_of_each_configuration(self):
        geometry = self.model.geometry
        assert (geometry.word_bits, geometry.codeword_bits) == (64, 72)
        # ECC-only: n cells in distinct 72-bit codewords of S = N * 72.
        s = geometry.n_words * 72
        n = 1000
        exact = math.prod((s - 72 * i) / (s - i) for i in range(n))
        assert self.model.yield_with_ecc_only(n) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("ecc", [False, True], ids=["data", "secded"])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 40, 100, 137, 144])
    def test_word_faults_are_hypergeometric(self, n, ecc):
        model = YieldModel(MemoryGeometry(capacity_bits=128, word_bits=8))
        w = 13 if ecc else 8  # SECDED over 8 data bits stores 5 check bits
        s = 16 * w
        if n > s:
            with pytest.raises(ValueError, match="stored cells"):
                model.word_fault_distribution(n, ecc=ecc)
            return
        total = math.comb(s, n)
        p0 = math.comb(s - w, n) / total
        p1 = w * math.comb(s - w, n - 1) / total if n else 0.0
        got = model.word_fault_distribution(n, ecc=ecc)
        assert got == pytest.approx((p0, p1, 1 - p0 - p1), rel=1e-12, abs=1e-15)
        assert model.expected_faulty_words(n, ecc=ecc) == pytest.approx(16 * (1 - p0))

    def test_more_faults_than_cells_is_rejected(self):
        model = YieldModel(MemoryGeometry(capacity_bits=128, word_bits=8))
        assert model.yield_with_ecc_only(17) == 0.0  # 17 faults, 16 words
        with pytest.raises(ValueError, match="stored cells"):
            model.yield_with_ecc_only(16 * 13 + 1)
        with pytest.raises(ValueError, match="stored cells"):
            model.yield_with_spares_only(16 * 8 + 1, 4)
        with pytest.raises(ValueError):
            model.yield_with_ecc_only(-1)


class TestPoissonBand:
    """``poisson_band_probability``: a band holding most of the mass is
    1 minus its tails, so a band whose tails lie below half an ulp of 1
    reads exactly 1.0 (never a few ulps under it, or over)."""

    @staticmethod
    def _pmf(k: int, lam: float) -> float:
        return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))

    @pytest.mark.parametrize(
        "lam, k_max",
        [(1e-3, 5), (0.5, 16), (2.0, 40), (10.0, 100), (100.0, 400), (400.0, 700)],
    )
    def test_full_mass_bands_read_exactly_one(self, lam, k_max):
        assert poisson_band_probability(lam, 0, k_max) == 1.0
        assert poisson_band_probability(lam, 0, None) == 1.0

    def test_near_full_band_is_one_minus_its_upper_tail(self):
        tail = math.fsum(self._pmf(k, 2.0) for k in range(21, 80))  # 6.1e-15
        assert poisson_band_probability(2.0, 0, 20) == 1.0 - tail

    def test_bands_never_exceed_one_and_match_the_pmf_sum(self):
        for lam in (0.3, 2.0, 7.5, 60.0, 1500.0):
            for k_min in (0, 1, int(lam), int(2 * lam) + 3):
                for k_max in (k_min, k_min + 5, int(3 * lam) + 20, None):
                    if k_max is not None and k_max < k_min:
                        continue
                    top = k_max if k_max is not None else int(lam + 60 * lam**0.5 + 60)
                    direct = math.fsum(self._pmf(k, lam) for k in range(k_min, top + 1))
                    got = poisson_band_probability(lam, k_min, k_max)
                    assert 0.0 <= got <= 1.0
                    assert got == pytest.approx(direct, rel=1e-9, abs=1e-15)

    def test_fig8_spare_curves_stay_within_one(self):
        curves = YieldModel(MemoryGeometry.l2_16mb()).sweep(
            range(0, 4001, 200),
            {"ECC + Spare_16": {"ecc": True, "spares": 16},
             "ECC + Spare_32": {"ecc": True, "spares": 32}},
        )
        assert all(0.0 <= y <= 1.0 for ys in curves.values() for y in ys)
        assert curves["ECC + Spare_32"][-1] == 1.0  # tail < 1e-16


class TestFieldReliability:
    def setup_method(self):
        self.model = FieldReliabilityModel(ReliabilityScenario(), PAPER_SOFT_ERROR_RATE)

    def test_with_2d_coding_always_survives(self):
        for rate in PAPER_HARD_ERROR_RATES.values():
            assert self.model.success_probability(5.0, rate, with_2d_coding=True) == 1.0

    def test_without_2d_degrades_over_time(self):
        rate = PAPER_HARD_ERROR_RATES["0.005%"]
        curve = self.model.survival_curve([0, 1, 2, 3, 4, 5], rate)
        assert curve[0] == 1.0
        assert all(curve[i] >= curve[i + 1] for i in range(5))
        assert curve[-1] < 0.5

    def test_higher_hard_error_rate_is_worse(self):
        low = self.model.success_probability(5.0, PAPER_HARD_ERROR_RATES["0.0005%"])
        high = self.model.success_probability(5.0, PAPER_HARD_ERROR_RATES["0.005%"])
        assert high < low

    def test_expected_soft_errors_scale(self):
        assert self.model.expected_soft_errors(2.0) == pytest.approx(
            2 * self.model.expected_soft_errors(1.0)
        )


class TestSchemes:
    def test_standard_2d_configurations(self):
        assert TWO_D_L1.horizontal_coverage_bits() == 32
        assert TWO_D_L1.vertical_coverage_rows() == 32
        assert TWO_D_L2.horizontal_coverage_bits() == 32

    def test_conventional_scheme_coverage(self):
        oecned = l1_schemes()["oecned"]
        assert oecned.horizontal_coverage_bits() == 32
        secded2 = l1_schemes()["baseline"]
        assert secded2.horizontal_coverage_bits() == 2

    def test_fig3_coverage_and_overhead(self):
        reports = {
            key: CoverageReport(**fields)
            for key, fields in _figure("fig3.coverage").items()
        }
        two_d = reports["2d_edc8_edc32"]
        secded = reports["secded_intv4"]
        oecned = reports["oecned_intv4"]
        assert two_d.covers_cluster(32, 32)
        assert not secded.covers_cluster(32, 32)
        assert secded.covers_cluster(256, 4)
        assert oecned.covers_cluster(256, 32)
        # Storage: SECDED 12.5%, OECNED 89.1%, 2D ~25% (Fig. 3 captions).
        assert secded.storage_overhead == pytest.approx(0.125, abs=0.001)
        assert oecned.storage_overhead == pytest.approx(0.891, abs=0.01)
        assert 0.2 < two_d.storage_overhead < 0.3
        assert two_d.storage_overhead < oecned.storage_overhead / 3

    def test_scheme_cost_normalization(self):
        costs = _figure("fig7.schemes")["64kB L1 data cache"]
        assert costs["baseline"]["dynamic_power"] == pytest.approx(100.0)
        # 2D coding is far cheaper in power than every conventional
        # 32-bit-coverage alternative (the paper's headline claim).
        for key in ("dected", "qecped", "oecned"):
            assert costs[key]["dynamic_power"] > 2 * costs["2d"]["dynamic_power"]
        # And cheaper in code storage.
        for key in ("dected", "qecped", "oecned"):
            assert costs[key]["code_area"] > costs["2d"]["code_area"]

    def test_factory_builds_matching_bank(self):
        bank = build_protected_bank(TWO_D_L1, n_words=256)
        assert bank.horizontal_code.name == "EDC8"
        assert bank.vertical_groups == 32
        with pytest.raises(ValueError):
            build_protected_bank(l1_schemes()["baseline"], n_words=256)

    def test_fig1_storage_values(self):
        storage = _figure("fig1.storage")
        assert storage["64"]["SECDED"] == pytest.approx(12.5)
        assert storage["64"]["OECNED"] == pytest.approx(89.06, abs=0.1)
        assert storage["256"]["OECNED"] < storage["64"]["OECNED"]

    def test_fig8_driver_shapes(self):
        y = _figure("fig8.yield", failing_cells=[0, 1000, 2000])
        assert len(y["ECC Only"]) == 3
        r = _figure("fig8.reliability", years=[0.0, 5.0])
        assert r["With 2D coding"] == [1.0, 1.0]
        assert r["Without 2D, HER=0.005%"][1] < 1.0
