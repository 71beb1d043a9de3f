"""Stapper-style memory yield model (Fig. 8(a)).

The paper estimates the yield of a 16MB L2 cache as a function of the
number of manufacture-time faulty cells, comparing four repair
strategies:

* ``Spare_128`` — 128 spare rows, no in-line ECC,
* ``ECC Only``  — per-word SECDED corrects single-bit faults, no spares,
* ``ECC + Spare_16`` and ``ECC + Spare_32`` — SECDED plus a small number
  of spare rows reserved for words with multi-bit faults.

Following Stapper & Lee [46], hard faults are assumed uniformly
distributed over the cells.  A data word survives if it has no fault
(always), one fault (when ECC repairs single-bit faults), or is remapped
to a spare.  The memory yields when the number of words needing a spare
does not exceed the spare budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["YieldModel", "MemoryGeometry"]


@dataclass(frozen=True)
class MemoryGeometry:
    """Word/row organization of the protected memory."""

    capacity_bits: int
    word_bits: int = 64
    words_per_row: int = 4

    def __post_init__(self) -> None:
        if self.capacity_bits <= 0 or self.word_bits <= 0 or self.words_per_row <= 0:
            raise ValueError("geometry values must be positive")
        if self.capacity_bits % self.word_bits:
            raise ValueError("capacity must be a whole number of words")

    @property
    def n_words(self) -> int:
        return self.capacity_bits // self.word_bits

    @property
    def n_rows(self) -> int:
        return max(1, self.n_words // self.words_per_row)

    @classmethod
    def l2_16mb(cls) -> "MemoryGeometry":
        """The 16MB L2 cache studied in Fig. 8(a)."""
        return cls(capacity_bits=16 * 1024 * 1024 * 8, word_bits=64, words_per_row=4)


class YieldModel:
    """Expected yield under uniformly distributed hard faults."""

    def __init__(self, geometry: MemoryGeometry):
        self._geometry = geometry

    # ------------------------------------------------------------------
    @property
    def geometry(self) -> MemoryGeometry:
        return self._geometry

    # ------------------------------------------------------------------
    def word_fault_distribution(self, n_faulty_cells: int) -> tuple[float, float, float]:
        """Probabilities that a word has 0, exactly 1, or >=2 faulty cells.

        With ``n`` faults thrown uniformly at ``N`` words of ``w`` bits,
        the number of faults in one word is Binomial(n, 1/N) to excellent
        approximation (cell-level resolution changes nothing at these
        densities).
        """
        if n_faulty_cells < 0:
            raise ValueError("n_faulty_cells must be non-negative")
        n_words = self._geometry.n_words
        if n_faulty_cells == 0:
            return 1.0, 0.0, 0.0
        # scipy is imported where it is used, keeping it off the default
        # import and Monte Carlo paths.
        from scipy import stats

        p = 1.0 / n_words
        p0 = float(stats.binom.pmf(0, n_faulty_cells, p))
        p1 = float(stats.binom.pmf(1, n_faulty_cells, p))
        return p0, p1, max(0.0, 1.0 - p0 - p1)

    def expected_multi_fault_words(self, n_faulty_cells: int) -> float:
        """Expected number of words containing two or more faulty cells."""
        _p0, _p1, p2 = self.word_fault_distribution(n_faulty_cells)
        return p2 * self._geometry.n_words

    def expected_faulty_words(self, n_faulty_cells: int) -> float:
        """Expected number of words containing at least one faulty cell."""
        p0, _p1, _p2 = self.word_fault_distribution(n_faulty_cells)
        return (1.0 - p0) * self._geometry.n_words

    # ------------------------------------------------------------------
    def yield_with_spares_only(self, n_faulty_cells: int, n_spare_rows: int) -> float:
        """Yield when every word with any fault must be covered by a spare row.

        A spare row repairs all the words that share the faulty row; for a
        uniform fault distribution at low densities each faulty word tends
        to land in a distinct row, so the spare requirement is approximated
        by the number of faulty words (as in the paper's description: rows
        are consumed for a handful of bad bits).
        """
        return self._yield_given_spare_demand(
            mean_words_needing_repair=self.expected_faulty_words(n_faulty_cells),
            n_spares=n_spare_rows,
        )

    def yield_with_ecc_only(self, n_faulty_cells: int) -> float:
        """Yield when SECDED must absorb every fault (no spares).

        The memory survives only if no word holds a multi-bit fault.
        """
        p0, p1, _p2 = self.word_fault_distribution(n_faulty_cells)
        per_word_ok = p0 + p1
        return float(per_word_ok ** self._geometry.n_words)

    def yield_with_ecc_and_spares(self, n_faulty_cells: int, n_spare_rows: int) -> float:
        """Yield when SECDED fixes single-bit words and spares fix the rest."""
        return self._yield_given_spare_demand(
            mean_words_needing_repair=self.expected_multi_fault_words(n_faulty_cells),
            n_spares=n_spare_rows,
        )

    # ------------------------------------------------------------------
    def _yield_given_spare_demand(
        self, mean_words_needing_repair: float, n_spares: int
    ) -> float:
        """P[demand <= spares] with Poisson-distributed repair demand."""
        if n_spares < 0:
            raise ValueError("n_spares must be non-negative")
        if mean_words_needing_repair <= 0:
            return 1.0
        from scipy import stats

        return float(stats.poisson.cdf(n_spares, mean_words_needing_repair))

    # ------------------------------------------------------------------
    def sweep(
        self, failing_cells: "list[int] | range", configurations: dict[str, dict]
    ) -> dict[str, list[float]]:
        """Yield curves for several repair configurations (Fig. 8(a)).

        ``configurations`` maps a label to ``{"ecc": bool, "spares": int}``.
        """
        curves: dict[str, list[float]] = {label: [] for label in configurations}
        for n in failing_cells:
            for label, cfg in configurations.items():
                ecc = bool(cfg.get("ecc", False))
                spares = int(cfg.get("spares", 0))
                if ecc and spares:
                    value = self.yield_with_ecc_and_spares(n, spares)
                elif ecc:
                    value = self.yield_with_ecc_only(n)
                else:
                    value = self.yield_with_spares_only(n, spares)
                curves[label].append(value)
        return curves
