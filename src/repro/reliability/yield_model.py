"""Stapper-style memory yield model (Fig. 8(a)).

The paper estimates the yield of a 16MB L2 cache as a function of the
number of manufacture-time faulty cells, comparing four repair
strategies:

* ``Spare_128`` — 128 spare rows, no in-line ECC,
* ``ECC Only``  — per-word SECDED corrects single-bit faults, no spares,
* ``ECC + Spare_16`` and ``ECC + Spare_32`` — SECDED plus a small number
  of spare rows reserved for words with multi-bit faults.

Following Stapper & Lee [46], hard faults are ``n`` distinct cells drawn
uniformly from the ``S`` stored cells.  A cell is a stored bit of the
words a configuration builds: ``w = 64`` per unprotected data word, and
``w = 72`` per SECDED codeword (check bits fail like data bits).  A word
survives if it has no fault (always), one fault (when ECC repairs
single-bit faults), or is remapped to a spare.  The memory yields when
the number of words needing a spare does not exceed the spare budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.coding.hamming import hamming_parity_bits
from repro.errors.rates import poisson_band_probability

__all__ = ["YieldModel", "MemoryGeometry"]


@dataclass(frozen=True)
class MemoryGeometry:
    """Data capacity and word size of the protected memory."""

    capacity_bits: int
    word_bits: int = 64

    def __post_init__(self) -> None:
        if self.capacity_bits <= 0 or self.word_bits <= 0:
            raise ValueError("geometry values must be positive")
        if self.capacity_bits % self.word_bits:
            raise ValueError("capacity must be a whole number of words")

    @property
    def n_words(self) -> int:
        return self.capacity_bits // self.word_bits

    @property
    def codeword_bits(self) -> int:
        """Stored bits of one SECDED-protected word (72 for 64 data bits)."""
        return self.word_bits + hamming_parity_bits(self.word_bits) + 1

    @classmethod
    def l2_16mb(cls) -> "MemoryGeometry":
        """The 16MB L2 cache studied in Fig. 8(a)."""
        return cls(capacity_bits=16 * 1024 * 1024 * 8, word_bits=64)


class YieldModel:
    """Yield under ``n`` distinct, uniformly placed faulty cells.

    ``ecc`` picks the stored word: a SECDED codeword, else a data word.
    """

    def __init__(self, geometry: MemoryGeometry):
        self._geometry = geometry

    # ------------------------------------------------------------------
    @property
    def geometry(self) -> MemoryGeometry:
        return self._geometry

    def _cells(self, n_faulty_cells: int, ecc: bool) -> tuple[int, int]:
        """``(S, w)``: stored cells and cells per word; checks ``n``."""
        w = self._geometry.codeword_bits if ecc else self._geometry.word_bits
        s = self._geometry.n_words * w
        if not 0 <= n_faulty_cells <= s:
            raise ValueError(f"need 0 <= n <= {s} stored cells, got {n_faulty_cells}")
        return s, w

    # ------------------------------------------------------------------
    def word_fault_distribution(
        self, n_faulty_cells: int, *, ecc: bool
    ) -> tuple[float, float, float]:
        """Probabilities that a word has 0, exactly 1, or >=2 faulty cells.

        The faults in one word of ``w`` cells are hypergeometric:
        ``P(0) = C(S-w, n) / C(S, n)`` and ``P(1) = w C(S-w, n-1) / C(S, n)``.
        Both share the factor ``q = prod_{j<w-1} (S-n-j) / (S-j)``.
        """
        s, w = self._cells(n_faulty_cells, ecc)
        n = n_faulty_cells
        q = math.prod(max(s - n - j, 0) / (s - j) for j in range(w - 1))
        p0 = q * max(s - n - w + 1, 0) / (s - w + 1)
        p1 = q * w * n / (s - w + 1)
        return p0, p1, max(0.0, 1.0 - p0 - p1)

    def expected_multi_fault_words(self, n_faulty_cells: int, *, ecc: bool) -> float:
        """Expected number of words containing two or more faulty cells."""
        _p0, _p1, p2 = self.word_fault_distribution(n_faulty_cells, ecc=ecc)
        return p2 * self._geometry.n_words

    def expected_faulty_words(self, n_faulty_cells: int, *, ecc: bool) -> float:
        """Expected number of words containing at least one faulty cell."""
        p0, _p1, _p2 = self.word_fault_distribution(n_faulty_cells, ecc=ecc)
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
            self.expected_faulty_words(n_faulty_cells, ecc=False), n_spare_rows
        )

    def yield_with_ecc_only(self, n_faulty_cells: int) -> float:
        """Yield when SECDED must absorb every fault (no spares).

        The memory survives only if the ``n`` faulty cells land in ``n``
        distinct codewords: the occupancy product
        ``prod_{i<n} (S - w i) / (S - i)``, summed in log space.
        """
        s, w = self._cells(n_faulty_cells, ecc=True)
        if n_faulty_cells > self._geometry.n_words:
            return 0.0  # more faults than words: some word holds two
        terms = (math.log1p(-(w - 1) * i / (s - i)) for i in range(n_faulty_cells))
        return math.exp(math.fsum(terms))

    def yield_with_ecc_and_spares(self, n_faulty_cells: int, n_spare_rows: int) -> float:
        """Yield when SECDED fixes single-bit words and spares fix the rest."""
        return self._yield_given_spare_demand(
            self.expected_multi_fault_words(n_faulty_cells, ecc=True), n_spare_rows
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _yield_given_spare_demand(mean_demand: float, n_spares: int) -> float:
        """``P[demand <= spares]`` under a Poisson approximation of the
        demand (Stapper's): the exact mean, not the exact count law."""
        return poisson_band_probability(mean_demand, 0, n_spares)

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
