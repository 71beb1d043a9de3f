"""Analytical error-coverage comparison (Fig. 3).

Figure 3 of the paper compares, for an 8kB array organized as 256x256
data bits, the correctable error footprint and the storage overhead of:

(a) conventional 4-way interleaved SECDED,
(b) conventional 4-way interleaved OECNED (8-bit correcting), and
(c) 2D coding with 4-way interleaved EDC8 horizontally and EDC32
    vertically.

This module computes both quantities from the code constructions rather
than hard-coding the paper's numbers, and also answers point queries
("would this particular cluster be correctable?") so the property-based
tests can cross-check the analytical claim against the bit-level
simulation of :mod:`repro.array`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .schemes import CodingScheme

__all__ = [
    "CoverageReport",
    "FIG3_MC_FOOTPRINTS",
    "analyze_scheme",
    "fig3_schemes",
]

#: Clustered-error workload for the Monte Carlo version of Fig. 3: the
#: mostly-single-bit event mix of :mod:`repro.errors` extended with a
#: tail of large clusters reaching the 2D scheme's full 32x32 claimed
#: coverage — exactly the regime Fig. 3 contrasts the schemes on.
FIG3_MC_FOOTPRINTS: tuple[tuple[tuple[int, int], float], ...] = (
    ((1, 1), 0.60),
    ((1, 2), 0.08),
    ((2, 2), 0.08),
    ((4, 4), 0.08),
    ((8, 8), 0.06),
    ((16, 16), 0.05),
    ((32, 32), 0.05),
)


@dataclass(frozen=True)
class CoverageReport:
    """Coverage and storage summary for one scheme on one array geometry."""

    scheme_name: str
    array_rows: int
    array_data_columns: int
    #: Guaranteed-correctable cluster footprint (rows, columns); a value of
    #: ``array_rows`` (or columns) means "the full array dimension".
    correctable_rows: int
    correctable_columns: int
    #: Check storage as a fraction of data storage.
    storage_overhead: float

    def covers_cluster(self, height: int, width: int) -> bool:
        """Is an ``height`` x ``width`` clustered error guaranteed correctable?"""
        if height < 0 or width < 0:
            raise ValueError("cluster dimensions must be non-negative")
        if height == 0 or width == 0:
            return True
        return height <= self.correctable_rows and width <= self.correctable_columns


def analyze_scheme(
    scheme: CodingScheme, array_rows: int = 256, array_data_columns: int = 256
) -> CoverageReport:
    """Compute the Fig. 3 quantities for one scheme on one array geometry."""
    if array_rows < 1 or array_data_columns < 1:
        raise ValueError("array dimensions must be positive")
    if array_data_columns % scheme.data_bits:
        raise ValueError("array width must be a whole number of data words")

    words_per_row = array_data_columns // scheme.data_bits
    n_words = array_rows * words_per_row

    rows_cov, cols_cov = scheme.correctable_cluster()
    if scheme.is_two_dimensional:
        correctable_rows = min(rows_cov, array_rows)
        correctable_columns = min(cols_cov, array_data_columns)
    else:
        # A conventional scheme corrects its burst width independently in
        # every row, so the vertical extent of a correctable cluster is the
        # whole array as long as the width fits in one corrected burst.
        correctable_rows = array_rows if cols_cov > 0 else 0
        correctable_columns = min(cols_cov, array_data_columns)

    return CoverageReport(
        scheme_name=scheme.name,
        array_rows=array_rows,
        array_data_columns=array_data_columns,
        correctable_rows=correctable_rows,
        correctable_columns=correctable_columns,
        storage_overhead=scheme.storage_overhead(n_words, rows_per_bank=array_rows),
    )


def fig3_schemes() -> dict[str, CodingScheme]:
    """The three schemes compared in Fig. 3 (256x256-bit array, 64b words)."""
    return {
        "secded_intv4": CodingScheme("SECDED+Intv4", "SECDED", 64, 4),
        "oecned_intv4": CodingScheme("OECNED+Intv4", "OECNED", 64, 4),
        "2d_edc8_edc32": CodingScheme(
            "2D (EDC8+Intv4, EDC32)", "EDC8", 64, 4, vertical_groups=32
        ),
    }
