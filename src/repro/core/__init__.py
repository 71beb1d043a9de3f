"""The paper's primary contribution, composed: 2D coding schemes, coverage
analysis and protected array/cache factories.  The per-figure
experiments run through :mod:`repro.api` (``Session().run(ExperimentSpec(...))``)."""

from .coverage import CoverageReport, analyze_scheme, fig3_schemes
from .factory import build_protected_bank, build_protected_cache
from .schemes import TWO_D_L1, TWO_D_L2, CodingScheme, SchemeCost, l1_schemes, l2_schemes

__all__ = [
    "CoverageReport",
    "analyze_scheme",
    "fig3_schemes",
    "build_protected_bank",
    "build_protected_cache",
    "TWO_D_L1",
    "TWO_D_L2",
    "CodingScheme",
    "SchemeCost",
    "l1_schemes",
    "l2_schemes",
]
