"""Domain example: a small CMP cache hierarchy with 2D-protected L1s and L2
serving an OLTP-like synthetic workload while errors rain on the arrays.

This exercises the full functional stack: synthetic trace generation,
per-core L1 data caches, a shared L2, 2D-protected data banks, and the
recovery path — and verifies end-to-end data integrity.  The closing
step cross-checks the L2's protection statistically through the unified
experiment API (``Session.run`` of a ``sweep.mc_coverage`` spec).

Run with:  python examples/protected_cache_hierarchy.py
"""

from __future__ import annotations

import numpy as np

from repro.api import ExperimentSpec, Session
from repro.cache import CacheConfig, CacheHierarchy, ProtectedCacheController
from repro.coding import InterleavedParityCode, SecdedCode
from repro.errors import ErrorInjector
from repro.workloads import AccessType, TraceGenerator, get_profile


def build_hierarchy(n_cores: int) -> CacheHierarchy:
    l1_config = CacheConfig(
        name="L1D", size_bytes=8 * 1024, associativity=2, line_bytes=64, n_ports=2
    )
    l2_config = CacheConfig(
        name="L2", size_bytes=64 * 1024, associativity=8, line_bytes=64, n_banks=4
    )
    l1s = [
        ProtectedCacheController(
            l1_config, InterleavedParityCode(64, 8), word_bits=64, interleave_degree=4
        )
        for _ in range(n_cores)
    ]
    # The L2 uses a SECDED horizontal code so it can also absorb single-bit
    # manufacture-time hard faults in-line (the yield path of Section 5.2).
    l2 = ProtectedCacheController(
        l2_config, SecdedCode(64), word_bits=64, interleave_degree=4
    )
    return CacheHierarchy(l1s, l2)


def main() -> None:
    n_cores = 2
    hierarchy = build_hierarchy(n_cores)
    profile = get_profile("OLTP")
    trace = TraceGenerator(profile, n_cores=n_cores, seed=1).generate(2_000)
    print(f"Generated {len(trace)} OLTP-like accesses over 2,000 cycles")

    rng = np.random.default_rng(7)
    reference: dict[int, np.ndarray] = {}
    errors_injected = 0

    for i, access in enumerate(trace):
        address = access.address % (1 << 20)  # keep the footprint compact
        if access.kind is AccessType.DATA_WRITE:
            data = rng.integers(0, 256, 64, dtype=np.uint8)
            hierarchy.store(access.core, address, data)
            reference[hierarchy.l2_cache.config.block_address(address)] = data
        else:
            hierarchy.load(access.core, address)

        # Periodically strike the arrays with multi-bit soft errors.
        if i % 500 == 250:
            ErrorInjector(hierarchy.l1_caches[0].banks[0], seed=i).inject_cluster(8, 8)
            ErrorInjector(hierarchy.l2_cache.banks[0], seed=i + 1).inject_cluster(16, 16)
            errors_injected += 2

    # Verify every value we wrote is still what we read.
    mismatches = 0
    for address, expected in reference.items():
        if not np.array_equal(hierarchy.load(0, address), expected):
            mismatches += 1

    stats = hierarchy.stats
    print(f"Injected {errors_injected} multi-bit error events")
    print(f"Loads: {stats.loads}, stores: {stats.stores}, "
          f"L1 hit rate: {stats.l1_hits / max(stats.l1_hits + stats.l1_misses, 1):.2f}")
    print(f"L1 recoveries: {sum(c.total_recoveries() for c in hierarchy.l1_caches)}, "
          f"L2 recoveries: {hierarchy.l2_cache.total_recoveries()}, "
          f"L2 inline corrections: {hierarchy.l2_cache.total_horizontal_corrections()}")
    print(f"Verified {len(reference)} dirty lines: {mismatches} mismatches")
    assert mismatches == 0
    print("SUCCESS: data integrity maintained through all injected errors.")

    # Finally, quantify the same protection statistically: the unified
    # API runs the vectorized engine over thousands of random single-cell
    # hard faults on the paper's 2D L1 scheme (the configuration whose
    # bank absorbed the clusters above).
    spec = ExperimentSpec(
        "sweep.mc_coverage",
        trials=2048,
        seed=9,
        params={
            "scheme": "2d_edc8_edc32",
            "scenario": "iid_uniform",
            "scenario_params": {"n_cells": 1},
        },
    )
    estimate = Session().run(spec).data_dict()["estimate"]
    print(
        f"Engine cross-check — P[single hard fault fully corrected] = "
        f"{estimate['point']:.4f} "
        f"[{estimate['lower']:.4f}, {estimate['upper']:.4f}] @95%"
    )
    assert estimate["point"] == 1.0


if __name__ == "__main__":
    main()
