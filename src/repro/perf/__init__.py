"""repro.perf — vectorized, sharded performance simulation (Fig. 5/6).

The batched counterpart of the scalar
:class:`repro.cmp.simulator.CmpSimulator`: the identical contention
model — bursty per-category arrivals, L1 port and L2 bank occupancy
with read-before-write extras, port stealing bounded by the store
queue, stall-to-IPC conversion — evaluated as NumPy kernels over
``(trials, cores, cycles)`` arrays, with many independent replicate
trials per (CMP, workload, protection) cell in one shot.

* :mod:`repro.perf.arrivals` — burst-chain prefix scan + Poisson
  category batches (bit-exact with the scalar chain on equal draws).
* :mod:`repro.perf.resources` — cumulative-occupancy closed forms for
  port/bank booking and the exact steal-queue recursion.
* :mod:`repro.perf.kernel` — trial evaluation and the scalar-matched
  single-trial replay used for oracle testing.
* :mod:`repro.perf.backend` — block-keyed RNG lanes, sharding over a
  shared executor, on-disk caching; results are bit-identical for any
  worker count.

The scalar simulator stays as the property-tested oracle; modelling
assumptions and the vectorization derivations are documented in
``DESIGN.md`` at the repository root.
"""

from .arrivals import (
    ACCESS_CATEGORIES,
    Arrivals,
    burst_parameters,
    burst_states_from_draws,
    matched_arrivals,
    sample_arrivals,
)
from .backend import (
    DEFAULT_PERF_BLOCK_SIZE,
    PERF_VERSION,
    PerfComparison,
    PerfResult,
    compare_performance,
    paired_loss_percent,
    run_performance,
    run_performance_grid,
)
from .kernel import (
    BankAccesses,
    evaluate_trials,
    finish_trials,
    matched_bank_accesses,
    sample_bank_accesses,
    simulate_matched,
)
from .resources import (
    lindley_backlog,
    port_read_delays,
    staircase_delay,
    steal_port_recursion,
)

__all__ = [
    "ACCESS_CATEGORIES",
    "Arrivals",
    "burst_parameters",
    "burst_states_from_draws",
    "matched_arrivals",
    "sample_arrivals",
    "DEFAULT_PERF_BLOCK_SIZE",
    "PERF_VERSION",
    "PerfComparison",
    "PerfResult",
    "compare_performance",
    "paired_loss_percent",
    "run_performance",
    "run_performance_grid",
    "BankAccesses",
    "evaluate_trials",
    "finish_trials",
    "matched_bank_accesses",
    "sample_bank_accesses",
    "simulate_matched",
    "lindley_backlog",
    "port_read_delays",
    "staircase_delay",
    "steal_port_recursion",
]
