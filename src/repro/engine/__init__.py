"""repro.engine — vectorized, sharded Monte Carlo fault injection.

The engine evaluates thousands of protected-array instances per call
where the scalar path (:mod:`repro.array`) walks one bank bit by bit:

* :mod:`repro.engine.rng` — hierarchical seeded streams
  (``SeedSequence`` spawning per fixed-size trial block, with per-lane
  substreams for multi-population scenarios) that make results
  independent of worker count and chunk size.
* :mod:`repro.engine.batch` — :class:`EngineSpec`, the verdict codes,
  and the ``uint8`` reference decode/recovery over dense
  ``(trials, rows, row_bits)`` masks that the packed path is
  identity-tested against.  Fault *sampling* lives in the pluggable
  scenario subsystem (:mod:`repro.scenarios`).
* :mod:`repro.engine.packed` — the production path: one table-driven
  GF(2) syndrome kernel for parity and SECDED over packed ``uint64``
  words (codeword-bit-major per interleave slot), and scrub /
  reconstruction / classification over the dirty rows only.
* :mod:`repro.engine.executor` — :class:`SharedExecutor`, the
  persistent, explicit-start-method worker pool the runner and the
  performance backend share (a :class:`repro.api.Session` owns one for
  its life).
* :mod:`repro.engine.runner` — the sharded driver that chunks trials
  across the executor and merges results.
* :mod:`repro.engine.aggregate` — streaming verdict tallies with Wilson
  confidence intervals.
* :mod:`repro.engine.cache` — an on-disk result cache keyed by the full
  experiment identity (spec, model, trials, seed, block size).
* :mod:`repro.engine.blobstore` — the one on-disk store beneath it, the
  service's result mirror and its job traces.
* :mod:`repro.engine.oracle` — the scalar reference path the vectorized
  kernels are property-tested against.
"""

from .aggregate import (
    WEIGHTED_TARGETS,
    CoverageEstimate,
    MeanEstimate,
    StratifiedEstimate,
    StreamingAggregator,
    TrialCounts,
    WeightedEstimate,
    WeightedTally,
    half_width,
    relative_half_width,
    wilson_interval,
)
from .batch import (
    VERDICT_CORRECTED,
    VERDICT_DETECTED,
    VERDICT_SILENT,
    EngineSpec,
    make_decoder,
    run_recovery_batch,
)
from .cache import ResultCache, cache_key
from .executor import SharedExecutor, resolve_mp_context
from .oracle import scalar_trial_verdict, scalar_verdicts
from .packed import (
    PackedParityDecoder,
    PackedSecdedDecoder,
    make_packed_decoder,
    pack_rows,
    run_recovery_batch_sparse,
    unpack_rows,
)
from .rng import (
    DEFAULT_BLOCK_SIZE,
    BlockStreams,
    block_generator,
    block_seed_sequence,
    lane_generator,
)
from .runner import (
    EngineResult,
    has_vectorized_decoder,
    run_experiment,
    run_experiment_sequential,
)
from .strata import (
    ALLOCATION_MODES,
    Stratum,
    neyman_allocation,
    proportional_allocation,
    run_stratified,
)

__all__ = [
    "CoverageEstimate",
    "MeanEstimate",
    "StreamingAggregator",
    "TrialCounts",
    "WeightedTally",
    "WeightedEstimate",
    "StratifiedEstimate",
    "WEIGHTED_TARGETS",
    "half_width",
    "relative_half_width",
    "wilson_interval",
    "VERDICT_CORRECTED",
    "VERDICT_DETECTED",
    "VERDICT_SILENT",
    "EngineSpec",
    "make_decoder",
    "run_recovery_batch",
    "ResultCache",
    "cache_key",
    "SharedExecutor",
    "resolve_mp_context",
    "PackedParityDecoder",
    "PackedSecdedDecoder",
    "make_packed_decoder",
    "pack_rows",
    "run_recovery_batch_sparse",
    "unpack_rows",
    "scalar_trial_verdict",
    "scalar_verdicts",
    "DEFAULT_BLOCK_SIZE",
    "BlockStreams",
    "block_generator",
    "block_seed_sequence",
    "lane_generator",
    "EngineResult",
    "run_experiment",
    "run_experiment_sequential",
    "has_vectorized_decoder",
    "Stratum",
    "run_stratified",
    "proportional_allocation",
    "neyman_allocation",
    "ALLOCATION_MODES",
]
