"""Sharded, cached driver for replicated performance simulations.

Mirrors :mod:`repro.engine.runner` for the performance pipeline: the
trial space of one (CMP, workload, protection) cell is divided into
fixed-size RNG blocks, every block draws its arrivals and bank
assignments from its own block-keyed lanes
(:class:`repro.engine.rng.BlockStreams` — lane 0 burst chain, lane 1
event counts, lane 2 bank assignment), blocks are fanned out over a
:class:`repro.engine.executor.SharedExecutor` (shared with the
fault-injection engine; sessions keep one warm across cells) in one
work item per worker (:func:`repro.engine.rng.chunk_ranges`), and the
per-trial outputs are concatenated in trial order.  Results are
therefore **bit-identical for any executor** — parallelism is purely a
throughput choice, the same contract the fault-injection engine makes.

A figure hands all its (CMP, workload) cells to one
:func:`run_performance_grid` call: one executor map, each work item a
trial range of every cell.  All protections of a cell see the same
draws (the paper's matched-pair design), the booking work for shared
L1/L2 protection modes is computed once per cell, and the port-steal
recursion runs once per work item across the lanes of all cells.

Per-protection results are memoized through the engine's
:class:`~repro.engine.cache.ResultCache`, keyed via the project-wide
:meth:`~repro.api.spec.ExperimentSpec.content_hash` convention over the
full cell identity (CMP configuration, workload profile, protection,
cycle count, trials, seed, block size, kernel version).
"""

from __future__ import annotations

import dataclasses
import enum
import logging
import time
from dataclasses import dataclass

import numpy as np

from repro.cmp.config import CmpConfig, ProtectionConfig
from repro.obs import emit
from repro.obs.profile import process_usage, usage_delta
from repro.engine.aggregate import MeanEstimate
from repro.engine.cache import ResultCache, cache_key
from repro.engine.executor import SharedExecutor
from repro.engine.rng import BlockStreams, chunk_ranges, iter_block_slices
from repro.workloads.profiles import WorkloadProfile

from .arrivals import sample_arrivals
from .kernel import evaluate_trials, finish_trials, sample_bank_accesses

__all__ = [
    "PERF_VERSION",
    "DEFAULT_PERF_BLOCK_SIZE",
    "PerfResult",
    "PerfComparison",
    "paired_loss_percent",
    "run_performance",
    "run_performance_grid",
    "compare_performance",
]

#: Bump when the kernel's semantics change in ways that invalidate
#: previously cached per-trial results.
PERF_VERSION = 1

_log = logging.getLogger(__name__)

#: Default trials per RNG block.  Performance trials are heavy (a full
#: multi-thousand-cycle contention simulation each), so blocks are much
#: smaller than the fault-injection engine's.
DEFAULT_PERF_BLOCK_SIZE = 32

#: Per-trial array fields of a result, in serialization order.
_RESULT_FIELDS = (
    "aggregate_ipc",
    "l1_reads",
    "l1_writes",
    "l1_fill_evict",
    "l1_extra_reads",
    "l2_reads",
    "l2_writes",
    "l2_fill_evict",
    "l2_extra_reads",
    "l1_port_utilization",
    "l2_bank_utilization",
    "port_steals",
    "forced_steals",
)

_BURST_LANE, _EVENT_LANE, _BANK_LANE = 0, 1, 2


def _jsonable(value):
    """Recursively convert a dataclass/enum tree into JSON-pure shapes."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass(frozen=True)
class PerfResult:
    """Replicated-trial outcome for one (CMP, workload, protection) cell.

    All array fields hold one value per trial, in trial order
    (independent of scheduling).  Access counts are raw totals over all
    cores and cycles; :meth:`breakdown_estimates` converts them to the
    paper's accesses-per-100-cycles units.
    """

    cmp_name: str
    workload: str
    protection_label: str
    n_cycles: int
    n_trials: int
    seed: int
    block_size: int
    aggregate_ipc: np.ndarray
    l1_reads: np.ndarray
    l1_writes: np.ndarray
    l1_fill_evict: np.ndarray
    l1_extra_reads: np.ndarray
    l2_reads: np.ndarray
    l2_writes: np.ndarray
    l2_fill_evict: np.ndarray
    l2_extra_reads: np.ndarray
    l1_port_utilization: np.ndarray
    l2_bank_utilization: np.ndarray
    port_steals: np.ndarray
    forced_steals: np.ndarray
    elapsed_seconds: float = 0.0
    from_cache: bool = False

    @property
    def trials_per_second(self) -> float:
        return self.n_trials / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

    def ipc_estimate(self, confidence: float = 0.95) -> MeanEstimate:
        """Aggregate IPC across trials with a normal interval."""
        return MeanEstimate.from_samples(self.aggregate_ipc, confidence)

    def breakdown_estimates(
        self, level: str, confidence: float = 0.95
    ) -> dict:
        """Fig. 6-style per-component estimates, accesses per 100 cycles.

        ``level`` is ``"l1"`` or ``"l2"``; keys match
        :meth:`repro.cmp.stats.CacheAccessBreakdown.as_dict` (the
        instruction-read component is identically zero, as in the
        scalar model's reporting).
        """
        if level not in ("l1", "l2"):
            raise ValueError("level must be 'l1' or 'l2'")
        scale = 100.0 / self.n_cycles
        components = {
            "Read: Inst": np.zeros(self.n_trials),
            "Read: Data": getattr(self, f"{level}_reads") * scale,
            "Write": getattr(self, f"{level}_writes") * scale,
            "Fill/Evict": getattr(self, f"{level}_fill_evict") * scale,
            "Extra Read for 2D Coding": getattr(self, f"{level}_extra_reads") * scale,
        }
        return {
            name: MeanEstimate.from_samples(values, confidence)
            for name, values in components.items()
        }


def paired_loss_percent(
    baseline_ipc: np.ndarray, protected_ipc: np.ndarray
) -> np.ndarray:
    """Per-trial IPC loss in %, safe on fully stalled baselines.

    Mirrors the scalar :class:`repro.cmp.stats.PerformanceComparison`
    guard: a trial whose baseline IPC is zero (every core pinned at the
    stall cap) reports zero loss rather than a NaN from 0/0.
    """
    baseline_ipc = np.asarray(baseline_ipc, dtype=float)
    protected_ipc = np.asarray(protected_ipc, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        loss = (1.0 - protected_ipc / baseline_ipc) * 100.0
    return np.where(baseline_ipc > 0.0, loss, 0.0)


@dataclass(frozen=True)
class PerfComparison:
    """Matched-pair baseline-vs-protected comparison (one Fig. 5 bar).

    Both members ran on identical draws, so the per-trial loss is a
    paired difference — the variance-reduction trick the scalar path
    gets from reusing one seed, now with honest replication on top.
    """

    baseline: PerfResult
    protected: PerfResult

    @property
    def loss_percent_per_trial(self) -> np.ndarray:
        return paired_loss_percent(
            self.baseline.aggregate_ipc, self.protected.aggregate_ipc
        )

    @property
    def ipc_loss_percent(self) -> float:
        """Mean IPC loss in % (the Fig. 5 y-axis), clipped at zero."""
        return max(0.0, float(self.loss_percent_per_trial.mean()))

    def loss_estimate(self, confidence: float = 0.95) -> MeanEstimate:
        return MeanEstimate.from_samples(self.loss_percent_per_trial, confidence)


# ----------------------------------------------------------------------
# Sharded execution
# ----------------------------------------------------------------------

#: Upper bound on trials x cores x cycles per steal recursion: pieces
#: (one cell's slice of one block) are *sampled* and booked one by one
#: (that is the invariance contract), but their steal lanes are stacked
#: across cells and blocks up to this budget, so the per-cycle step
#: amortizes over many lanes while the stacked inputs stay bounded.
_EVAL_GROUP_ELEMENTS = 8_000_000


def _evaluation_groups(pieces, cells, n_cycles: int):
    group: list = []
    covered = 0
    for index, piece in pieces:
        group.append((index, piece))
        covered += piece.count * cells[index][0].n_cores * n_cycles
        if covered >= _EVAL_GROUP_ELEMENTS:
            yield group
            group, covered = [], 0
    if group:
        yield group


def _run_trial_range(
    cells: list,
    n_cycles: int,
    seed: int,
    block_size: int,
    first_trial: int,
    last_trial: int,
) -> tuple[list, dict]:
    """Evaluate trials ``[first_trial, last_trial)`` of every cell.

    ``cells`` holds ``(cmp_cfg, profile, protections)`` triples.  Draws
    always cover the whole block and are sliced to the requested
    trials, so any partition of the trial space sees identical
    randomness per trial.  Each (cell, block) piece is booked as soon
    as it is sampled; only its steal inputs wait for the group's one
    stacked steal recursion.

    Returns one ``{label: {field: array}}`` per cell plus the shard's
    telemetry (wall-clock seconds, trial and label counts, and the
    worker's resource deltas — observational only).
    """
    started = time.perf_counter()
    usage0 = process_usage()
    per_cell = [{label: [] for label in protections} for _, _, protections in cells]
    pieces = [
        (index, piece)
        for piece in iter_block_slices(first_trial, last_trial, block_size)
        for index in range(len(cells))
    ]
    for group in _evaluation_groups(pieces, cells, n_cycles):
        batches = []
        for index, piece in group:
            cmp_cfg, profile, protections = cells[index]
            streams = BlockStreams(seed, piece.block)
            arrivals = sample_arrivals(
                streams.lane(_BURST_LANE),
                streams.lane(_EVENT_LANE),
                block_size,
                cmp_cfg,
                profile,
                n_cycles,
            )
            bank_accesses = sample_bank_accesses(
                streams.lane(_BANK_LANE),
                arrivals,
                cmp_cfg.l2.n_banks,
                any(p.protect_l2 for p in protections.values()),
            )
            batches.append(
                evaluate_trials(
                    arrivals.sliced(piece.start, piece.stop),
                    bank_accesses.sliced(piece.start, piece.stop),
                    cmp_cfg,
                    profile,
                    protections,
                    n_cycles,
                )
            )
            # Only the batch (with its compact steal inputs) outlives
            # the piece: no group holds every cell's full arrivals.
            del arrivals, bank_accesses
        for (index, _), outputs in zip(group, finish_trials(batches)):
            for label, fields in outputs.items():
                per_cell[index][label].append(fields)
    merged = [
        {
            label: {
                name: np.concatenate([chunk[name] for chunk in chunks])
                for name in _RESULT_FIELDS
            }
            for label, chunks in per_label.items()
        }
        for per_label in per_cell
    ]
    usage = usage_delta(usage0)
    stats = {
        "trials": last_trial - first_trial,
        "labels": sum(len(protections) for _, _, protections in cells),
        "elapsed": round(time.perf_counter() - started, 6),
        "pid": usage["pid"],
        "cpu_seconds": usage["cpu_seconds"],
        "max_rss_bytes": usage["max_rss_bytes"],
    }
    return merged, stats


def _worker(payload: tuple) -> tuple[list, dict]:
    return _run_trial_range(*payload)


def run_performance_grid(
    cells: "list[tuple[CmpConfig, WorkloadProfile]]",
    protections: dict,
    *,
    n_cycles: int,
    n_trials: int,
    seed: int,
    block_size: int = DEFAULT_PERF_BLOCK_SIZE,
    cache: "ResultCache | None" = None,
    executor: "SharedExecutor | None" = None,
) -> "list[dict]":
    """Run every protection of every ``(CMP, workload)`` cell on shared
    draws; returns one ``{label: PerfResult}`` per cell, in input order.

    Cells may repeat names (a sweep varies one CMP's knobs), hence a
    list.  Cached labels are served per cell from the result cache; the
    remaining ones are computed in one pass over the trial space — one
    executor map whose chunks each cover a trial range of every cell
    (shared arrivals and bank draws per cell, shared booking work per
    L1/L2 mode, one steal recursion across cells).

    ``executor`` is the :class:`~repro.engine.executor.SharedExecutor`
    to fan out on — the same one the fault-injection engine uses; a
    :class:`repro.api.Session` passes its own, so a multi-experiment
    sweep forks once.  The trial space is split into one work item per
    worker, which cannot change results.  Omitted, a one-worker
    executor runs the grid inline.
    """
    if n_cycles < 100:
        raise ValueError("n_cycles must be at least 100")
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    if block_size < 1:
        raise ValueError("block_size must be positive")
    if not protections:
        raise ValueError("need at least one protection configuration")
    cells = list(cells)
    if not cells:
        raise ValueError("need at least one (CMP, workload) cell")
    executor = executor if executor is not None else SharedExecutor()

    def build(index: int, label: str, fields: dict, elapsed: float, cached: bool):
        cmp_cfg, profile = cells[index]
        return PerfResult(
            cmp_name=cmp_cfg.name,
            workload=profile.name,
            protection_label=protections[label].label,
            n_cycles=n_cycles,
            n_trials=n_trials,
            seed=seed,
            block_size=block_size,
            elapsed_seconds=elapsed,
            from_cache=cached,
            **{name: np.asarray(fields[name]) for name in _RESULT_FIELDS},
        )

    from repro.api.spec import freeze_params  # lazy: repro.api is a heavy import

    def label_params(identity: dict, protection) -> dict:
        return {
            "perf_version": PERF_VERSION,
            "cell": {**identity, "protection": protection, "n_cycles": n_cycles},
            "n_trials": n_trials,
            "seed": seed,
            "block_size": block_size,
        }

    protection_keys = {label: _jsonable(p) for label, p in protections.items()}
    results: list[dict] = [{} for _ in cells]
    params: list[dict] = []
    cell_keys: list[dict] = []
    missing: list[list] = []
    for index, (cmp_cfg, profile) in enumerate(cells):
        identity = {"cmp": _jsonable(cmp_cfg), "workload": _jsonable(profile)}
        # Frozen once per cell: each label's key then freezes only its
        # own part instead of re-walking the CMP and workload.
        frozen = dict(freeze_params(identity))
        cell_params = {
            label: label_params(identity, key) for label, key in protection_keys.items()
        }
        keys = {
            label: cache_key(label_params(frozen, key))
            for label, key in protection_keys.items()
        }
        for label, key in keys.items():
            payload = cache.load(key) if cache is not None else None
            if payload is not None and all(name in payload for name in _RESULT_FIELDS):
                results[index][label] = build(index, label, payload, 0.0, True)
        params.append(cell_params)
        cell_keys.append(keys)
        missing.append([label for label in protections if label not in results[index]])
        emit(
            "perf.grid.start",
            logger=_log,
            level=logging.INFO,
            cmp=cmp_cfg.name,
            workload=profile.name,
            n_trials=n_trials,
            n_cycles=n_cycles,
            labels=list(protections),
            cached_labels=sorted(results[index]),
            keys=keys,
        )

    computed = [index for index, labels in enumerate(missing) if labels]
    elapsed = 0.0
    shards = 0
    if computed:
        started = time.perf_counter()
        ranges = chunk_ranges(0, n_trials, block_size, executor.workers)
        work = [
            (*cells[index], {label: protections[label] for label in missing[index]})
            for index in computed
        ]
        payloads = [
            (work, n_cycles, seed, block_size, first, last) for first, last in ranges
        ]
        outcomes = executor.map(_worker, payloads)
        elapsed = time.perf_counter() - started
        shards = len(ranges)
        for chunk_index, (_, stats) in enumerate(outcomes):
            emit("perf.shard", logger=_log, index=chunk_index, **stats)
        for position, index in enumerate(computed):
            for label in missing[index]:
                fields = {
                    name: np.concatenate(
                        [chunk[position][label][name] for chunk, _ in outcomes]
                    )
                    for name in _RESULT_FIELDS
                }
                results[index][label] = build(index, label, fields, elapsed, False)
                if cache is not None:
                    cache.store(cell_keys[index][label], fields, params[index][label])
    for index, (cmp_cfg, profile) in enumerate(cells):
        fresh = bool(missing[index])
        emit(
            "perf.grid.finish",
            logger=_log,
            level=logging.INFO,
            cmp=cmp_cfg.name,
            workload=profile.name,
            from_cache=not fresh,
            shards=shards if fresh else 0,
            elapsed=round(elapsed, 6) if fresh else 0.0,
        )
    return [{label: cell[label] for label in protections} for cell in results]


def run_performance(
    cmp_cfg: CmpConfig,
    profile: WorkloadProfile,
    protection: ProtectionConfig,
    **kwargs,
) -> PerfResult:
    """Replicated trials for a single protection configuration.

    Keyword arguments (``n_cycles``, ``n_trials``, ``seed``,
    ``block_size``, ``cache``, ``executor``) are those of
    :func:`run_performance_grid`.
    """
    return run_performance_grid([(cmp_cfg, profile)], {"cell": protection}, **kwargs)[
        0
    ]["cell"]


def compare_performance(
    cmp_cfg: CmpConfig,
    profile: WorkloadProfile,
    protection: ProtectionConfig,
    **kwargs,
) -> PerfComparison:
    """Matched-pair baseline-vs-protected comparison on shared draws.

    Keyword arguments are those of :func:`run_performance_grid`; pass a
    :class:`~repro.engine.executor.SharedExecutor` as ``executor`` to
    fan out.
    """
    (grid,) = run_performance_grid(
        [(cmp_cfg, profile)],
        {"baseline": ProtectionConfig(label="baseline"), "protected": protection},
        **kwargs,
    )
    return PerfComparison(baseline=grid["baseline"], protected=grid["protected"])
