"""Batched performance-simulation kernel for the CMP contention model.

Evaluates many independent trials of the Fig. 5/6 contention model in
one shot: arrival batches (:mod:`repro.perf.arrivals`) are pushed
through the closed-form port/bank booking kernels
(:mod:`repro.perf.resources`) and converted into per-trial IPC, access
breakdowns and utilizations.  The stochastic model is *identical* to
the scalar :class:`repro.cmp.simulator.CmpSimulator` — same burst
chain, same Poisson categories, same in-cycle booking order, same
stall-to-IPC conversion — only the execution is batched.

L2 bank contention is evaluated in **sparse event space**: one record
per L2 access (a few per thousand array cells), never a dense
``(trials, banks, cycles)`` tensor.  Events sorted by (trial, bank,
cycle) turn each bank's busy-time into a segmented prefix scan (the
sparse Lindley recursion of ``DESIGN.md``), and within-cycle queueing
positions fall out of the same sort.

Two entry points:

* :func:`evaluate_trials` then :func:`finish_trials` — evaluate whole
  ``(trials, cores, cycles)`` batches for several protection
  configurations at once.  Protections sharing an L1 mode (off /
  protected / protected with port stealing) or an L2 mode (off /
  protected) share the corresponding booking computation, and
  baseline/protected results come from the *same draws* — the
  matched-pair design the paper uses.  The first call books every
  closed form per batch; the second runs the one sequential piece,
  the steal recursion, once across the lanes of many batches (cells).
* :func:`simulate_matched` — replay one scalar trial's exact RNG call
  order through the vectorized kernels and return a
  :class:`~repro.cmp.stats.SimulationResult`.  Integer statistics
  (delays, access counts, steal counters) are bit-exact with
  ``CmpSimulator.run``; floating-point results (IPC) agree to rounding
  because the scalar accumulates stalls cycle by cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cmp.config import CmpConfig, CoreType, ProtectionConfig
from repro.cmp.resources import DEFAULT_STEAL_DEADLINE
from repro.cmp.stats import CacheAccessBreakdown, SimulationResult
from repro.workloads.profiles import WorkloadProfile

from .arrivals import Arrivals, matched_arrivals
from .resources import port_read_delays, steal_port_recursion

__all__ = [
    "BankAccesses",
    "sample_bank_accesses",
    "matched_bank_accesses",
    "PendingTrials",
    "evaluate_trials",
    "finish_trials",
    "simulate_matched",
]

#: Access-type ranks in in-cycle booking order (reads are charged delay).
_READ, _WRITE_TYPE, _EXTRA = 0, 1, 2

#: Arrival categories whose per-trial totals the statistics report.
_TOTALS = (
    "l1_reads", "l1_writes", "l1_fill_evict", "l2_reads", "l2_writes", "l2_fill_evict",
)


@dataclass(frozen=True)
class BankAccesses:
    """One record per L2 access of a trial batch: its (trial, core,
    cycle) origin, its type rank (read / write-type / 2D extra) and the
    uniformly drawn bank it lands on.

    ``has_extras`` records whether extra (read-before-write) accesses
    were sampled; they are drawn *after* the demand accesses from the
    same stream, so every L2-unprotected result is identical whether or
    not extras exist.
    """

    n_banks: int
    trial: np.ndarray
    core: np.ndarray
    cycle: np.ndarray
    rank: np.ndarray
    bank: np.ndarray
    has_extras: bool

    def sliced(self, start: int, stop: int) -> "BankAccesses":
        keep = (self.trial >= start) & (self.trial < stop)
        return BankAccesses(
            self.n_banks,
            self.trial[keep] - start,
            self.core[keep],
            self.cycle[keep],
            self.rank[keep],
            self.bank[keep],
            self.has_extras,
        )


def _expand(counts: np.ndarray, rank: int) -> tuple:
    """One event row per access for a (trials, cores, cycles) count array."""
    trial, core, cycle = np.nonzero(counts)
    repeats = counts[trial, core, cycle].astype(np.int64)
    return (
        np.repeat(trial, repeats),
        np.repeat(core, repeats),
        np.repeat(cycle, repeats),
        np.full(int(repeats.sum()), rank, dtype=np.int8),
    )


def sample_bank_accesses(
    rng: np.random.Generator,
    arrivals: Arrivals,
    n_banks: int,
    with_extras: bool,
) -> BankAccesses:
    """Draw one uniform bank index per L2 access of a whole batch.

    Exactly the scalar simulator's one-draw-per-access distribution.
    Draw order is all reads, then all writes/fills, then (optionally)
    the 2D extras, so demand assignments are invariant to
    ``with_extras``.
    """
    write_type = arrivals["l2_writes"] + arrivals["l2_fill_evict"]
    parts = [_expand(arrivals["l2_reads"], _READ), _expand(write_type, _WRITE_TYPE)]
    if with_extras:
        parts.append(_expand(write_type, _EXTRA))
    banks = [rng.integers(0, n_banks, size=part[0].size) for part in parts]
    return BankAccesses(
        n_banks,
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
        np.concatenate([p[2] for p in parts]),
        np.concatenate([p[3] for p in parts]),
        np.concatenate(banks),
        with_extras,
    )


def matched_bank_accesses(
    rng: np.random.Generator,
    arrivals: Arrivals,
    n_banks: int,
    with_extras: bool,
) -> BankAccesses:
    """Replay the scalar simulator's exact per-access bank draws.

    The scalar draws one uniform bank per access in cycle -> core ->
    (reads, writes/fills, extras) order; a single batched ``integers``
    call consumes the identical stream.  The per-access evaluation only
    depends on each access's (cycle, core, type, bank), so the event
    order here need not match the batch sampler's.
    """
    l2_reads = arrivals["l2_reads"][0].astype(np.int64)
    write_type = (arrivals["l2_writes"][0] + arrivals["l2_fill_evict"][0]).astype(
        np.int64
    )
    per_type = [l2_reads, write_type] + ([write_type] if with_extras else [])
    # Segment lengths in scalar draw order: cycle-major, core, type.
    lengths = np.stack([t.T for t in per_type], axis=-1)  # (cycles, cores, types)
    n_cycles, n_cores, n_types = lengths.shape
    flat_lengths = lengths.ravel()
    banks = rng.integers(0, n_banks, size=int(flat_lengths.sum()))
    segment = np.repeat(np.arange(flat_lengths.size), flat_lengths)
    cycle, remainder = np.divmod(segment, n_cores * n_types)
    core, rank = np.divmod(remainder, n_types)
    return BankAccesses(
        n_banks,
        np.zeros(segment.size, dtype=np.int64),
        core,
        cycle,
        rank.astype(np.int8),
        banks,
        with_extras,
    )


# ----------------------------------------------------------------------
# L2 bank booking: sparse segmented scans over access events
# ----------------------------------------------------------------------

def _bank_mode_delay(
    trial: np.ndarray,
    core: np.ndarray,
    cycle: np.ndarray,
    rank: np.ndarray,
    bank: np.ndarray,
    shape: tuple[int, int, int],
    n_banks: int,
    busy_cycles: int,
) -> np.ndarray:
    """Demand-read delay per (trial, core) from sorted access events.

    Events must arrive sorted by (trial, bank, cycle, core, rank).  Per
    (trial, bank, cycle) cell the residual bank work at cycle start
    follows the sparse Lindley form ``V_i = h_i - min_{j<=i} h_j`` with
    ``h_i = busy·N_{i-1} - tau_i`` over that bank's event cells
    (cumulative prior accesses ``N``, cell cycle ``tau`` —
    see DESIGN.md); the segmented running minimum is one global
    ``minimum.accumulate`` after offsetting each (trial, bank) segment
    beyond the value range.  An access's same-cycle queueing position is
    its index within the cell, which the sort hands out for free.
    """
    n_trials, n_cores, n_cycles = shape
    n_events = trial.size
    delay = np.zeros((n_trials, n_cores), dtype=np.int64)
    if n_events == 0:
        return delay

    tb = trial * n_banks + bank
    cell = tb * n_cycles + cycle
    new_cell = np.empty(n_events, dtype=bool)
    new_cell[0] = True
    np.not_equal(cell[1:], cell[:-1], out=new_cell[1:])
    cell_starts = np.flatnonzero(new_cell)
    cell_sizes = np.diff(np.append(cell_starts, n_events))
    # Within-cell queueing position of every event.
    position = np.arange(n_events, dtype=np.int64) - np.repeat(cell_starts, cell_sizes)

    cell_tb = tb[cell_starts]
    cell_tau = cycle[cell_starts].astype(np.int64)
    new_segment = np.empty(cell_starts.size, dtype=bool)
    new_segment[0] = True
    np.not_equal(cell_tb[1:], cell_tb[:-1], out=new_segment[1:])
    segment_id = np.cumsum(new_segment) - 1
    cumulative = np.cumsum(cell_sizes)
    before_cell = cumulative - cell_sizes
    segment_base = before_cell[np.repeat(np.flatnonzero(new_segment),
                                         np.diff(np.append(np.flatnonzero(new_segment),
                                                           cell_starts.size)))]
    prior_in_bank = before_cell - segment_base

    h = busy_cycles * prior_in_bank - cell_tau
    # Segmented running minimum: shift each segment far below the last.
    span = int(busy_cycles) * n_events + n_cycles + 1
    shifted = h - segment_id * span
    running = np.minimum.accumulate(shifted) + segment_id * span
    residual = h - running  # >= 0; start-of-cycle bank backlog

    is_read = rank == _READ
    read_delay = residual[np.repeat(np.arange(cell_starts.size), cell_sizes)][is_read]
    read_delay = read_delay + busy_cycles * position[is_read]
    np.add.at(delay, (trial[is_read], core[is_read]), read_delay)
    return delay


def _bank_read_delays(
    accesses: BankAccesses,
    shape: tuple[int, int, int],
    busy_cycles: int,
    modes: set,
) -> dict:
    """Demand-read queueing delay per (trial, core) at the shared L2.

    Each bank is an independent single server occupying ``busy_cycles``
    per access.  Within a cycle the scalar books accesses core by core
    (each core: reads, writes/fills, extras), so a core's reads wait
    behind the start-of-cycle bank residual plus every earlier
    same-cycle access to the same bank — which is exactly the event's
    position in the (trial, bank, cycle, core, rank) sort order.

    Returns ``{mode: (trials, cores) delay}`` for the requested subset
    of ``{"off", "protected"}``; the sort is shared between modes.
    """
    n_trials, n_cores, n_cycles = shape
    n_banks = accesses.n_banks
    if "protected" in modes and not accesses.has_extras:
        raise ValueError("bank accesses were sampled without 2D extras")

    key = (
        ((accesses.trial * n_banks + accesses.bank) * n_cycles + accesses.cycle)
        * n_cores
        + accesses.core
    ) * 4 + accesses.rank
    order = np.argsort(key)
    trial = accesses.trial[order]
    core = accesses.core[order]
    cycle = accesses.cycle[order]
    rank = accesses.rank[order]
    bank = accesses.bank[order]

    results: dict[str, np.ndarray] = {}
    for mode in sorted(modes):
        if mode == "protected":
            view = (trial, core, cycle, rank, bank)
        else:
            keep = rank != _EXTRA
            view = (trial[keep], core[keep], cycle[keep], rank[keep], bank[keep])
        results[mode] = _bank_mode_delay(
            *view, shape=shape, n_banks=n_banks, busy_cycles=busy_cycles
        )
    return results


# ----------------------------------------------------------------------
# Trial evaluation
# ----------------------------------------------------------------------

def _l1_mode(protection: ProtectionConfig) -> str:
    if not protection.protect_l1:
        return "off"
    return "stolen" if protection.l1_port_stealing else "protected"


def _l2_mode(protection: ProtectionConfig) -> str:
    return "protected" if protection.protect_l2 else "off"


@dataclass
class PendingTrials:
    """One batch's closed-form results, waiting on the steal recursion.

    :func:`evaluate_trials` books everything that has a closed form —
    the no-steal L1 port modes, the L2 banks, the access totals — and
    keeps of the arrivals only what port stealing still needs: each
    lane's L1 reads and write-type counts (``(trials, cores, cycles)``
    small ints, ``None`` when no protection steals ports).
    :func:`finish_trials` runs one steal recursion over the lanes of
    many such batches and assembles every label's statistics.
    """

    cmp_cfg: CmpConfig
    profile: WorkloadProfile
    protections: dict
    n_cycles: int
    l1: dict
    l2: dict
    totals: dict
    steal_reads: "np.ndarray | None"
    steal_write_type: "np.ndarray | None"


def evaluate_trials(
    arrivals: Arrivals,
    bank_accesses: BankAccesses,
    cmp_cfg: CmpConfig,
    profile: WorkloadProfile,
    protections: dict,
    n_cycles: int,
) -> PendingTrials:
    """Closed-form booking of one arrival batch under several protections.

    Booking work is shared: the no-steal L1 modes and the two L2 modes
    are each evaluated at most once, and every protection's results
    come from the same draws (matched pairs).  The port-stealing mode is
    left to :func:`finish_trials`, which batches it across cells.
    """
    reads = arrivals["l1_reads"]
    write_type = arrivals["l1_writes"] + arrivals["l1_fill_evict"]
    n_trials, n_cores, _ = reads.shape
    l1_modes = {_l1_mode(p) for p in protections.values()}

    l1_results: dict[str, dict] = {}
    for mode in l1_modes - {"stolen"}:
        extras = write_type if mode == "protected" else np.int16(0)
        delay, bookings = port_read_delays(
            reads, write_type, extras, cmp_cfg.l1d.n_ports
        )
        l1_results[mode] = {
            "delay": delay,
            "bookings": bookings,
            "stolen": np.zeros((n_trials, n_cores), dtype=np.int64),
            "forced": np.zeros((n_trials, n_cores), dtype=np.int64),
            "extra": mode == "protected",
        }

    l2_results = _bank_read_delays(
        bank_accesses,
        (n_trials, n_cores, n_cycles),
        cmp_cfg.l2.bank_busy_cycles,
        {_l2_mode(p) for p in protections.values()},
    )
    totals = {
        name: arrivals[name].sum(axis=(1, 2), dtype=np.int64)
        for name in _TOTALS
    }
    stealing = "stolen" in l1_modes
    return PendingTrials(
        cmp_cfg,
        profile,
        protections,
        n_cycles,
        l1_results,
        l2_results,
        totals,
        _narrow(reads) if stealing else None,
        _narrow(write_type) if stealing else None,
    )


def _narrow(counts: np.ndarray) -> np.ndarray:
    """``counts`` as ``int8`` when every value fits (they almost always
    do: a few accesses per cycle), halving what a batch holds while it
    waits for the steal recursion."""
    if int(counts.max(initial=0)) <= np.iinfo(np.int8).max:
        return counts.astype(np.int8)
    return counts


def finish_trials(batches: "list[PendingTrials]") -> "list[dict]":
    """Steal-queue booking for every batch at once, then the statistics.

    The lanes (trial x core) of every batch that steals ports are
    stacked cycle-major and run through one
    :func:`~repro.perf.resources.steal_port_recursion` with per-lane
    port counts and store-queue bounds, so the per-cycle step runs once
    per cycle for all cells together.  Returns one ``{label: {field:
    per-trial array}}`` per batch, in order.
    """
    stealers = [i for i, batch in enumerate(batches) if batch.steal_reads is not None]
    stolen_modes: "list[dict | None]" = [None] * len(batches)
    if stealers:
        n_cycles = batches[stealers[0]].n_cycles
        if any(batches[i].n_cycles != n_cycles for i in stealers):
            raise ValueError("stacked batches must share n_cycles")
        shapes = [batches[i].steal_reads.shape[:2] for i in stealers]
        bounds = np.cumsum([0] + [trials * cores for trials, cores in shapes])
        dtype = np.result_type(
            *(batches[i].steal_reads for i in stealers),
            *(batches[i].steal_write_type for i in stealers),
        )
        reads_t = np.empty((n_cycles, bounds[-1]), dtype=dtype)
        write_type_t = np.empty_like(reads_t)
        n_ports = np.empty(bounds[-1], dtype=np.int64)
        capacity = np.empty_like(n_ports)
        for i, lo, hi in zip(stealers, bounds[:-1], bounds[1:]):
            batch = batches[i]
            reads_t[:, lo:hi] = batch.steal_reads.reshape(hi - lo, n_cycles).T
            write_type_t[:, lo:hi] = batch.steal_write_type.reshape(hi - lo, n_cycles).T
            n_ports[lo:hi] = batch.cmp_cfg.l1d.n_ports
            capacity[lo:hi] = batch.cmp_cfg.core.store_queue_entries
        # Every write-type access carries one read-before-write extra.
        delay, bookings, stolen, forced = steal_port_recursion(
            reads_t.T,
            write_type_t.T,
            write_type_t.T,
            n_ports=n_ports,
            capacity=capacity,
            deadline=DEFAULT_STEAL_DEADLINE,
        )
        for i, shape, lo, hi in zip(stealers, shapes, bounds[:-1], bounds[1:]):
            stolen_modes[i] = {
                "delay": delay[lo:hi].reshape(shape),
                "bookings": bookings[lo:hi].reshape(shape),
                "stolen": stolen[lo:hi].reshape(shape),
                "forced": forced[lo:hi].reshape(shape),
                "extra": True,
            }
    return [
        _label_statistics(batch, {**batch.l1, "stolen": stolen})
        for batch, stolen in zip(batches, stolen_modes)
    ]


def _label_statistics(batch: PendingTrials, l1_results: dict) -> dict:
    """``{label: {field: per-trial array}}`` from one batch's bookings."""
    cmp_cfg, profile, n_cycles = batch.cmp_cfg, batch.profile, batch.n_cycles
    totals = batch.totals
    l1_reads_total = totals["l1_reads"]
    l1_writes_total = totals["l1_writes"]
    l1_fill_total = totals["l1_fill_evict"]
    l2_reads_total = totals["l2_reads"]
    l2_writes_total = totals["l2_writes"]
    l2_fill_total = totals["l2_fill_evict"]
    l1_write_type_total = l1_writes_total + l1_fill_total
    l2_write_type_total = l2_writes_total + l2_fill_total

    sensitivity = profile.memory_sensitivity
    smt_hiding = (
        cmp_cfg.core.hardware_threads
        if cmp_cfg.core.core_type is CoreType.IN_ORDER_SMT
        else 1
    )
    n_ports = cmp_cfg.l1d.n_ports
    n_banks = cmp_cfg.l2.n_banks
    busy = cmp_cfg.l2.bank_busy_cycles

    outputs: dict[str, dict] = {}
    for label, protection in batch.protections.items():
        l1 = l1_results[_l1_mode(protection)]
        l2_delay = batch.l2[_l2_mode(protection)]
        stall = sensitivity * (l1["delay"] / smt_hiding + l2_delay)
        stall_fraction = np.minimum(stall / n_cycles, 1.0)
        per_core_ipc = profile.base_ipc * (1.0 - stall_fraction)

        l1_extra = l1_write_type_total if l1["extra"] else np.zeros_like(l1_reads_total)
        l2_extra = (
            l2_write_type_total
            if protection.protect_l2
            else np.zeros_like(l2_reads_total)
        )
        l2_accesses = l2_reads_total + l2_write_type_total + l2_extra
        outputs[label] = {
            "aggregate_ipc": per_core_ipc.sum(axis=1),
            "per_core_ipc": per_core_ipc,
            "l1_reads": l1_reads_total,
            "l1_writes": l1_writes_total,
            "l1_fill_evict": l1_fill_total,
            "l1_extra_reads": l1_extra,
            "l2_reads": l2_reads_total,
            "l2_writes": l2_writes_total,
            "l2_fill_evict": l2_fill_total,
            "l2_extra_reads": l2_extra,
            "l1_port_utilization": l1["bookings"].mean(axis=1)
            / (n_cycles * n_ports),
            "l2_bank_utilization": l2_accesses * busy / (n_cycles * n_banks),
            "port_steals": l1["stolen"].sum(axis=1),
            "forced_steals": l1["forced"].sum(axis=1),
        }
    return outputs


def simulate_matched(
    cmp_cfg: CmpConfig,
    profile: WorkloadProfile,
    protection: ProtectionConfig,
    n_cycles: int = 20_000,
    seed: int = 0,
) -> SimulationResult:
    """One trial through the vectorized kernels on the scalar's draws.

    Replays ``CmpSimulator.run``'s exact RNG call order, so all integer
    statistics (delays and hence stalls, access counts, steal counters)
    match the scalar result bit for bit; IPC values agree to float
    rounding (the scalar accumulates per-cycle, the kernel sums once).
    """
    if n_cycles < 100:
        raise ValueError("n_cycles must be at least 100")
    rng = np.random.default_rng(seed)
    arrivals = matched_arrivals(rng, cmp_cfg, profile, n_cycles)
    bank_accesses = matched_bank_accesses(
        rng, arrivals, cmp_cfg.l2.n_banks, with_extras=protection.protect_l2
    )
    batch = evaluate_trials(
        arrivals, bank_accesses, cmp_cfg, profile, {"run": protection}, n_cycles
    )
    out = finish_trials([batch])[0]["run"]

    scale = 100.0 / n_cycles
    l1_breakdown = CacheAccessBreakdown(
        inst_reads=0.0,
        data_reads=int(out["l1_reads"][0]) * scale,
        writes=int(out["l1_writes"][0]) * scale,
        fill_evict=int(out["l1_fill_evict"][0]) * scale,
        extra_2d_reads=int(out["l1_extra_reads"][0]) * scale,
    )
    l2_breakdown = CacheAccessBreakdown(
        inst_reads=0.0,
        data_reads=int(out["l2_reads"][0]) * scale,
        writes=int(out["l2_writes"][0]) * scale,
        fill_evict=int(out["l2_fill_evict"][0]) * scale,
        extra_2d_reads=int(out["l2_extra_reads"][0]) * scale,
    )
    return SimulationResult(
        cmp_name=cmp_cfg.name,
        workload=profile.name,
        protection_label=protection.label,
        cycles=n_cycles,
        aggregate_ipc=float(out["aggregate_ipc"][0]),
        per_core_ipc=[float(v) for v in out["per_core_ipc"][0]],
        l1_breakdown=l1_breakdown,
        l2_breakdown=l2_breakdown,
        l1_port_utilization=float(out["l1_port_utilization"][0]),
        l2_bank_utilization=float(out["l2_bank_utilization"][0]),
        port_steals=int(out["port_steals"][0]),
        forced_steals=int(out["forced_steals"][0]),
    )
