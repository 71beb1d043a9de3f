"""Vectorized resource booking: cumulative-occupancy closed forms.

The scalar schedulers in :mod:`repro.cmp.resources` book accesses one
at a time onto the earliest free port/bank slot.  Because every port is
identical with unit occupancy (and every bank is a single server with
fixed occupancy), the greedy booking is *exactly* a discrete
work-conserving queue, so its whole trajectory has a closed form:

* the residual backlog obeys the Lindley recursion
  ``W_{t+1} = max(0, W_t + a_t - capacity)``, whose solution is a
  cumulative sum minus its clipped running minimum
  (:func:`lindley_backlog`) — no per-cycle Python loop;
* the queueing delay of the ``j``-th unit access arriving behind ``W``
  backlogged units on ``N`` ports is ``floor((W + j) / N)``, so a whole
  cycle's demand-read delay is a difference of closed-form staircase
  sums (:func:`staircase_delay`).

Port stealing is the one genuinely sequential piece: the deferred-read
queue's service (idle port slots) feeds back into the port backlog via
overflow and deadline expiry.  :func:`steal_port_recursion` replays the
exact :class:`~repro.cmp.resources.StealQueue` semantics with one tiny
per-cycle step vectorized across all trials, cores and CMP cells at
once (port counts and queue bounds are per-lane vectors) — the cost is
O(cycles), not O(trials x cycles x events).  Every function
here is property-tested against the scalar schedulers
(``tests/test_perf_kernel.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "lindley_backlog",
    "staircase_delay",
    "port_read_delays",
    "steal_port_recursion",
]


def lindley_backlog(work: np.ndarray, capacity: int) -> np.ndarray:
    """Start-of-cycle backlog of a queue draining ``capacity`` per cycle.

    ``work[..., t]`` units arrive in cycle ``t``; the returned
    ``B[..., t]`` is the backlog *before* cycle ``t``'s arrivals:
    ``B_0 = 0``, ``B_{t+1} = max(0, B_t + work_t - capacity)``.  Closed
    form: with ``S_t = cumsum(work - capacity)``,
    ``B_{t+1} = S_t - min(0, min_{u<=t} S_u)``.
    """
    if capacity < 1:
        raise ValueError("capacity must be positive")
    slack = np.cumsum(work.astype(np.int64) - capacity, axis=-1)
    floor = np.minimum(np.minimum.accumulate(slack, axis=-1), 0)
    backlog = np.empty_like(slack)
    backlog[..., 0] = 0
    backlog[..., 1:] = (slack - floor)[..., :-1]
    return backlog


def _floor_ramp(x: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``f(x) = sum_{j=0}^{x-1} floor(j / n)`` elementwise."""
    k, m = np.divmod(x, n)
    return n * k * (k - 1) // 2 + m * k


#: Largest staircase argument :func:`staircase_delay` reads from a
#: lookup table of ``f``; past it the closed form runs in ``int64``.
_RAMP_TABLE_LIMIT = 1 << 12

#: Lanes x cycles per slab of :func:`steal_port_recursion` (bounds its
#: staging buffers and staircase temporaries).
_STEAL_SLAB = 1 << 16


def staircase_delay(backlog: np.ndarray, count: np.ndarray, n_ports) -> np.ndarray:
    """Total queueing delay of ``count`` unit accesses behind ``backlog``.

    Access ``j`` (0-based) of the cycle waits ``floor((B + j) / N)``
    cycles; the sum telescopes to ``f(B + count) - f(B)`` with the
    staircase sum ``f`` of :func:`_floor_ramp`.  ``n_ports`` is a scalar
    or an array broadcasting against ``backlog`` (per-lane port counts).

    Backlogs are small in practice, so ``f`` is tabulated once per call
    for every distinct port count up to the largest argument and read
    back with two gathers; arguments of :data:`_RAMP_TABLE_LIMIT` or more
    take the exact ``int64`` closed form instead.
    """
    backlog = np.asarray(backlog)
    count = np.asarray(count)
    ports = np.asarray(n_ports)
    top = int(backlog.max(initial=0)) + int(count.max(initial=0))
    if top >= _RAMP_TABLE_LIMIT:
        backlog = backlog.astype(np.int64)
        return _floor_ramp(backlog + count, ports) - _floor_ramp(backlog, ports)
    values, rows = np.unique(ports, return_inverse=True)
    width = top + 1
    table = _floor_ramp(np.arange(width), values[:, None]).ravel()
    index = backlog + rows.reshape(ports.shape) * width
    return table.take(index + count) - table.take(index)


def port_read_delays(
    reads: np.ndarray,
    write_type: np.ndarray,
    extras: np.ndarray,
    n_ports: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form port booking for the no-stealing configurations.

    Within each cycle demand reads book first (and are the only
    accesses charged delay), then writes/fills, then the read-before-
    write extras.  Returns ``(read_delay_total, bookings_total)`` per
    leading lane, both summed over the cycle axis.

    Implementation note: this is :func:`lindley_backlog` +
    :func:`staircase_delay` (the property-tested reference pair) fused
    into an in-place ``int32`` pipeline — on a memory-bound machine the
    closed form is bandwidth-limited, so every avoided pass counts.
    The ``int32`` fast path is guarded by the total booked work; the
    reference ``int64`` path handles pathological volumes.
    """
    n_cycles = reads.shape[-1]
    work = np.add(reads, write_type, dtype=np.int32)
    if np.ndim(extras) > 0 or extras:
        work += extras
    bookings = work.sum(axis=-1, dtype=np.int64)
    if int(bookings.max(initial=0)) + n_ports * n_cycles >= 2**31:
        backlog = lindley_backlog(work, n_ports)
        return staircase_delay(backlog, reads, n_ports).sum(axis=-1), bookings

    work -= n_ports
    np.cumsum(work, axis=-1, out=work)              # slack prefix sums
    floor = np.minimum.accumulate(work, axis=-1)
    np.minimum(floor, 0, out=floor)
    after = np.subtract(work, floor, out=floor)     # backlog after cycle t
    # B_t = after[t-1] (B_0 = 0): pair each cycle's backlog with the
    # *next* cycle's reads instead of materializing a shifted array.
    later_reads = reads[..., 1:]
    if n_ports == 1:
        ramp = np.multiply(reads, reads - 1, dtype=np.int32)
        delay = (
            np.multiply(after[..., :-1], later_reads, dtype=np.int64).sum(axis=-1)
            + ramp.sum(axis=-1, dtype=np.int64) // 2
        )
    else:
        delay = staircase_delay(after[..., :-1], later_reads, n_ports).sum(axis=-1)
        delay += staircase_delay(0, reads[..., 0], n_ports)
    return delay, bookings


def steal_port_recursion(
    reads: np.ndarray,
    write_type: np.ndarray,
    extras: np.ndarray,
    *,
    n_ports,
    capacity,
    deadline: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact port booking with the bounded, deadlined steal queue.

    Inputs are ``(lanes, cycles)`` integer arrays (one lane per
    trial x core); ``n_ports`` and ``capacity`` (the steal-queue bound)
    are scalars or per-lane ``(lanes,)`` vectors, so lanes of different
    CMP configurations run in one recursion.  Replays the scalar
    in-cycle order bit for bit: demand reads book (charged delay),
    writes/fills book, extras push into the FIFO steal queue (overflow
    books a contending read at once), the queue drains into truly idle
    slots — on a multi-ported cache one port stays reserved for demand
    — and finally entries whose ``deadline`` passed issue as contending
    reads.

    The FIFO queue is tracked with three cumulative counters per lane
    (pushed ``P``, removed ``C``, backlog ``W``), ``P`` kept in a ring
    of its last ``deadline + 1`` values: an entry pushed at cycle
    ``t`` expires at ``t + deadline`` iff its index still exceeds the
    removals, so expiries are ``max(0, P_{t-deadline} - C)`` — no
    per-entry state.  The per-cycle step updates preallocated buffers
    in place, in ``int32`` while no lane can book ``2**31`` slots (else
    ``int64``).  Only the start-of-cycle backlog feeds the read delay,
    so the loop records it and the staircase sums run after each slab
    of cycles; the overflowed and expired counts follow from the final
    counters.

    Returns ``(read_delay, bookings, stolen, forced)`` per lane.
    """
    if reads.ndim != 2:
        raise ValueError("expected (lanes, cycles) arrays")
    n_lanes, n_cycles = reads.shape
    n_ports = np.broadcast_to(np.asarray(n_ports, dtype=np.int64), (n_lanes,))
    capacity = np.broadcast_to(np.asarray(capacity, dtype=np.int64), (n_lanes,))

    demand = reads.sum(axis=1, dtype=np.int64)
    demand += write_type.sum(axis=1, dtype=np.int64)
    pushes = extras.sum(axis=1, dtype=np.int64)
    booked = int((demand + pushes).max(initial=0)) + int(n_ports.max(initial=0))
    dtype = np.int32 if booked < 2**31 else np.int64

    ports = n_ports.astype(dtype)
    # One port stays reserved for demand on a multi-ported cache: the
    # idle slots left after the cycle's service are -reserve - W'.
    unreserved = -(ports > 1).astype(dtype)
    bound = capacity.astype(dtype)
    zero = np.zeros(n_lanes, dtype=dtype)
    backlog = np.zeros(n_lanes, dtype=dtype)         # W: residual port work
    removed = np.zeros(n_lanes, dtype=dtype)         # C: cumulative removals
    stolen = np.zeros(n_lanes, dtype=dtype)
    queued = np.empty(n_lanes, dtype=dtype)
    step = np.empty(n_lanes, dtype=dtype)
    # P: cumulative queue pushes, a ring of the last deadline + 1 cycles;
    # cycle t writes P_t over P_{t-deadline-1} and reads P_{t-deadline}.
    ring = list(np.zeros((deadline + 1, n_lanes), dtype=dtype))
    read_delay = np.zeros(n_lanes, dtype=np.int64)

    # Cycles run in slabs: each slab's rows are staged cycle-major in
    # the state dtype, and its start-of-cycle backlogs are turned into
    # read delays once the slab is done.
    slab = max(1, _STEAL_SLAB // max(n_lanes, 1))
    net_rows = np.empty((slab, n_lanes), dtype=dtype)
    extra_rows = np.empty_like(net_rows)
    history = np.empty_like(net_rows)
    for first in range(0, n_cycles, slab):
        cycles = range(first, min(first + slab, n_cycles))
        span = slice(first, cycles.stop)
        count = len(cycles)
        np.copyto(extra_rows[:count], extras[:, span].T)
        # Demand plus every extra, less the cycle's service: the
        # backlog change when nothing queues.
        net = np.add(
            reads[:, span].T, write_type[:, span].T, out=net_rows[:count], dtype=dtype
        )
        net += extra_rows[:count]
        net -= ports
        for cycle, net_row, extra, before in zip(cycles, net, extra_rows, history):
            before[...] = backlog
            pushed = ring[(cycle - 1) % (deadline + 1)]
            np.subtract(pushed, removed, out=queued)
            np.subtract(bound, queued, out=step)
            np.minimum(extra, step, out=step)           # accepted into the queue
            pushed = np.add(pushed, step, out=ring[cycle % (deadline + 1)])
            queued += step
            backlog += net_row                          # demand + overflowed extras
            backlog -= step
            np.subtract(unreserved, backlog, out=step)
            np.minimum(step, queued, out=step)
            np.maximum(step, zero, out=step)            # drained into idle slots
            removed += step
            stolen += step
            # Expiries (entries pushed by t - deadline and still queued)
            # issue as contending reads: C <- max(C, P_{t-deadline}).
            np.maximum(removed, ring[(cycle + 1) % (deadline + 1)], out=step)
            backlog += step
            backlog -= removed
            np.maximum(backlog, zero, out=backlog)
            removed, step = step, removed
        read_delay += staircase_delay(
            history[:count], reads[:, span].T, n_ports
        ).sum(axis=0)

    stolen = stolen.astype(np.int64)
    # Forced issues: extras that overflowed the queue plus expiries.
    pushed = ring[(n_cycles - 1) % (deadline + 1)]
    forced = (pushes - pushed) + (removed - stolen)
    # Bookings = every schedule() call: demand traffic plus the forced
    # (overflowed/expired) extras; stolen drains never book a port.
    return read_delay, demand + forced, stolen, forced
