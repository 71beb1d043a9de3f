"""Property tests: the vectorized performance kernels vs their scalar oracles.

Three layers of evidence that ``repro.perf`` computes the *same model*
as the scalar :mod:`repro.cmp` path:

* closed-form booking kernels vs the actual schedulers
  (:class:`PortScheduler`, :class:`BankScheduler`, :class:`StealQueue`)
  driven access by access;
* the burst-chain prefix scan vs the scalar per-cycle Markov loop on
  identical draws;
* ``simulate_matched`` vs ``CmpSimulator.run`` — full trials on the
  identical RNG stream, bit-exact integer statistics for **every**
  protection configuration including port stealing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cmp import (
    BankScheduler,
    PROTECTION_SCENARIOS,
    PortScheduler,
    StealQueue,
    fat_cmp_config,
    lean_cmp_config,
    simulate,
)
from repro.cmp.config import CoreConfig, CoreType
from repro.cmp.simulator import CmpSimulator
from repro.perf import (
    BankAccesses,
    burst_parameters,
    burst_states_from_draws,
    lindley_backlog,
    port_read_delays,
    simulate_matched,
    staircase_delay,
    steal_port_recursion,
)
from repro.perf.kernel import _bank_read_delays
from repro.perf.resources import _RAMP_TABLE_LIMIT
from repro.workloads import get_profile

_CYCLES = 400


def _random_counts(rng, n_cycles, lam=0.4):
    return rng.poisson(lam, size=n_cycles).astype(np.int64)


def _replay_steal(reads, write_type, extras, n_ports, capacity, deadline):
    """One lane through the scalar PortScheduler + StealQueue, in the
    CmpSimulator's in-cycle order: ``(delay, bookings, stolen, forced)``."""
    ports = PortScheduler(n_ports)
    queue = StealQueue(capacity=capacity, deadline=deadline)
    delay = 0
    for cycle in range(len(reads)):
        for _ in range(int(reads[cycle])):
            delay += ports.schedule(cycle)
        for _ in range(int(write_type[cycle])):
            ports.schedule(cycle)
        for _ in range(int(extras[cycle])):
            if not queue.push(cycle):
                ports.schedule(cycle)
        if queue.pending:
            idle = ports.idle_slots(cycle)
            usable = idle - 1 if n_ports > 1 else idle
            if usable > 0:
                queue.drain(cycle, usable)
            for _ in range(queue.take_expired(cycle)):
                ports.schedule(cycle)
    return delay, ports.busy_slots, queue.stolen_issues, queue.forced_issues


class TestClosedForms:
    @pytest.mark.parametrize("n_ports", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_lindley_matches_port_scheduler_backlog(self, n_ports, seed):
        rng = np.random.default_rng(seed)
        work = _random_counts(rng, 200, lam=1.1 * n_ports)
        backlog = lindley_backlog(work, n_ports)
        ports = PortScheduler(n_ports)
        for cycle in range(len(work)):
            # Residual booked work at cycle start, from the scheduler's
            # own port state.
            residual = sum(max(0, nf - cycle) for nf in ports._next_free)
            assert backlog[cycle] == residual
            for _ in range(int(work[cycle])):
                ports.schedule(cycle)

    @pytest.mark.parametrize("n_ports", [1, 2, 4])
    def test_staircase_matches_bruteforce(self, n_ports):
        backlog = np.arange(0, 23)
        count = np.arange(0, 23) % 5
        expected = [
            sum((b + j) // n_ports for j in range(c))
            for b, c in zip(backlog, count)
        ]
        assert staircase_delay(backlog, count, n_ports).tolist() == expected

    @pytest.mark.parametrize("n_ports", [1, 2])
    @pytest.mark.parametrize("seed", range(4))
    def test_port_read_delays_match_scheduler(self, n_ports, seed):
        rng = np.random.default_rng(100 + seed)
        reads = _random_counts(rng, _CYCLES, 0.5)
        write_type = _random_counts(rng, _CYCLES, 0.2)
        extras = write_type.copy()

        ports = PortScheduler(n_ports)
        expected_delay = 0
        for cycle in range(_CYCLES):
            for _ in range(int(reads[cycle])):
                expected_delay += ports.schedule(cycle)
            for _ in range(int(write_type[cycle] + extras[cycle])):
                ports.schedule(cycle)

        delay, bookings = port_read_delays(
            reads[None], write_type[None], extras[None], n_ports
        )
        assert delay[0] == expected_delay
        assert bookings[0] == ports.busy_slots

    @pytest.mark.parametrize("n_ports,capacity,deadline", [
        (1, 4, 16), (2, 64, 16), (2, 2, 4), (3, 8, 2),
    ])
    @pytest.mark.parametrize("seed", range(3))
    def test_steal_recursion_matches_schedulers(self, n_ports, capacity, deadline, seed):
        """Replays the exact CmpSimulator port-stealing code path."""
        rng = np.random.default_rng(200 + seed)
        reads = _random_counts(rng, _CYCLES, 0.6)
        write_type = _random_counts(rng, _CYCLES, 0.25)
        extras = _random_counts(rng, _CYCLES, 0.25)

        delay, bookings, stolen, forced = steal_port_recursion(
            reads[None], write_type[None], extras[None],
            n_ports=n_ports, capacity=capacity, deadline=deadline,
        )
        expected = _replay_steal(reads, write_type, extras, n_ports, capacity, deadline)
        assert (delay[0], bookings[0], stolen[0], forced[0]) == expected

    @pytest.mark.parametrize("overloaded", [False, True])
    @pytest.mark.parametrize("seed", range(2))
    def test_steal_recursion_mixed_lanes_match_schedulers(self, overloaded, seed):
        """One recursion over lanes that differ in port count and queue
        bound (cells of different CMPs stacked together): every lane
        equals its own scalar replay.  Overloaded lanes build a backlog
        past the staircase table, so the exact int64 closed form runs."""
        rng = np.random.default_rng(400 + seed)
        lanes = [(1, 4), (2, 64), (2, 2), (4, 8), (4, 64), (1, 64)]
        load = [1.0, 1.0, 1.6, 3.0, 2.0, 0.8]
        if overloaded:
            load[0], load[3] = 12.0, 20.0
        reads = np.stack([_random_counts(rng, _CYCLES, 0.6 * x) for x in load])
        write_type = np.stack([_random_counts(rng, _CYCLES, 0.25 * x) for x in load])
        extras = np.stack([_random_counts(rng, _CYCLES, 0.25 * x) for x in load])
        n_ports = np.array([n for n, _ in lanes])
        capacity = np.array([c for _, c in lanes])

        outputs = steal_port_recursion(
            reads, write_type, extras, n_ports=n_ports, capacity=capacity, deadline=16
        )
        bookings = []
        for lane, (ports, bound) in enumerate(lanes):
            expected = _replay_steal(
                reads[lane], write_type[lane], extras[lane], ports, bound, 16
            )
            assert tuple(out[lane] for out in outputs) == expected, lane
            bookings.append(expected[1])
        if overloaded:
            # Work the ports could not serve within the run is backlog
            # left at its end.
            left = max(b - n * _CYCLES for b, (n, _) in zip(bookings, lanes))
            assert left > _RAMP_TABLE_LIMIT + 100
        else:
            assert max(bookings) < _RAMP_TABLE_LIMIT

    def test_steal_recursion_int64_guard_is_exact(self):
        """Past 2**31 booked slots a lane's state runs in int64.  With a
        zero queue bound every extra overflows and books at once, which
        is exactly the closed-form booking (itself on its int64 path)."""
        rng = np.random.default_rng(7)
        reads = rng.integers(0, 8_000_000, size=(2, 300))
        write_type = rng.integers(0, 8_000_000, size=(2, 300))
        extras = rng.integers(0, 8_000_000, size=(2, 300))
        assert (reads + write_type + extras).sum(axis=1).min() >= 2**31
        delay, bookings, stolen, forced = steal_port_recursion(
            reads, write_type, extras, n_ports=np.array([1, 2]), capacity=0,
            deadline=16,
        )
        for lane, n_ports in enumerate((1, 2)):
            closed_delay, closed_bookings = port_read_delays(
                reads[lane:lane + 1], write_type[lane:lane + 1],
                extras[lane:lane + 1], n_ports,
            )
            assert delay[lane] == closed_delay[0]
            assert bookings[lane] == closed_bookings[0]
        assert stolen.tolist() == [0, 0]
        assert forced.tolist() == extras.sum(axis=1).tolist()

    @pytest.mark.parametrize("seed", range(3))
    def test_bank_delays_match_bank_scheduler(self, seed):
        rng = np.random.default_rng(300 + seed)
        n_banks, busy, n_cores, n_cycles = 4, 3, 2, 120
        events = []   # (cycle, core, rank, bank), in scalar booking order
        for cycle in range(n_cycles):
            for core in range(n_cores):
                for rank, lam in ((0, 0.5), (1, 0.3), (2, 0.3)):
                    for _ in range(rng.poisson(lam)):
                        events.append((cycle, core, rank, int(rng.integers(n_banks))))

        banks = BankScheduler(n_banks, busy)
        expected = np.zeros(n_cores, dtype=np.int64)
        for cycle, core, rank, bank in events:
            delay = banks.schedule(cycle, bank)
            if rank == 0:
                expected[core] += delay

        arrays = np.array(events, dtype=np.int64)
        accesses = BankAccesses(
            n_banks=n_banks,
            trial=np.zeros(len(events), dtype=np.int64),
            core=arrays[:, 1],
            cycle=arrays[:, 0],
            rank=arrays[:, 2].astype(np.int8),
            bank=arrays[:, 3],
            has_extras=True,
        )
        delays = _bank_read_delays(
            accesses, (1, n_cores, n_cycles), busy, {"protected"}
        )["protected"]
        assert delays[0].tolist() == expected.tolist()

        # The unprotected mode must reproduce a replay without the extras.
        banks = BankScheduler(n_banks, busy)
        expected_off = np.zeros(n_cores, dtype=np.int64)
        for cycle, core, rank, bank in events:
            if rank == 2:
                continue
            delay = banks.schedule(cycle, bank)
            if rank == 0:
                expected_off[core] += delay
        delays_off = _bank_read_delays(
            accesses, (1, n_cores, n_cycles), busy, {"off"}
        )["off"]
        assert delays_off[0].tolist() == expected_off.tolist()


class TestBurstChain:
    @pytest.mark.parametrize("burstiness,burst_fraction", [
        (4.0, 0.2), (1.5, 0.25), (3.0, 0.5), (2.0, 0.75), (1.0, 0.4),
    ])
    def test_prefix_scan_matches_scalar_chain(self, burstiness, burst_fraction):
        core = CoreConfig(
            core_type=CoreType.OUT_OF_ORDER, issue_width=2,
            burstiness=burstiness, burst_fraction=burst_fraction,
        )
        cmp_cfg = fat_cmp_config()
        simulator = CmpSimulator(
            type(cmp_cfg)(
                name="t", n_cores=3, core=core, l1d=cmp_cfg.l1d, l2=cmp_cfg.l2
            ),
            get_profile("OLTP"),
            PROTECTION_SCENARIOS["baseline"],
        )
        scalar = simulator._burst_factors(np.random.default_rng(5), _CYCLES, 3)

        # Replay the identical draw stream through the prefix scan.
        rng = np.random.default_rng(5)
        p_enter, p_exit, quiet = burst_parameters(core)
        initial = np.empty(3, dtype=bool)
        draws = np.empty((3, _CYCLES))
        for index in range(3):
            initial[index] = rng.random() < burst_fraction
            draws[index] = rng.random(_CYCLES)
        states = burst_states_from_draws(initial, draws, p_enter, p_exit)
        factors = np.where(states, burstiness, quiet)
        assert np.array_equal(factors, scalar)


class TestMatchedTrials:
    """simulate_matched vs CmpSimulator.run on the identical RNG stream."""

    @pytest.mark.parametrize("cmp_name", ["fat", "lean"])
    @pytest.mark.parametrize("protection_key", list(PROTECTION_SCENARIOS))
    def test_bit_exact_integer_statistics(self, cmp_name, protection_key):
        cmp_cfg = fat_cmp_config() if cmp_name == "fat" else lean_cmp_config()
        profile = get_profile("Ocean")
        protection = PROTECTION_SCENARIOS[protection_key]
        scalar = simulate(cmp_cfg, profile, protection, _CYCLES, seed=23)
        matched = simulate_matched(cmp_cfg, profile, protection, _CYCLES, seed=23)

        # Integer-derived statistics are bit-exact.
        assert matched.port_steals == scalar.port_steals
        assert matched.forced_steals == scalar.forced_steals
        assert matched.l1_breakdown.as_dict() == scalar.l1_breakdown.as_dict()
        assert matched.l2_breakdown.as_dict() == scalar.l2_breakdown.as_dict()
        # Float statistics agree to accumulation-order rounding.
        assert matched.aggregate_ipc == pytest.approx(scalar.aggregate_ipc, rel=1e-12)
        assert matched.per_core_ipc == pytest.approx(scalar.per_core_ipc, rel=1e-12)
        assert matched.l1_port_utilization == pytest.approx(
            scalar.l1_port_utilization, abs=1e-12
        )
        assert matched.l2_bank_utilization == pytest.approx(
            scalar.l2_bank_utilization, abs=1e-12
        )

    @pytest.mark.parametrize("workload", ["OLTP", "DSS", "Web", "Moldyn", "Sparse"])
    def test_bit_exact_across_workloads(self, workload):
        cmp_cfg = lean_cmp_config()
        protection = PROTECTION_SCENARIOS["l1_ps_l2"]
        profile = get_profile(workload)
        scalar = simulate(cmp_cfg, profile, protection, _CYCLES, seed=31)
        matched = simulate_matched(cmp_cfg, profile, protection, _CYCLES, seed=31)
        assert matched.l1_breakdown.as_dict() == scalar.l1_breakdown.as_dict()
        assert matched.l2_breakdown.as_dict() == scalar.l2_breakdown.as_dict()
        assert matched.aggregate_ipc == pytest.approx(scalar.aggregate_ipc, rel=1e-12)

    def test_n_cycles_validation_mirrors_scalar(self):
        with pytest.raises(ValueError, match="at least 100"):
            simulate_matched(
                fat_cmp_config(), get_profile("OLTP"),
                PROTECTION_SCENARIOS["baseline"], 50, seed=0,
            )
