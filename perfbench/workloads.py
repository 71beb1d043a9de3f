"""The engine-backed workloads: seeded inputs, one unit of work, checks.

Every workload turns ``--seed`` into an endless, deterministic stream of
*units* (the experiment specs one closed-loop step submits) and runs
them on a :class:`repro.api.Session` built the way users build one.
The program sees only the generated specs.

==============  =====================================================
fig3_clustered  ``fig3.coverage`` Monte Carlo, default clustered_mbu
                footprints, one worker.  Sparse packed recovery does
                most of the work; the dense path never runs.
dense_faults    ``fig8.yield`` Monte Carlo (iid cells on the 64-row
                SECDED bank) followed by ``fig3.coverage`` with
                ``scenario=burst_column``, one worker.  Most blocks
                are past the sparse break-even, so the uint8 dense
                decoders do the work.
fig5_perf       ``fig5.performance`` on two workers with 64 trials, so
                every grid splits into two 32-trial perf blocks and the
                executor fans out on the blocking path.  The engine is
                not used.
==============  =====================================================
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

#: Trials per fig3 call: 8 engine blocks per scheme.
FIG3_TRIALS = 2048
#: One engine block per fig8 point and per burst_column scheme.
DENSE_TRIALS = 256
#: Two 32-trial perf blocks per grid (``DEFAULT_PERF_BLOCK_SIZE``).
FIG5_TRIALS = 64
#: Shorter than the figure's 6000 cycles so a run holds enough units.
FIG5_CYCLES = 500


@dataclass
class Op:
    """One settled operation: an experiment run or a service submission."""

    latency_s: float
    trials: int
    fingerprint: "str | None"
    path: str = "run"
    error: "str | None" = None
    detail: dict = field(default_factory=dict)


def fingerprint(result) -> str:
    """Digest of everything a result says except its wall-clock telemetry."""
    return hashlib.sha256(result.without_telemetry().to_json().encode()).hexdigest()


def engine_trials(result) -> int:
    """Trials the engine or perf model evaluated to produce ``result``."""
    data = result.data_dict()
    trials = int(result.spec.trials)
    if result.experiment == "fig3.coverage":
        return trials * len(data["estimates"])
    if result.experiment == "fig8.yield":
        return trials * len(data["failing_cells"])
    if result.experiment == "fig5.performance":
        return trials * sum(len(cells) for cells in data["ipc_loss"].values())
    raise ValueError(f"no trial count for {result.experiment}")


def seed_stream(seed: int):
    """Distinct positive call seeds derived from the workload seed."""
    rng = np.random.default_rng(seed)
    seen: set = set()
    while True:
        value = int(rng.integers(1, 2**31 - 1))
        if value not in seen:
            seen.add(value)
            yield value


class SessionWorkload:
    """A closed loop of one client calling ``Session.run``."""

    name = ""
    workers = 1
    units_per_block = 1

    def specs(self, call_seed: int) -> list:
        raise NotImplementedError

    def units(self, seed: int):
        for call_seed in seed_stream(seed):
            yield self.specs(call_seed)

    def warmup_unit(self) -> list:
        """The set-up call: builds the decoder lookup tables (and, on
        two workers, forks the pool) with as little other work as
        possible.  Seed 0 is never drawn by :func:`seed_stream`."""
        from repro.api import ExperimentSpec

        return [ExperimentSpec("fig3.coverage", backend="monte_carlo", trials=256, seed=0)]

    # ------------------------------------------------------------------
    def open(self, workers: "int | None" = None):
        from repro.api import Session

        session = Session(workers=workers or self.workers)
        for spec in self.warmup_unit():
            session.run(spec)
        return session

    def reopen(self, session):
        """The instance a traced replay runs on (the warm one)."""
        return session

    def close(self, session) -> None:
        session.close()

    def run_unit(self, session, unit) -> "list[Op]":
        started = time.perf_counter()
        try:
            results = [session.run(spec) for spec in unit]
        except Exception as exc:  # counted as a failed operation
            return [Op(time.perf_counter() - started, 0, None, error=repr(exc))]
        latency = time.perf_counter() - started
        digest = hashlib.sha256(
            "".join(fingerprint(result) for result in results).encode()
        ).hexdigest()
        return [Op(latency, sum(engine_trials(r) for r in results), digest)]

    # ------------------------------------------------------------------
    def verify(self, instance, units: list, ops: "list[Op]", seed: int) -> "list[str]":
        """Re-run the first unit on a fresh one-worker session: the same
        bytes (for ``fig5_perf`` that also shows the result does not
        depend on the worker count), and engine trials that agree with
        the scalar reference path."""
        from repro import engine

        captured = []
        original = engine.run_experiment

        def capture(*args, **kwargs):
            result = original(*args, **kwargs)
            captured.append((args, kwargs, result))
            return result

        session = self.open(workers=1)
        engine.run_experiment = capture
        try:
            again = self.run_unit(session, units[0])[0]
        finally:
            engine.run_experiment = original
            self.close(session)
        failures = []
        if again.fingerprint != ops[0].fingerprint:
            failures.append(f"{self.name}: unit 0 differs when re-run on one worker")
        return failures + oracle_check(captured, np.random.default_rng(seed))


class Fig3Clustered(SessionWorkload):
    name = "fig3_clustered"

    def specs(self, call_seed: int) -> list:
        from repro.api import ExperimentSpec

        return [
            ExperimentSpec(
                "fig3.coverage", backend="monte_carlo", trials=FIG3_TRIALS, seed=call_seed
            )
        ]


class DenseFaults(SessionWorkload):
    name = "dense_faults"

    def warmup_unit(self) -> list:
        from repro.api import ExperimentSpec

        return super().warmup_unit() + [
            ExperimentSpec(
                "fig8.yield",
                backend="monte_carlo",
                trials=256,
                seed=0,
                params={"failing_cells": [8]},
            )
        ]

    def specs(self, call_seed: int) -> list:
        from repro.api import ExperimentSpec

        return [
            ExperimentSpec(
                "fig8.yield", backend="monte_carlo", trials=DENSE_TRIALS, seed=call_seed
            ),
            ExperimentSpec(
                "fig3.coverage",
                backend="monte_carlo",
                trials=DENSE_TRIALS,
                seed=call_seed,
                params={"scenario": "burst_column"},
            ),
        ]


class Fig5Perf(SessionWorkload):
    name = "fig5_perf"
    workers = 2

    def warmup_unit(self) -> list:
        from repro.api import ExperimentSpec

        return [
            ExperimentSpec(
                "fig5.performance",
                backend="monte_carlo",
                trials=FIG5_TRIALS,
                seed=0,
                params={"n_cycles": 100},
            )
        ]

    def specs(self, call_seed: int) -> list:
        from repro.api import ExperimentSpec

        return [
            ExperimentSpec(
                "fig5.performance",
                backend="monte_carlo",
                trials=FIG5_TRIALS,
                seed=call_seed,
                params={"n_cycles": FIG5_CYCLES},
            )
        ]


# ----------------------------------------------------------------------
# scalar oracle
# ----------------------------------------------------------------------

#: Trials per engine call checked against the scalar path (a scalar
#: trial on the 256-row Fig. 3 bank costs 40-110 ms).
ORACLE_TRIALS = 4


def oracle_check(captured: list, rng: np.random.Generator) -> "list[str]":
    """Compare a seeded sub-sample of every captured engine call's
    trials with :func:`repro.engine.scalar_trial_verdict`.

    The engine's documented contract (``repro.engine.batch``) is exact
    agreement on CORRECTED and SILENT; on 2D schemes DETECTED is an
    upper bound, because two best-effort scalar heuristics are not
    vectorized.  One-dimensional schemes must agree on every verdict.
    """
    from repro.engine import (
        VERDICT_DETECTED,
        BlockStreams,
        TrialCounts,
        run_experiment,
        scalar_trial_verdict,
    )
    from repro.engine.rng import DEFAULT_BLOCK_SIZE

    failures = []
    for index, (args, kwargs, result) in enumerate(captured):
        spec, model, n_trials, seed = args[:4]
        block_size = kwargs.get("block_size", DEFAULT_BLOCK_SIZE)
        verdicts = run_experiment(
            spec, model, n_trials, seed, block_size=block_size, collect_verdicts=True
        ).verdicts
        if TrialCounts.from_verdicts(verdicts) != result.counts:
            failures.append(f"oracle: verdict counts of call {index} depend on collection")
        # One trial of every verdict class present, then seeded fill.
        chosen = {int(rng.choice(np.flatnonzero(verdicts == v))) for v in np.unique(verdicts)}
        while len(chosen) < min(ORACLE_TRIALS, n_trials):
            chosen.add(int(rng.integers(n_trials)))
        blocks: dict = {}
        for trial in sorted(chosen):
            block, offset = divmod(trial, block_size)
            if block not in blocks:
                blocks[block] = model.sample_block(BlockStreams(seed, block), block_size, spec)
            masks = blocks[block]
            expected = scalar_trial_verdict(spec, masks[offset])
            got = int(verdicts[trial])
            bounded = spec.is_two_dimensional and got == VERDICT_DETECTED
            if got != expected and not bounded:
                failures.append(
                    f"oracle: call {index} trial {trial}: engine {got}, scalar {expected}"
                )
    return failures


WORKLOADS = {w.name: w for w in (Fig3Clustered, DenseFaults, Fig5Perf)}
