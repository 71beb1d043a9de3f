"""Vectorized bursty arrival generation for the performance kernel.

The scalar :class:`repro.cmp.simulator.CmpSimulator` draws, per core, a
two-state Markov burst chain (persistent ~32-cycle phases) and then
per-cycle Poisson event counts for seven access categories at the
chain-modulated rate.  This module produces the *same stochastic
process* as ``(trials, cores, cycles)`` batches in closed form:

* the burst chain is evaluated without a per-cycle Python loop by
  collapsing each transition into one of three per-cycle actions —
  **toggle** (uniform draw below both transition probabilities flips
  the phase), **reset** (the draw lands between them, forcing a known
  phase) and **hold** — and resolving every cycle's state from the last
  reset index plus the parity of toggles since (a prefix-scan, see
  ``DESIGN.md``);
* the Poisson counts for all categories are drawn as whole-block
  arrays.

Given the same uniform draws, :func:`burst_states_from_draws` is
**bit-exact** with the scalar chain; :func:`matched_arrivals` replays
the scalar simulator's exact per-trial RNG call order so a vectorized
trial can be compared 1:1 against ``CmpSimulator.run`` (see
:mod:`repro.perf.kernel`).  :func:`sample_arrivals` instead draws from
two independent block-keyed engine lanes (burst and events), which is
what makes batched results worker- and chunk-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cmp.config import CmpConfig, CoreConfig
from repro.workloads.profiles import WorkloadProfile

__all__ = [
    "ACCESS_CATEGORIES",
    "MEAN_PHASE_CYCLES",
    "Arrivals",
    "burst_parameters",
    "burst_states_from_draws",
    "category_rates",
    "sample_arrivals",
    "matched_arrivals",
]

#: Mean burst/quiet phase length in cycles (the scalar model's constant).
MEAN_PHASE_CYCLES = 32

#: Access-rate categories in the exact order the scalar simulator draws
#: them.  The order is part of the matched-trial RNG contract: changing
#: it would shift every later draw of a replayed trial.
ACCESS_CATEGORIES = (
    "l1_reads",
    "l1_writes",
    "l1_fill_evict",
    "l1_inst",
    "l2_reads",
    "l2_writes",
    "l2_fill_evict",
)


@dataclass(frozen=True)
class Arrivals:
    """Per-category event counts for a batch of trials.

    Every array has shape ``(trials, n_cores, n_cycles)`` and holds
    small non-negative integers (Poisson counts).
    """

    counts: dict

    def __getitem__(self, category: str) -> np.ndarray:
        return self.counts[category]

    @property
    def n_trials(self) -> int:
        return self.counts[ACCESS_CATEGORIES[0]].shape[0]

    def sliced(self, start: int, stop: int) -> "Arrivals":
        """The trials ``[start, stop)`` of this batch (no copies)."""
        return Arrivals({k: v[start:stop] for k, v in self.counts.items()})


def burst_parameters(core: CoreConfig) -> tuple[float, float, float]:
    """``(p_enter, p_exit, quiet_factor)`` of the two-state burst chain.

    Identical to the scalar simulator's derivation: bursts last
    ~:data:`MEAN_PHASE_CYCLES` cycles, the stationary burst share is
    ``burst_fraction``, and the quiet factor renormalizes so the
    long-run mean rate matches the workload profile.
    """
    quiet = (1.0 - core.burst_fraction * core.burstiness) / (1.0 - core.burst_fraction)
    quiet = max(quiet, 0.0)
    p_enter = core.burst_fraction / MEAN_PHASE_CYCLES / max(1.0 - core.burst_fraction, 1e-9)
    p_exit = 1.0 / MEAN_PHASE_CYCLES
    return p_enter, p_exit, quiet


def burst_states_from_draws(
    initial: np.ndarray, draws: np.ndarray, p_enter: float, p_exit: float
) -> np.ndarray:
    """Phase states ``s_t`` of the burst chain, resolved by prefix scan.

    ``initial`` holds ``s_0`` (boolean, shape ``draws.shape[:-1]``);
    ``draws`` the per-transition uniforms ``u_t``.  The chain
    ``s_{t+1} = (u_t >= p_exit) if s_t else (u_t < p_enter)`` is, per
    cycle, a *toggle* (``u < min(p_enter, p_exit)``), a *reset* to the
    state favoured by the larger probability (``min <= u < max``) or a
    *hold* — so ``s_t`` is the last reset value XOR the parity of
    toggles since, computable with ``cumsum`` + ``maximum.accumulate``.
    Bit-exact with the scalar per-cycle loop on the same draws.
    """
    lo = min(p_enter, p_exit)
    hi = max(p_enter, p_exit)
    reset_value = p_enter > p_exit
    toggle = draws < lo
    reset = ~toggle & (draws < hi)
    n_cycles = draws.shape[-1]

    # cum[..., t] = number of toggles among u_0..u_t.
    cum = np.cumsum(toggle, axis=-1, dtype=np.int32)
    indices = np.where(reset, np.arange(n_cycles), -1)
    last_reset = np.maximum.accumulate(indices, axis=-1)
    cum_at_reset = np.take_along_axis(cum, np.maximum(last_reset, 0), axis=-1)
    # after[..., t] = s_{t+1}: toggles since the last reset (or since the
    # initial state when no reset happened yet) decide the parity.
    after = np.where(
        last_reset >= 0,
        reset_value ^ (((cum - cum_at_reset) & 1) != 0),
        initial[..., None] ^ ((cum & 1) != 0),
    )
    states = np.empty(draws.shape, dtype=bool)
    states[..., 0] = initial
    states[..., 1:] = after[..., :-1]
    return states


def category_rates(cmp_cfg: CmpConfig, profile: WorkloadProfile) -> dict:
    """Per-category mean accesses per 100 cycles per core (scaled)."""
    l1 = cmp_cfg.core.l1_traffic_scale
    l2 = cmp_cfg.core.l2_traffic_scale
    return {
        "l1_reads": profile.l1d_reads * l1,
        "l1_writes": profile.l1d_writes * l1,
        "l1_fill_evict": profile.l1d_fill_evict * l1,
        "l1_inst": profile.l1i_reads * l1,
        "l2_reads": profile.l2_reads * l2,
        "l2_writes": profile.l2_writes * l2,
        "l2_fill_evict": profile.l2_fill_evict * l2,
    }


def _poisson_counts(
    rng: np.random.Generator, rate_per_100: float, factors: np.ndarray
) -> np.ndarray:
    # Rates and burst factors are non-negative by construction (the
    # quiet factor is clamped at zero), so the scalar model's defensive
    # clip is the identity here and the draws stay stream-identical.
    lam = rate_per_100 / 100.0 * factors
    return rng.poisson(lam).astype(np.int16)


def sample_arrivals(
    rng_burst: np.random.Generator,
    rng_events: np.random.Generator,
    count: int,
    cmp_cfg: CmpConfig,
    profile: WorkloadProfile,
    n_cycles: int,
) -> Arrivals:
    """Draw one batch of ``count`` trials from two independent streams.

    ``rng_burst`` feeds the burst chain, ``rng_events`` the Poisson
    category counts, so the two populations come from separate engine
    lanes: reconfiguring one can never shift the other's draws.
    """
    core = cmp_cfg.core
    p_enter, p_exit, quiet = burst_parameters(core)
    initial = rng_burst.random((count, cmp_cfg.n_cores)) < core.burst_fraction
    draws = rng_burst.random((count, cmp_cfg.n_cores, n_cycles))
    states = burst_states_from_draws(initial, draws, p_enter, p_exit)
    factors = np.where(states, core.burstiness, quiet)
    rates = category_rates(cmp_cfg, profile)
    # Instruction-fetch reads are never booked on any modelled resource
    # and reported as zero (exactly as the scalar does); the batch
    # sampler skips the draw entirely.  The matched replay keeps it,
    # because the scalar stream's position depends on it.
    counts = {
        name: _poisson_counts(rng_events, rates[name], factors)
        for name in ACCESS_CATEGORIES
        if name != "l1_inst"
    }
    return Arrivals(counts)


def matched_arrivals(
    rng: np.random.Generator,
    cmp_cfg: CmpConfig,
    profile: WorkloadProfile,
    n_cycles: int,
) -> Arrivals:
    """Replay the scalar simulator's exact arrival draws for one trial.

    Makes the identical RNG calls in the identical order as
    ``CmpSimulator.run`` — per core one scalar uniform (initial phase)
    plus ``n_cycles`` transition uniforms, then one Poisson array per
    category — so every count equals the scalar run's bit for bit.  The
    returned batch has a single trial (leading axis of size 1) and
    leaves ``rng`` positioned exactly where the scalar simulator's
    cycle loop would start drawing L2 bank indices.
    """
    core = cmp_cfg.core
    n_cores = cmp_cfg.n_cores
    p_enter, p_exit, quiet = burst_parameters(core)
    initial = np.empty(n_cores, dtype=bool)
    draws = np.empty((n_cores, n_cycles), dtype=float)
    for core_index in range(n_cores):
        initial[core_index] = rng.random() < core.burst_fraction
        draws[core_index] = rng.random(n_cycles)
    states = burst_states_from_draws(initial, draws, p_enter, p_exit)
    factors = np.where(states, core.burstiness, quiet)
    rates = category_rates(cmp_cfg, profile)
    counts = {
        name: _poisson_counts(rng, rates[name], factors)[None, ...]
        for name in ACCESS_CATEGORIES
    }
    return Arrivals(counts)
