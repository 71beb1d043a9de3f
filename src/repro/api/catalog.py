"""The standard experiment catalog: every paper figure, plus sweeps.

Importing this module populates the registry (:mod:`repro.api.registry`)
with one entry per figure of the paper's evaluation and a set of
parameterized sweep experiments.  Each implementation takes an
:class:`~repro.api.session.ExperimentContext` and returns a
:class:`~repro.api.result.Result` whose ``data`` payload has the
figure's natural shape (JSON-pure, string keys) and whose ``series``
normalize the same numbers for plotting/CSV export.
"""

from __future__ import annotations

from repro.cmp import (
    PROTECTION_SCENARIOS,
    ProtectionConfig,
    fat_cmp_config,
    lean_cmp_config,
)
from repro.coding import code_overhead, standard_codes
from repro.core.coverage import (
    FIG3_MC_FOOTPRINTS,
    analyze_scheme,
    fig3_schemes,
)
from repro.core.schemes import CodingScheme, l1_schemes, l2_schemes
from repro.errors.rates import PAPER_HARD_ERROR_RATES, PAPER_SOFT_ERROR_RATE
from repro.reliability import (
    FieldReliabilityModel,
    MemoryGeometry,
    ReliabilityScenario,
    YieldModel,
)
from repro.vlsi import OptimizationTarget, SramArrayModel
from repro.workloads import PAPER_WORKLOADS

from .registry import experiment
from .result import Series
from .spec import RARE_EVENT_PARAMS, SpecError

__all__ = ["FIG3_MC_FOOTPRINTS", "named_schemes"]

#: The two array design points used throughout Figs. 1, 2 and 7.
_L1_WORDS = 64 * 1024 * 8 // 64          # 64kB of 64-bit words
_L2_WORDS = 4 * 1024 * 1024 * 8 // 256   # 4MB of 256-bit words

def named_schemes() -> dict[str, CodingScheme]:
    """Flat lookup table of every standard scheme, for sweep params.

    Fig. 3 keys are exposed as-is; the Fig. 7 L1/L2 sets are prefixed
    (``l1.baseline``, ``l2.dected``, ...).
    """
    schemes = dict(fig3_schemes())
    schemes.update({f"l1.{key}": s for key, s in l1_schemes().items()})
    schemes.update({f"l2.{key}": s for key, s in l2_schemes().items()})
    return schemes


def _mapping_series(name: str, mapping: dict, units: str = "") -> Series:
    return Series(
        name=name,
        x=tuple(mapping),
        y=tuple(mapping.values()),
        units=units,
    )


def _estimate_payload(estimate) -> dict:
    """JSON-pure form of a :class:`repro.engine.CoverageEstimate`."""
    return {
        "n": estimate.n,
        "successes": estimate.successes,
        "confidence": estimate.confidence,
        "point": estimate.point,
        "lower": estimate.lower,
        "upper": estimate.upper,
    }


def _mean_payload(estimate) -> dict:
    """JSON-pure form of a :class:`repro.engine.MeanEstimate`."""
    import dataclasses

    return dataclasses.asdict(estimate)


# ----------------------------------------------------------------------
# Figure 1 — per-word ECC storage and energy overheads
# ----------------------------------------------------------------------

@experiment(
    "fig1.storage",
    description="Extra memory storage (%) per code, 64b and 256b words",
    figure="Fig. 1(b)",
)
def _fig1_storage(ctx):
    data = {
        str(word_bits): {
            name: 100.0 * code_overhead(code).storage_overhead
            for name, code in standard_codes(word_bits).items()
        }
        for word_bits in (64, 256)
    }
    series = [
        _mapping_series(f"{bits}b word", values, units="%")
        for bits, values in data.items()
    ]
    return ctx.result(data, series)


@experiment(
    "fig1.energy",
    description="Extra energy per read (%) per code vs unprotected array",
    figure="Fig. 1(c)",
)
def _fig1_energy(ctx):
    design_points = {
        "64b word / 64kB array": (64, _L1_WORDS),
        "256b word / 4MB array": (256, _L2_WORDS),
    }
    data: dict[str, dict[str, float]] = {}
    for label, (word_bits, n_words) in design_points.items():
        unprotected = SramArrayModel(word_bits, 0, n_words).read_energy()
        per_code: dict[str, float] = {}
        for name, code in standard_codes(word_bits).items():
            overhead = code_overhead(code)
            protected = SramArrayModel(word_bits, code.check_bits, n_words).read_energy()
            extra = protected + overhead.coding_energy - unprotected
            per_code[name] = 100.0 * extra / unprotected
        data[label] = per_code
    series = [_mapping_series(label, values, units="%") for label, values in data.items()]
    return ctx.result(data, series)


# ----------------------------------------------------------------------
# Figure 2 — energy vs physical bit interleaving degree
# ----------------------------------------------------------------------

@experiment(
    "fig2.interleaving",
    description="Normalized read energy vs interleaving degree, per Cacti target",
    figure="Fig. 2(b)/(c)",
    defaults={"degrees": (1, 2, 4, 8, 16)},
)
def _fig2_interleaving(ctx):
    degrees = tuple(int(d) for d in ctx.param("degrees"))
    design_points = {
        "64kB cache (72,64)": (64, 8, _L1_WORDS),
        "4MB cache (266,256)": (256, 10, _L2_WORDS),
    }
    targets = {
        "Delay+Area Opt": OptimizationTarget.DELAY_AREA,
        "Power+Delay+Area Opt": OptimizationTarget.BALANCED,
        "Power-only Opt": OptimizationTarget.POWER,
    }
    data: dict[str, dict[str, list[float]]] = {}
    series = []
    for label, (data_bits, check_bits, n_words) in design_points.items():
        per_target: dict[str, list[float]] = {}
        for target_label, target in targets.items():
            energies = []
            for degree in degrees:
                model = SramArrayModel(
                    data_bits, check_bits, n_words, interleave_degree=degree,
                    optimization=target,
                )
                energies.append(model.read_energy())
            base = energies[0]
            normalized = [value / base for value in energies]
            per_target[target_label] = normalized
            series.append(
                Series(f"{label} — {target_label}", y=normalized, x=degrees)
            )
        data[label] = per_target
    return ctx.result(data, series, meta={"degrees": list(degrees)})


# ----------------------------------------------------------------------
# Figure 3 — coverage vs storage for the 256x256 example array
# ----------------------------------------------------------------------

@experiment(
    "fig3.coverage",
    backend="analytical",
    description="Correctable cluster footprint + storage overhead per scheme",
    figure="Fig. 3",
    defaults={"array_rows": 256, "array_data_columns": 256},
)
def _fig3_coverage(ctx):
    rows = int(ctx.param("array_rows"))
    columns = int(ctx.param("array_data_columns"))
    reports = {
        key: analyze_scheme(scheme, array_rows=rows, array_data_columns=columns)
        for key, scheme in fig3_schemes().items()
    }
    data = {
        key: {
            "scheme_name": report.scheme_name,
            "array_rows": report.array_rows,
            "array_data_columns": report.array_data_columns,
            "correctable_rows": report.correctable_rows,
            "correctable_columns": report.correctable_columns,
            "storage_overhead": report.storage_overhead,
        }
        for key, report in reports.items()
    }
    keys = tuple(data)
    series = [
        Series("correctable_rows", x=keys, y=[data[k]["correctable_rows"] for k in keys]),
        Series(
            "correctable_columns",
            x=keys,
            y=[data[k]["correctable_columns"] for k in keys],
        ),
        Series(
            "storage_overhead",
            x=keys,
            y=[100.0 * data[k]["storage_overhead"] for k in keys],
            units="%",
        ),
    ]
    return ctx.result(data, series)


def _scenario_model(ctx, *, default_overrides: "dict | None" = None):
    """Build the error-scenario model a Monte Carlo experiment asked for.

    The ``scenario`` param names any registered scenario
    (:func:`repro.scenarios.list_scenarios`); ``scenario_params`` carries
    its configuration as a mapping.  ``default_overrides`` lets an
    experiment route its own legacy params (e.g. ``footprints``) into
    the scenario when the spec does not override them.
    """
    from repro.scenarios import make_scenario

    name = str(ctx.param("scenario"))
    overrides = dict(default_overrides or {})
    overrides.update(dict(ctx.param("scenario_params") or {}))
    return make_scenario(name, **overrides)


#: The rare-event estimation knobs (:data:`repro.api.spec.RARE_EVENT_PARAMS`):
#: ``estimator`` selects the sampling strategy,
#: ``tolerance``/``tolerance_relative`` switch the fixed trial budget for
#: a sequential CI-half-width stopping rule, ``tilt``/``shift`` configure
#: the importance-sampling proposal and ``strata``/``allocation`` the
#: stratified partition.
_RARE_KNOBS = RARE_EVENT_PARAMS

_RARE_ESTIMATORS = ("plain", "tilted", "stratified")


def _rare_config(ctx) -> "dict | None":
    """Parse and cross-validate the rare-event knobs of a spec.

    Returns ``None`` when the spec sets none of them; the caller must
    then take its historical plain path untouched (same engine calls,
    same cache keys, byte-identical results).  Otherwise returns a dict
    with every knob resolved, after rejecting combinations that would
    silently ignore a param.
    """
    explicit = set(ctx.spec.param_dict())
    if not explicit.intersection(_RARE_KNOBS):
        return None
    experiment = ctx.spec.experiment
    estimator = str(ctx.param("estimator", "plain"))
    if estimator not in _RARE_ESTIMATORS:
        raise SpecError(
            f"{experiment}: estimator must be one of "
            f"{', '.join(_RARE_ESTIMATORS)}, got {estimator!r}"
        )
    tolerance = ctx.param("tolerance")
    if tolerance is not None:
        tolerance = float(tolerance)
        if not tolerance > 0:
            raise SpecError(
                f"{experiment}: tolerance must be positive, got {tolerance}"
            )
    if "tolerance_relative" in explicit and tolerance is None:
        raise SpecError(
            f"{experiment}: tolerance_relative needs a tolerance to qualify"
        )
    relative = bool(ctx.param("tolerance_relative", False))

    def _reject_foreign(names: tuple, wanted: str) -> None:
        wrong = sorted(explicit.intersection(names))
        if wrong:
            raise SpecError(
                f"{experiment}: param(s) {', '.join(wrong)} only apply with "
                f"estimator={wanted!r}, got {estimator!r}"
            )

    if estimator != "tilted":
        _reject_foreign(("tilt", "shift"), "tilted")
    if estimator != "stratified":
        _reject_foreign(("strata", "allocation"), "stratified")
    if estimator == "stratified" and tolerance is not None:
        raise SpecError(
            f"{experiment}: sequential stopping (tolerance) does not compose "
            "with the stratified estimator; drop one of the two"
        )
    allocation = str(ctx.param("allocation", "proportional"))
    from repro.engine import ALLOCATION_MODES

    if allocation not in ALLOCATION_MODES:
        raise SpecError(
            f"{experiment}: allocation must be one of "
            f"{', '.join(ALLOCATION_MODES)}, got {allocation!r}"
        )
    return {
        "estimator": estimator,
        "tolerance": tolerance,
        "relative": relative,
        "tilt": float(ctx.param("tilt", 0.0)),
        "shift": int(ctx.param("shift", 0)),
        "strata": ctx.param("strata", 4),
        "allocation": allocation,
    }


def _tilted_variant(ctx, model, tilt: float, shift: int):
    """The importance-sampling (tilted-law) twin of a nominal scenario.

    Only the scenarios with a tractable likelihood ratio have one:
    ``clustered_mbu`` (footprint-area tilting) and ``hard_fault_map``
    (exponential Poisson tilting, plus an optional count ``shift``).
    """
    from repro.scenarios import (
        TiltedClusteredMbuScenario,
        TiltedHardFaultMapScenario,
    )

    kind = model.to_key().get("model")
    if kind == "cluster_distribution":
        if getattr(model, "spread", 0.0):
            raise SpecError(
                f"{ctx.spec.experiment}: estimator='tilted' does not support "
                "the clustered_mbu spread knob (the diffusion step has no "
                "closed-form likelihood ratio)"
            )
        if shift:
            raise SpecError(
                f"{ctx.spec.experiment}: shift only applies to count-based "
                "scenarios (hard_fault_map); clustered_mbu tilts footprint "
                "area instead"
            )
        return TiltedClusteredMbuScenario(footprints=model.footprints, tilt=tilt)
    if kind == "hard_fault_map":
        return TiltedHardFaultMapScenario(
            defect_density=model.defect_density, tilt=tilt, shift=shift
        )
    raise SpecError(
        f"{ctx.spec.experiment}: estimator='tilted' supports the "
        f"clustered_mbu and hard_fault_map scenarios, not {kind!r}"
    )


def _strata_for(ctx, model, strata, engine_spec) -> list:
    """Partition a scenario's fault law into engine-ready strata.

    ``clustered_mbu`` splits by drawn footprint (the mixture weights are
    the stratum probabilities, exactly); ``hard_fault_map`` splits the
    Poisson fault count into ``strata`` bands — singletons ``0..n-2``
    plus one open tail band, whose conditional laws are truncated
    Poissons (:class:`repro.scenarios.FaultCountBandScenario`).
    """
    from repro.engine import Stratum
    from repro.scenarios import (
        FaultCountBandScenario,
        make_scenario,
        poisson_band_probability,
    )

    kind = model.to_key().get("model")
    if kind == "cluster_distribution":
        if getattr(model, "spread", 0.0):
            raise SpecError(
                f"{ctx.spec.experiment}: estimator='stratified' does not "
                "support the clustered_mbu spread knob (diffusion mixes the "
                "footprint strata)"
            )
        if "strata" in ctx.spec.param_dict():
            raise SpecError(
                f"{ctx.spec.experiment}: clustered_mbu stratifies by its own "
                "footprint mixture; the strata band count only applies to "
                "hard_fault_map"
            )
        total = sum(weight for _shape, weight in model.footprints)
        return [
            Stratum(
                name=f"{height}x{width}",
                probability=weight / total,
                model=make_scenario("fixed_cluster", height=height, width=width),
            )
            for (height, width), weight in model.footprints
        ]
    if kind == "hard_fault_map":
        n_bands = int(strata)
        if n_bands < 2:
            raise SpecError(
                f"{ctx.spec.experiment}: strata must be >= 2 fault-count "
                f"bands, got {n_bands}"
            )
        lam = model.defect_density * engine_spec.rows * engine_spec.row_bits
        result = []
        for k in range(n_bands):
            k_min = k
            k_max = k if k < n_bands - 1 else None
            label = f"k={k}" if k_max is not None else f"k>={k}"
            result.append(
                Stratum(
                    name=label,
                    probability=poisson_band_probability(lam, k_min, k_max),
                    model=FaultCountBandScenario(
                        defect_density=model.defect_density,
                        k_min=k_min,
                        k_max=k_max,
                    ),
                )
            )
        return result
    raise SpecError(
        f"{ctx.spec.experiment}: estimator='stratified' supports the "
        f"clustered_mbu and hard_fault_map scenarios, not {kind!r}"
    )


def _rare_estimate(ctx, engine_spec, model, rare: dict, *, seed=None):
    """Run one engine point under the rare-event config.

    Returns ``(payload, counts)``: a JSON-pure estimate payload (always
    carrying ``point``/``lower``/``upper``/``estimator``) and the raw
    verdict counts dict where the estimator produces one (``None`` for
    stratified runs, which aggregate per stratum).
    """
    estimator = rare["estimator"]
    if estimator == "stratified":
        strata = _strata_for(ctx, model, rare["strata"], engine_spec)
        combined = ctx.run_engine_stratified(
            engine_spec, strata, seed=seed, allocation=rare["allocation"]
        )
        payload = {
            "estimator": "stratified",
            "allocation": rare["allocation"],
            "n": combined.n,
            "confidence": combined.confidence,
            "point": combined.point,
            "std_error": combined.std_error,
            "lower": combined.lower,
            "upper": combined.upper,
            "strata": list(combined.strata),
        }
        return payload, None

    run_model = (
        _tilted_variant(ctx, model, rare["tilt"], rare["shift"])
        if estimator == "tilted"
        else model
    )
    if rare["tolerance"] is not None:
        result = ctx.run_engine_sequential(
            engine_spec,
            run_model,
            tolerance=rare["tolerance"],
            relative=rare["relative"],
            seed=seed,
        )
    else:
        result = ctx.run_engine(engine_spec, run_model, seed=seed)
    counts = result.counts.as_dict()
    if result.is_weighted:
        estimate = result.weighted_estimate("corrected", ctx.confidence)
        payload = {
            "estimator": "tilted",
            "tilt": rare["tilt"],
            "shift": rare["shift"],
            "n": estimate.n,
            "confidence": estimate.confidence,
            "point": estimate.point,
            "std_error": estimate.std_error,
            "lower": estimate.lower,
            "upper": estimate.upper,
            "ess": estimate.ess,
        }
    else:
        payload = dict(_estimate_payload(result.estimate(ctx.confidence)))
        payload["estimator"] = "plain"
    if rare["tolerance"] is not None:
        payload["tolerance"] = rare["tolerance"]
        payload["tolerance_relative"] = rare["relative"]
        payload["realized_trials"] = int(result.n_trials)
    return payload, counts


def _reject_unused_model_params(ctx, selector: str, chosen: str, names: tuple) -> None:
    """Fail hard when a spec sets params the chosen scenario ignores.

    Mirrors the Session-level contract for the statistical knobs: a
    param that does not influence the run must not silently enter the
    result's provenance hash.
    """
    explicit = set(ctx.spec.param_dict())
    unused = sorted(explicit.intersection(names))
    if unused:
        raise SpecError(
            f"{ctx.spec.experiment}: param(s) {', '.join(unused)} have no "
            f"effect with {selector}={chosen!r}; configure the scenario "
            "via scenario_params instead"
        )


@experiment(
    "fig3.coverage",
    backend="monte_carlo",
    defaults={
        "trials": 2048,
        "seed": 2007,
        "scenario": "clustered_mbu",
        "footprints": FIG3_MC_FOOTPRINTS,
        "array_rows": 256,
        "array_data_columns": 256,
    },
    params=("scenario_params",) + _RARE_KNOBS,
)
def _fig3_coverage_mc(ctx):
    from repro.engine import EngineSpec, has_vectorized_decoder

    rows = int(ctx.param("array_rows"))
    columns = int(ctx.param("array_data_columns"))
    rare = _rare_config(ctx)
    # The default scenario/footprints pair reconstructs the exact model
    # (same draws, same engine cache key) this experiment ran before the
    # scenario subsystem existed.
    defaults = {}
    if str(ctx.param("scenario")) == "clustered_mbu":
        defaults["footprints"] = tuple(ctx.param("footprints"))
    else:
        _reject_unused_model_params(
            ctx, "scenario", str(ctx.param("scenario")), ("footprints",)
        )
    model = _scenario_model(ctx, default_overrides=defaults)
    estimates: dict[str, dict] = {}
    skipped: list[str] = []
    for key, scheme in fig3_schemes().items():
        engine_spec = EngineSpec.from_scheme(scheme, rows=rows)
        if not has_vectorized_decoder(engine_spec):
            # Scheme whose horizontal code has no vectorized decoder
            # (OECNED); skip it rather than fall back to the slow path.
            skipped.append(key)
            continue
        expected = scheme.data_bits * scheme.interleave_degree
        if columns != expected:
            raise SpecError(
                "array_data_columns must equal data_bits * "
                f"interleave_degree ({expected}) for the bit-accurate "
                "engine geometry"
            )
        if rare is None:
            result = ctx.run_engine(engine_spec, model)
            estimates[key] = _estimate_payload(result.estimate(ctx.confidence))
        else:
            payload, _counts = _rare_estimate(ctx, engine_spec, model, rare)
            estimates[key] = payload
    keys = tuple(estimates)
    series = [
        Series(
            "coverage",
            x=keys,
            y=[estimates[k]["point"] for k in keys],
            lower=[estimates[k]["lower"] for k in keys],
            upper=[estimates[k]["upper"] for k in keys],
        )
    ]
    return ctx.result(
        {"estimates": estimates, "skipped": skipped, "scenario": model.to_key()},
        series,
    )


# ----------------------------------------------------------------------
# Figures 5 and 6 — CMP performance and access breakdowns
# ----------------------------------------------------------------------

def _cmp_configs():
    return {"fat": fat_cmp_config(), "lean": lean_cmp_config()}


def _paper_cells():
    """The Fig. 5/6 (CMP, workload) cells, CMP-major."""
    return [
        (cmp_cfg, profile)
        for cmp_cfg in _cmp_configs().values()
        for profile in PAPER_WORKLOADS.values()
    ]


def _run_perf_grid(ctx, cells, protections, n_cycles):
    """One replicated performance pass over every ``(CMP, workload)``
    cell of a figure, under the session's resources."""
    from repro.perf import run_performance_grid

    return run_performance_grid(
        cells,
        protections,
        n_cycles=n_cycles,
        n_trials=ctx.trials,
        seed=ctx.seed,
        cache=ctx.session.cache,
        executor=ctx.session.executor,
    )


@experiment(
    "fig5.performance",
    backend="monte_carlo",
    description="IPC loss (%) per CMP, workload and protection scenario",
    figure="Fig. 5",
    defaults={"trials": 32, "seed": 7, "n_cycles": 6_000},
)
def _fig5_performance(ctx):
    """Replicated matched-pair IPC-loss measurements (``repro.perf``).

    Every (CMP, workload) cell runs ``trials`` independent replicate
    trials of the vectorized contention model; the baseline and all
    four protection bars of a cell share each trial's draws, so the
    per-trial loss is a paired difference.  ``data["ipc_loss"]`` keeps
    the legacy ``{cmp: {workload: {scenario: loss%}}}`` shape;
    ``data["intervals"]`` adds the normal confidence intervals the
    scalar single-seed pipeline could not provide.
    """
    from repro.engine import MeanEstimate
    from repro.perf import paired_loss_percent

    n_cycles = int(ctx.param("n_cycles"))
    scenarios = ("l1", "l1_ps", "l2", "l1_ps_l2")
    grid = {"baseline": PROTECTION_SCENARIOS["baseline"]}
    grid.update({key: PROTECTION_SCENARIOS[key] for key in scenarios})
    grids = iter(_run_perf_grid(ctx, _paper_cells(), grid, n_cycles))
    data: dict[str, dict[str, dict[str, float]]] = {}
    intervals: dict[str, dict[str, dict[str, dict]]] = {}
    for cmp_name in _cmp_configs():
        per_workload: dict[str, dict[str, float]] = {}
        per_workload_ci: dict[str, dict[str, dict]] = {}
        for workload in PAPER_WORKLOADS:
            results = next(grids)
            baseline = results["baseline"].aggregate_ipc
            losses = {}
            cis = {}
            for key in scenarios:
                per_trial = paired_loss_percent(
                    baseline, results[key].aggregate_ipc
                )
                estimate = MeanEstimate.from_samples(per_trial, ctx.confidence)
                # Per-trial losses are structurally non-negative (a
                # protected run on the same draws can only add delay),
                # so the mean needs no clipping and always agrees with
                # its interval payload.
                losses[key] = estimate.mean
                cis[key] = _mean_payload(estimate)
            per_workload[workload] = losses
            per_workload_ci[workload] = cis
        data[cmp_name] = per_workload
        intervals[cmp_name] = per_workload_ci
    workloads = tuple(PAPER_WORKLOADS)
    series = [
        Series(
            f"{cmp_name}:{scenario}",
            x=workloads,
            y=[data[cmp_name][w][scenario] for w in workloads],
            lower=[intervals[cmp_name][w][scenario]["lower"] for w in workloads],
            upper=[intervals[cmp_name][w][scenario]["upper"] for w in workloads],
            units="% IPC loss",
        )
        for cmp_name in data
        for scenario in scenarios
    ]
    payload = {
        "ipc_loss": data,
        "intervals": intervals,
        "trials": int(ctx.trials),
    }
    return ctx.result(payload, series, meta={"n_cycles": n_cycles})


@experiment(
    "fig6.access_breakdown",
    backend="monte_carlo",
    description="Cache accesses per 100 cycles, broken down by type",
    figure="Fig. 6",
    defaults={"trials": 32, "seed": 7, "n_cycles": 6_000},
)
def _fig6_access_breakdown(ctx):
    """Replicated access-breakdown measurements (``repro.perf``).

    ``data["breakdowns"]`` keeps the legacy ``{cmp: {workload: {level:
    {component: accesses/100cy}}}}`` shape (now a trial mean);
    ``data["intervals"]`` carries the per-component normal CIs.
    """
    n_cycles = int(ctx.param("n_cycles"))
    protections = {"l1_ps_l2": PROTECTION_SCENARIOS["l1_ps_l2"]}
    grids = iter(_run_perf_grid(ctx, _paper_cells(), protections, n_cycles))
    data: dict[str, dict[str, dict[str, dict[str, float]]]] = {}
    intervals: dict[str, dict[str, dict[str, dict[str, dict]]]] = {}
    for cmp_name in _cmp_configs():
        per_workload: dict[str, dict[str, dict[str, float]]] = {}
        per_workload_ci: dict[str, dict[str, dict[str, dict]]] = {}
        for workload in PAPER_WORKLOADS:
            result = next(grids)["l1_ps_l2"]
            per_level: dict[str, dict[str, float]] = {}
            per_level_ci: dict[str, dict[str, dict]] = {}
            for level in ("l1", "l2"):
                estimates = result.breakdown_estimates(level, ctx.confidence)
                per_level[level] = {
                    component: estimate.mean
                    for component, estimate in estimates.items()
                }
                per_level_ci[level] = {
                    component: _mean_payload(estimate)
                    for component, estimate in estimates.items()
                }
            per_workload[workload] = per_level
            per_workload_ci[workload] = per_level_ci
        data[cmp_name] = per_workload
        intervals[cmp_name] = per_workload_ci
    workloads = tuple(PAPER_WORKLOADS)
    series = []
    for cmp_name, per_workload in data.items():
        for level in ("l1", "l2"):
            components = tuple(per_workload[workloads[0]][level])
            for component in components:
                series.append(
                    Series(
                        f"{cmp_name}:{level}:{component}",
                        x=workloads,
                        y=[per_workload[w][level][component] for w in workloads],
                        lower=[
                            intervals[cmp_name][w][level][component]["lower"]
                            for w in workloads
                        ],
                        upper=[
                            intervals[cmp_name][w][level][component]["upper"]
                            for w in workloads
                        ],
                        units="accesses / 100 cycles",
                    )
                )
    payload = {
        "breakdowns": data,
        "intervals": intervals,
        "trials": int(ctx.trials),
    }
    return ctx.result(payload, series, meta={"n_cycles": n_cycles})


# ----------------------------------------------------------------------
# Figure 7 — scheme comparison at equal (32-bit) coverage
# ----------------------------------------------------------------------

@experiment(
    "fig7.schemes",
    description="Relative code area / latency / power vs SECDED+Intv2 baseline",
    figure="Fig. 7",
)
def _fig7_schemes(ctx):
    data: dict[str, dict[str, dict]] = {}
    series = []
    for cache_label, (schemes, n_words) in {
        "64kB L1 data cache": (l1_schemes(), _L1_WORDS),
        "4MB L2 cache": (l2_schemes(), _L2_WORDS),
    }.items():
        baseline_cost = schemes["baseline"].cost(n_words)
        costs = {
            key: scheme.cost(n_words).normalized_to(baseline_cost)
            for key, scheme in schemes.items()
        }
        data[cache_label] = {
            key: {
                "name": cost.name,
                "code_area": cost.code_area,
                "coding_latency": cost.coding_latency,
                "dynamic_power": cost.dynamic_power,
            }
            for key, cost in costs.items()
        }
        keys = tuple(costs)
        for metric in ("code_area", "coding_latency", "dynamic_power"):
            series.append(
                Series(
                    f"{cache_label}:{metric}",
                    x=keys,
                    y=[data[cache_label][k][metric] for k in keys],
                    units="% of baseline",
                )
            )
    return ctx.result(data, series)


# ----------------------------------------------------------------------
# Figure 8 — yield and in-the-field reliability
# ----------------------------------------------------------------------

@experiment(
    "fig8.yield",
    backend="analytical",
    description="16MB L2 yield vs failing cells, ECC and/or spares",
    figure="Fig. 8(a)",
    defaults={"failing_cells": tuple(range(0, 4001, 200))},
)
def _fig8_yield(ctx):
    failing_cells = [int(n) for n in ctx.param("failing_cells")]
    model = YieldModel(MemoryGeometry.l2_16mb())
    configurations = {
        "Spare_128": {"ecc": False, "spares": 128},
        "ECC Only": {"ecc": True, "spares": 0},
        "ECC + Spare_16": {"ecc": True, "spares": 16},
        "ECC + Spare_32": {"ecc": True, "spares": 32},
    }
    curves = model.sweep(failing_cells, configurations)
    curves["failing_cells"] = [float(n) for n in failing_cells]
    series = [
        Series(label, x=failing_cells, y=values, units="yield")
        for label, values in curves.items()
        if label != "failing_cells"
    ]
    return ctx.result(curves, series)


@experiment(
    "fig8.yield",
    backend="monte_carlo",
    defaults={
        "trials": 512,
        "seed": 1946,
        "scenario": "iid_uniform",
        "failing_cells": tuple(range(0, 41, 8)),
        "rows": 64,
    },
    params=_RARE_KNOBS,
)
def _fig8_yield_mc(ctx):
    """Engine-backed validation of the ECC-only yield model.

    The analytical curve treats manufacture-time faults as uniformly
    distributed cells and a word as dead once it holds two or more
    faults.  This experiment checks that claim by *simulating* it on a
    scaled-down SECDED-protected bank (``rows`` x 4 codewords of 72
    stored bits) and comparing against the analytical yield of the same
    cells: the occupancy product over ``S = rows * 288`` sites, ``w = 72``.

    ``scenario`` picks the hard-fault population per sweep point:
    ``"iid_uniform"`` places exactly ``n`` distinct faulty cells (the
    analytical model's own assumption), ``"hard_fault_map"`` draws the
    count per die from a Poisson with the equivalent mean density — the
    manufacturing-line view of the same axis.
    """
    from repro.engine import EngineSpec
    from repro.scenarios import make_scenario

    failing_cells = [int(n) for n in ctx.param("failing_cells")]
    rows = int(ctx.param("rows"))
    scenario_name = str(ctx.param("scenario"))
    if scenario_name not in ("iid_uniform", "hard_fault_map"):
        # A usage error, not an execution failure: reject before any
        # geometry or engine work (CLI exit 2).
        raise SpecError(
            "fig8.yield sweeps a hard-fault count axis; scenario must be "
            f"'iid_uniform' or 'hard_fault_map', got {scenario_name!r}"
        )
    spec = EngineSpec(
        rows=rows,
        data_bits=64,
        interleave_degree=4,
        horizontal_code="SECDED",
        vertical_groups=None,
    )
    model = YieldModel(MemoryGeometry(capacity_bits=spec.n_words * 64, word_bits=64))
    n_sites = rows * spec.row_bits
    out_of_range = [n for n in failing_cells if not 0 <= n <= n_sites]
    if out_of_range:
        raise SpecError(
            f"fig8.yield: failing_cells must lie in [0, {n_sites}], the bank's "
            f"{rows} rows x {spec.row_bits} stored cells; got {out_of_range}"
        )

    curves: dict[str, list[float]] = {
        "failing_cells": [float(n) for n in failing_cells],
        "analytical": [],
        "simulated": [],
        "simulated_lower": [],
        "simulated_upper": [],
    }
    rare = _rare_config(ctx)
    if rare is not None and rare["estimator"] != "plain" and scenario_name != "hard_fault_map":
        raise SpecError(
            f"fig8.yield: estimator={rare['estimator']!r} needs the "
            "hard_fault_map scenario (iid_uniform fixes the fault count, so "
            "there is no count law to tilt or stratify)"
        )
    for n_cells in failing_cells:
        curves["analytical"].append(model.yield_with_ecc_only(n_cells))
        if scenario_name == "iid_uniform":
            fault_model = make_scenario("iid_uniform", n_cells=n_cells)
        else:
            fault_model = make_scenario(
                "hard_fault_map", defect_density=n_cells / n_sites
            )
        if rare is None:
            result = ctx.run_engine(spec, fault_model, seed=ctx.seed + n_cells)
            estimate = result.estimate(ctx.confidence)
            point, lower, upper = estimate.point, estimate.lower, estimate.upper
        else:
            payload, _counts = _rare_estimate(
                ctx, spec, fault_model, rare, seed=ctx.seed + n_cells
            )
            point, lower, upper = payload["point"], payload["lower"], payload["upper"]
        curves["simulated"].append(point)
        curves["simulated_lower"].append(lower)
        curves["simulated_upper"].append(upper)
    series = [
        Series("analytical", x=failing_cells, y=curves["analytical"], units="yield"),
        Series(
            "simulated",
            x=failing_cells,
            y=curves["simulated"],
            lower=curves["simulated_lower"],
            upper=curves["simulated_upper"],
            units="yield",
        ),
    ]
    meta = {"rows": rows, "scenario": scenario_name}
    if rare is not None:
        meta["estimator"] = rare["estimator"]
    return ctx.result(curves, series, meta=meta)


@experiment(
    "fig8.reliability",
    description="Probability of successful correction over deployment years",
    figure="Fig. 8(b)",
    defaults={"years": (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)},
)
def _fig8_reliability(ctx):
    years = [float(y) for y in ctx.param("years")]
    model = FieldReliabilityModel(ReliabilityScenario(), PAPER_SOFT_ERROR_RATE)
    curves: dict[str, list[float]] = {"years": years}
    curves["With 2D coding"] = model.survival_curve(
        years, PAPER_HARD_ERROR_RATES["0.001%"], with_2d_coding=True
    )
    for label, rate in PAPER_HARD_ERROR_RATES.items():
        curves[f"Without 2D, HER={label}"] = model.survival_curve(
            years, rate, with_2d_coding=False
        )
    series = [
        Series(label, x=years, y=values, units="P[all correctable]")
        for label, values in curves.items()
        if label != "years"
    ]
    return ctx.result(curves, series)


# ----------------------------------------------------------------------
# Parameterized sweeps beyond the paper's figures
# ----------------------------------------------------------------------

@experiment(
    "sweep.mc_coverage",
    backend="monte_carlo",
    description="Engine coverage of any named scheme under a chosen error model",
    defaults={
        "trials": 4096,
        "seed": 1,
        "scheme": "2d_edc8_edc32",
        "rows": 256,
        "model": "cluster",
        "scenario": None,
    },
    params=("footprints", "height", "width", "n_cells", "scenario_params")
    + _RARE_KNOBS,
)
def _sweep_mc_coverage(ctx):
    """Coverage probability of one scheme/geometry/error-model point.

    ``scheme`` is any :func:`named_schemes` key.  The fault population
    is either a legacy ``model`` shorthand — ``"cluster"`` (optionally
    with ``footprints``), ``"fixed"`` (with ``height``/``width``),
    ``"random_cells"`` (with ``n_cells``) — or **any registered fault
    scenario** named via ``scenario`` (or as the ``model`` value) and
    configured through ``scenario_params``.
    """
    from repro.engine import EngineSpec
    from repro.scenarios import list_scenarios, make_scenario

    scheme_key = str(ctx.param("scheme"))
    schemes = named_schemes()
    if scheme_key not in schemes:
        raise SpecError(
            f"unknown scheme {scheme_key!r}; pick one of {', '.join(sorted(schemes))}"
        )
    scheme = schemes[scheme_key]
    rows = int(ctx.param("rows"))

    raw_scenario = ctx.param("scenario")
    kind = str(raw_scenario) if raw_scenario is not None else str(ctx.param("model"))
    legacy_knobs = ("footprints", "height", "width", "n_cells")
    if kind == "cluster":
        _reject_unused_model_params(
            ctx, "model", kind, ("height", "width", "n_cells", "scenario_params")
        )
        footprints = ctx.param("footprints", FIG3_MC_FOOTPRINTS)
        model = make_scenario("clustered_mbu", footprints=tuple(footprints))
    elif kind == "fixed":
        _reject_unused_model_params(
            ctx, "model", kind, ("footprints", "n_cells", "scenario_params")
        )
        model = make_scenario(
            "fixed_cluster",
            height=int(ctx.param("height", 8)),
            width=int(ctx.param("width", 8)),
        )
    elif kind == "random_cells":
        _reject_unused_model_params(
            ctx, "model", kind, ("footprints", "height", "width", "scenario_params")
        )
        model = make_scenario("iid_uniform", n_cells=int(ctx.param("n_cells", 2)))
    elif kind in list_scenarios():
        selector = "scenario" if raw_scenario is not None else "model"
        _reject_unused_model_params(ctx, selector, kind, legacy_knobs)
        model = make_scenario(kind, **dict(ctx.param("scenario_params") or {}))
    else:
        known = ", ".join(sorted(list_scenarios()))
        raise SpecError(
            f"unknown error model {kind!r}; use cluster, fixed, random_cells "
            f"or a registered scenario ({known})"
        )

    spec = EngineSpec.from_scheme(scheme, rows=rows)
    rare = _rare_config(ctx)
    if rare is None:
        result = ctx.run_engine(spec, model)
        estimate = result.estimate(ctx.confidence)
        counts = result.counts.as_dict()
        payload = _estimate_payload(estimate)
    else:
        payload, counts = _rare_estimate(ctx, spec, model, rare)
    data = {
        "scheme": scheme_key,
        "scheme_name": scheme.name,
        "engine_spec": spec.to_key(),
        "error_model": model.to_key(),
        "counts": counts,
        "estimate": payload,
    }
    series = [
        Series(
            "coverage",
            x=(scheme_key,),
            y=(payload["point"],),
            lower=(payload["lower"],),
            upper=(payload["upper"],),
        )
    ]
    return ctx.result(data, series)


@experiment(
    "sweep.mbu_cluster",
    backend="monte_carlo",
    description="Coverage vs MBU cluster size x physical interleaving degree",
    defaults={
        "trials": 1024,
        "seed": 77,
        "cluster_sizes": (1, 2, 4, 8, 16, 32),
        "degrees": (1, 2, 4, 8),
        "code": "EDC8",
        "data_bits": 64,
        "rows": 256,
        "vertical_groups": 32,
    },
)
def _sweep_mbu_cluster(ctx):
    """How far interleaving stretches clustered-MBU coverage.

    For every interleaving degree ``D`` and square cluster size ``s``
    this injects one ``s`` x ``s`` upset per trial into a bank protected
    by ``code`` horizontally (and EDC ``vertical_groups`` vertically
    when set) and estimates the fully-corrected fraction — the Monte
    Carlo generalization of the paper's claim that 2D coding reaches
    32x32 coverage where conventional interleaving runs out at the
    interleave degree.
    """
    from repro.engine import EngineSpec
    from repro.scenarios import make_scenario

    sizes = [int(s) for s in ctx.param("cluster_sizes")]
    degrees = [int(d) for d in ctx.param("degrees")]
    code = str(ctx.param("code"))
    data_bits = int(ctx.param("data_bits"))
    rows = int(ctx.param("rows"))
    raw_groups = ctx.param("vertical_groups")
    vertical_groups = None if raw_groups is None else int(raw_groups)

    coverage: dict[str, dict[str, dict]] = {}
    series = []
    for degree in degrees:
        spec = EngineSpec(
            rows=rows,
            data_bits=data_bits,
            interleave_degree=degree,
            horizontal_code=code,
            vertical_groups=vertical_groups,
        )
        per_size: dict[str, dict] = {}
        for size in sizes:
            model = make_scenario("fixed_cluster", height=size, width=size)
            result = ctx.run_engine(
                spec, model, seed=ctx.seed + 1009 * degree + size
            )
            per_size[str(size)] = _estimate_payload(result.estimate(ctx.confidence))
        coverage[str(degree)] = per_size
        series.append(
            Series(
                f"D={degree}",
                x=sizes,
                y=[per_size[str(s)]["point"] for s in sizes],
                lower=[per_size[str(s)]["lower"] for s in sizes],
                upper=[per_size[str(s)]["upper"] for s in sizes],
            )
        )
    data = {
        "cluster_sizes": sizes,
        "degrees": degrees,
        "code": code,
        "vertical_groups": vertical_groups,
        "coverage": coverage,
    }
    return ctx.result(data, series, meta={"rows": rows, "data_bits": data_bits})


@experiment(
    "sweep.perf_sensitivity",
    backend="monte_carlo",
    description="IPC loss vs store-queue depth x L1 ports x burstiness",
    defaults={
        "trials": 16,
        "seed": 11,
        "n_cycles": 4_000,
        "cmp": "fat",
        "workload": "OLTP",
        "protection": "l1_ps",
        "store_queue": (2, 8, 64),
        "l1_ports": (1, 2),
        "burstiness": (2.0, 4.0),
    },
)
def _sweep_perf_sensitivity(ctx):
    """How the port-stealing machinery degrades as its resources shrink.

    Sweeps the matched-pair IPC loss of one protected (CMP, workload)
    cell over the store-queue depth (which bounds the deferred
    read-before-write queue), the number of L1 ports (which sets the
    idle slots port stealing can use) and the workload burstiness
    (which concentrates demand into the cycles stealing competes for).
    Every point runs ``trials`` replicates through ``repro.perf`` and
    reports mean loss with a normal confidence interval — the paper's
    Section 5.1 sensitivity arguments, quantified.
    """
    from dataclasses import replace as _replace

    from repro.engine import MeanEstimate
    from repro.perf import paired_loss_percent

    n_cycles = int(ctx.param("n_cycles"))
    cmp_name = str(ctx.param("cmp"))
    configs = _cmp_configs()
    if cmp_name not in configs:
        raise SpecError(
            f"unknown cmp {cmp_name!r}; pick one of {', '.join(configs)}"
        )
    base_cmp = configs[cmp_name]
    workload = str(ctx.param("workload"))
    profile = PAPER_WORKLOADS.get(workload)
    if profile is None:
        raise SpecError(
            f"unknown workload {workload!r}; pick one of {', '.join(PAPER_WORKLOADS)}"
        )
    protection_key = str(ctx.param("protection"))
    protection = PROTECTION_SCENARIOS.get(protection_key)
    if protection is None or not protection.any_protection:
        eligible = [k for k, p in PROTECTION_SCENARIOS.items() if p.any_protection]
        raise SpecError(
            f"protection must be one of {', '.join(eligible)}, got {protection_key!r}"
        )

    store_queue = [int(v) for v in ctx.param("store_queue")]
    l1_ports = [int(v) for v in ctx.param("l1_ports")]
    burstiness = [float(v) for v in ctx.param("burstiness")]

    cells = [
        (
            _replace(
                base_cmp,
                core=_replace(
                    base_cmp.core, store_queue_entries=depth, burstiness=burst
                ),
                l1d=_replace(base_cmp.l1d, n_ports=ports),
            ),
            profile,
        )
        for ports in l1_ports
        for burst in burstiness
        for depth in store_queue
    ]
    grids = iter(
        _run_perf_grid(
            ctx,
            cells,
            {"baseline": ProtectionConfig(label="baseline"), "protected": protection},
            n_cycles,
        )
    )
    loss: dict[str, dict[str, dict[str, dict]]] = {}
    series = []
    for ports in l1_ports:
        per_ports: dict[str, dict[str, dict]] = {}
        for burst in burstiness:
            per_burst: dict[str, dict] = {}
            for depth in store_queue:
                results = next(grids)
                per_trial = paired_loss_percent(
                    results["baseline"].aggregate_ipc,
                    results["protected"].aggregate_ipc,
                )
                estimate = MeanEstimate.from_samples(per_trial, ctx.confidence)
                per_burst[str(depth)] = _mean_payload(estimate)
            per_ports[str(burst)] = per_burst
            series.append(
                Series(
                    f"ports={ports}, burstiness={burst}",
                    x=store_queue,
                    y=[per_burst[str(d)]["mean"] for d in store_queue],
                    lower=[per_burst[str(d)]["lower"] for d in store_queue],
                    upper=[per_burst[str(d)]["upper"] for d in store_queue],
                    units="% IPC loss",
                )
            )
        loss[str(ports)] = per_ports
    data = {
        "cmp": cmp_name,
        "workload": workload,
        "protection": protection_key,
        "store_queue": store_queue,
        "l1_ports": l1_ports,
        "burstiness": burstiness,
        "trials": int(ctx.trials),
        "loss": loss,
    }
    return ctx.result(data, series, meta={"n_cycles": n_cycles})


@experiment(
    "sweep.scheme_cost",
    description="Composed VLSI cost of any named scheme vs a chosen baseline",
    defaults={"cache": "l1"},
    params=("n_words", "schemes"),
)
def _sweep_scheme_cost(ctx):
    """Fig. 7-style cost comparison over an arbitrary scheme subset.

    ``cache`` selects the L1 or L2 scheme set; ``schemes`` (optional)
    restricts to a subset of its keys; ``n_words`` sets the array size.
    """
    cache = str(ctx.param("cache"))
    if cache == "l1":
        table = l1_schemes()
        default_words = _L1_WORDS
    elif cache == "l2":
        table = l2_schemes()
        default_words = _L2_WORDS
    else:
        raise SpecError(f"cache must be 'l1' or 'l2', got {cache!r}")
    n_words = int(ctx.param("n_words", default_words))
    subset = ctx.param("schemes")
    keys = list(table) if subset is None else [str(k) for k in subset]
    unknown = [k for k in keys if k not in table]
    if unknown:
        raise SpecError(f"unknown scheme keys for {cache}: {', '.join(unknown)}")

    baseline = table["baseline"].cost(n_words)
    data = {}
    for key in keys:
        cost = table[key].cost(n_words).normalized_to(baseline)
        data[key] = {
            "name": cost.name,
            "code_area": cost.code_area,
            "coding_latency": cost.coding_latency,
            "dynamic_power": cost.dynamic_power,
        }
    series = [
        Series(
            metric,
            x=tuple(keys),
            y=[data[k][metric] for k in keys],
            units="% of baseline",
        )
        for metric in ("code_area", "coding_latency", "dynamic_power")
    ]
    return ctx.result(data, series, meta={"cache": cache, "n_words": n_words})
