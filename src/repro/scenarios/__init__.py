"""repro.scenarios — pluggable vectorized fault-scenario subsystem.

Scenarios describe *what goes wrong* in a protected SRAM bank as
batched fault generators over ``(trials, rows, row_bits)`` cells,
decoupled from *how it is evaluated* (:mod:`repro.engine`) and from
*where the numbers surface* (:mod:`repro.api`):

* :mod:`repro.scenarios.base` — the :class:`ScenarioModel` protocol
  (the engine's one sampling call, ``sample_sparse_block``),
  :class:`ScenarioBase` (which derives it, and the dense ``sample``
  view, from a scenario's one sampler ``sample_sparse``), the
  ``@scenario("name")`` decorator registry and the
  :func:`make_scenario` factory.
* :mod:`repro.scenarios.generators` — the one source of geometry truth:
  batched NumPy kernels for cluster/burst placement, footprint
  sampling, independent-cell draws and Poisson defect maps, shared with
  the scalar :class:`repro.errors.ErrorInjector`.
* :mod:`repro.scenarios.models` — the built-ins: ``iid_uniform``,
  ``clustered_mbu``, ``fixed_cluster``, ``burst_row``,
  ``burst_column``, ``hard_fault_map`` and ``composite``.
* :mod:`repro.scenarios.rare` — rare-event laws: exponentially tilted
  importance-sampling twins of the hard-fault and clustered models
  (``tilted_hard_fault_map``, ``tilted_clustered_mbu``) and the
  band-conditioned ``fault_count_band`` stratification model.
* :mod:`repro.scenarios.sparse` — :class:`SparseRowBatch`, the dirty
  rows only, as packed ``uint64`` words plus optional likelihood-ratio
  ``weights``: the one row format the engine recovers on.  Every
  scenario emits it through ``sample_sparse``, so the engine never
  decodes the clean bulk of the mask tensor; dense masks, where a test
  or the scalar oracle needs them, are the batch densified.

Every registered scenario is reachable from the experiment catalog
(``scenario="..."`` params on Monte Carlo experiments) and from the CLI
(``python -m repro run ... -p scenario=NAME``).
"""

from repro.errors.rates import poisson_band_probability

from .base import (
    Geometry,
    ScenarioBase,
    ScenarioModel,
    UnknownScenarioError,
    get_scenario_class,
    list_scenarios,
    make_scenario,
    scenario,
    scenario_from_config,
)
from .models import (
    BurstColumnScenario,
    BurstRowScenario,
    ClusteredMbuScenario,
    CompositeScenario,
    FixedClusterScenario,
    HardFaultMapScenario,
    IidUniformScenario,
)
from .rare import (
    FaultCountBandScenario,
    TiltedClusteredMbuScenario,
    TiltedHardFaultMapScenario,
    WeightedScenarioBase,
)
from .sparse import SparseRowBatch

__all__ = [
    "SparseRowBatch",
    "WeightedScenarioBase",
    "FaultCountBandScenario",
    "TiltedClusteredMbuScenario",
    "TiltedHardFaultMapScenario",
    "poisson_band_probability",
    "Geometry",
    "ScenarioBase",
    "ScenarioModel",
    "UnknownScenarioError",
    "get_scenario_class",
    "list_scenarios",
    "make_scenario",
    "scenario",
    "scenario_from_config",
    "BurstColumnScenario",
    "BurstRowScenario",
    "ClusteredMbuScenario",
    "CompositeScenario",
    "FixedClusterScenario",
    "HardFaultMapScenario",
    "IidUniformScenario",
]
