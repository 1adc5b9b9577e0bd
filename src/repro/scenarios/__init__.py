"""The scenario engine: declarative fault-injection at campaign scale.

Horse's pitch is *faster control-plane experimentation*; this package
turns "an experiment" from a hand-written script into data you can
generate, store, sweep and parallelize:

* :mod:`~repro.scenarios.spec`       — :class:`ScenarioSpec`, the
  JSON-round-trippable description (topology recipe, protocol,
  traffic, injection schedule, duration, seed);
* :mod:`~repro.scenarios.injections` — the composable fault library
  (link fail/restore/flap, node fail/recover, partition, gray
  capacity degrade, traffic burst);
* :mod:`~repro.scenarios.generators` — seeded random scenario
  generation (k-random-link failures, flap storms, rolling
  maintenance, gray brownouts);
* :mod:`~repro.scenarios.runner`     — :class:`ScenarioRunner`, spec
  in, bit-for-bit reproducible :class:`ScenarioResult` out;
* :mod:`~repro.scenarios.campaign`   — :class:`Campaign`, fanning a
  seed sweep or parameter grid across worker processes and streaming
  every result into a durable, resumable
  :class:`~repro.results.store.ResultStore` (see :mod:`repro.results`
  for persistence, SLO assertions and aggregation);
* :mod:`~repro.scenarios.search`     — adversarial scenario search:
  seeded random or evolutionary exploration of a scenario family,
  maximizing an objective (convergence time, recovery time, delivered
  shortfall, or any metric expression), resumable through the store,
  with a ranked leaderboard of worst cases.

Quickstart::

    from repro.results import ResultStore
    from repro.scenarios import Campaign, generate_scenario

    store = ResultStore("sweep_store")
    campaign = Campaign.seed_sweep(generate_scenario, range(20), workers=4)
    print(campaign.run(store).summary())
    print(store.aggregate().report())
"""

from repro.scenarios.injections import (
    CapacityDegrade,
    Injection,
    LinkFail,
    LinkFlap,
    LinkRestore,
    NodeFail,
    NodeRecover,
    Partition,
    TrafficBurst,
    injection_from_dict,
)
from repro.scenarios.spec import (
    SPEC_SCHEMA_VERSION,
    ProtocolRecipe,
    ScenarioSpec,
    TopologyRecipe,
    TrafficRecipe,
)
from repro.scenarios.generators import (
    TRAFFIC_FAMILIES,
    flap_storm,
    generate_scenario,
    gray_brownout,
    k_random_link_failures,
    rolling_maintenance,
    srlg_failure,
    srlg_groups,
    traffic_matrix,
)
from repro.scenarios.runner import (
    InjectionOutcome,
    ScenarioResult,
    ScenarioRunner,
    error_result,
    result_fingerprint,
    run_scenario,
)
from repro.scenarios.campaign import (
    Campaign,
    CampaignRunStats,
    WorkChunk,
    effective_cpu_count,
    plan_chunks,
    run_scenario_dict,
    run_scenario_dict_safe,
)
from repro.scenarios.search import (
    OBJECTIVES,
    STRATEGIES,
    LeaderboardEntry,
    ScenarioSearch,
    SearchConfig,
    SearchRunStats,
    leaderboard,
    leaderboard_digest,
    leaderboard_report,
    load_search_config,
    mutate_spec,
    objective_value,
    resume_search,
    run_search,
    worst_spec,
)

__all__ = [
    "Injection",
    "LinkFail",
    "LinkRestore",
    "LinkFlap",
    "NodeFail",
    "NodeRecover",
    "Partition",
    "CapacityDegrade",
    "TrafficBurst",
    "injection_from_dict",
    "ScenarioSpec",
    "TopologyRecipe",
    "ProtocolRecipe",
    "TrafficRecipe",
    "generate_scenario",
    "k_random_link_failures",
    "flap_storm",
    "rolling_maintenance",
    "gray_brownout",
    "srlg_failure",
    "srlg_groups",
    "traffic_matrix",
    "TRAFFIC_FAMILIES",
    "SPEC_SCHEMA_VERSION",
    "ScenarioRunner",
    "ScenarioResult",
    "InjectionOutcome",
    "run_scenario",
    "error_result",
    "result_fingerprint",
    "Campaign",
    "CampaignRunStats",
    "WorkChunk",
    "effective_cpu_count",
    "plan_chunks",
    "run_scenario_dict",
    "run_scenario_dict_safe",
    "OBJECTIVES",
    "STRATEGIES",
    "LeaderboardEntry",
    "ScenarioSearch",
    "SearchConfig",
    "SearchRunStats",
    "leaderboard",
    "leaderboard_digest",
    "leaderboard_report",
    "load_search_config",
    "mutate_spec",
    "objective_value",
    "resume_search",
    "run_search",
    "worst_spec",
]
