#!/usr/bin/env python3
"""A declarative failure campaign: BGP convergence under link flaps —
persisted, resumable, and judged by SLOs.

The point of the scenario engine is that *none of this is a script*:
the whole experiment — an Abilene-like WAN running eBGP with fast
timers, a seeded permutation of CBR flows, and a storm of flapping
fabric links — is one :class:`ScenarioSpec` per seed, generated from
a single seed integer.  PR 3's results subsystem adds the durable
half: every finished scenario streams into an on-disk
:class:`ResultStore` (JSONL + index sidecar), a killed sweep resumes
from what the store already holds, and SLO assertions ride the spec
so the sweep doubles as a regression gate.

The tail of the example goes hunting: an adversarial search evolves
the flap-storm family toward the worst delivered-traffic shortfall it
can find at a fixed budget, then replays the winning spec bit-for-bit
from its persisted JSON.

Equivalent from the shell::

    repro campaign run --store flap_store --count 12 --workers 4 \
        --pattern flap-storm --protocol bgp \
        --protocol-param hold_time=3 --protocol-param keepalive_interval=1 \
        --slo converged_within=30 --slo min_delivered_fraction=0.5
    repro campaign resume --store flap_store --count 12 --workers 4 ...
    repro campaign report --store flap_store --csv flap.csv
    repro campaign check  --store flap_store

Run:  python examples/scenario_campaign.py
"""

import tempfile

from repro.fleet import FleetExecutor, MultiprocessTransport
from repro.results import (
    ConvergedWithin,
    MetricExpression,
    MinDeliveredFraction,
    ResultStore,
    aggregate_records,
    diff_stores,
)
from repro.scenarios import (
    Campaign,
    ProtocolRecipe,
    ScenarioRunner,
    ScenarioSpec,
    SearchConfig,
    generate_scenario,
    leaderboard,
    leaderboard_report,
    run_search,
    worst_spec,
)


def flap_scenario(seed: int):
    """One seed -> one BGP-under-flap-storm scenario, with the SLOs it
    must satisfy evaluated in-run."""
    spec = generate_scenario(
        seed,
        pattern="flap-storm",
        protocol=ProtocolRecipe("bgp", {"hold_time": 3.0,
                                        "keepalive_interval": 1.0}),
        duration=35.0,
        pattern_params={"links": 2, "cycles": 2, "period": 6.0},
    )
    spec.slos = [
        ConvergedWithin(seconds=30.0),
        MinDeliveredFraction(fraction=0.5),
        MetricExpression(expression="control_messages < 20000"),
    ]
    return spec


def main() -> None:
    spec = flap_scenario(0)
    print("one scenario, as data (truncated):")
    for line in spec.to_json().splitlines()[:16]:
        print(f"  {line}")
    print("  ...\n")

    store_dir = tempfile.mkdtemp(prefix="flap_store_")

    # A "crashed" sweep: only the first 5 seeds make it to the store.
    Campaign.seed_sweep(flap_scenario, range(5), workers=4).run(
        store=ResultStore(store_dir))
    print(f"interrupted sweep left {len(ResultStore(store_dir))} "
          f"records in {store_dir}")

    # Resume: same campaign, same store — only seeds 5..11 actually run.
    stats = Campaign.seed_sweep(flap_scenario, range(12), workers=4).run(
        store=ResultStore(store_dir))
    print(f"resume: {stats.summary()}\n")

    # Stream the records back for the report: nothing above held the
    # results in memory, the store is the source of truth.
    store = ResultStore(store_dir)
    aggregate = aggregate_records(store.iter_records())
    print(aggregate.report())

    # The reproducibility contract now spans the store: any persisted
    # record can be regenerated from its seed alone, bit for bit.
    seed = 7
    solo = ScenarioRunner().run(flap_scenario(seed))
    persisted = store.get(flap_scenario(seed).spec_hash(), seed)
    print(f"\nseed {seed} re-run solo:   {solo.fingerprint()}")
    print(f"seed {seed} from store:    {persisted['fingerprint']}")
    print(f"bit-for-bit identical: "
          f"{solo.fingerprint() == persisted['fingerprint']}")
    print(f"in-run SLO verdicts:   "
          f"{[v['status'] for v in persisted['result']['slos']]}")
    print(f"\ngate (repro campaign check): "
          f"{'OK' if aggregate.gate_ok else 'FAILING'}")

    # --- PR 4: the same sweep through a two-worker local fleet --------
    # The FleetExecutor swaps the multiprocessing pool for a
    # coordinator + workers speaking the fleet TCP protocol: chunks
    # are leased with heartbeats, records stream into per-worker
    # shard stores, and the shards merge (`repro store merge` is the
    # same machinery) into a store that must be record-for-record
    # what the single-box run produced.  From the command line, one
    # box fans out with `--workers N` and many boxes with
    # `repro fleet serve` + `repro fleet join host:port`.
    fleet_dir = tempfile.mkdtemp(prefix="flap_fleet_")
    fleet_store = ResultStore(fleet_dir)
    stats = Campaign.seed_sweep(flap_scenario, range(12)).run(
        store=fleet_store,
        executor=FleetExecutor(MultiprocessTransport(), workers=2))
    print(f"\nfleet run: {stats.summary()}")
    print(f"fleet provenance: {fleet_store.metadata['runs'][-1]}")

    # ... and `repro campaign diff` is the A/B gate: the fleet store
    # vs the single-box store must be bit-for-bit equivalent.
    diff = diff_stores(store, ResultStore(fleet_dir))
    print(f"\nfleet vs single-box (repro campaign diff):")
    print(diff.report())
    assert diff.identical, "fleet run diverged from single-box!"

    # --- PR 5: hunt the worst case instead of sampling it -------------
    # Random sweeps rarely find the inputs that actually hurt a
    # controller.  An adversarial search drives the same machinery
    # (Campaign + ResultStore, so it is durable and exactly resumable)
    # but *evolves* the scenarios: generation 0 samples the family,
    # every later generation mutates the worst specs found so far —
    # shifting injection times, swapping failed links within their
    # shared-risk group, stretching flaps, scaling load.  Shell form:
    #   repro search run --store hunt --budget 12 --pattern flap-storm
    #   repro search report --store hunt --save-worst worst.json
    #   repro scenario run --spec worst.json
    search_dir = tempfile.mkdtemp(prefix="flap_hunt_")
    config = SearchConfig(
        family="flap-storm",
        strategy="evolve",
        objective="delivered_shortfall",
        budget=12, population=4, elites=2,
        seed=0, duration=35.0,
        protocol=ProtocolRecipe("bgp", {"hold_time": 3.0,
                                        "keepalive_interval": 1.0}),
        pattern_params={"links": 2, "cycles": 2, "period": 6.0},
    )
    search_store = ResultStore(search_dir)
    stats = run_search(config, search_store)
    print(f"\nadversarial search: {stats.summary()}")
    entries = leaderboard(search_store, config)
    print(leaderboard_report(entries, config, top=3))

    # The worst spec replays verbatim from its persisted JSON — the
    # leaderboard is a list of reproducible bug reports, not a chart.
    worst = ScenarioSpec.from_dict(worst_spec(search_store, entries))
    replayed = ScenarioRunner().run(worst)
    persisted = search_store.get(worst.spec_hash(), worst.seed)
    print(f"\nworst case {worst.name}: shortfall "
          f"{1.0 - replayed.delivered_fraction:.4f} on replay")
    print(f"replay bit-for-bit identical: "
          f"{replayed.fingerprint() == persisted['fingerprint']}")


if __name__ == "__main__":
    main()
