"""The shipped scenario library: fifteen named cluster workloads.

Each factory returns a fresh :class:`~repro.scenarios.registry.ClusterScenario`
so callers can override fields without mutating shared state.  The library
spans five axes:

* the deployment axes the paper's evaluation varies (Section V, Tables
  II–III) — partition balance (``uniform``, ``skewed-partitions``), machine
  homogeneity (``straggler-machine``), and cross-partition traffic shape
  (``hot-halo``);
* two cache-stress workloads (``hot-set-drift``, ``cache-churn``) exercising
  the tiered feature cache's admission/eviction policies and its adaptive
  capacity controller;
* three event-driven workloads (``async-staleness``, ``trainer-flaky``,
  ``congested-link``) that only the discrete-event
  :class:`~repro.training.async_engine.AsyncClusterEngine` can express —
  bounded-staleness execution under a straggler, seeded transient trainer
  failures, and a periodically congested RPC fabric under local SGD;
* three elastic-membership workloads (``scale-out-burst``,
  ``cascading-failure``, ``rolling-upgrade``) driven by an
  :class:`~repro.events.schedule.ElasticSpec` timeline: trainers join and
  leave mid-run, seed ownership is re-split on the fly, and partition/cache
  state migrates through the cost model (booked as ``migration`` time);
* three online-serving workloads (``steady-poisson``, ``diurnal-cache-drift``,
  ``flash-crowd-burst``) run by the
  :class:`~repro.serving.engine.InferenceClusterEngine`: open-loop request
  streams from the :data:`~repro.serving.arrivals.ARRIVALS` generators
  through the sampler → tiered-cache → forward-pass path, reported as
  latency tails instead of epoch times.

The rendered catalog (one row per scenario, regenerated by
``repro scenarios --markdown``) is committed as ``docs/SCENARIOS.md`` and
drift-checked in CI.
"""

from __future__ import annotations

from repro.cache.config import CacheConfig
from repro.core.config import PrefetchConfig
from repro.events.schedule import CongestionSpec, ElasticSpec, FailureSpec
from repro.scenarios.registry import SCENARIOS, ClusterScenario
from repro.serving.arrivals import ServingSpec


@SCENARIOS.register("uniform", aliases=("nominal",))
def uniform_scenario() -> ClusterScenario:
    """The paper's nominal deployment: balanced METIS partitions, equal machines."""
    return ClusterScenario(
        name="uniform",
        description="Balanced METIS partitions on homogeneous machines "
                    "(one partition per machine, equal trainers).",
        dataset="products",
        partition_method="metis",
        prefetch_config=PrefetchConfig(halo_fraction=0.35, gamma=0.995, delta=16),
        paper_note="Nominal Perlmutter layout: 1 partition/machine, 4 trainers/machine "
                   "(Table III row 1); here scaled to simulator size.",
    )


@SCENARIOS.register("skewed-partitions", aliases=("skewed",))
def skewed_partitions_scenario() -> ClusterScenario:
    """Geometrically imbalanced partitions: the big partition's trainers straggle."""
    return ClusterScenario(
        name="skewed-partitions",
        description="Geometric partition sizes (skewed assignment) so trainers on "
                    "the large partition run more minibatches per epoch and everyone "
                    "else waits at the allreduce barrier.",
        dataset="products",
        partition_method="skewed",
        prefetch_config=PrefetchConfig(halo_fraction=0.35, gamma=0.995, delta=16),
        paper_note="Stress case absent from the paper's balanced METIS setup: "
                   "load imbalance > 1 turns barrier wait into the dominant stall.",
    )


@SCENARIOS.register("straggler-machine", aliases=("straggler",))
def straggler_machine_scenario() -> ClusterScenario:
    """One slow machine: machine 0 computes 2.5x slower than its peers."""
    return ClusterScenario(
        name="straggler-machine",
        description="Homogeneous partitions but machine 0's compute is 2.5x slower; "
                    "synchronous DDP drags every trainer to the straggler's pace.",
        dataset="products",
        partition_method="metis",
        compute_multipliers=(2.5, 1.0),
        prefetch_config=PrefetchConfig(halo_fraction=0.35, gamma=0.995, delta=16),
        paper_note="Models a de-rated/oversubscribed node in the paper's 4-trainers-"
                   "per-machine deployment; overlap (Eqs. 3-5) hides prep behind the "
                   "longer DDP window on the slow machine.",
    )


@SCENARIOS.register("hot-halo", aliases=("powerlaw-halo",))
def hot_halo_scenario() -> ClusterScenario:
    """Power-law cross-partition traffic: hub-heavy graph, locality-free cut."""
    return ClusterScenario(
        name="hot-halo",
        description="RMAT (hub-heavy) graph partitioned randomly, so halo traffic "
                    "concentrates on a few high-degree nodes — the regime where a "
                    "scored prefetch buffer pays off most.",
        dataset="papers",
        partition_method="random",
        prefetch_config=PrefetchConfig(halo_fraction=0.25, gamma=0.995, delta=8),
        paper_note="Papers100M analog (Table II): heavy-tailed degrees mean the top "
                   "halo nodes serve most remote requests (Fig. 10/11 regime).",
    )


@SCENARIOS.register("hot-set-drift", aliases=("drift",))
def hot_set_drift_scenario() -> ClusterScenario:
    """The halo hot set drifts per epoch: static caches decay, adaptive tiers track.

    Each epoch only 40% of a trainer's seeds are active, and the window
    rotates by 30% of the seed set per epoch — so the sampled halo
    neighborhood (and with it the profitable cache contents) moves over
    training.  On the flat-degree ``products`` graph degree rank is a weak
    predictor of the drifting hot set, so the default static-degree tier (the
    paper's Fig. 10 decay regime) loses measurably to a two-tier
    always-admission/LRU stack with the adaptive controller — the gap
    ``bench_cache_tiers.py`` charts and CI gates on.
    """
    return ClusterScenario(
        name="hot-set-drift",
        description="Rotating per-epoch seed window (40% active, 30% rotation) on a "
                    "flat-degree graph: the halo hot set drifts, so a once-populated "
                    "degree cache decays while adaptive tier policies track the drift.",
        dataset="products",
        partition_method="random",
        pipeline="tiered-cache",
        prefetch_config=PrefetchConfig(halo_fraction=0.35, gamma=0.995, delta=8),
        cache_config=CacheConfig(),  # static-degree single tier: the decaying baseline
        seed_active_fraction=0.4,
        seed_rotation=0.3,
        epochs=4,
        paper_note="Extends Fig. 10's hit-rate progression to a non-stationary access "
                   "pattern: the regime where continuous admission/eviction beats any "
                   "once-populated cache.",
    )


@SCENARIOS.register("cache-churn", aliases=("churn",))
def cache_churn_scenario() -> ClusterScenario:
    """A deliberately undersized two-tier cache under diverse halo traffic.

    A small row budget (f_h = 0.1) split across a hot and a machine-shared
    tier forces constant admission/eviction churn — the stress case for
    eviction-policy quality and for the adaptive capacity controller, which
    re-splits the hot/shared budgets from the observed per-epoch hit rates.
    """
    return ClusterScenario(
        name="cache-churn",
        description="Undersized two-tier cache (f_h=0.1, hot+machine-shared, CLOCK "
                    "eviction, adaptive budget re-splitting) under locality-free "
                    "random partitioning: every minibatch churns the tiers.",
        dataset="products",
        partition_method="random",
        pipeline="tiered-cache",
        prefetch_config=PrefetchConfig(halo_fraction=0.1, gamma=0.995, delta=8),
        cache_config=CacheConfig(
            tiers=2,
            admission="always",
            eviction="clock",
            shared_admission="always",
            shared_eviction="lru",
            adaptive=True,
        ),
        epochs=3,
        paper_note="Memory/quality trade-off (Fig. 14) pushed past the paper's "
                   "smallest buffer: quantifies how policy choice moderates thrash "
                   "when the budget cannot hold the working set.",
    )


@SCENARIOS.register("async-staleness", aliases=("staleness",))
def async_staleness_scenario() -> ClusterScenario:
    """Bounded-staleness execution under a straggler: asynchrony as the remedy.

    The same topology as ``straggler-machine``, but run by the event-driven
    engine with the ``bounded-staleness`` sync policy (K=2): fast trainers no
    longer idle at every allreduce barrier — they run up to two rounds ahead
    on stale parameters while the round gradient is pushed asynchronously.
    ``benchmarks/bench_async_sync.py`` charts the critical-path-vs-staleness
    curve this scenario is one point of, and CI gates on the reduction.
    """
    return ClusterScenario(
        name="async-staleness",
        description="Straggler topology (machine 0 computes 2.5x slower) executed "
                    "event-driven with bounded staleness K=2: trainers run ahead on "
                    "stale averaged gradients instead of idling at barriers.",
        dataset="products",
        partition_method="metis",
        compute_multipliers=(2.5, 1.0),
        prefetch_config=PrefetchConfig(halo_fraction=0.35, gamma=0.995, delta=16),
        engine="async",
        sync="bounded-staleness",
        staleness=2,
        paper_note="Beyond the paper's synchronous DDP: stale-synchronous execution "
                   "of the same workload, trading gradient freshness for barrier "
                   "wait (the SSP regime).",
    )


@SCENARIOS.register("trainer-flaky", aliases=("flaky",))
def trainer_flaky_scenario() -> ClusterScenario:
    """Transient trainer failures replayed deterministically from a seeded schedule.

    Each trainer fails after ~8% of its steps and goes dark for 3–10x the
    failing step's critical-path time (fail/recover event pairs in the event
    loop, outage booked as ``downtime`` on the trainer's clock).  Bounded
    staleness (K=3) lets healthy peers ride through short outages; longer
    ones stall them at the staleness bound.  Same seed ⇒ bit-identical
    replay, pinned by ``tests/test_async_engine.py``.
    """
    return ClusterScenario(
        name="trainer-flaky",
        description="Seeded transient trainer outages (rate 0.08, downtime 3-10x the "
                    "failing step) under bounded staleness K=3: peers ride through "
                    "short failures and stall only at the staleness bound.",
        dataset="products",
        partition_method="metis",
        prefetch_config=PrefetchConfig(halo_fraction=0.35, gamma=0.995, delta=16),
        engine="async",
        sync="bounded-staleness",
        staleness=3,
        failures=FailureSpec(rate=0.08, min_downtime_steps=3.0, max_downtime_steps=10.0),
        paper_note="Failure model absent from the paper's dedicated-allocation runs: "
                   "quantifies how asynchrony converts fail-stop hiccups from "
                   "cluster-wide stalls into local downtime.",
    )


@SCENARIOS.register("congested-link", aliases=("congestion",))
def congested_link_scenario() -> ClusterScenario:
    """Periodic RPC congestion bursts under local SGD's sparse sync schedule.

    A square-wave congestion profile multiplies RPC latency 10x (and divides
    bandwidth 4x) half the time; which steps pay depends on where each
    trainer's clock falls, so the event-driven engine is what makes the
    profile meaningful.  Local SGD (H=4) keeps communication off the fabric
    except at sparse averaging points.
    """
    return ClusterScenario(
        name="congested-link",
        description="Square-wave RPC congestion (latency x10 / bandwidth /4, 50% duty, "
                    "2 ms period) under event-driven local SGD with H=4: remote pulls "
                    "landing in bursts pay, averaging points stay sparse.",
        dataset="papers",
        partition_method="random",
        prefetch_config=PrefetchConfig(halo_fraction=0.25, gamma=0.995, delta=8),
        engine="async",
        sync="local-sgd",
        sync_period=4,
        congestion=CongestionSpec(period_s=2.0e-3, duty=0.5,
                                  latency_multiplier=10.0, bandwidth_divisor=4.0),
        paper_note="Time-varying fabric the paper's Slingshot-11 allocation never "
                   "shows: prefetch hit rate bounds each trainer's exposure to the "
                   "burst windows.",
    )


# --------------------------------------------------------------------------- #
# Elastic-membership workloads (engine="async" + ElasticSpec): trainers join
# and leave on a seeded timeline; seed ownership re-splits at the rebalance
# events and partition/cache state migrates through the cost model.  Event
# times are sized for the smoke scale (~0.1-1 ms steps) so the membership
# changes land mid-run rather than after the last epoch.
# --------------------------------------------------------------------------- #


@SCENARIOS.register("scale-out-burst", aliases=("scale-out",))
def scale_out_burst_scenario() -> ClusterScenario:
    """Start at half strength, then two held-back trainers join mid-run.

    Ranks 1 and 3 (one per machine) are held inactive at start, so each
    machine's seed set initially concentrates on a single trainer.  Both
    join at t=1 ms: seeds re-split across the doubled roster, the joiners
    pay the migration bytes for their gained seed rows, and every epoch
    after the join runs with twice the parallelism — the post-join
    critical-path improvement ``tests/test_elastic.py`` asserts.
    """
    return ClusterScenario(
        name="scale-out-burst",
        description="Ranks 1 and 3 held inactive, then both join at t=1 ms: seed "
                    "ownership re-splits onto the doubled roster and post-join "
                    "epochs run with twice the parallelism.",
        dataset="products",
        partition_method="metis",
        prefetch_config=PrefetchConfig(halo_fraction=0.35, gamma=0.995, delta=16),
        engine="async",
        sync="allreduce-barrier",
        elastic=ElasticSpec(
            initially_inactive=(1, 3),
            joins=((1, 1.0e-3), (3, 1.0e-3)),
        ),
        paper_note="Beyond the paper's fixed Perlmutter allocation: the elastic "
                   "scale-out case where capacity arrives mid-training and the "
                   "second-level seed split is recomputed online.",
    )


@SCENARIOS.register("cascading-failure", aliases=("cascade",))
def cascading_failure_scenario() -> ClusterScenario:
    """Machine 0 drains trainer by trainer; its partition is adopted remotely.

    Rank 0 leaves at 0.8 ms and rank 1 at 1.2 ms — after the second leave
    machine 0 has no active trainers, so its partition server re-registers on
    machine 1 (the surviving host) and the partition's training seeds
    re-split among machine 1's trainers, who pay the adoption's migration
    bytes.
    """
    return ClusterScenario(
        name="cascading-failure",
        description="Machine 0's trainers leave at 0.8/1.2 ms: the drained "
                    "machine's partition is adopted by machine 1 and its seeds "
                    "re-split among the survivors.",
        dataset="products",
        partition_method="metis",
        prefetch_config=PrefetchConfig(halo_fraction=0.35, gamma=0.995, delta=16),
        engine="async",
        sync="allreduce-barrier",
        elastic=ElasticSpec(leaves=((0, 8.0e-4), (1, 1.2e-3))),
        paper_note="Permanent-loss counterpart of trainer-flaky's transient "
                   "outages: fail-stop departures that shrink the roster and "
                   "force cross-machine partition adoption.",
    )


@SCENARIOS.register("rolling-upgrade", aliases=("rolling",))
def rolling_upgrade_scenario() -> ClusterScenario:
    """Machines drain and rejoin one at a time.

    Machine 0's trainers (ranks 0-1) leave at 0.5 ms and rejoin at 1 ms;
    machine 1's (ranks 2-3) follow at 1.5/2 ms — a rolling restart where
    the roster never empties.  A drained machine's partition is adopted by
    the other machine and comes home, seeds re-split, when its trainers
    rejoin.
    """
    return ClusterScenario(
        name="rolling-upgrade",
        description="Machine 0's trainers leave at 0.5 ms and rejoin at 1 ms, "
                    "then machine 1's at 1.5/2 ms: a rolling restart whose "
                    "roster never empties.",
        dataset="products",
        partition_method="metis",
        prefetch_config=PrefetchConfig(halo_fraction=0.35, gamma=0.995, delta=16),
        engine="async",
        sync="allreduce-barrier",
        epochs=4,
        elastic=ElasticSpec(
            leaves=((0, 5.0e-4), (1, 5.0e-4), (2, 1.5e-3), (3, 1.5e-3)),
            joins=((0, 1.0e-3), (1, 1.0e-3), (2, 2.0e-3), (3, 2.0e-3)),
        ),
        paper_note="Maintenance regime the paper's dedicated allocation never "
                   "shows: rolling node replacement with live state handoff "
                   "instead of a cold restart.",
    )


# --------------------------------------------------------------------------- #
# Online-serving workloads (engine="serving"): the sampler/RPC/cache hot path
# answering an open-loop request stream instead of marching epochs.  Shared
# topology and data path across all three, so their latency tails differ only
# by arrival process — which is exactly what bench_serving.py compares.
# --------------------------------------------------------------------------- #
_SERVING_CACHE = dict(
    tiers=2,
    admission="always",
    eviction="lru",
    shared_admission="always",
    shared_eviction="lru",
)


@SCENARIOS.register("steady-poisson", aliases=("serving", "poisson-serving"))
def steady_poisson_scenario() -> ClusterScenario:
    """Steady-state serving: Poisson arrivals at moderate utilization.

    The serving baseline every other stream is compared against: memoryless
    arrivals, popularity-skewed users, requests routed to the partition that
    owns each user's node, and the two-tier always/LRU cache warm from init.
    ``benchmarks/bench_serving.py`` sweeps this scenario's offered load for
    the p99-vs-load curve CI gates on.
    """
    return ClusterScenario(
        name="steady-poisson",
        description="Open-loop Poisson request stream (per-user ego-net sample → "
                    "tiered-cache fetch → forward pass) at moderate utilization: "
                    "the steady-state latency baseline.",
        dataset="products",
        partition_method="metis",
        pipeline="tiered-cache",
        prefetch_config=PrefetchConfig(halo_fraction=0.35, gamma=0.995, delta=16),
        cache_config=CacheConfig(**_SERVING_CACHE),
        rpc="batched",
        engine="serving",
        serving=ServingSpec(arrival="poisson", rate_rps=1500.0, num_requests=256,
                            slo_ms=5.0, zipf_alpha=0.8),
        paper_note="The ROADMAP north star's 'serves heavy traffic' leg: the paper's "
                   "training hot path (Sections IV-V) re-used as an online inference "
                   "service.",
    )


@SCENARIOS.register("diurnal-cache-drift", aliases=("diurnal",))
def diurnal_cache_drift_scenario() -> ClusterScenario:
    """A square-wave day/night load whose popular users move between phases.

    The diurnal generator reuses the ``CongestionSpec`` period/duty idiom for
    the arrival rate, and ``phase_drift`` rotates the popularity permutation
    between trough and peak — so the cache's working set shifts exactly when
    load doubles, the worst moment to take misses.
    """
    return ClusterScenario(
        name="diurnal-cache-drift",
        description="Square-wave arrival rate (peak↔trough, CongestionSpec idiom) "
                    "with the popular-user set rotating between phases: cache "
                    "working-set drift lands exactly at peak load.",
        dataset="products",
        partition_method="metis",
        pipeline="tiered-cache",
        prefetch_config=PrefetchConfig(halo_fraction=0.35, gamma=0.995, delta=16),
        cache_config=CacheConfig(**_SERVING_CACHE),
        rpc="batched",
        engine="serving",
        serving=ServingSpec(arrival="diurnal", rate_rps=1500.0, num_requests=256,
                            slo_ms=5.0, zipf_alpha=1.1, phase_drift=True,
                            period_s=0.05, duty=0.5, trough_fraction=0.25),
        paper_note="Serving-side analogue of hot-set-drift: Fig. 10's non-stationary "
                   "access pattern expressed as a day/night request mix.",
    )


@SCENARIOS.register("flash-crowd-burst", aliases=("flash-crowd", "burst-serving"))
def flash_crowd_burst_scenario() -> ClusterScenario:
    """A compressed burst on top of the steady baseline: the tail-latency stress.

    Identical topology and base rate to ``steady-poisson`` plus 30% extra
    requests inside 5% of the horizon — queues build faster than workers
    drain them, so p99 must exceed the steady scenario's (a hard invariant
    ``tests/test_serving.py`` enforces).
    """
    return ClusterScenario(
        name="flash-crowd-burst",
        description="steady-poisson's stream with 30% of requests compressed into "
                    "5% of the horizon: queueing drives the p99 tail far above the "
                    "steady baseline.",
        dataset="products",
        partition_method="metis",
        pipeline="tiered-cache",
        prefetch_config=PrefetchConfig(halo_fraction=0.35, gamma=0.995, delta=16),
        cache_config=CacheConfig(**_SERVING_CACHE),
        rpc="batched",
        engine="serving",
        serving=ServingSpec(arrival="flash-crowd", rate_rps=1500.0, num_requests=256,
                            slo_ms=5.0, zipf_alpha=0.8, burst_fraction=0.3,
                            burst_start_fraction=0.5, burst_duration_fraction=0.05),
        paper_note="Serving-side analogue of trainer-flaky/congested-link: a stress "
                   "input the steady-state evaluation never shows, bounded by the "
                   "same cache/RPC machinery.",
    )
