"""The benchmark's workloads: configs, one simulation, and its outputs.

Each workload is a fixed :class:`~repro.experiments.config.ExperimentConfig`
plus the engine that runs it.  :func:`simulate` builds one world for one
seed (timed as set-up), runs it to the horizon (timed as the run) and
reads the program's public counters into a :class:`SimOutput`.  Nothing
here changes what the program computes: the world is built through
``repro.experiments.runner.build_world`` or the sharded-cell API, and
every number is read after the run.

Queries are issued on a simulated-time schedule in every workload: each
peer runs its own periodic query process, and ``cloud-overload`` adds a
Poisson open-loop arrival process.  A query's latency is counted from
its due time (``started_at``), and the generator cannot run late in
simulated time, because it is itself a simulator event.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.config import ExperimentConfig
from repro.metrics.collector import (
    FAILED_OUTCOMES,
    HIT_OUTCOMES,
    SERVED_OUTCOMES,
    SHED_OUTCOMES,
)
from repro.sim.clock import hours, minutes

#: A query still open at the horizon is in flight, not lost, when it was
#: issued within this grace of the cut-off: a full instance scan with
#: RPC retries plus the longest admission-queue wait fits inside it.
ACCOUNTING_GRACE_MS = minutes(2.0)

@dataclasses.dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    why: str
    protocol: str
    config: ExperimentConfig
    #: Run on the sharded engine, every shard in this process.
    sharded: bool = False
    #: Independent seeds simulated per benchmark run, derived from the
    #: run's seed; their query records are pooled.
    subseeds: int = 1


def flower_steady_config(population: int = 240, duration_hours: float = 12.0):
    """Flower at the scaled defaults: 12 websites, 3 active, 3 localities."""
    return ExperimentConfig.scaled(
        population=population, duration_hours=duration_hours
    )


def cloud_overload_config(population: int = 60, duration_hours: float = 1.0):
    """PetalUp at the cloud-heavy operating point with every plane on.

    The operating point of ``benchmarks/bench_cloud_heavy.py`` (a catalog
    several times the per-peer cache, queue 6, 400 ms service, open-loop
    rate P/6, a sustained 2x surge from mid-run) with replication k=2,
    redirect hints, rebalancing, search probes and swarming on the
    fair-share bandwidth model.
    """
    surge_start = hours(duration_hours) / 2.0
    return ExperimentConfig.scaled(
        population=population,
        duration_hours=duration_hours,
        num_websites=6,
        num_active_websites=2,
        num_localities=2,
        objects_per_website=120,
        peer_cache_capacity=15,
        directory_replication_k=2,
        directory_load_limit=12,
        max_instances=8,
        openloop_rate_qps=population / 6.0,
        openloop_diurnal_amplitude=0.25,
        openloop_surges=(
            (surge_start, minutes(10.0), 2.0, hours(50.0), 0, -1, 0.9),
        ),
        directory_queue_limit=6,
        directory_service_ms=400.0,
        overload_shedding=True,
        redirect_hints=True,
        rebalance=True,
        rebalance_cooldown_rounds=0,
        rebalance_max_keys=32,
        rebalance_budget_kb=8192.0,
        search_keywords=24,
        search_probe_period_s=45.0,
        swarming=True,
        swarm_replicate=2,
        object_mean_kb=256.0,
        bandwidth_kbps=4000.0,
        bandwidth_slow_fraction=0.15,
    )


def sharded_scale_config(population: int = 20_000, duration_hours: float = 0.5):
    """The scale shape: 8 localities and shards, 16 websites, 4 active."""
    return ExperimentConfig.scaled(
        population=population,
        duration_hours=duration_hours,
        num_websites=16,
        num_active_websites=4,
        num_localities=8,
        objects_per_website=100,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "flower-steady",
            "Paper's canonical Flower protocol, no extension planes; time goes "
            "to Chord upkeep, transport and the engine, so dht/net/sim gains "
            "show here",
            "flower",
            flower_steady_config(),
            subseeds=2,
        ),
        Workload(
            "cloud-overload",
            "PetalUp under open-loop 2x surge with replication, hints, "
            "rebalancing, search and swarming all on; plane and open-loop "
            "gains show here, dht gains do not",
            "petalup",
            cloud_overload_config(),
            subseeds=2,
        ),
        Workload(
            "sharded-scale",
            "Flower on the in-process sharded engine at P=20k over 8 shards; "
            "population-proportional costs, shardnet and the window loop show "
            "here",
            "flower",
            sharded_scale_config(),
            sharded=True,
            subseeds=1,
        ),
    )
}


def subseeds(workload: Workload, seed: int) -> List[int]:
    """The world seeds one benchmark run simulates for *seed*."""
    return [workload.subseeds * seed + k for k in range(workload.subseeds)]


def _build(workload: Workload, seed: int):
    """One world: a ``World``, or ``(cells, window_ms)`` when sharded."""
    config = workload.config
    if not workload.sharded:
        from repro.experiments.runner import build_world

        return build_world(workload.protocol, config, seed)
    from repro.experiments.sharded import (
        ShardCell,
        default_window_ms,
        validate_sharded,
    )
    from repro.net.shardnet import ShardMap

    num_shards = validate_sharded(workload.protocol, config, workers=1)
    shard_map = ShardMap(num_shards, config.num_localities, config.num_websites)
    window_ms = default_window_ms(config)
    cells = {
        shard_id: ShardCell(config, seed, shard_map, shard_id, window_ms, False)
        for shard_id in range(num_shards)
    }
    return cells, window_ms


def time_setup(workload: Workload, seed: int) -> float:
    """CPU seconds to build one world of *workload* (then discarded)."""
    gc.collect()
    started = time.process_time()
    _build(workload, seed)
    return time.process_time() - started


# --------------------------------------------------------------- one run
@dataclasses.dataclass
class SimOutput:
    """What one simulation produced, read from the program's counters."""

    seed: int
    #: CPU seconds of the process (``time.process_time``): the program is
    #: single-threaded, so time the host spends on other processes drops out
    setup_s: float
    run_s: float
    #: wall-clock seconds of the run, the clock the tracer's spans use
    run_wall_s: float
    horizon_ms: float
    events: int
    peak_pending: int
    messages_sent: int
    kind_counts: Dict[str, int]
    drop_counts: Dict[str, int]
    outcome_counts: Dict[str, int]
    #: lookup latency and transfer distance of each served query
    latencies: array
    transfers: array
    issued: int
    #: ``started_at`` of every ledger entry still open at the horizon.
    open_started: List[float]
    #: issues that overwrote an open ledger entry (:class:`LedgerObserver`)
    reopened: int
    #: plane and workload counters read after the run
    counters: Dict[str, float]

    @property
    def terminal(self) -> int:
        return sum(self.outcome_counts.values())

    def fingerprint(self) -> Tuple:
        """The simulated result a host-speed change must leave alone."""
        return (
            self.events,
            tuple(sorted(self.outcome_counts.items())),
            tuple(sorted(self.kind_counts.items())),
        )

    def fingerprint_digest(self) -> str:
        return hashlib.sha256(repr(self.fingerprint()).encode()).hexdigest()[:16]

    @property
    def in_flight(self) -> int:
        """Open at the horizon and issued within the grace: still running."""
        cutoff = self.horizon_ms - ACCOUNTING_GRACE_MS
        return sum(1 for started in self.open_started if started >= cutoff)

    @property
    def unterminated(self) -> int:
        """Issued, never terminated, and older than the grace."""
        return self.issued - self.terminal - self.in_flight

    def accounting_error(self) -> Optional[str]:
        """Why issued queries do not add up, or None when they do.

        Every issued query is a terminal record, an entry still open at
        the horizon and issued within :data:`ACCOUNTING_GRACE_MS` of it,
        or an entry overwritten by a reopen.  An entry left open for
        longer is a lost query and fails the check.
        """
        accounted = self.terminal + self.in_flight + self.reopened
        if accounted == self.issued:
            return None
        stale = len(self.open_started) - self.in_flight
        return (
            f"seed {self.seed}: issued {self.issued} != terminal "
            f"{self.terminal} + in flight {self.in_flight} + "
            f"reopened {self.reopened} ({stale} open longer than the grace)"
        )


def _records(records) -> Dict[str, Any]:
    """Outcome counts and served-query samples of terminal *records*."""
    outcomes: Dict[str, int] = {}
    latencies, transfers = array("d"), array("d")
    for record in records:
        outcomes[record.outcome] = outcomes.get(record.outcome, 0) + 1
        if record.outcome in SERVED_OUTCOMES:
            latencies.append(record.lookup_latency_ms)
            transfers.append(record.transfer_ms)
    return {
        "outcome_counts": outcomes,
        "latencies": latencies,
        "transfers": transfers,
    }


def _ledger(peers) -> Tuple[int, List[float]]:
    issued = 0
    open_started: List[float] = []
    for peer in peers:
        issued += peer.queries_issued
        open_started.extend(peer._open_queries.values())
    return issued, open_started


class LedgerObserver:
    """Counts queries issued while their peer already had the key open.

    Such an issue overwrites the open ledger entry, so the first query
    can never terminate (the chaos auditor's I1 ``query_reopened``).  The
    observer listens to the ``cdn.query`` trace event, which the program
    emits just before it opens the entry.
    """

    def __init__(self) -> None:
        self.reopened = 0

    def attach(self, sim, network) -> None:
        def on_query(event) -> None:
            payload = event.payload
            if payload["key"] in network.node(payload["peer"])._open_queries:
                self.reopened += 1

        sim.trace.subscribe("cdn.query", on_query)


def _system_counters(systems) -> Dict[str, float]:
    """Plane counters summed over the Flower-family *systems*."""
    from repro.cdn.flower.system import FlowerSystem

    counters: Dict[str, float] = {}
    p2p_bytes = origin_bytes = 0.0
    for system in systems:
        if not isinstance(system, FlowerSystem):
            continue
        stats = system.stats()
        overload, swarm = stats.overload, stats.swarm
        for name, value in (
            ("cdn.dir.sheds", overload.queries_shed),
            ("cdn.hint_hops", overload.hint_hops),
            ("cdn.hint_hits", overload.hint_hits),
            ("cdn.rebalance.spills", overload.rebalance_spills),
            ("cdn.rebalance.adoptions", overload.rebalance_adoptions),
            ("cdn.replication.syncs", stats.replication.syncs),
            ("swarm.transfers", swarm.transfers_started),
            ("swarm.degraded", swarm.transfers_degraded),
            ("swarm.restarts", swarm.restarts),
            ("swarm.chunk_retries", swarm.chunk_retries),
        ):
            counters[name] = counters.get(name, 0) + value
        counters["cdn.dir.peak_queue"] = max(
            counters.get("cdn.dir.peak_queue", 0), overload.peak_queue_depth
        )
        p2p_bytes += swarm.p2p_bytes
        origin_bytes += swarm.origin_bytes
    moved = p2p_bytes + origin_bytes
    counters["swarm.offload_ratio"] = p2p_bytes / moved if moved else 0.0
    return counters


def simulate(
    workload: Workload,
    seed: int,
    before_run: Optional[Callable[[Any, Any], None]] = None,
) -> SimOutput:
    """Build, run and read one world of *workload* for *seed*.

    *before_run(sim, network)* is called for each simulator after set-up,
    before the timed run (observers subscribe there).
    """
    from repro.sim import sharded

    config = workload.config
    gc.collect()
    started = time.process_time()
    built = _build(workload, seed)
    setup_s = time.process_time() - started
    if workload.sharded:
        cells, window_ms = built
        parts = list(cells.values())

        def run() -> None:
            # Looked up at call time, so a traced run times the wrapped loop.
            sharded.run_windows(cells, config.duration_ms, window_ms)

    else:
        parts = [built]
        run = built.run

    ledger = LedgerObserver()
    for part in parts:
        ledger.attach(part.sim, part.network)
        if before_run is not None:
            before_run(part.sim, part.network)
    gc.collect()
    started, wall_started = time.process_time(), time.perf_counter()
    run()
    run_s = time.process_time() - started
    run_wall_s = time.perf_counter() - wall_started

    kind_counts: Dict[str, int] = {}
    drop_counts: Dict[str, int] = {}
    for part in parts:
        for kind, count in part.network.kind_counts.items():
            kind_counts[kind] = kind_counts.get(kind, 0) + count
        for cause, count in part.network.drop_counts.items():
            drop_counts[cause] = drop_counts.get(cause, 0) + count
    issued, open_started = _ledger(
        peer for part in parts for peer in part.system.peers.values()
    )
    counters = _system_counters(part.system for part in parts)
    counters["workload.churn.arrivals"] = sum(p.churn.arrivals for p in parts)
    counters["workload.churn.departures"] = sum(p.churn.departures for p in parts)
    if workload.sharded:
        counters["shard.windows"] = math.ceil(config.duration_ms / window_ms)
        counters["shard.bus_entries"] = sum(p.network.bus_entries_out for p in parts)
    elif built.openloop is not None:
        counters["workload.openloop.candidates"] = built.openloop.stats["candidates"]
        counters["workload.openloop.issued"] = built.openloop.stats["issued"]
    return SimOutput(
        seed=seed,
        setup_s=setup_s,
        run_s=run_s,
        run_wall_s=run_wall_s,
        horizon_ms=config.duration_ms,
        events=sum(p.sim.events_executed for p in parts),
        peak_pending=max(p.sim.peak_pending_events for p in parts),
        messages_sent=sum(p.network.messages_sent for p in parts),
        kind_counts=kind_counts,
        drop_counts=drop_counts,
        **_records(r for p in parts for r in p.system.metrics.records),
        issued=issued,
        open_started=open_started,
        reopened=ledger.reopened,
        counters=counters,
    )


# ------------------------------------------------------------- metrics
def nearest_rank(sorted_values: List[float], q: float) -> float:
    """The q-th percentile by nearest rank, q in (0, 100]."""
    rank = max(1, math.ceil(q * len(sorted_values) / 100.0))
    return sorted_values[rank - 1]


def simulated_metrics(outputs: List[SimOutput]) -> Dict[str, Any]:
    """The end-to-end simulated metrics over the pooled *outputs*.

    Lookup latency is taken over issued queries: a failed, shed or
    never-terminated query counts as later than every limit (``inf``);
    queries still in flight at the horizon are left out.
    """
    served = hits = failed = shed = unterminated = issued = terminal = 0
    messages = 0
    latencies: List[float] = []
    transfers: List[float] = []
    for output in outputs:
        issued += output.issued
        terminal += output.terminal
        messages += output.messages_sent
        unterminated += output.unterminated
        latencies.extend(output.latencies)
        transfers.extend(output.transfers)
        for outcome, count in output.outcome_counts.items():
            if outcome in SERVED_OUTCOMES:
                served += count
                if outcome in HIT_OUTCOMES:
                    hits += count
            elif outcome in FAILED_OUTCOMES:
                failed += count
            elif outcome in SHED_OUTCOMES:
                shed += count
    # Failed, shed and never-terminated queries miss every latency limit.
    latencies.extend([float("inf")] * (terminal - served + unterminated))
    latencies.sort()
    transfers.sort()
    p99 = nearest_rank(latencies, 99.0)
    return {
        "hit_ratio": hits / served,
        "lookup_p50_ms": nearest_rank(latencies, 50.0),
        "lookup_p99_ms": p99,
        "lookup_samples": len(latencies),
        "lookup_beyond_p99": sum(1 for value in latencies if value > p99),
        "transfer_p50_ms": nearest_rank(transfers, 50.0),
        "msgs_per_query": messages / terminal,
        "failed_share": (failed + shed + unterminated) / issued,
        "issued": issued,
        "terminal": terminal,
        "failed": failed,
        "shed": shed,
        "unterminated": unterminated,
    }
