"""The benchmark's metric catalog: names, units, directions, bounds.

``BENCHMARK.json`` is generated from these tables (``run.py
--write-benchmark``), so the file and the code that prints the metrics
cannot drift apart.

End-to-end metrics are either *gated* -- listed in ``BENCHMARK.json``
with a bound, printed in the result line -- or *reported*: printed by
name and unit on every run, but left out of the gate.  Host time is the
CPU time of the single-threaded workload process; each bound is sized
from the spread of the committed steadiness set (``manifest.json``).
Host-time metrics other than ``setup_s`` are reported.  On a shared
2-CPU host the CPU speed itself drifts by up to 1.6x over minutes: in
one set of ten runs, ``cloud-overload``'s ``events_per_s`` spread 0.44,
moving in step with ``setup_s``, a build whose work does not depend on
the seed.  ``events_per_s`` does not divide out the work either: at the
same open-loop arrivals, ``cloud-overload`` executes 300k to 430k events
depending on the seed.  Simulated metrics are reported when each run's
seeds move them by more than a third of 0.25 or they read 0 on some
seeds (``failed_share``); ``success_share`` is the gated complement of
``failed_share``.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: allowed worsening as a share of the parent's median; None = reported
    bound: Optional[float]
    what: str


END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25,
             "CPU time of world construction (build_world, or the shard "
             "cells), median"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.15,
             "peak resident memory of the workload process while it builds "
             "and simulates each seed once and the first seed again"),
    EndToEnd("hit_ratio", "ratio", "higher", 0.1,
             "P2P-served / served queries (the paper's definition)"),
    EndToEnd("success_share", "ratio", "higher", 0.01,
             "1 - failed_share: issued queries not failed, shed or lost"),
    EndToEnd("run_s", "s", "lower", None,
             "CPU time to simulate one world to the horizon (best over the "
             "repeats), mean over seeds"),
    EndToEnd("events_per_s", "ev/s", "higher", None,
             "simulator events executed / run time"),
    EndToEnd("queries_per_s", "q/s", "higher", None,
             "terminal query records / run time"),
    EndToEnd("msgs_per_query", "msgs/q", "lower", None,
             "network messages sent / terminal queries"),
    EndToEnd("lookup_p50_ms", "sim_ms", "lower", None,
             "median lookup latency over issued queries, from the due time"),
    EndToEnd("lookup_p99_ms", "sim_ms", "lower", None,
             "p99 of the same; failed, shed and lost queries count as inf"),
    EndToEnd("transfer_p50_ms", "sim_ms", "lower", None,
             "median transfer distance of served queries (Fig 5)"),
    EndToEnd("failed_share", "ratio", "lower", None,
             "(failed + shed + never terminated beyond the grace) / issued"),
]

GATED = [metric for metric in END_TO_END if metric.bound is not None]


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: end-to-end metrics this layer metric should move
    moves: Tuple[str, ...]
    #: workloads where it should move / where it is predicted flat
    on: Tuple[str, ...]
    flat_on: Tuple[str, ...]


_ALL = ("flower-steady", "cloud-overload", "sharded-scale")
_FS, _CO, _SS = _ALL

#: every terminal outcome (``repro.metrics.collector.ALL_OUTCOMES``)
OUTCOMES = (
    "hit_local",
    "hit_summary",
    "hit_directory",
    "hit_transfer",
    "hit_home",
    "hit_swarm",
    "miss_server",
    "miss_failed",
    "miss_degraded",
    "failed_crash",
    "failed_unreachable",
    "shed_overload",
)


def _outcome_metric(outcome: str) -> PerLayer:
    better = "higher" if outcome.startswith("hit_") else "lower"
    return PerLayer(
        f"cdn.outcome.{outcome}", "count", better,
        ("hit_ratio", "success_share"), (_CO,), (),
    )


PER_LAYER: List[PerLayer] = [
    PerLayer("sim.events", "count", "lower", ("events_per_s", "run_s"), _ALL, ()),
    PerLayer("sim.peak_pending", "count", "lower", ("run_s", "peak_rss_mb"), _ALL, ()),
    PerLayer("sim.self_s", "s", "lower", ("events_per_s", "run_s"), _ALL, ()),
    PerLayer("net.msgs", "count", "lower", ("msgs_per_query", "run_s"), (_FS,), ()),
    PerLayer("net.msgs.maintenance", "count", "lower", ("msgs_per_query",), (_FS,), ()),
    PerLayer("net.msgs.query", "count", "lower", ("msgs_per_query",), (_FS,), ()),
    PerLayer("net.msgs.other", "count", "lower", ("msgs_per_query",), (_CO,), ()),
    PerLayer("net.msgs.replies", "count", "lower", ("msgs_per_query",), (_FS,), ()),
    PerLayer("net.drops", "count", "lower", ("msgs_per_query",), (_FS,), ()),
    PerLayer("net.self_s", "s", "lower", ("run_s",), (_FS,), ()),
    PerLayer("dht.lookups", "count", "lower", ("run_s", "events_per_s"), (_FS,), (_CO,)),
    PerLayer("dht.lookups.fix_finger", "count", "lower", ("run_s",), (_FS,), (_CO,)),
    PerLayer("dht.hops_per_lookup", "hops", "lower", ("run_s", "events_per_s"), (_FS,), (_CO,)),
    PerLayer("dht.self_s", "s", "lower", ("run_s", "events_per_s"), (_FS,), (_CO,)),
    PerLayer("dht.maintenance_self_s", "s", "lower", ("run_s",), (_FS,), (_CO,)),
    PerLayer("gossip.shuffles", "count", "lower", ("run_s", "hit_ratio"), (_FS,), ()),
    PerLayer("gossip.self_s", "s", "lower", ("run_s",), (_FS,), ()),
    PerLayer("cdn.queries", "count", "higher", ("queries_per_s",), _ALL, ()),
    *[_outcome_metric(outcome) for outcome in OUTCOMES],
    PerLayer("cdn.self_s", "s", "lower", ("run_s",), (_CO,), ()),
    PerLayer("cdn.query_self_s", "s", "lower", ("run_s", "queries_per_s"), (_CO,), (_FS,)),
    PerLayer("cdn.directory_self_s", "s", "lower", ("run_s",), (_CO,), (_FS,)),
    PerLayer("cdn.dir.sheds", "count", "lower", ("success_share",), (_CO,), (_FS,)),
    PerLayer("cdn.dir.peak_queue", "count", "lower", ("success_share",), (_CO,), (_FS,)),
    PerLayer("cdn.hint_hops", "count", "lower", ("success_share",), (_CO,), (_FS,)),
    PerLayer("cdn.hint_hit_ratio", "ratio", "higher", ("success_share",), (_CO,), (_FS,)),
    PerLayer("cdn.rebalance.spills", "count", "lower", ("run_s",), (_CO,), (_FS,)),
    PerLayer("cdn.rebalance.adoptions", "count", "higher", ("hit_ratio",), (_CO,), (_FS,)),
    PerLayer("cdn.replication.syncs", "count", "lower", ("msgs_per_query", "run_s"), (_CO,), (_FS,)),
    PerLayer("cdn.search.answered_ratio", "ratio", "higher", ("success_share",), (_CO,), (_FS,)),
    PerLayer("swarm.transfers", "count", "lower", ("run_s",), (_CO,), (_FS, _SS)),
    PerLayer("swarm.degraded", "count", "lower", ("hit_ratio",), (_CO,), (_FS, _SS)),
    PerLayer("swarm.restarts", "count", "lower", ("run_s",), (_CO,), (_FS, _SS)),
    PerLayer("swarm.chunk_retries", "count", "lower", ("run_s",), (_CO,), (_FS, _SS)),
    PerLayer("swarm.offload_ratio", "ratio", "higher", ("hit_ratio",), (_CO,), (_FS, _SS)),
    PerLayer("swarm.self_s", "s", "lower", ("run_s",), (_CO,), (_FS, _SS)),
    PerLayer("bandwidth.self_s", "s", "lower", ("run_s",), (_CO,), (_FS, _SS)),
    PerLayer("workload.openloop.candidates", "count", "lower", ("run_s",), (_CO,), (_FS,)),
    PerLayer("workload.openloop.issued", "count", "higher", ("queries_per_s",), (_CO,), (_FS,)),
    PerLayer("workload.openloop.issued_ratio", "ratio", "higher", ("queries_per_s",), (_CO,), (_FS,)),
    PerLayer("workload.openloop.self_s", "s", "lower", ("run_s", "queries_per_s"), (_CO,), (_FS,)),
    PerLayer("workload.churn.arrivals", "count", "lower", ("run_s",), (_SS,), (_FS,)),
    PerLayer("workload.churn.departures", "count", "lower", ("run_s",), (_SS,), (_FS,)),
    PerLayer("workload.churn.self_s", "s", "lower", ("run_s",), (_SS,), (_FS,)),
    PerLayer("shard.windows", "count", "lower", ("run_s",), (_SS,), (_FS, _CO)),
    PerLayer("shard.bus_entries", "count", "lower", ("run_s", "peak_rss_mb"), (_SS,), (_FS, _CO)),
    PerLayer("shard.route_self_s", "s", "lower", ("run_s",), (_SS,), (_FS, _CO)),
    PerLayer("shardnet.self_s", "s", "lower", ("run_s",), (_SS,), (_FS, _CO)),
    PerLayer("metrics.records", "count", "higher", ("queries_per_s",), (_CO,), ()),
    PerLayer("metrics.self_s", "s", "lower", ("run_s",), (_CO,), ()),
    PerLayer("trace.overhead_s", "s", "lower", (), _ALL, ()),
    PerLayer("trace.unattributed_s", "s", "lower", (), _ALL, ()),
]


def benchmark_json(workloads) -> Dict:
    """The ``BENCHMARK.json`` document (the driver's contract, exact keys)."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in GATED
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


#: Seconds one benchmark run measures.
RUN_SECONDS = 40
