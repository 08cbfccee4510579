"""The repository benchmark: one workload per process, checked outputs.

Usage (from the root of a checkout)::

    # One measured run; prints every end-to-end metric, then one JSON line.
    python3 perfbench/run.py --workload flower-steady --seed 1 --seconds 40 --trace 0

    # The traced run of the same workload: per-layer metrics.
    python3 perfbench/run.py --workload cloud-overload --seed 1 --trace 1

    # Every workload, N seeds each, each run in its own fresh process,
    # then the median, quartiles and spread of every end-to-end metric.
    python3 perfbench/run.py --steadiness --runs 10

    # Regenerate BENCHMARK.json and perfbench/manifest.json.
    python3 perfbench/run.py --write-benchmark

A measured run simulates the workload's fixed set of seeds (derived from
``--seed``), simulates the first of them once more to check that the
result repeats, and keeps repeating seeds while ``--seconds`` allow.
Host time is the CPU time of this single-threaded process, so time the
host gives to other processes drops out.  A seed's run time is its best
over the repeats.  Set-up is timed in batches between the simulations,
and ``setup_s`` is each world's best build, averaged over the worlds.
Every simulation is checked: its fingerprint (events executed, outcome
counts, per-kind message counts) must repeat exactly, and every issued
query must be accounted for.  A failed check prints ``CHECK FAILED``,
reports ``"correct": false`` and exits with status 1.

The program runs in this process, from ``src/`` of the same checkout;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Where runs leave their artifacts (span files, per-run results).
OUT = os.path.join(ROOT, ".perfbench")


def _load_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program sources at {SRC}/repro\n")
        sys.exit(2)
    sys.path[:0] = [SRC, ROOT]


#: Set-up is timed in batches, one before the first simulation and one
#: after each simulation, so its samples spread over the whole run: the
#: host's speed changes over spans of a few hundred milliseconds, longer
#: than one build.  A batch builds every world of the run this many times.
SETUP_REPEATS = 8


# ---------------------------------------------------------------- measuring
def measure(workload, seed: int, seconds: float) -> Dict:
    """Simulate *workload*'s seeds for *seed*; metrics plus check failures."""
    from perfbench.catalog import GATED
    from perfbench.workloads import simulate, simulated_metrics, subseeds, time_setup

    started = time.perf_counter()
    seeds = subseeds(workload, seed)
    time_setup(workload, seeds[0])  # first build: imports and caches

    builds: Dict[int, List[float]] = {s: [] for s in seeds}

    def set_up_batch() -> None:
        for s in seeds:
            builds[s].extend(time_setup(workload, s) for _ in range(SETUP_REPEATS))

    def run_and_set_up(world_seed: int):
        output = simulate(workload, world_seed)
        set_up_batch()
        return output

    set_up_batch()
    outputs = [run_and_set_up(s) for s in seeds]
    first = {output.seed: output for output in outputs}
    repeats = [run_and_set_up(seeds[0])]
    # Read before the repeats the time budget allows: the high-water mark
    # grows with the number of simulations, which follows host speed.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    turn = 1
    while True:
        nxt = seeds[turn % len(seeds)]
        elapsed = time.perf_counter() - started
        if elapsed + first[nxt].setup_s + first[nxt].run_wall_s > seconds:
            break
        repeats.append(run_and_set_up(nxt))
        turn += 1

    failures: List[str] = []
    for output in outputs + repeats:
        error = output.accounting_error()
        if error:
            failures.append(f"accounting: {error}")
    for output in repeats:
        if output.fingerprint() != first[output.seed].fingerprint():
            failures.append(
                f"repeat: seed {output.seed} fingerprint "
                f"{output.fingerprint_digest()} != "
                f"{first[output.seed].fingerprint_digest()}"
            )

    # Load from other processes only ever adds time: keep each seed's best.
    best: Dict[int, float] = {}
    for output in outputs + repeats:
        best[output.seed] = min(best.get(output.seed, output.run_s), output.run_s)
    run_total = sum(best.values())
    events = sum(output.events for output in outputs)
    terminal = sum(output.terminal for output in outputs)
    sim = simulated_metrics(outputs)
    metrics = {
        # Like run time: each world's best build over the run.
        "setup_s": statistics.fmean(min(times) for times in builds.values()),
        "run_s": run_total / len(seeds),
        "events_per_s": events / run_total,
        "queries_per_s": terminal / run_total,
        "peak_rss_mb": peak_rss_mb,
        "hit_ratio": sim["hit_ratio"],
        "msgs_per_query": sim["msgs_per_query"],
        "success_share": 1.0 - sim["failed_share"],
        "lookup_p50_ms": sim["lookup_p50_ms"],
        "lookup_p99_ms": sim["lookup_p99_ms"],
        "transfer_p50_ms": sim["transfer_p50_ms"],
        "failed_share": sim["failed_share"],
    }
    for metric in GATED:
        value = metrics[metric.name]
        if not 0 < value < float("inf"):
            failures.append(f"metric: {metric.name} = {value} (must be finite, > 0)")
    if not metrics["hit_ratio"] <= 1.0:
        failures.append(f"metric: hit_ratio = {metrics['hit_ratio']} > 1")
    return {
        "workload": workload.name,
        "seed": seed,
        "seeds": seeds,
        "simulations": len(outputs) + len(repeats),
        "setups": sum(len(times) for times in builds.values()),
        "metrics": metrics,
        "sim": sim,
        "reopened": sum(output.reopened for output in outputs),
        "fingerprints": {
            str(output.seed): output.fingerprint_digest() for output in outputs
        },
        "failures": failures,
    }


def _print_measure(result: Dict) -> None:
    from perfbench.catalog import END_TO_END

    sim = result["sim"]
    print(
        f"perfbench {result['workload']} seed={result['seed']}: "
        f"{result['simulations']} simulations of seeds {result['seeds']} "
        f"(the first repeated), {result['setups']} set-ups"
    )
    for metric in END_TO_END:
        value = result["metrics"][metric.name]
        note = "" if metric.bound is not None else "  [reported, not gated]"
        if metric.name == "lookup_p99_ms":
            note = (
                f"  (n={sim['lookup_samples']}, {sim['lookup_beyond_p99']} beyond)"
                + note
            )
        print(f"  {metric.name:<16} {value:>14.6g} {metric.unit:<7}{note}")
    print(
        f"  queries: issued {sim['issued']}, terminal {sim['terminal']}, "
        f"failed {sim['failed']}, shed {sim['shed']}, "
        f"never terminated {sim['unterminated']}"
    )
    if result["reopened"]:
        print(
            f"  program defect: {result['reopened']} queries were issued while "
            f"their peer already had the key open (chaos invariant I1 "
            f"query_reopened); their ledger entry was overwritten, so they "
            f"count as never terminated in failed_share"
        )
    print(
        "  load: open schedule in simulated time (per-peer query processes"
        " and the open-loop arrivals are simulator events, so the generator"
        " is never late; latency runs from each query's due time)"
    )
    print(f"  fingerprints: {result['fingerprints']}")


# ------------------------------------------------------------------ tracing
def trace(workload, seed: int) -> Dict:
    """Untraced and traced simulation of one seed; per-layer metrics."""
    from perfbench.tracing import Tracer
    from perfbench.workloads import simulate, subseeds
    from repro.cdn.flower.search import SearchAvailabilityTracker

    world_seed = subseeds(workload, seed)[0]
    plain = simulate(workload, world_seed)
    searches: List[SearchAvailabilityTracker] = []

    tracer = Tracer()

    def observe(sim, network) -> None:
        searches.append(SearchAvailabilityTracker(sim))
        tracer.clear()  # keep the spans of the run, not of set-up

    with tracer.installed():
        traced = simulate(workload, world_seed, before_run=observe)
    stem = os.path.join(OUT, "traces")
    tracer.write(stem, workload.name)

    failures: List[str] = []
    for output in (plain, traced):
        error = output.accounting_error()
        if error:
            failures.append(f"accounting: {error}")
    if traced.fingerprint() != plain.fingerprint():
        failures.append(
            f"trace: traced fingerprint {traced.fingerprint_digest()} != "
            f"untraced {plain.fingerprint_digest()}"
        )

    metrics = layer_metrics(tracer, plain, traced, searches)
    if metrics["cdn.queries"] != traced.issued:
        failures.append(
            f"trace: {metrics['cdn.queries']} resolve_query spans != "
            f"{traced.issued} issued queries"
        )
    if metrics["metrics.records"] != traced.terminal:
        failures.append(
            f"trace: {metrics['metrics.records']} record spans != "
            f"{traced.terminal} terminal records"
        )
    return {
        "workload": workload.name,
        "seed": seed,
        "world_seed": world_seed,
        "untraced_run_s": plain.run_wall_s,
        "traced_run_s": traced.run_wall_s,
        "spans": len(tracer.start),
        "events_traced": tracer.events,
        "span_file": os.path.join(stem, workload.name),
        "metrics": metrics,
        "fingerprint": plain.fingerprint_digest(),
        "failures": failures,
    }


def layer_metrics(tracer, plain, traced, searches) -> Dict[str, float]:
    """Every per-layer metric of a traced run, from spans and counters.

    *plain* and *traced* are the untraced and traced simulations of one
    seed; *searches* are the search trackers attached to the traced run.
    """
    from perfbench.catalog import OUTCOMES, PER_LAYER
    from repro.metrics.overhead import classify

    self_times = tracer.self_times()
    span_counts = tracer.span_counts()
    by_layer: Dict[str, float] = {}
    by_tag: Dict[tuple, float] = {}
    counted: Dict[tuple, int] = {}
    for nid, (layer, label, tag) in enumerate(tracer.names):
        spent = self_times.get(nid, 0.0)
        by_layer[layer] = by_layer.get(layer, 0.0) + spent
        by_tag[(layer, tag)] = by_tag.get((layer, tag), 0.0) + spent
        counted[(layer, label)] = counted.get((layer, label), 0) + span_counts.get(
            nid, 0
        )
    reported_layers = {
        "sim": "sim.self_s",
        "net": "net.self_s",
        "dht": "dht.self_s",
        "gossip": "gossip.self_s",
        "cdn": "cdn.self_s",
        "swarm": "swarm.self_s",
        "bandwidth": "bandwidth.self_s",
        "workload.openloop": "workload.openloop.self_s",
        "workload.churn": "workload.churn.self_s",
        "shard": "shard.route_self_s",
        "shardnet": "shardnet.self_s",
        "metrics": "metrics.self_s",
    }
    metrics: Dict[str, float] = {
        name: by_layer.get(layer, 0.0) for layer, name in reported_layers.items()
    }
    unattributed = traced.run_wall_s - tracer.root_time()
    unattributed += sum(
        spent for layer, spent in by_layer.items() if layer not in reported_layers
    )
    categories = {"maintenance": 0, "query": 0, "other": 0}
    for kind, count in traced.kind_counts.items():
        categories[classify(kind)] += count
    counters = traced.counters
    outcomes = traced.outcome_counts
    counts = tracer.counts
    answered = issued_searches = 0
    for tracker in searches:
        stats = tracker.window_stats()
        answered += stats["answered"]
        issued_searches += stats["issued"]
    candidates = counters.get("workload.openloop.candidates", 0)
    hint_hops = counters.get("cdn.hint_hops", 0)
    metrics.update(
        {
            "sim.events": traced.events,
            "sim.peak_pending": traced.peak_pending,
            "net.msgs": traced.messages_sent,
            "net.msgs.maintenance": categories["maintenance"],
            "net.msgs.query": categories["query"],
            "net.msgs.other": categories["other"],
            "net.msgs.replies": traced.messages_sent - sum(categories.values()),
            "net.drops": sum(traced.drop_counts.values()),
            "dht.lookups": counts["dht.lookups"],
            "dht.lookups.fix_finger": counts["dht.lookups.fix_finger"],
            "dht.hops_per_lookup": (
                counts["dht.hops"] / counts["dht.lookups_done"]
                if counts["dht.lookups_done"]
                else 0.0
            ),
            "dht.maintenance_self_s": by_tag.get(("dht", "maintenance"), 0.0),
            "gossip.shuffles": counted.get(("gossip", "shuffle"), 0),
            "cdn.queries": counted.get(("cdn", "query"), 0),
            "cdn.query_self_s": by_tag.get(("cdn", "query"), 0.0),
            "cdn.directory_self_s": by_tag.get(("cdn", "directory"), 0.0),
            "cdn.hint_hit_ratio": (
                counters.get("cdn.hint_hits", 0) / hint_hops if hint_hops else 0.0
            ),
            "cdn.search.answered_ratio": (
                answered / issued_searches if issued_searches else 0.0
            ),
            "workload.openloop.issued_ratio": (
                counters.get("workload.openloop.issued", 0) / candidates
                if candidates
                else 0.0
            ),
            "metrics.records": counted.get(("metrics", "record"), 0),
            "trace.overhead_s": traced.run_wall_s - plain.run_wall_s,
            "trace.unattributed_s": unattributed,
        }
    )
    for outcome in OUTCOMES:
        metrics[f"cdn.outcome.{outcome}"] = outcomes.get(outcome, 0)
    for metric in PER_LAYER:
        metrics.setdefault(metric.name, counters.get(metric.name, 0))
    return metrics


def _print_trace(result: Dict) -> None:
    from perfbench.catalog import PER_LAYER

    print(
        f"perfbench {result['workload']} seed={result['seed']} traced "
        f"(world seed {result['world_seed']}): run {result['untraced_run_s']:.3f} s "
        f"untraced, {result['traced_run_s']:.3f} s traced, "
        f"{result['spans']} spans in {result['events_traced']} events"
    )
    covered = 1.0 - result["metrics"]["trace.unattributed_s"] / result["traced_run_s"]
    print(f"  layer spans cover {covered:.1%} of the traced run")
    for metric in PER_LAYER:
        value = result["metrics"][metric.name]
        moves = ", ".join(metric.moves) or "-"
        print(f"  {metric.name:<32} {value:>14.6g} {metric.unit:<6} -> {moves}")
    print(f"  spans written to {result['span_file']}.bin/.json")
    print(f"  fingerprint (traced = untraced): {result['fingerprint']}")


# ------------------------------------------------------------- steadiness
def steadiness(names: List[str], runs: int, first_seed: int, seconds: int) -> int:
    """Run each workload *runs* times in fresh processes; print the spread."""
    from perfbench.catalog import END_TO_END

    report: Dict[str, Dict] = {}
    status = 0
    for name in names:
        values: Dict[str, List[float]] = {m.name: [] for m in END_TO_END}
        for seed in range(first_seed, first_seed + runs):
            command = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
            ]
            done = subprocess.run(
                command, capture_output=True, text=True, timeout=600, check=False
            )
            if done.returncode != 0:
                sys.stderr.write(done.stdout + done.stderr)
                print(f"{name} seed {seed}: FAILED (exit {done.returncode})")
                status = 1
                continue
            with open(_result_path(name, seed)) as handle:
                metrics = json.load(handle)["metrics"]
            for metric_name in values:
                values[metric_name].append(metrics[metric_name])
        report[name] = _spread_table(name, values)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "steadiness.json"), "w") as handle:
        json.dump(
            {"runs": runs, "first_seed": first_seed, "seconds": seconds,
             "workloads": report},
            handle,
            indent=1,
        )
    return status


def _spread_table(name: str, values: Dict[str, List[float]]) -> Dict:
    from perfbench.catalog import END_TO_END

    print(f"{name}: median [q1, q3] over runs, spread = (q3 - q1) / median")
    table = {}
    for metric in END_TO_END:
        series = values[metric.name]
        if len(series) < 2:
            continue
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        if metric.bound is None:
            verdict = "reported"
        elif spread <= metric.bound / 3:
            verdict = "ok"
        elif spread <= metric.bound:
            verdict = "within bound"
        else:
            verdict = "WIDER THAN BOUND"
        bound = "-" if metric.bound is None else f"{metric.bound:g}"
        print(
            f"  {metric.name:<16} {median:>12.6g} [{q1:.6g}, {q3:.6g}] "
            f"{metric.unit:<7} n={len(series)} spread={spread:.4f} "
            f"bound={bound} {verdict}"
        )
        table[metric.name] = {
            "median": median, "q1": q1, "q3": q3, "runs": len(series),
            "spread": spread, "bound": metric.bound, "unit": metric.unit,
            "values": series,
        }
    return table


def _result_path(name: str, seed: int) -> str:
    return os.path.join(OUT, "results", f"{name}-seed{seed}.json")


# ------------------------------------------------------------ documents
def write_documents() -> None:
    """Write BENCHMARK.json and perfbench/manifest.json from the catalog."""
    import platform

    from perfbench.catalog import END_TO_END, PER_LAYER, benchmark_json
    from perfbench.workloads import WORKLOADS
    from repro.chaos.runner import config_to_dict

    workloads = list(WORKLOADS.values())
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as handle:
        json.dump(benchmark_json(workloads), handle, indent=2)
        handle.write("\n")
    steadiness_path = os.path.join(OUT, "steadiness.json")
    committed = None
    if os.path.exists(steadiness_path):
        with open(steadiness_path) as handle:
            committed = json.load(handle)
    sha = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"],
        capture_output=True, text=True, check=False,
    ).stdout.strip()
    manifest = {
        "claim": None,
        "workloads": [
            {
                "name": w.name,
                "why": w.why,
                "protocol": w.protocol,
                "engine": "sharded, workers=1" if w.sharded else "single simulator",
                "seeds_per_run": w.subseeds,
                "config": config_to_dict(w.config),
            }
            for w in workloads
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound, "gated": m.bound is not None, "what": m.what}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "moves": list(m.moves), "on": list(m.on), "flat_on": list(m.flat_on)}
            for m in PER_LAYER
        ],
        "committed_numbers": {
            "host": {
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "machine": platform.machine(),
            },
            "source_sha": sha or None,
            "steadiness": committed,
        },
    }
    with open(os.path.join(ROOT, "perfbench", "manifest.json"), "w") as handle:
        json.dump(manifest, handle, indent=1)
        handle.write("\n")


# ----------------------------------------------------------------- main
def _emit(correct: bool, attempted: int, failed: int, metrics: Dict) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )


def main(argv: Optional[List[str]] = None) -> int:
    from perfbench.catalog import GATED, PER_LAYER, RUN_SECONDS
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--write-benchmark", action="store_true")
    args = parser.parse_args(argv)

    if args.write_benchmark:
        write_documents()
        return 0
    if args.steadiness:
        names = [args.workload] if args.workload else list(WORKLOADS)
        return steadiness(names, args.runs, args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]

    if args.trace:
        result = trace(workload, args.seed)
        _print_trace(result)
        names = [metric.name for metric in PER_LAYER]
        units = {metric.name: metric.unit for metric in PER_LAYER}
        simulations = 2
    else:
        result = measure(workload, args.seed, args.seconds)
        _print_measure(result)
        os.makedirs(os.path.dirname(_result_path(workload.name, args.seed)), exist_ok=True)
        with open(_result_path(workload.name, args.seed), "w") as handle:
            json.dump(result, handle, indent=1)
        names = [metric.name for metric in GATED]
        units = {metric.name: metric.unit for metric in GATED}
        simulations = result["simulations"]
    failures = result["failures"]
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
        sys.stderr.write(f"CHECK FAILED: {failure}\n")
    if not failures:
        print("checks: passed (fingerprints repeat, every issued query accounted)")
    _emit(
        not failures,
        simulations,
        len(failures),
        {name: {"value": result["metrics"][name], "unit": units[name]} for name in names},
    )
    return 1 if failures else 0


if __name__ == "__main__":
    _load_program()
    sys.exit(main())
