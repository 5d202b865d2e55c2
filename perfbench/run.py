#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of the DCDB/Wintermute data path.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 \
        --trace 0

One run builds the workload's deployment, replays pre-recorded plugin
samples through it one ``Deployment.run(interval)`` call per sampling
interval (a closed loop with one driver), and after every measured tick
a single closed-loop reader issues a fixed mix of queries.  It checks
the outputs, prints every metric by name with its unit, and ends with
one JSON line::

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is the
traced run and reports the per-layer metrics instead (see METRICS.md).
``--seconds`` sets the measured length: a workload measures
``seconds x ticks_per_second`` ticks, calibrated to take about that
many wall seconds on a 2-core host.  A fixed tick count keeps the
end-of-run state (memory, segments, spill loss) the same between runs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import replay  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

NS_PER_S = 1_000_000_000
#: Ticks whose replayed values are compared with the live plugins.
VERIFY_TICKS = 3
#: Fresh-interpreter set-ups timed per run (median reported).
SETUP_SAMPLES = 5
#: Reader queries of each kind after every measured tick.
READS_PER_KIND = 10
#: Reader windows: ``recent`` looks back 10 s from the newest reading;
#: ``range`` spans 30 s ending one cache window back; ``agg`` buckets
#: the whole history by 10 s.
RECENT_NS = 10 * NS_PER_S
RANGE_NS = 30 * NS_PER_S
AGG_BUCKET_NS = 10 * NS_PER_S


def tail(samples: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile that still has at
    least ten samples above it, and at most p99 (the maximum when there
    are too few samples).

    The p99 cap matters only past 1,000 samples: the tiered reader's
    10,800 queries would otherwise put the tail at p99.9, among a few
    dozen segment loads, where it doubles from run to run.
    """
    ordered = sorted(samples)
    n = len(ordered)
    beyond = max(10, math.ceil(n / 100))
    rank = n - 1 - beyond if n > beyond else n - 1
    return ordered[rank], 100.0 * (rank + 1) / n


# ----------------------------------------------------------------------
# Set-up time, in fresh interpreters
# ----------------------------------------------------------------------


def measure_setup(root: Path, workload: Workload, seed: int, work: Path):
    """Time ``SETUP_SAMPLES`` cold set-ups, each in a fresh interpreter.

    The caller has already imported ``repro`` (and its plugins) in this
    process, which compiled the bytecode and warmed the disk cache, so
    every probe starts from the same state.
    """
    probe = [sys.executable, str(HERE / "setup_probe.py")]
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    samples = []
    for i in range(SETUP_SAMPLES):
        out = subprocess.run(
            probe + [workload.name, str(seed), str(work / f"setup-{i}")],
            cwd=root, env=env, check=True, timeout=120,
            capture_output=True, text=True,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return samples


# ----------------------------------------------------------------------
# The closed-loop reader
# ----------------------------------------------------------------------


class Reader:
    """Issues ``READS_PER_KIND`` queries of each kind after every tick.

    ``recent``: agent Query Engine ``query_relative`` over 10 s (served
    from the agent's caches); ``range``: ``storage.query`` over the 30 s
    ending one cache window back (clipped to the first 30 s of history
    while the run is younger than that); ``agg``:
    ``storage.query_aggregate`` with 10 s buckets over all history.
    """

    KINDS = ("recent", "range", "agg")

    def __init__(self, dep, topics, rng, cache_window_ns, checker,
                 tracer: Optional[tracing.Tracer]) -> None:
        self.topics = topics
        self.rng = rng
        self.cache_window_ns = cache_window_ns
        self.checker = checker
        self.engine = dep.agent_manager.engine
        self.storage = dep.agent.storage
        self.dep = dep
        self.latency_us: Dict[str, List[float]] = {k: [] for k in self.KINDS}
        self.issued = 0
        self.raised = 0
        self.errors: List[str] = []
        self._ops = {
            "recent": self._recent, "range": self._range, "agg": self._agg,
        }
        if tracer is not None:
            self._ops = {
                k: tracer.wrap(f"reader:{k}", fn, record=True)
                for k, fn in self._ops.items()
            }

    def _recent(self, topic, now):
        return len(self.engine.query_relative(topic, RECENT_NS).values())

    def _range(self, topic, now):
        hi = now - self.cache_window_ns
        if hi - RANGE_NS < 0:
            hi = RANGE_NS
        return self.storage.query(topic, hi - RANGE_NS, hi)

    def _agg(self, topic, now):
        return self.storage.query_aggregate(topic, 0, now, AGG_BUCKET_NS)

    def read(self) -> None:
        now = self.dep.now
        for _ in range(READS_PER_KIND):
            for kind in self.KINDS:
                topic = self.topics[int(self.rng.integers(len(self.topics)))]
                self.issued += 1
                t0 = time.perf_counter_ns()
                try:
                    result = self._ops[kind](topic, now)
                except Exception as exc:  # a failed query is counted
                    self.raised += 1
                    if len(self.errors) < 5:
                        self.errors.append(f"{kind} {topic}: {exc!r}")
                    continue
                self.latency_us[kind].append(
                    (time.perf_counter_ns() - t0) / 1e3)
                if kind == "range":
                    self.checker.check_range(topic, *result)


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


class Run:
    """Everything one run measured."""

    def __init__(self, workload: Workload, traced: bool) -> None:
        self.workload = workload
        self.traced = traced
        self.setup: List[dict] = []
        self.gen_s = 0.0
        self.tick_ms: List[float] = []
        self.firings: List[int] = []
        #: Per measured tick: readings the agent drained, and whether
        #: the tick was traced.
        self.forwarded: List[int] = []
        self.traced_flags: List[bool] = []
        self.persisted_in_ticks = 0
        self.end: Dict[str, int] = {}
        self.reader: Optional[Reader] = None
        self.replayer: Optional[replay.Replayer] = None
        self.checker: Optional[checks.Checker] = None
        self.tracer: Optional[tracing.Tracer] = None
        self.dep = None
        self.rec: Optional[replay.Recording] = None


def run(root: Path, workload: Workload, seed: int, seconds: float,
        traced: bool, work: Path) -> Run:
    r = Run(workload, traced)
    sys.path.insert(0, str(root / "src"))
    import repro.plugins  # noqa: F401  (compiles bytecode for the probes)
    from repro.deploy import build_deployment

    r.setup = measure_setup(root, workload, seed, work)

    measured = workload.measured_ticks(seconds)
    ticks = workload.warmup_ticks + measured
    # Sampling tasks first fire at t=0, which run_until(0) processes
    # before the first tick; tick k then samples t = k * interval.
    samples = ticks + 1
    r.rec = rec = replay.record(
        build_deployment,
        workload.make_spec(seed, str(work / "generator")),
        samples,
    )
    r.gen_s = rec.gen_s
    shutil.rmtree(work / "generator", ignore_errors=True)
    gc.collect()

    spec = workload.make_spec(seed, str(work / "storage"))
    r.dep = dep = build_deployment(spec)
    r.replayer = replay.install(dep, rec, VERIFY_TICKS)
    rng = np.random.default_rng(seed)
    r.checker = checker = checks.make_checker(
        workload.check, dep, rec, rng, workload.warmup_ticks + 1, measured)
    tick = dep.run
    if traced:
        r.tracer = tracer = tracing.Tracer()
        tracing.install(tracer, dep)
        tick = tracer.wrap(tracing.TICK, dep.run, record=True)
    cache_window_ns = int(
        spec.get("monitoring", {}).get("cache_window_s", 180) * NS_PER_S)
    r.reader = reader = Reader(dep, rec.topics, rng, cache_window_ns, checker,
                               r.tracer)
    interval_s = rec.interval_ns / NS_PER_S
    # The traced run traces a seeded half of the measured ticks.
    traced_ticks = np.random.default_rng(seed + 1).permutation(
        np.arange(measured) < (measured + 1) // 2)
    tasks = dep.scheduler.tasks()

    dep.scheduler.run_until(0)
    for _ in range(workload.warmup_ticks):
        dep.run(interval_s)
    gc.collect()
    gc.freeze()
    storage = dep.agent.storage
    stored_before = storage.insert_count
    for i in range(measured):
        if r.tracer is not None:
            r.tracer.on = bool(traced_ticks[i])
        fired = sum(t.fire_count for t in tasks)
        forwarded = dep.agent.forwarded_count
        t0 = time.perf_counter_ns()
        tick(interval_s)
        dt_ms = (time.perf_counter_ns() - t0) / 1e6
        r.firings.append(sum(t.fire_count for t in tasks) - fired)
        r.forwarded.append(dep.agent.forwarded_count - forwarded)
        r.traced_flags.append(r.tracer is not None and r.tracer.on)
        r.tick_ms.append(dt_ms)
        reader.read()
        if r.tracer is not None:
            r.tracer.on = False
        checker.after_tick(dep.now // rec.interval_ns)
    r.persisted_in_ticks = storage.insert_count - stored_before
    gc.unfreeze()

    # Settle: deliver what is still on the wire, drain the agent queue.
    dep.scheduler.run_until(dep.now + rec.interval_ns // 2)
    dep.agent.flush()
    checker.finish(samples)
    r.end = end_state(dep, rec, r.replayer)
    return r


def end_state(dep, rec, replayer) -> Dict[str, int]:
    """Memory, storage footprint and reading accounting at run end."""
    storage = dep.agent.storage
    sampled = set(rec.topics)
    # Operator outputs stored on the agent are not replayed readings.
    outputs = sum(storage.count(t) for t in storage.topics()
                  if t not in sampled)
    persisted = storage.insert_count - outputs
    return {
        "replayed": replayer.replayed,
        "persisted": persisted,
        "lost": replayer.replayed - persisted,
        "stored": storage.insert_count,
        "cache_bytes": sum(c.memory_bytes() for host in dep.all_hosts()
                           for c in host.caches.values()),
        "storage_mem_bytes": storage.memory_bytes(),
        "disk_bytes": (storage.disk_bytes()
                       if hasattr(storage, "disk_bytes") else 0),
        "spill_left": sum(p.spill_depth for p in dep.pushers.values()),
        "in_flight": dep.link.in_flight if dep.link is not None else 0,
        "stale_drops": sum(c.stale_drops for c in dep.agent.caches.values()),
        "ooo_dropped": storage.ooo_dropped,
        "ingest_dropped": dep.agent.ingest_dropped,
        "spill_dropped": _counter(dep.pushers.values(), "spill_dropped_total"),
    }


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

#: name -> (value, unit, note on samples or base counts)
Metrics = Dict[str, Tuple[float, str, str]]


def end_to_end(r: Run) -> Metrics:
    setup = [s["import_s"] + s["build_s"] for s in r.setup]
    n = len(r.tick_ms)
    tick_tail, tick_pct = tail(r.tick_ms)
    lat = r.reader.latency_us
    pooled = [x for k in Reader.KINDS for x in lat[k]]
    q_tail, q_pct = tail(pooled)
    e = r.end
    tick_s = sum(r.tick_ms) / 1e3
    return {
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} fresh interpreters"),
        "readings_per_s": (r.persisted_in_ticks / tick_s, "1/s",
                           f"{r.persisted_in_ticks} readings persisted in "
                           f"{tick_s:.3f} s of {n} ticks"),
        "tick_p50_ms": (statistics.median(r.tick_ms), "ms", f"n={n}"),
        "tick_tail_ms": (tick_tail, "ms", f"p{tick_pct:.0f}, n={n}"),
        "query_recent_p50_us": (statistics.median(lat["recent"]), "us",
                                f"n={len(lat['recent'])}"),
        "query_range_p50_us": (statistics.median(lat["range"]), "us",
                               f"n={len(lat['range'])}"),
        "query_agg_p50_us": (statistics.median(lat["agg"]), "us",
                             f"n={len(lat['agg'])}"),
        "query_tail_us": (q_tail, "us",
                          f"p{q_pct:.0f} of all kinds, n={len(pooled)}"),
        "mem_mb": ((e["cache_bytes"] + e["storage_mem_bytes"]) / 2**20, "MB",
                   "caches of every host + agent in-memory storage tier"),
        "storage_bytes_per_reading": (
            (e["storage_mem_bytes"] + e["disk_bytes"]) / e["stored"], "B",
            f"memory tier + segment files over {e['stored']} stored "
            f"readings"),
        "persisted_frac": (e["persisted"] / e["replayed"], "ratio",
                           f"{e['persisted']} of {e['replayed']} replayed "
                           f"readings"),
    }


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def _counter(hosts, name: str) -> int:
    total = 0
    for host in hosts:
        metric = host.telemetry.get(name)
        if metric is not None:
            total += metric.value
    return total


#: Operators of every workload, reported per pass (0 where absent or
#: running inside a fused group).
OPERATORS = ("cpi", "smooth-power", "avg-power", "peak-power", "job-cpi")

#: Layers whose combined self time is the analytics share.
ANALYTICS_LAYERS = ("core.operator", "core.fusion", "core.queryengine")


def per_layer(r: Run) -> Metrics:
    t = r.tracer
    dep = r.dep
    e = r.end
    ticks = t.totals(tracing.TICK, tracing.TICK)
    n_traced = ticks.calls

    def under_ticks(name: str) -> tracing.SpanStats:
        return t.totals(tracing.TICK, name)

    def anywhere(name: str) -> tracing.SpanStats:
        out = tracing.SpanStats()
        for (_, span), st in t.stats.items():
            if span == name:
                out.calls += st.calls
                out.total_ns += st.total_ns
                out.items += st.items
                out.max_ns = max(out.max_ns, st.max_ns)
        return out

    hosts = dep.all_hosts()
    storage = dep.agent.storage
    sample = under_ticks("dcdb.pusher:sample")
    cache = anywhere("dcdb.cache:store")
    mqtt = anywhere("dcdb.mqtt:publish")
    net = anywhere("dcdb.network:publish")
    deliver = under_ticks("dcdb.network:deliver")
    drain = under_ticks("dcdb.collectagent:drain")
    insert = anywhere("dcdb.storage:insert")
    squery = anywhere("dcdb.storage:query")
    maintain = under_ticks("dcdb.segments:maintain")
    qe = anywhere("core.queryengine:query")
    fused = under_ticks("core.fusion:pass")
    engines = [m.engine for m in [*dep.managers.values(), dep.agent_manager]]
    hits = sum(eng.cache_hits for eng in engines)
    lookups = hits + sum(eng.storage_fallbacks + eng.misses for eng in engines)
    tier_hits = getattr(storage, "tier_hits", {})
    tier_total = sum(tier_hits.values())
    drained = sum(f for f, on in zip(r.forwarded, r.traced_flags) if on)
    layers = t.layer_self_ns(tracing.TICK)
    traced_ms = [ms for ms, on in zip(r.tick_ms, r.traced_flags) if on]
    untraced_ms = [ms for ms, on in zip(r.tick_ms, r.traced_flags) if not on]
    traced_p50 = statistics.median(traced_ms)
    untraced_p50 = statistics.median(untraced_ms)
    base = f"{n_traced} traced ticks"

    m: Metrics = {
        "replay.gen_s": (r.gen_s, "s", "generator cost, never gated"),
        "deploy.import_s": (statistics.median(s["import_s"] for s in r.setup),
                            "s", f"median of {len(r.setup)}"),
        "deploy.build_s": (statistics.median(s["build_s"] for s in r.setup),
                           "s", f"median of {len(r.setup)}"),
        "trace.tick_p50_ms": (traced_p50, "ms",
                              f"n={len(traced_ms)} traced ticks"),
        "trace.overhead_ms": (traced_p50 - untraced_p50, "ms",
                              f"vs p50 {untraced_p50:.3f} ms of "
                              f"{len(untraced_ms)} untraced ticks"),
        "simulator.clock.self_ms_per_tick": (
            _per(layers["simulator.clock"], n_traced) / 1e6, "ms", base),
        "simulator.clock.firings_per_tick": (
            statistics.mean(r.firings), "count", f"n={len(r.firings)}"),
        "dcdb.pusher.sample_ns_per_reading": (
            _per(sample.total_ns, r.rec.readings_per_tick * n_traced),
            "ns", f"{sample.calls} sampling passes"),
        "dcdb.pusher.spill_buffered": (
            _counter(hosts, "spill_buffered_total"), "count", "whole run"),
        "dcdb.pusher.spill_replayed": (
            _counter(hosts, "spill_replayed_total"), "count", "whole run"),
        "dcdb.pusher.spill_dropped": (
            _counter(hosts, "spill_dropped_total"), "count", "whole run"),
        "dcdb.cache.store_ns": (_per(cache.total_ns, cache.items), "ns",
                                f"{cache.items} readings"),
        "dcdb.mqtt.publish_ns_per_msg": (_per(mqtt.total_ns, mqtt.items),
                                         "ns", f"{mqtt.items} messages"),
        "dcdb.mqtt.msgs_per_publish_call": (_per(mqtt.items, mqtt.calls),
                                            "msg/call",
                                            f"{mqtt.calls} calls"),
        "dcdb.network.publish_ns_per_msg": (_per(net.total_ns, net.calls),
                                            "ns", f"{net.calls} messages"),
        "dcdb.network.deliveries_per_tick": (_per(deliver.calls, n_traced),
                                             "count", base),
        "dcdb.collectagent.drain_ns_per_reading": (
            _per(drain.total_ns, drained), "ns", f"{drained} readings"),
        "dcdb.collectagent.queue_peak": (max(r.forwarded), "count",
                                         "readings queued at one drain"),
        "dcdb.collectagent.stale_drops": (e["stale_drops"], "count",
                                          "whole run"),
        "dcdb.storage.insert_ns": (_per(insert.total_ns, insert.items),
                                   "ns", f"{insert.items} readings"),
        "dcdb.storage.query_us": (_per(squery.total_ns, squery.calls) / 1e3,
                                  "us", f"{squery.calls} queries"),
        "dcdb.storage.ooo_dropped": (e["ooo_dropped"], "count", "whole run"),
        "dcdb.segments.maintain_ms_per_tick": (
            _per(maintain.total_ns, n_traced) / 1e6, "ms",
            f"{maintain.calls} sweeps in {n_traced} traced ticks"),
        "dcdb.segments.maintain_ms_max": (maintain.max_ns / 1e6, "ms",
                                          f"{maintain.calls} sweeps"),
        "dcdb.segments.flushes": (getattr(storage, "flush_count", 0), "count",
                                  "whole run"),
        "dcdb.segments.compactions": (
            getattr(storage, "rollup_compactions", 0), "count", "whole run"),
        "dcdb.segments.bytes_written_per_reading": (
            _per(t.counters["segment_bytes_written"], e["stored"]), "B",
            f"{t.counters['segment_bytes_written']} bytes written"),
        "core.queryengine.query_ns": (_per(qe.total_ns, qe.calls), "ns",
                                      f"{qe.calls} queries"),
        "core.queryengine.cache_hit_ratio": (_per(hits, lookups), "ratio",
                                             f"{hits} of {lookups}"),
        "core.fusion.pass_ms": (_per(fused.total_ns, fused.calls) / 1e6,
                                "ms", f"{fused.calls} passes"),
        "core.fusion.fallbacks": (_counter(hosts, "fusion_fallbacks_total"),
                                  "count", "whole run"),
    }
    for tier in ("memory", "segment", "rollup"):
        m[f"dcdb.segments.tier_hit_share.{tier}"] = (
            _per(tier_hits.get(tier, 0), tier_total), "ratio",
            f"of {tier_total} tier hits")
    passes = units = 0
    for op in OPERATORS:
        st = under_ticks(f"core.operator:pass.{op}")
        passes += st.calls
        units += st.items
        m[f"core.operator.pass_ms.{op}"] = (
            _per(st.total_ns, st.calls) / 1e6, "ms", f"{st.calls} passes")
    m["core.operator.units_per_pass"] = (_per(units, passes), "count",
                                         f"{passes} passes")
    for layer in tracing.LAYERS:
        m[f"{layer}.self_share"] = (_per(layers[layer], ticks.total_ns),
                                    "ratio", "of traced tick time")
    return m


def attribution(r: Run, m: Metrics) -> List[str]:
    """Where the traced run disagrees with the predicted attribution."""
    share = {layer: m[f"{layer}.self_share"][0] for layer in tracing.LAYERS}
    analytics = sum(share[layer] for layer in ANALYTICS_LAYERS)
    others = max(v for k, v in share.items() if k not in ANALYTICS_LAYERS)
    spec_tiered = r.workload.name == "tiered-readwrite"
    problems = []
    if r.workload.name == "analytics" and analytics <= others:
        problems.append(f"operators+fusion+QE share {analytics:.3f} is not "
                        f"the largest (another layer has {others:.3f})")
    if r.workload.name == "ingest" and analytics >= 0.05:
        problems.append(f"operators+fusion+QE share {analytics:.3f} >= 0.05")
    for layer in ("dcdb.segments", "dcdb.network"):
        if (share[layer] > 0) != spec_tiered:
            problems.append(f"{layer} self share {share[layer]:.4f} on "
                            f"{r.workload.name}")
    return problems


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------


def correctness(r: Run) -> List[str]:
    errors = list(r.checker.errors)
    rep = r.replayer
    if rep.verified == 0 or rep.mismatches:
        errors.append(f"replay differs from the live plugins: "
                      f"{rep.mismatches} of {rep.verified} readings")
    e = r.end
    if e["spill_left"] or e["in_flight"]:
        errors.append(f"unsettled at run end: {e['spill_left']} spilled, "
                      f"{e['in_flight']} in flight")
    if r.dep.link is None and e["lost"]:
        errors.append(f"{e['lost']} readings lost without a network fault")
    return errors


def report(r: Run, seed: int) -> dict:
    e = r.end
    rd = r.reader
    errors = correctness(r)
    print(f"workload {r.workload.name}  seed {seed}  "
          f"{'traced' if r.traced else 'untraced'}")
    print(f"gen_s {r.gen_s:.3f} s  (generator: throwaway deployment + "
          f"{r.rec.n_ticks} recorded ticks x {r.rec.readings_per_tick} "
          f"readings; never gated)")
    metrics = per_layer(r) if r.traced else end_to_end(r)
    for name, (value, unit, note) in metrics.items():
        print(f"{name} {value:.6g} {unit}  ({note})")
    failed = e["lost"] + rd.raised
    attempted = e["replayed"] + rd.issued
    print(f"failed_frac {failed / attempted:.6g}  ({e['lost']} readings "
          f"lost + {rd.raised} raised queries, of {e['replayed']} replayed "
          f"readings + {rd.issued} queries; drops seen: "
          f"{e['ooo_dropped']} out-of-order at storage, "
          f"{e['stale_drops']} stale at agent caches, "
          f"{e['ingest_dropped']} ingest, {e['spill_dropped']} spill)")
    print(f"disk_bytes_per_reading {e['disk_bytes'] / e['stored']:.6g} B  "
          f"({e['disk_bytes']} segment bytes over {e['stored']} stored "
          f"readings)")
    if r.traced:
        problems = attribution(r, metrics)
        print("attribution: " + ("as predicted" if not problems
                                 else "; ".join(problems)))
    print(f"replay check: {r.replayer.verified} readings compared with the "
          f"live plugins, {r.replayer.mismatches} differ")
    print("checks: " + ", ".join(f"{k} {v}"
                                 for k, v in sorted(r.checker.verified.items())))
    for err in errors + rd.errors:
        print(f"ERROR {err}")
    print("correct" if not errors else "INCORRECT")
    result = {
        "correct": not errors,
        "attempted": len(r.tick_ms) + rd.issued,
        "failed": rd.raised,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "deploy.py").is_file():
        print("error: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = HERE / ".work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        r = run(root, workload, args.seed, args.seconds, bool(args.trace),
                work)
        result = report(r, args.seed)
        if r.tracer is not None:
            traces = HERE / ".traces"
            traces.mkdir(exist_ok=True)
            path = traces / f"{workload.name}-seed{args.seed}.jsonl"
            r.tracer.dump(path)
            print(f"spans written to {path.relative_to(root)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
