"""Workload definitions: one deterministic deployment spec per workload.

Each workload is a ``repro.deploy.build_deployment`` spec derived from
the run's seed, plus the closed-loop driver settings around it: warm-up
ticks and measured ticks per second of ``--seconds``.  The seed drives
the simulated signals, the network jitter and the reader's topic
choice; the shape of each workload is fixed.

This module imports nothing but the standard library: the set-up probe
imports it before its timer starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

#: Jobs running for the whole run (start 0, end far beyond any run).
_FOREVER_S = 100_000


@dataclass(frozen=True)
class Workload:
    """A deployment spec plus the driver settings around it.

    Attributes:
        name: workload name as passed to ``--workload``.
        make_spec: ``(seed, storage_dir) -> spec`` for
            ``build_deployment``; ``storage_dir`` is only used by tiered
            workloads.
        warmup_ticks: untimed ticks before measuring (windows fill,
            caches reach steady state).
        ticks_per_second: measured ticks per second of ``--seconds``;
            sized so a run measures about that long on a 2-core host.
        check: name of the correctness check in ``checks.py``.
        min_ticks: fewest measured ticks whatever ``--seconds`` says
            (the tiered workload needs enough simulated time for its
            rollups to run).
    """

    name: str
    make_spec: Callable[[int, str], dict]
    warmup_ticks: int
    ticks_per_second: float
    check: str
    min_ticks: int = 10

    def measured_ticks(self, seconds: float) -> int:
        return max(self.min_ticks, int(round(seconds * self.ticks_per_second)))


def _ingest_spec(seed: int, storage_dir: str) -> dict:
    # CooLMUC-3 preset: 148 nodes x 64 CPUs; 4 sysfs + 2 procfs + 2x64
    # perfevent sensors per node = 19,832 readings per simulated second.
    return {
        "cluster": {"preset": "coolmuc3", "seed": seed},
        "monitoring": {
            "plugins": ["sysfs", "procfs", "perfevent"],
            "perfevent_counters": ["cpu-cycles", "instructions"],
            "interval_ms": 1000,
        },
        "jobs": [
            {"app": "hpl", "nodes": 48, "start_s": 0, "end_s": _FOREVER_S},
            {"app": "lammps", "nodes": 48, "start_s": 0, "end_s": _FOREVER_S},
            {"app": "kripke", "nodes": 32, "start_s": 0, "end_s": _FOREVER_S},
        ],
    }


def _analytics_spec(seed: int, storage_dir: str) -> dict:
    # 148 nodes x 16 CPUs; 4 sysfs + 2x16 perfevent sensors per node.
    return {
        "cluster": {
            "racks": 5, "chassis_per_rack": 5, "nodes_per_chassis": 6,
            "nodes": 148, "cpus": 16, "seed": seed,
        },
        "monitoring": {
            "plugins": ["sysfs", "perfevent"],
            "perfevent_counters": ["cpu-cycles", "instructions"],
            "interval_ms": 1000,
        },
        "jobs": [
            {"app": "lammps", "nodes": 8, "start_s": 0, "end_s": _FOREVER_S},
            {"app": "amg", "nodes": 8, "start_s": 0, "end_s": _FOREVER_S},
            {"app": "kripke", "nodes": 8, "start_s": 0, "end_s": _FOREVER_S},
        ],
        "analytics": {
            "pushers": [
                # Fig 7 stage 1: per-core CPI (2,368 units cluster-wide).
                {"plugin": "perfmetrics", "operators": {"cpi": {
                    "interval_s": 1, "window_s": 2,
                    "inputs": ["<bottomup>cpu-cycles",
                               "<bottomup>instructions"],
                    "outputs": ["<bottomup>cpi"]}}},
                # The fusable chain of examples/fused_pipeline.json on
                # node power.
                {"plugin": "smoother", "operators": {"smooth-power": {
                    "interval_s": 1, "window_s": 10,
                    "publish_outputs": False,
                    "inputs": ["<bottomup-1>power"],
                    "outputs": ["<bottomup-1>smooth-power"]}}},
                {"plugin": "aggregator", "operators": {"avg-power": {
                    "interval_s": 1, "window_s": 30,
                    "publish_outputs": False,
                    "inputs": ["<bottomup-1>smooth-power"],
                    "outputs": ["<bottomup-1>avg-power"],
                    "params": {"op": "mean"}}}},
                {"plugin": "aggregator", "operators": {"peak-power": {
                    "interval_s": 1, "window_s": 60,
                    "inputs": ["<bottomup-1>avg-power"],
                    "outputs": ["<bottomup-1>peak-power"],
                    "params": {"op": "max"}}}},
            ],
            # Fig 7 stage 2: per-job CPI deciles on the Collect Agent.
            "agent": [
                {"plugin": "persyst", "operators": {"job-cpi": {
                    "interval_s": 1, "window_s": 3,
                    "inputs": ["<bottomup, filter cpu>cpi"]}}},
            ],
        },
    }


#: Simulated second at which the tiered workload's link goes down, and
#: for how long.  Inside the measured ticks, so the spill and its replay
#: burst are timed.
OUTAGE_START_S = 30
OUTAGE_LEN_S = 15


def _tiered_spec(seed: int, storage_dir: str) -> dict:
    # 64 nodes x 16 CPUs; 4 sysfs + 2 procfs + 16 perfevent sensors per
    # node = 1,408 readings per simulated second.
    return {
        "cluster": {
            "racks": 2, "chassis_per_rack": 4, "nodes_per_chassis": 8,
            "nodes": 64, "cpus": 16, "seed": seed,
        },
        "monitoring": {
            "plugins": ["sysfs", "procfs", "perfevent"],
            "perfevent_counters": ["cpu-cycles"],
            "interval_ms": 1000,
            "cache_window_s": 60,
        },
        "jobs": [
            {"app": "hpl", "nodes": 24, "start_s": 0, "end_s": _FOREVER_S},
            {"app": "lammps", "nodes": 24, "start_s": 0, "end_s": _FOREVER_S},
        ],
        "storage": {
            "tiers": "tiered",
            "dir": storage_dir,
            "flush_mb": 1,
            "flush_interval_s": 10,
            # Raw segments roll up once older than the reader's range
            # window (which ends one cache window, 60 s, back and spans
            # 30 s), so range answers stay raw.
            "rollups": {"after_s": 100, "minute_after_s": 130},
            "retention": {"raw_s": 600, "rollup_s": 150},
        },
        "network": {
            "latency_ms": 5,
            "jitter_ms": 2,
            "seed": seed,
            "outages": [{"start_s": OUTAGE_START_S,
                         "end_s": OUTAGE_START_S + OUTAGE_LEN_S}],
            # The spill retry schedule keeps its default seed, so every
            # run replays the same burst after the outage; the seed
            # varies the per-message jitter that reorders it.
        },
    }


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("ingest", _ingest_spec, warmup_ticks=3,
                 ticks_per_second=3.5, check="ingest"),
        Workload("analytics", _analytics_spec, warmup_ticks=61,
                 ticks_per_second=5.0, check="analytics"),
        Workload("tiered-readwrite", _tiered_spec, warmup_ticks=10,
                 ticks_per_second=24.0, check="tiered", min_ticks=250),
    )
}
