"""Record monitoring-plugin samples once, replay them through the system.

The simulator's signal synthesis is the load generator, not part of
DCDB.  :func:`record` builds a throwaway deployment of the workload's
spec and calls every installed monitoring plugin's ``sample(ts)`` for
every tick the run will need, keeping the values as one float64 column
block per plugin.  :func:`install` then swaps each plugin's ``sample``
in the measured deployment for a lookup into those columns.  Pushers,
broker, agent, sensors and tasks are untouched, so the measured path is
the real one minus signal synthesis.

For the first ``verify_ticks`` ticks the replay also calls the live
plugin and compares the two bit for bit (:attr:`Replayer.mismatches`).
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

#: (pusher name, plugin name) -> recorded topics and (ticks x sensors) values
PluginKey = Tuple[str, str]


class ReplayError(RuntimeError):
    """A plugin was sampled at a time the recording does not hold."""


class Recording:
    """Recorded sample columns of every monitoring plugin.

    Attributes:
        interval_ns: sampling interval shared by all plugins; tick ``i``
            was sampled at ``i * interval_ns``.
        n_ticks: number of recorded ticks.
        columns: per plugin, the topics in the order the plugin yields
            them and a ``(n_ticks, n_topics)`` float64 block.
        gen_s: wall seconds spent building the throwaway deployment and
            sampling it (the generator cost).
    """

    def __init__(self, interval_ns: int, n_ticks: int) -> None:
        self.interval_ns = interval_ns
        self.n_ticks = n_ticks
        self.columns: Dict[PluginKey, Tuple[Tuple[str, ...], np.ndarray]] = {}
        self.gen_s = 0.0
        self._index: Dict[str, Tuple[PluginKey, int]] = {}

    def add(self, key: PluginKey, topics: Tuple[str, ...]) -> np.ndarray:
        block = np.empty((self.n_ticks, len(topics)), dtype=np.float64)
        self.columns[key] = (topics, block)
        for j, topic in enumerate(topics):
            self._index[topic] = (key, j)
        return block

    @property
    def topics(self) -> List[str]:
        """Every recorded (sampled) topic."""
        return list(self._index)

    @property
    def readings_per_tick(self) -> int:
        return len(self._index)

    def column(self, topic: str) -> np.ndarray:
        """The recorded values of ``topic``, one per tick."""
        key, j = self._index[topic]
        return self.columns[key][1][:, j]

    def timestamps(self) -> np.ndarray:
        return np.arange(self.n_ticks, dtype=np.int64) * self.interval_ns


def _plugins(dep):
    """(key, plugin) for every monitoring plugin, in deployment order."""
    for name, pusher in dep.pushers.items():
        for plugin_name in pusher.plugins():
            yield (name, plugin_name), pusher.plugin(plugin_name)


def record(build_deployment, spec: dict, n_ticks: int) -> Recording:
    """Sample a throwaway deployment of ``spec`` for ``n_ticks`` ticks."""
    t0 = time.perf_counter()
    dep = build_deployment(spec)
    plugins = list(_plugins(dep))
    intervals = {plugin.interval_ns for _, plugin in plugins}
    if len(intervals) != 1:
        raise ReplayError(f"plugins sample at mixed intervals: {intervals}")
    rec = Recording(intervals.pop(), n_ticks)
    blocks = []
    for key, plugin in plugins:
        topics = tuple(s.topic for s, _ in plugin.sample(0))
        blocks.append((plugin, rec.add(key, topics)))
    for i in range(n_ticks):
        ts = i * rec.interval_ns
        for plugin, block in blocks:
            block[i] = [value for _, value in plugin.sample(ts)]
    rec.gen_s = time.perf_counter() - t0
    return rec


class _ReplaySample:
    """Stands in for one plugin's ``sample``: yields recorded values."""

    __slots__ = ("sensors", "block", "interval_ns", "replayer", "live")

    def __init__(self, sensors, block, interval_ns, replayer, live) -> None:
        self.sensors = sensors
        self.block = block
        self.interval_ns = interval_ns
        self.replayer = replayer
        self.live = live

    def __call__(self, ts: int):
        i, rem = divmod(ts, self.interval_ns)
        if rem or not 0 <= i < len(self.block):
            raise ReplayError(f"no recorded sample at t={ts}ns")
        row = self.block[i]
        self.replayer.replayed += len(row)
        if i < self.replayer.verify_ticks:
            self.replayer.compare(self.live(ts), self.sensors, row)
        return zip(self.sensors, row.tolist())


class Replayer:
    """Replay state of one measured deployment.

    Attributes:
        replayed: readings handed to pushers so far.
        verified: readings compared against the live plugins.
        mismatches: compared readings whose topic or value bits differed.
    """

    def __init__(self, verify_ticks: int) -> None:
        self.verify_ticks = verify_ticks
        self.replayed = 0
        self.verified = 0
        self.mismatches = 0

    def compare(self, live_samples, sensors, row: np.ndarray) -> None:
        live = list(live_samples)
        self.verified += len(row)
        topics = [s.topic for s, _ in live]
        if topics != [s.topic for s in sensors]:
            self.mismatches += len(row)
            return
        bits = np.asarray([v for _, v in live], dtype=np.float64).view(np.int64)
        self.mismatches += int(np.count_nonzero(bits != row.view(np.int64)))


def install(dep, rec: Recording, verify_ticks: int) -> Replayer:
    """Route every monitoring plugin of ``dep`` through ``rec``."""
    replayer = Replayer(verify_ticks)
    for key, plugin in _plugins(dep):
        topics, block = rec.columns[key]
        pusher = dep.pushers[key[0]]
        sensors = [pusher.sensors[t] for t in topics]
        plugin.sample = _ReplaySample(
            sensors, block, rec.interval_ns, replayer, plugin.sample
        )
    return replayer
