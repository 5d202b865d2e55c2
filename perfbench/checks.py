"""Correctness checks that fail the run.

Each workload has a checker with three hooks: :meth:`after_tick` (after
every measured tick, untimed), :meth:`check_range` (on every reader
range answer, untimed) and :meth:`finish` (after the run has settled).
Every failed assertion is collected in :attr:`Checker.errors`; the run
is correct only when that list is empty.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

#: Relative tolerance for values recomputed with numpy.
RTOL = 1e-9


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= RTOL * np.maximum(np.abs(a), np.abs(b)))
    )


class Checker:
    """The hooks, the raw range check every workload shares, and the
    list of failures."""

    def __init__(self, dep, rec, rng: np.random.Generator) -> None:
        self.dep = dep
        self.rec = rec
        self.rng = rng
        self.errors: List[str] = []
        #: What was verified, for the report.
        self.verified: Dict[str, int] = {}

    def fail(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def count(self, what: str) -> None:
        self.verified[what] = self.verified.get(what, 0) + 1

    def after_tick(self, tick: int) -> None:
        pass

    def check_range(self, topic: str, ts: np.ndarray, val: np.ndarray) -> None:
        """A raw range answer must be a time-ordered subset of the
        replayed column at exactly the replayed values."""
        if not len(ts):
            return
        idx, rem = np.divmod(ts, self.rec.interval_ns)
        if rem.any() or idx.min() < 0 or idx.max() >= self.rec.n_ticks:
            self.fail(f"range {topic}: timestamps off the sampling grid")
            return
        if np.any(np.diff(ts) <= 0):
            self.fail(f"range {topic}: timestamps not strictly increasing")
        column = self.rec.column(topic)
        if not np.array_equal(column[idx].view(np.int64),
                              np.asarray(val, np.float64).view(np.int64)):
            self.fail(f"range {topic}: values differ from the replay column")
        self.count("range answers")

    def finish(self, n_samples: int) -> None:
        pass


class IngestChecker(Checker):
    """Every replayed reading is persisted exactly once, and every
    sampled topic's stored series equals its replay column bit for bit."""

    def finish(self, n_samples: int) -> None:
        storage = self.dep.agent.storage
        expected_ts = self.rec.timestamps()[:n_samples]
        for topic in self.rec.topics:
            ts, val = storage.query(topic, 0, 2**62)
            if not np.array_equal(ts, expected_ts):
                self.fail(f"{topic}: stored {len(ts)} readings, "
                          f"replayed {n_samples}")
                continue
            column = self.rec.column(topic)[:n_samples]
            if not np.array_equal(np.asarray(val).view(np.int64),
                                  column.view(np.int64)):
                self.fail(f"{topic}: stored values differ from replay")
            self.count("topics exactly once")


class AnalyticsChecker(Checker):
    """Recompute the pusher chain (smoother 10 s -> mean 30 s -> max
    60 s on node power) from the stored power series, and the agent's
    persyst deciles from the stored per-core CPI, at sampled ticks."""

    SAMPLED_TICKS = 5
    CHAIN = (("smooth-power", 10, "mean"), ("avg-power", 30, "mean"),
             ("peak-power", 60, "max"))
    DECILES = [i * 10 for i in range(11)]

    def __init__(self, dep, rec, rng, measured_from: int, measured: int):
        super().__init__(dep, rec, rng)
        picks = rng.choice(measured, size=min(self.SAMPLED_TICKS, measured),
                           replace=False)
        self.sampled = {measured_from + int(i) for i in picks}
        self.chain_ticks: List[int] = []

    def after_tick(self, tick: int) -> None:
        if tick not in self.sampled:
            return
        self.chain_ticks.append(tick)
        # The agent's job operator ran at the end of this tick; the CPI
        # readings it gathered are the newest ones stored so far.
        storage = self.dep.agent.storage
        ts = tick * self.rec.interval_ns
        scheduler = self.dep.sim.scheduler
        cpus = self.dep.sim.topology.cpus_of_node
        for job in scheduler.running_jobs(ts):
            samples = []
            for node in job.node_paths:
                for cpu in cpus[node]:
                    newest = storage.latest(f"{cpu}/cpi")
                    if newest is not None:
                        samples.append(newest.value)
            if not samples:
                self.fail(f"job {job.job_id}: no CPI stored at tick {tick}")
                continue
            expected = np.percentile(np.asarray(samples), self.DECILES)
            got = []
            for d in range(11):
                dts, dval = storage.query(
                    f"/jobs/{job.job_id}/decile{d}", ts, ts)
                got.append(dval[0] if len(dval) else np.nan)
            if not _close(got, expected):
                self.fail(f"job {job.job_id} deciles at tick {tick}: "
                          f"{got} != {expected.tolist()}")
            self.count("job decile sets")

    def finish(self, n_samples: int) -> None:
        storage = self.dep.agent.storage
        for node in self.dep.sim.node_paths:
            ts, power = storage.query(f"{node}/power", 0, 2**62)
            series = np.asarray(power, dtype=np.float64)
            for _, window_s, op in self.CHAIN:
                series = _window_reduce(series, window_s + 1, op)
            out_ts, out = storage.query(f"{node}/peak-power", 0, 2**62)
            for tick in self.chain_ticks:
                at = int(np.searchsorted(out_ts, tick * self.rec.interval_ns))
                if at >= len(out_ts) or out_ts[at] != tick * self.rec.interval_ns:
                    self.fail(f"{node}/peak-power missing at tick {tick}")
                    continue
                if not _close(out[at], series[tick]):
                    self.fail(f"{node}/peak-power at tick {tick}: "
                              f"{out[at]} != {series[tick]}")
                self.count("chain outputs")
        if not self.chain_ticks:
            self.fail("no sampled tick was checked")


def _window_reduce(values: np.ndarray, count: int, op: str) -> np.ndarray:
    """Per position, ``op`` over the newest ``count`` values so far."""
    reduce = np.mean if op == "mean" else np.max
    return np.array([
        reduce(values[max(0, i + 1 - count): i + 1])
        for i in range(len(values))
    ])


class TieredChecker(Checker):
    """Raw range answers equal the replay columns (base hook); rollup
    buckets hold count-weighted means equal to the numpy means of the
    replayed readings they cover."""

    SAMPLED_TOPICS = 64

    def finish(self, n_samples: int) -> None:
        storage = self.dep.agent.storage
        topics = self.rec.topics
        picks = self.rng.choice(len(topics), size=self.SAMPLED_TOPICS,
                                replace=False)
        ts_all = self.rec.timestamps()[:n_samples]
        for k in picks:
            topic = topics[int(k)]
            column = self.rec.column(topic)[:n_samples]
            buckets: Dict[tuple, list] = {}
            for seg in storage.store.segments:
                if not seg.level or topic not in seg.series:
                    continue
                cols = seg.topic_columns(topic, seg.min_ts, seg.max_ts)
                for b, mean, cnt in zip(cols["ts"], cols["mean"], cols["count"]):
                    acc = buckets.setdefault((seg.bucket_ns, int(b)), [0.0, 0])
                    acc[0] += float(mean) * int(cnt)
                    acc[1] += int(cnt)
            for (width, start), (mass, cnt) in buckets.items():
                lo = int(np.searchsorted(ts_all, start))
                hi = int(np.searchsorted(ts_all, start + width))
                if cnt > hi - lo:
                    self.fail(f"{topic} rollup @{start}: {cnt} readings, "
                              f"only {hi - lo} replayed")
                elif cnt == hi - lo:
                    if not _close(mass / cnt, column[lo:hi].mean()):
                        self.fail(f"{topic} rollup @{start}: mean "
                                  f"{mass / cnt} != {column[lo:hi].mean()}")
                    self.count("rollup buckets")
                else:
                    # Readings of this bucket were lost (spill replay)
                    # or are still raw in a neighbouring segment.
                    self.count("partial rollup buckets skipped")
        if not self.verified.get("rollup buckets"):
            self.fail("no complete rollup bucket to verify")
        if not self.verified.get("range answers"):
            self.fail("no non-empty raw range answer to verify")


def make_checker(kind: str, dep, rec, rng, measured_from: int, measured: int):
    if kind == "ingest":
        return IngestChecker(dep, rec, rng)
    if kind == "analytics":
        return AnalyticsChecker(dep, rec, rng, measured_from, measured)
    if kind == "tiered":
        return TieredChecker(dep, rec, rng)
    raise ValueError(f"unknown check {kind!r}")
