"""The DCDB Collect Agent.

Collect Agents are the data brokers of DCDB: they receive all sensor
traffic the Pushers publish over MQTT, keep their own sensor caches for
fast in-memory access, and forward readings to the storage backend.
Wintermute operators hosted in a Collect Agent see the *entire* system's
sensor space — data comes from the local caches when possible and from
the storage backend otherwise (Section IV-a), which is exactly the
lookup order the Query Engine implements.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.common.timeutil import NS_PER_SEC
from repro.dcdb.cache import SensorCache
from repro.dcdb.mqtt import Broker, Message, QueuedSubscriber
from repro.dcdb.restapi import RestApi, RestResponse
from repro.dcdb.sensor import Sensor
from repro.dcdb.storage import StorageBackend
from repro.simulator.clock import TaskScheduler
from repro.telemetry import MetricRegistry, register_metrics_route


#: Gap of a topic with no observed cadence yet (compares above any gap).
_NO_GAP = float("inf")


class CollectAgent:
    """System-level data broker and analytics host.

    Args:
        name: host identifier.
        broker: MQTT broker to subscribe on.
        scheduler: shared task scheduler (drives queue drains).
        storage: storage backend readings are persisted to.
        cache_window_ns: retention of the agent-side sensor caches.
        drain_interval_ns: how often the subscription queue is flushed
            to caches and storage.
        subscribe_pattern: topic filter; ``/#`` (everything) by default.
        republish_outputs: whether operator outputs written on this agent
            are also published over MQTT.  Off by default: in a Collect
            Agent, outputs are "written to the Storage Backend" directly
            (Section IV-a) — and with a catch-all subscription a
            republish would loop straight back into the agent's own
            ingest queue, duplicating every stored reading.
        ingest_queue_capacity: bound of the MQTT ingest queue (``None``
            keeps it unbounded).  A bounded queue applies backpressure
            instead of growing without limit under bursty ingest.
        ingest_policy: what a full ingest queue does with an arrival —
            ``drop-oldest`` (default) or ``drop-newest``; either way the
            loss is exported as ``ingest_dropped_total``.
    """

    def __init__(
        self,
        name: str,
        broker: Broker,
        scheduler: TaskScheduler,
        storage: Optional[StorageBackend] = None,
        cache_window_ns: int = 180 * NS_PER_SEC,
        drain_interval_ns: int = NS_PER_SEC,
        subscribe_pattern: str = "/#",
        republish_outputs: bool = False,
        ingest_queue_capacity: Optional[int] = None,
        ingest_policy: str = "drop-oldest",
    ) -> None:
        self.republish_outputs = republish_outputs
        self.name = name
        self.broker = broker
        self.scheduler = scheduler
        self._storage = storage if storage is not None else StorageBackend()
        self.cache_window_ns = int(cache_window_ns)
        self.caches: Dict[str, SensorCache] = {}
        self.sensors: Dict[str, Sensor] = {}
        #: Smallest observed inter-arrival gap per remote topic; drives
        #: ingest cache sizing (see :meth:`_observe_arrival`).
        self._gap_ns: Dict[str, int] = {}
        self.rest = RestApi()
        self.telemetry = MetricRegistry()
        self._m_forwarded = self.telemetry.counter("forwarded_readings_total")
        self._m_drain_latency = self.telemetry.histogram("drain_latency_ns")
        self._m_ingest_dropped = self.telemetry.counter("ingest_dropped_total")
        self._dropped_synced = 0
        self._register_gauges()
        self.analytics: Optional[object] = None
        self._queue = QueuedSubscriber(
            maxlen=ingest_queue_capacity, policy=ingest_policy
        )
        self._queue.attach(broker, subscribe_pattern)
        self._drain_task = scheduler.add_callback(
            f"{name}:drain", self._drain, int(drain_interval_ns)
        )
        # Storage TTL maintenance: Cassandra expires rows server-side;
        # the in-memory backend needs a periodic sweep instead.
        if self._storage.ttl_ns > 0:
            self._ttl_task = scheduler.add_callback(
                f"{name}:ttl",
                lambda ts: self._storage.expire(ts),
                max(NS_PER_SEC, self._storage.ttl_ns // 10),
            )
        # Tiered backends additionally run flush/rollup/retention sweeps
        # (the Cassandra-compaction equivalent) on their own cadence.
        maintain = getattr(self._storage, "maintain", None)
        if callable(maintain):
            self._maintenance_task = scheduler.add_callback(
                f"{name}:storage-maintenance",
                maintain,
                int(
                    getattr(
                        self._storage,
                        "maintenance_interval_ns",
                        30 * NS_PER_SEC,
                    )
                ),
            )
        self._register_routes()

    def _register_gauges(self) -> None:
        """Collection-time gauges: queue depth, cache occupancy, storage
        footprint.  Evaluated by the /metrics scraper, not the hot path."""
        self.telemetry.gauge("ingest_queue_depth", fn=lambda: len(self._queue))
        self.telemetry.gauge(
            "cache_sensor_count", fn=lambda: len(self.caches)
        )
        self.telemetry.gauge(
            "cache_occupancy_readings",
            fn=lambda: sum(len(c) for c in self.caches.values()),
        )
        self.telemetry.gauge(
            "cache_capacity_readings",
            fn=lambda: sum(c.capacity for c in self.caches.values()),
        )
        self.telemetry.gauge(
            "cache_memory_bytes",
            fn=lambda: sum(c.memory_bytes() for c in self.caches.values()),
        )
        self.telemetry.gauge(
            "cache_stale_drops",
            fn=lambda: sum(c.stale_drops for c in self.caches.values()),
        )
        self.telemetry.gauge(
            "storage_stored_readings",
            fn=lambda: self._storage.total_readings(),
        )
        if hasattr(self._storage, "tier_stats"):
            storage = self._storage  # tiered backend: per-tier visibility
            self.telemetry.gauge(
                "storage_disk_bytes", fn=lambda: storage.disk_bytes()
            )
            self.telemetry.gauge(
                "storage_segments",
                fn=lambda: len(storage.store.segments),
            )
            self.telemetry.gauge(
                "storage_flushes", fn=lambda: storage.flush_count
            )
            self.telemetry.gauge(
                "storage_rollup_compactions",
                fn=lambda: storage.rollup_compactions,
            )
            for tier in ("memory", "segment", "rollup"):
                self.telemetry.gauge(
                    "storage_tier_hits",
                    fn=lambda t=tier: storage.tier_hits[t],
                    tier=tier,
                )

    @property
    def forwarded_count(self) -> int:
        """Readings drained from MQTT into caches + storage."""
        return self._m_forwarded.value

    @property
    def ingest_dropped(self) -> int:
        """Messages lost to ingest-queue backpressure (telemetry view)."""
        # Sync pending queue-side drops so callers between drains see
        # the live number, not the last drain's snapshot.
        dropped = self._queue.dropped
        if dropped != self._dropped_synced:
            self._m_ingest_dropped.inc(dropped - self._dropped_synced)
            self._dropped_synced = dropped
        return self._m_ingest_dropped.value

    # ------------------------------------------------------------------
    # Ingest path
    # ------------------------------------------------------------------

    #: Sizing slack mirroring ``SensorCache.for_duration`` (20%).
    _SIZING_SLACK_NUM, _SIZING_SLACK_DEN = 12, 10
    #: Per-topic growth ceiling: two adjacent timestamps 1 ns apart must
    #: not balloon one cache to the whole window divided by a nanosecond.
    _MAX_INGEST_CAPACITY = 1_000_000

    def _cache_for_ingest(
        self, topic: str, ts: Optional[int] = None
    ) -> SensorCache:
        cache = self.caches.get(topic)
        if cache is None:
            # Interval is unknown for remote sensors; a count-sized cache
            # with binary-search relative fallback keeps semantics right.
            # Start with the 1 Hz guess and grow from the observed
            # inter-arrival gap — a 10 Hz sensor must still retain its
            # whole window, not a tenth of it.
            cache = self.caches[topic] = SensorCache(
                capacity=max(2, self.cache_window_ns // NS_PER_SEC + 1)
            )
        if ts is not None:
            self._observe_arrival(topic, cache, ts)
        return cache

    def _observe_arrival(
        self, topic: str, cache: SensorCache, ts: int
    ) -> None:
        """Track a topic's cadence and grow its cache to the window.

        The retention window is a time contract; the ring is sized in
        readings.  Whenever a smaller positive inter-arrival gap is
        observed, the implied reading count for ``cache_window_ns`` is
        recomputed (with the same 20% slack ``for_duration`` applies)
        and the cache grown in place, preserving its contents.
        """
        if cache.newest_ts is None:
            return
        gap = ts - cache.newest_ts
        if gap <= 0:
            return  # duplicate or stale arrival; no cadence information
        if gap >= self._gap_ns.get(topic, _NO_GAP):
            return
        self._gap_ns[topic] = gap
        needed = (
            self.cache_window_ns * self._SIZING_SLACK_NUM
        ) // (gap * self._SIZING_SLACK_DEN) + 2
        needed = min(max(2, needed), self._MAX_INGEST_CAPACITY)
        if needed > cache.capacity:
            cache.resize(needed)

    def _drain(self, ts: int) -> None:
        """Flush queued MQTT messages into caches and storage."""
        t0 = time.perf_counter_ns()
        caches, gaps = self.caches, self._gap_ns
        insert = self._storage.insert
        messages = self._queue.drain()
        for topic, value, msg_ts in messages:
            cache = caches.get(topic)
            if cache is None:
                cache = self._cache_for_ingest(topic)
            newest = cache.newest_ts
            # Only a shorter inter-arrival gap can grow the cache.
            if newest is not None and msg_ts - newest < gaps.get(topic, _NO_GAP):
                self._observe_arrival(topic, cache, msg_ts)
            cache.store(msg_ts, value)
            insert(topic, msg_ts, value)
        if messages:
            self._m_forwarded.inc(len(messages))
        dropped = self._queue.dropped
        if dropped != self._dropped_synced:
            self._m_ingest_dropped.inc(dropped - self._dropped_synced)
            self._dropped_synced = dropped
        self._m_drain_latency.observe(time.perf_counter_ns() - t0)

    def flush(self, ts: Optional[int] = None) -> None:
        """Drain immediately (used by on-demand REST handlers/tests)."""
        self._drain(ts if ts is not None else self.scheduler.clock.now)

    # ------------------------------------------------------------------
    # Host interface for Wintermute
    # ------------------------------------------------------------------

    def store_reading(self, sensor: Sensor, ts: int, value: float) -> None:
        """Store an operator output: cache + storage (+ MQTT if published).

        In a Collect Agent, operator outputs are also written to the
        Storage Backend (Section IV-a).
        """
        self.sensors[sensor.topic] = sensor
        self._cache_for_ingest(sensor.topic, ts).store(ts, value)
        self._storage.insert(sensor.topic, ts, value)
        if sensor.publish and self.republish_outputs:
            self.broker.publish(sensor.topic, value, ts)

    def store_readings_batch(self, ts, readings) -> None:
        """Store a whole pass's operator outputs in one call.

        ``readings`` is a sequence of ``(sensor, value)`` pairs sharing
        one timestamp; cache, storage and republish behaviour match
        per-reading :meth:`store_reading`, with MQTT republishes (when
        enabled) collapsed into one broker batch.
        """
        to_publish = []
        for sensor, value in readings:
            self.sensors[sensor.topic] = sensor
            self._cache_for_ingest(sensor.topic, ts).store(ts, value)
            self._storage.insert(sensor.topic, ts, value)
            if sensor.publish and self.republish_outputs:
                to_publish.append(Message(sensor.topic, value, ts))
        if to_publish:
            self.broker.publish_batch(to_publish)

    def cache_for(self, topic: str) -> Optional[SensorCache]:
        """The agent-side cache for ``topic``, if any traffic was seen."""
        return self.caches.get(topic)

    def sensor_topics(self) -> List[str]:
        """All topics known to this agent (cached or stored)."""
        topics = set(self.caches.keys())
        topics.update(self._storage.topics())
        return sorted(topics)

    @property
    def storage(self) -> StorageBackend:
        """The storage backend; the Query Engine's fallback source."""
        return self._storage

    def attach_analytics(self, manager) -> None:
        """Attach a Wintermute OperatorManager to this host."""
        self.analytics = manager
        manager.bind_host(self)

    # ------------------------------------------------------------------
    # REST API
    # ------------------------------------------------------------------

    def _register_routes(self) -> None:
        self.rest.register("GET", "/sensors", self._route_sensors)
        self.rest.register("GET", "/stats", self._route_stats)
        register_metrics_route(self.rest, self.telemetry)

    def _route_sensors(self, request) -> RestResponse:
        return RestResponse.json({"sensors": self.sensor_topics()})

    def _route_stats(self, request) -> RestResponse:
        return RestResponse.json(
            {
                "forwarded": self.forwarded_count,
                "queued": len(self._queue),
                "ingest_dropped": self.ingest_dropped,
                "stored_readings": self._storage.total_readings(),
            }
        )
