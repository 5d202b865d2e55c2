"""Failure-injection tests: faulty components must not poison the
data plane or the analysis loop."""


from collections import defaultdict

import numpy as np

from repro.common.timeutil import NS_PER_SEC
from repro.dcdb import Broker, CollectAgent, Pusher
from repro.dcdb.plugins import TesterMonitoringPlugin
from repro.dcdb.plugins.base import MonitoringPlugin, PluginSample
from repro.dcdb.sensor import Sensor
from repro.deploy import build_deployment
from repro.simulator.clock import TaskScheduler


class FlakyPlugin(MonitoringPlugin):
    """Monitoring plugin that raises on every other sample."""

    def __init__(self, component: str):
        super().__init__("flaky", NS_PER_SEC)
        self._sensor = self._register(Sensor(f"{component}/flaky-sensor"))
        self.calls = 0

    def sample(self, ts):
        self.calls += 1
        if self.calls % 2 == 0:
            raise RuntimeError("sensor bus timeout")
        yield PluginSample(self._sensor, float(self.calls))


class MidwayFailer(MonitoringPlugin):
    """Fails after producing part of its samples."""

    def __init__(self, component: str):
        super().__init__("midway", NS_PER_SEC)
        self._a = self._register(Sensor(f"{component}/ok-sensor"))
        self._b = self._register(Sensor(f"{component}/never-sensor"))

    def sample(self, ts):
        yield PluginSample(self._a, 1.0)
        raise RuntimeError("died mid-iteration")


class TestPusherFaultIsolation:
    def test_flaky_plugin_counted_and_survives(self):
        scheduler = TaskScheduler()
        pusher = Pusher("/n0", Broker(), scheduler)
        pusher.add_plugin(FlakyPlugin("/n0"))
        pusher.add_plugin(TesterMonitoringPlugin("/n0", n_sensors=1))
        scheduler.run_until(9 * NS_PER_SEC)
        # Scheduler is still alive and the healthy plugin kept sampling.
        assert len(pusher.cache_for("/n0/tester0000")) == 10
        # Half of the flaky samples made it, the rest were counted.
        assert pusher.sampling_errors == 5
        assert len(pusher.cache_for("/n0/flaky-sensor")) == 5
        assert "sensor bus timeout" in pusher.last_sampling_errors[-1]

    def test_partial_samples_before_failure_are_kept(self):
        scheduler = TaskScheduler()
        broker = Broker()
        seen = []
        broker.subscribe("/#", lambda t, v, ts: seen.append((t, ts)))
        pusher = Pusher("/n0", broker, scheduler)
        pusher.add_plugin(MidwayFailer("/n0"))
        scheduler.run_until(3 * NS_PER_SEC)
        assert len(pusher.cache_for("/n0/ok-sensor")) == 4
        assert len(pusher.cache_for("/n0/never-sensor") or []) == 0
        assert pusher.sampling_errors == 4
        # ...and published too, exactly once each.
        assert seen == [("/n0/ok-sensor", k * NS_PER_SEC) for k in range(4)]


class TestBrokerFaultIsolation:
    def test_throwing_subscriber_does_not_break_publish(self):
        broker = Broker()
        received = []

        def bad(topic, value, ts):
            raise ValueError("subscriber bug")

        broker.subscribe("/a", bad)
        broker.subscribe("/a", lambda t, v, ts: received.append(v))
        n = broker.publish("/a", 1.0, 1)
        assert n == 2
        assert received == [1.0]
        assert broker.handler_errors == 1

    def test_throwing_subscriber_on_retained_replay(self):
        broker = Broker()
        broker.publish("/a", 1.0, 1, retain=True)

        def bad(topic, value, ts):
            raise ValueError("boom")

        broker.subscribe("/a", bad, replay_retained=True)
        assert broker.handler_errors == 1

    def test_agent_survives_peer_subscriber_crash(self):
        scheduler = TaskScheduler()
        broker = Broker()
        pusher = Pusher("/n0", broker, scheduler)
        pusher.add_plugin(TesterMonitoringPlugin("/n0", n_sensors=1))

        def bad(topic, value, ts):
            raise RuntimeError("third-party consumer bug")

        broker.subscribe("/#", bad)
        agent = CollectAgent("agent", broker, scheduler)
        scheduler.run_until(5 * NS_PER_SEC)
        agent.flush()
        assert agent.storage.count("/n0/tester0000") >= 5
        assert broker.handler_errors >= 5


class TestExactlyOnceThroughOutage:
    SPEC = {
        "cluster": {"nodes": 3, "cpus": 2, "seed": 4},
        "monitoring": {
            "plugins": ["sysfs", "procfs", "perfevent"],
            "interval_ms": 1000,
        },
        "network": {
            "latency_ms": 5,
            "jitter_ms": 0,
            "seed": 2,
            "outages": [{"start_s": 4, "end_s": 9}],
        },
    }

    def test_every_sample_stored_once_in_order(self):
        dep = build_deployment(self.SPEC)
        sampled = defaultdict(list)
        for pusher in dep.pushers.values():
            for name in pusher.plugins():
                plugin = pusher.plugin(name)

                def recording(ts, _sample=plugin.sample):
                    for sensor, value in _sample(ts):
                        sampled[sensor.topic].append((ts, value))
                        yield sensor, value

                plugin.sample = recording
        dep.run(15)
        for pusher in dep.pushers.values():
            for name in pusher.plugins():
                pusher.set_plugin_enabled(name, False)
        dep.run(5)  # settle: spill replay and in-flight deliveries land
        dep.agent.flush()

        assert dep.link.refused > 0  # the outage did refuse publishes
        assert len(sampled) == len(dep.agent.storage.topics())
        for topic, readings in sampled.items():
            ts, val = dep.agent.storage.query(topic, 0, 10**18)
            assert ts.tolist() == [t for t, _ in readings], topic
            assert val.tolist() == [v for _, v in readings], topic
            assert np.all(np.diff(ts) > 0)
        for pusher in dep.pushers.values():
            buffered = pusher.telemetry.get("spill_buffered_total").value
            replayed = pusher.telemetry.get("spill_replayed_total").value
            dropped = pusher.telemetry.get("spill_dropped_total").value
            assert buffered > 0
            assert buffered == replayed and dropped == 0
            assert pusher.spill_depth == 0
        assert dep.link.in_flight == 0
        assert dep.agent.ingest_dropped == 0
