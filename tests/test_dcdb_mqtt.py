"""Tests for the in-process MQTT-style broker."""

import sys
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import TopicError
from repro.dcdb.mqtt import QUEUE_POLICIES, Broker, Message, QueuedSubscriber


class Recorder:
    def __init__(self):
        self.messages = []

    def __call__(self, topic, value, ts):
        self.messages.append((topic, value, ts))


class TestExactSubscriptions:
    def test_deliver_to_exact_match(self):
        b = Broker()
        rec = Recorder()
        b.subscribe("/a/b/power", rec)
        n = b.publish("/a/b/power", 1.5, 10)
        assert n == 1
        assert rec.messages == [("/a/b/power", 1.5, 10)]

    def test_no_delivery_to_other_topics(self):
        b = Broker()
        rec = Recorder()
        b.subscribe("/a/b/power", rec)
        assert b.publish("/a/b/temp", 1.0, 10) == 0
        assert rec.messages == []

    def test_multiple_subscribers(self):
        b = Broker()
        r1, r2 = Recorder(), Recorder()
        b.subscribe("/x/y", r1)
        b.subscribe("/x/y", r2)
        assert b.publish("/x/y", 2.0, 1) == 2


class TestWildcardSubscriptions:
    def test_plus_matches_single_level(self):
        b = Broker()
        rec = Recorder()
        b.subscribe("/rack/+/power", rec)
        b.publish("/rack/n1/power", 1.0, 1)
        b.publish("/rack/n2/power", 2.0, 2)
        b.publish("/rack/n1/x/power", 3.0, 3)  # too deep
        assert [m[1] for m in rec.messages] == [1.0, 2.0]

    def test_hash_matches_subtree(self):
        b = Broker()
        rec = Recorder()
        b.subscribe("/rack/#", rec)
        b.publish("/rack/n1/power", 1.0, 1)
        b.publish("/rack/n1/cpu0/cycles", 2.0, 2)
        b.publish("/other/n1/power", 3.0, 3)
        assert len(rec.messages) == 2

    def test_root_hash_sees_everything(self):
        b = Broker()
        rec = Recorder()
        b.subscribe("/#", rec)
        b.publish("/a", 1.0, 1)
        b.publish("/a/b/c/d", 2.0, 2)
        assert len(rec.messages) == 2

    def test_hash_not_last_rejected(self):
        b = Broker()
        with pytest.raises(TopicError):
            b.subscribe("/a/#/b", Recorder())

    def test_mixed_wildcards(self):
        b = Broker()
        rec = Recorder()
        b.subscribe("/+/n1/#", rec)
        b.publish("/r1/n1/cpu/x", 1.0, 1)
        b.publish("/r2/n2/cpu/x", 2.0, 2)
        assert len(rec.messages) == 1


class TestUnsubscribe:
    def test_unsubscribe_stops_delivery(self):
        b = Broker()
        rec = Recorder()
        sid = b.subscribe("/a", rec)
        assert b.unsubscribe(sid) is True
        b.publish("/a", 1.0, 1)
        assert rec.messages == []

    def test_unsubscribe_unknown(self):
        assert Broker().unsubscribe(999) is False

    def test_unsubscribe_wildcard(self):
        b = Broker()
        rec = Recorder()
        sid = b.subscribe("/a/#", rec)
        b.unsubscribe(sid)
        b.publish("/a/b", 1.0, 1)
        assert rec.messages == []

    def test_subscription_count(self):
        b = Broker()
        sid = b.subscribe("/a", Recorder())
        b.subscribe("/b", Recorder())
        assert b.subscription_count() == 2
        b.unsubscribe(sid)
        assert b.subscription_count() == 1


class TestRetained:
    def test_retained_replayed_on_subscribe(self):
        b = Broker()
        b.publish("/a/conf", 42.0, 5, retain=True)
        rec = Recorder()
        b.subscribe("/a/conf", rec, replay_retained=True)
        assert rec.messages == [("/a/conf", 42.0, 5)]

    def test_retained_replay_honours_wildcards(self):
        b = Broker()
        b.publish("/a/x", 1.0, 1, retain=True)
        b.publish("/b/x", 2.0, 2, retain=True)
        rec = Recorder()
        b.subscribe("/a/#", rec, replay_retained=True)
        assert len(rec.messages) == 1

    def test_retained_lookup(self):
        b = Broker()
        b.publish("/a", 1.0, 1, retain=True)
        assert b.retained("/a") == Message("/a", 1.0, 1)
        assert b.retained("/b") is None

    def test_no_replay_without_flag(self):
        b = Broker()
        b.publish("/a", 1.0, 1, retain=True)
        rec = Recorder()
        b.subscribe("/a", rec)
        assert rec.messages == []


class TestCounters:
    def test_published_and_delivered(self):
        b = Broker()
        b.subscribe("/#", Recorder())
        b.subscribe("/a", Recorder())
        b.publish("/a", 1.0, 1)
        b.publish("/b", 2.0, 2)
        assert b.published_count == 2
        assert b.delivered_count == 3


class TestQueuedSubscriber:
    def test_enqueue_and_drain(self):
        b = Broker()
        q = QueuedSubscriber()
        q.attach(b, "/#")
        b.publish("/a", 1.0, 1)
        b.publish("/b", 2.0, 2)
        assert len(q) == 2
        msgs = q.drain()
        assert [m.topic for m in msgs] == ["/a", "/b"]
        assert len(q) == 0

    def test_drain_limit(self):
        b = Broker()
        q = QueuedSubscriber()
        q.attach(b, "/#")
        for i in range(5):
            b.publish("/t", float(i), i)
        assert len(q.drain(limit=2)) == 2
        assert len(q) == 3

    def test_bounded_queue_drops_and_counts(self):
        b = Broker()
        q = QueuedSubscriber(maxlen=2)
        q.attach(b, "/#")
        for i in range(4):
            b.publish("/t", float(i), i)
        assert len(q) == 2
        assert q.dropped == 2
        # deque(maxlen) keeps the newest entries
        assert [m.value for m in q.drain()] == [2.0, 3.0]


class TestPublishValidation:
    def test_wildcards_rejected_in_publish_topics(self):
        b = Broker()
        with pytest.raises(TopicError):
            b.publish("/a/+/b", 1.0, 1)
        with pytest.raises(TopicError):
            b.publish("/a/#", 1.0, 1)
        # Never cached: a rejected topic raises on every attempt.
        for _ in range(3):
            with pytest.raises(TopicError):
                b.publish("/a/+/b", 1.0, 1)
            with pytest.raises(TopicError):
                b.publish_batch([Message("/ok", 1.0, 1), Message("/a/#", 1.0, 1)])
        assert b.published_count == 0


class TestRouteCache:
    def test_subscribe_after_publish_takes_effect(self):
        b = Broker()
        first, late = Recorder(), Recorder()
        b.subscribe("/a/#", first)
        b.publish("/a/x", 1.0, 1)  # caches the route of /a/x
        b.subscribe("/+/x", late)
        b.publish("/a/x", 2.0, 2)
        assert late.messages == [("/a/x", 2.0, 2)]
        assert [m[1] for m in first.messages] == [1.0, 2.0]

    def test_unsubscribe_after_publish_takes_effect(self):
        b = Broker()
        rec = Recorder()
        sid = b.subscribe("/a/x", rec)
        b.publish("/a/x", 1.0, 1)
        b.unsubscribe(sid)
        assert b.publish("/a/x", 2.0, 2) == 0
        assert rec.messages == [("/a/x", 1.0, 1)]

    def test_delivery_order_follows_the_topic_tree(self):
        # At each level '#' subscriptions first, then the exact child's
        # subtree before the '+' child's.
        b = Broker()
        order = []
        for name, pattern in (
            ("exact", "/a/b/c"), ("plus-hash", "/+/#"),
            ("root-hash", "/#"), ("a-hash", "/a/#"), ("plus", "/a/+/c"),
        ):
            b.subscribe(pattern, lambda t, v, ts, n=name: order.append(n))
        assert b.publish("/a/b/c", 1.0, 1) == 5
        assert order == ["root-hash", "a-hash", "exact", "plus", "plus-hash"]

    def test_publish_racing_subscribe_never_misses(self):
        # Publishers re-resolve a few topics after every invalidation
        # while subscribers keep arriving: subscriber j must receive
        # every message whose publish started after its subscribe()
        # returned.  Resolving yields the GIL between the trie walk and
        # the cache write, the window a stale route could slip through.
        class YieldingResolve(Broker):
            def _resolve(self, topic):
                route = super()._resolve(topic)
                time.sleep(0)
                return route

        b = YieldingResolve()
        n_late = 40
        late_seen = [set() for _ in range(n_late)]
        returned = [0]  # late subscribes that have returned
        logs = [[] for _ in range(3)]
        stop = threading.Event()

        def publisher(k):
            i = 0
            while not stop.is_set():
                fence = returned[0]
                topic = f"/p{k}/t{i % 4}"
                b.publish(topic, 1.0, i)
                logs[k].append((topic, i, fence))
                i += 1

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=publisher, args=(k,), daemon=True)
                for k in range(3)
            ]
            for t in threads:
                t.start()
            for j in range(n_late):
                b.subscribe(
                    "/#", lambda t, v, ts, j=j: late_seen[j].add((t, ts))
                )
                returned[0] = j + 1
                threading.Event().wait(0.002)
            stop.set()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(old)
        checked = 0
        for log in logs:
            for topic, i, fence in log:
                for j in range(fence):
                    assert (topic, i) in late_seen[j], (topic, i, j)
                    checked += 1
        assert checked

    def test_subscribe_during_first_sight_resolve(self):
        # Deterministic version of the race: a subscribe lands between a
        # publish resolving a new topic and caching its route.
        class Racy(Broker):
            hook = None

            def _resolve(self, topic):
                route = super()._resolve(topic)
                hook, self.hook = self.hook, None
                if hook is not None:
                    hook()
                return route

        b = Racy()
        late = Recorder()
        b.hook = lambda: b.subscribe("/#", late)
        b.publish("/a", 1.0, 1)  # resolved before the subscribe
        b.publish("/a", 2.0, 2)
        assert late.messages == [("/a", 2.0, 2)]


class TestBatchDelivery:
    def test_batch_handler_gets_one_call_in_publish_order(self):
        b = Broker()
        calls, rec = [], Recorder()
        b.subscribe("/a/#", rec, batch_handler=calls.append)
        msgs = [Message("/a/x", 1.0, 1), Message("/b", 2.0, 1),
                Message("/a/y", 3.0, 1)]
        assert b.publish_batch(msgs) == 2
        assert calls == [[msgs[0], msgs[2]]]
        assert rec.messages == []  # the batch callback replaces handler

    def test_raising_batch_handler_is_isolated(self):
        b = Broker()
        rec = Recorder()

        def bad(messages):
            raise ValueError("subscriber bug")

        b.subscribe("/#", Recorder(), batch_handler=bad)
        b.subscribe("/#", rec)
        assert b.publish_batch([Message("/a", 1.0, 1), Message("/b", 2.0, 2)]) == 4
        assert [m[0] for m in rec.messages] == ["/a", "/b"]
        assert b.handler_errors == 1

    @given(
        maxlen=st.one_of(st.none(), st.integers(1, 8)),
        policy=st.sampled_from(QUEUE_POLICIES),
        passes=st.lists(
            st.tuples(
                st.lists(st.integers(0, 1000), max_size=12),
                st.one_of(st.none(), st.integers(0, 4)),
            ),
            max_size=8,
        ),
    )
    def test_batched_enqueue_equals_per_message(self, maxlen, policy, passes):
        batched = QueuedSubscriber(maxlen, policy)
        single = QueuedSubscriber(maxlen, policy)
        for values, drain_limit in passes:
            msgs = [Message(f"/t{v % 3}", float(v), v) for v in values]
            batched.handler_batch(msgs)
            for msg in msgs:
                single.handler(*msg)
            if drain_limit is not None:
                assert batched.drain(drain_limit) == single.drain(drain_limit)
            assert batched.dropped == single.dropped
        assert batched.drain() == single.drain()
