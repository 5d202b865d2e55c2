"""An in-process MQTT-style message broker.

DCDB transports all sensor data over MQTT: Pushers publish readings to
per-sensor topics, and Collect Agents subscribe and forward the stream to
the storage backend.  This reproduction keeps the same topic semantics
(slash-separated topics, ``+`` single-level and ``#`` multi-level
wildcards, retained messages) but runs in-process so experiments are
deterministic and require no network stack.

Delivery is synchronous: ``publish_batch`` (``publish`` is its
one-message case) invokes the subscribers of each topic's cached route
before returning.  Each subscriber sees its messages in publish order,
but may get a whole batch before the next one sees its first message.
Batch subscribers such as :class:`QueuedSubscriber`, which a Collect
Agent drains on its own schedule, take their share in one call.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable, Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.common.errors import ConfigError, TopicError
from repro.common.topics import split_topic
from repro.sanitizer import hooks

#: Callback signature for subscribers: (topic, payload, timestamp_ns).
MessageHandler = Callable[[str, float, int], None]

_SINGLE = "+"
_MULTI = "#"


class Message(NamedTuple):
    """One published sample: a value on a topic at a timestamp."""

    topic: str
    value: float
    timestamp: int


class _Subscription(NamedTuple):
    """One subscriber; a batch callback, if any, replaces ``handler``."""

    sub_id: int
    handler: MessageHandler
    batch_handler: Optional[Callable[[List[Message]], None]]


@dataclass
class _TrieNode:
    """A node in the subscription trie keyed by topic segments."""

    children: Dict[str, "_TrieNode"] = field(default_factory=dict)
    # Subscriptions whose pattern ends at this node.
    handlers: List[_Subscription] = field(default_factory=list)
    # '#' subscriptions rooted here (match this node and below).
    multi_handlers: List[_Subscription] = field(default_factory=list)


class Broker:
    """Topic-tree publish/subscribe broker.

    Subscriptions are stored in a trie over topic segments so that
    resolving a topic visits only the trie paths compatible with it,
    rather than scanning every subscription — the same property a real
    MQTT broker's topic tree provides.  A topic is resolved once; its
    route is cached until the next subscribe or unsubscribe.
    """

    def __init__(self) -> None:
        self._root = _TrieNode()
        self._ids = itertools.count(1)
        self._retained: Dict[str, Message] = {}
        self._pattern_by_id: Dict[int, List[str]] = {}
        # topic -> matching subscriptions.  Invalidated by *replacing*
        # the dict: a publish racing a subscribe writes its stale route
        # into the dict it read, which nobody reads again.
        self._routes: Dict[str, Tuple[_Subscription, ...]] = {}
        self.published_count = 0
        self.delivered_count = 0
        self.handler_errors = 0
        self.last_handler_errors: List[str] = []

    # ------------------------------------------------------------------
    # Subscription management
    # ------------------------------------------------------------------

    def subscribe(
        self,
        pattern: str,
        handler: MessageHandler,
        replay_retained: bool = False,
        batch_handler: Optional[Callable[[List[Message]], None]] = None,
    ) -> int:
        """Register ``handler`` for topics matching ``pattern``.

        Returns a subscription id usable with :meth:`unsubscribe`.  With
        ``replay_retained``, retained messages matching the pattern are
        delivered immediately.  With ``batch_handler``, publishes hand
        it this subscriber's messages as one list instead of calling
        ``handler`` once per message.
        """
        parts = split_topic(pattern)
        if _MULTI in parts[:-1]:
            raise TopicError(f"'#' must terminate the pattern: {pattern!r}")
        sub = _Subscription(next(self._ids), handler, batch_handler)
        node = self._root
        is_multi = parts[-1] == _MULTI
        walk = parts[:-1] if is_multi else parts
        for seg in walk:
            node = node.children.setdefault(seg, _TrieNode())
        if is_multi:
            node.multi_handlers.append(sub)
        else:
            node.handlers.append(sub)
        self._pattern_by_id[sub.sub_id] = parts
        self._routes = {}
        if replay_retained:
            from repro.common.topics import topic_matches

            pat = "/" + "/".join(parts)
            for msg in list(self._retained.values()):
                if topic_matches(pat, msg.topic):
                    self._invoke(msg.topic, handler, *msg)
        return sub.sub_id

    def unsubscribe(self, sub_id: int) -> bool:
        """Remove a subscription; returns whether it existed."""
        parts = self._pattern_by_id.pop(sub_id, None)
        if parts is None:
            return False
        is_multi = parts[-1] == _MULTI
        walk = parts[:-1] if is_multi else parts
        node = self._root
        for seg in walk:
            node = node.children.get(seg)
            if node is None:
                return False
        bucket = node.multi_handlers if is_multi else node.handlers
        for i, sub in enumerate(bucket):
            if sub.sub_id == sub_id:
                del bucket[i]
                self._routes = {}
                return True
        return False

    def subscription_count(self) -> int:
        """Number of live subscriptions."""
        return len(self._pattern_by_id)

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------

    def publish(
        self, topic: str, value: float, timestamp: int, retain: bool = False
    ) -> int:
        """Deliver a sample to all matching subscribers.

        Returns the number of handlers invoked.  With ``retain`` the
        message is stored and replayed to late subscribers that request
        retained delivery.
        """
        msg = Message(topic, value, timestamp)
        delivered = self.publish_batch([msg])
        if retain:
            self._retained[topic] = msg
        return delivered

    def publish_batch(self, messages: Sequence[Message]) -> int:
        """Deliver many samples in one call; returns handler invocations.

        Each subscriber gets its messages in list order: a batch
        subscriber in one call, any other subscriber one call per
        message.  Topic validation runs (and raises) before anything is
        delivered; the blocking-section bookkeeping is paid once.
        """
        if not messages:
            return 0
        routes = self._routes
        # Runs of consecutive messages sharing one route.
        runs: List[Tuple[Tuple[_Subscription, ...], List[Message]]] = []
        last = None
        for msg in messages:
            route = routes.get(msg.topic)
            if route is None:
                route = routes[msg.topic] = self._resolve(msg.topic)
            if route != last:
                run: List[Message] = []
                runs.append((route, run))
                last = route
            run.append(msg)
        # Fan-out runs arbitrary subscriber callbacks of unbounded cost
        # — the in-process stand-in for a network send.  Holding a lock
        # across it is the classic lock-across-I/O hazard (rule R002).
        hooks.note_blocking("Broker.publish_batch (subscriber fan-out)")
        self.published_count += len(messages)
        delivered = 0
        per_sub: Dict[int, Tuple[_Subscription, List[Message]]] = {}
        for route, run in runs:
            delivered += len(route) * len(run)
            for sub in route:
                per_sub.setdefault(sub.sub_id, (sub, []))[1].extend(run)
        for sub, msgs in per_sub.values():
            if sub.batch_handler is not None:
                self._invoke(msgs[0].topic, sub.batch_handler, msgs)
                continue
            for msg in msgs:
                self._invoke(msg.topic, sub.handler, *msg)
        self.delivered_count += delivered
        return delivered

    def retained(self, topic: str) -> Optional[Message]:
        """The retained message on ``topic``, if any."""
        return self._retained.get(topic)

    def _resolve(self, topic: str) -> Tuple[_Subscription, ...]:
        """The subscriptions matching ``topic``, in delivery order: at
        each trie level '#' subscriptions first, then the exact child's
        subtree before the '+' child's."""
        parts = split_topic(topic)
        if _SINGLE in parts or _MULTI in parts:
            # MQTT forbids wildcard characters in publish topics; letting
            # them through would alias the subscription trie's wildcard
            # slots.
            raise TopicError(f"wildcards not allowed in publish topic {topic!r}")
        route: List[_Subscription] = []
        stack = [(self._root, 0)]
        while stack:
            node, depth = stack.pop()
            route.extend(node.multi_handlers)
            if depth == len(parts):
                route.extend(node.handlers)
                continue
            for seg in (_SINGLE, parts[depth]):  # popped exact-first
                child = node.children.get(seg)
                if child is not None:
                    stack.append((child, depth + 1))
        return tuple(route)

    def _invoke(self, topic: str, handler, *args) -> None:
        """Call one subscriber; a throwing handler must not poison the
        publisher or the remaining subscribers."""
        try:
            handler(*args)
        except Exception as exc:
            self.handler_errors += 1
            self.last_handler_errors = (
                self.last_handler_errors + [f"{topic}: {exc}"]
            )[-16:]


#: Backpressure policies a bounded :class:`QueuedSubscriber` accepts.
QUEUE_POLICIES = ("drop-oldest", "drop-newest")


class QueuedSubscriber:
    """A subscriber that buffers messages for deferred draining.

    Collect Agents use this to decouple broker delivery from storage
    writes: ``attach`` registers the queue on a broker, and ``drain``
    hands the accumulated batch to a consumer.

    With ``maxlen`` the queue is bounded: at capacity, ``drop-oldest``
    evicts the head to admit the new message (monitoring's newest-data
    bias, the default) while ``drop-newest`` refuses the arrival.
    Either way the loss lands in ``dropped``, which the owning host
    exports as ``ingest_dropped_total``.  All queue state is guarded by
    a ``hooks.make_lock`` lock — under a WallClockDriver, publishes
    arrive on publisher threads concurrently with the drain task.
    """

    def __init__(
        self, maxlen: Optional[int] = None, policy: str = "drop-oldest"
    ) -> None:
        if policy not in QUEUE_POLICIES:
            raise ConfigError(
                f"unknown queue policy {policy!r} "
                f"(expected one of {list(QUEUE_POLICIES)})"
            )
        if maxlen is not None and maxlen < 1:
            raise ConfigError(f"queue maxlen must be positive: {maxlen}")
        # drop-oldest is deque(maxlen)'s own eviction.
        self._queue: Deque[Message] = deque(
            maxlen=maxlen if policy == "drop-oldest" else None
        )
        self.dropped = 0
        self._maxlen = maxlen
        self.policy = policy
        self._lock = hooks.make_lock("QueuedSubscriber")

    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)

    def handler(self, topic: str, value: float, timestamp: int) -> None:
        """Broker-facing callback: enqueue one message."""
        self.handler_batch([Message(topic, value, timestamp)])

    def handler_batch(self, messages: Sequence[Message]) -> None:
        """Broker-facing batch callback: enqueue a publish's messages.

        Contents and ``dropped`` end up exactly as if each message had
        been enqueued on its own.
        """
        with self._lock:
            if self._maxlen is not None:
                over = len(self._queue) + len(messages) - self._maxlen
                if over > 0:
                    self.dropped += over
                    if self.policy == "drop-newest":
                        messages = messages[: len(messages) - over]
            self._queue.extend(messages)

    def attach(self, broker: Broker, pattern: str) -> int:
        """Subscribe this queue to ``pattern`` on ``broker``."""
        return broker.subscribe(
            pattern, self.handler, batch_handler=self.handler_batch
        )

    def drain(self, limit: Optional[int] = None) -> List[Message]:
        """Remove and return up to ``limit`` queued messages (all if None)."""
        with self._lock:
            if limit is None or limit >= len(self._queue):
                out = list(self._queue)
                self._queue.clear()
                return out
            return [self._queue.popleft() for _ in range(limit)]
