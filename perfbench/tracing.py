"""Spans around the calls the benchmark makes into each layer.

Tracing lives in the benchmark, not in ``src/repro``: :func:`install`
wraps the public entry points of each layer (scheduler tasks, cache
stores, broker and link publishes, agent drain, storage inserts and
queries, segment maintenance, Query Engine queries, operator and fused
passes) on the measured deployment, and on the classes that every host
shares.  A span is named ``<layer>:<operation>``, where the layer is a
module of ``src/repro`` (``dcdb.cache``, ``core.operator``, ...).

Every span adds its duration to its parent's child time, so self time
(a span minus its children) is exact per layer.  Per span name and per
root (a tick, or one reader query) the tracer keeps call count, total
and self nanoseconds and an item count (messages, readings).  Coarse
spans (ticks, tasks, passes, queries) are also kept one by one as
``(name, start_ns, end_ns, parent_record)`` and written out at the end.

Tracing is switched per tick: while :attr:`Tracer.on` is false every
wrapper calls straight through, which is how one traced run measures
its own overhead against interleaved untraced ticks.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_now = time.perf_counter_ns

#: Root span of one measured tick; its self time is scheduler overhead.
TICK = "simulator.clock:tick"

#: Layers reported in the self-time attribution, in data-path order.
LAYERS = (
    "simulator.clock",
    "replay",
    "dcdb.pusher",
    "dcdb.cache",
    "dcdb.mqtt",
    "dcdb.network",
    "dcdb.collectagent",
    "dcdb.storage",
    "dcdb.segments",
    "core.queryengine",
    "core.operator",
    "core.fusion",
)


def layer_of(span_name: str) -> str:
    return span_name.split(":", 1)[0]


class SpanStats:
    __slots__ = ("calls", "total_ns", "self_ns", "items", "max_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.items = 0
        self.max_ns = 0


class Tracer:
    """In-memory span recorder.

    Attributes:
        on: whether wrappers record (switched per tick by the driver).
        stats: ``(root name, span name) -> SpanStats``.
        records: coarse spans, ``[name, start_ns, end_ns, parent]`` with
            ``parent`` the index of the enclosing record or -1.
    """

    def __init__(self) -> None:
        self.on = False
        # Open frames: [child_ns, record index, span name].
        self._stack: List[list] = []
        self._root = ""
        self.stats: Dict[tuple, SpanStats] = defaultdict(SpanStats)
        self.records: List[list] = []
        #: Always-on counts (kept in untraced ticks too).
        self.counters: Dict[str, int] = defaultdict(int)

    def wrap(
        self,
        name: str,
        fn: Callable,
        record: bool = False,
        items: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped in a span called ``name``.

        ``items(args, result)`` counts the work units of one call
        (default 1).  A call nested directly in a span of the same name
        is folded into it, so re-entrant paths are not counted twice.
        """
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            if not tracer.on or (stack and stack[-1][2] == name):
                return fn(*args, **kwargs)
            if not stack:
                tracer._root = name
            parent = stack[-1][1] if stack else -1
            rec = parent
            if record:
                rec = len(tracer.records)
                tracer.records.append([name, 0, 0, parent])
            frame = [0, rec, name]
            stack.append(frame)
            result = None
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = _now() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                st = tracer.stats[(tracer._root, name)]
                st.calls += 1
                st.total_ns += dur
                st.self_ns += dur - frame[0]
                st.items += items(args, result) if items else 1
                if dur > st.max_ns:
                    st.max_ns = dur
                if record:
                    tracer.records[rec][1] = t0
                    tracer.records[rec][2] = t0 + dur

        return traced

    # ------------------------------------------------------------------

    def totals(self, root: str, name: str) -> SpanStats:
        return self.stats.get((root, name), SpanStats())

    def layer_self_ns(self, root: str) -> Dict[str, int]:
        """Self nanoseconds per layer under roots named ``root``."""
        out = {layer: 0 for layer in LAYERS}
        for (r, name), st in self.stats.items():
            if r == root:
                layer = layer_of(name)
                out[layer] = out.get(layer, 0) + st.self_ns
        return out

    def dump(self, path) -> None:
        """Write the coarse spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.records:
                fh.write(json.dumps(
                    {"name": name, "start_ns": start, "end_ns": end,
                     "parent": parent}
                ) + "\n")


# ----------------------------------------------------------------------
# Instrumentation of a deployment
# ----------------------------------------------------------------------


def _len_first_arg(args, result) -> int:
    # args[1]: the batch after ``self`` (unbound) or after ``topic``
    # (bound storage method).
    return len(args[1])


def _len_result(args, result) -> int:
    return len(result) if result is not None else 0


def _patch_class(tracer: Tracer, cls, method: str, name: str, **kw) -> None:
    setattr(cls, method, tracer.wrap(name, getattr(cls, method), **kw))


def _task_span(task_name: str, host_names) -> Optional[str]:
    """Span name for a scheduler task, by the naming convention of the
    hosts that register them (None: not a layer entry point)."""
    host, _, rest = task_name.partition(":")
    if task_name == "net-delivery":
        return "dcdb.network:deliver"
    if rest == "spill-retry":
        return "dcdb.pusher:spill_replay"
    if rest == "drain":
        return "dcdb.collectagent:drain"
    if rest == "storage-maintenance":
        return "dcdb.segments:maintain"
    if host in host_names and rest and not rest.startswith("analytics:"):
        return "dcdb.pusher:sample"
    return None


def install(tracer: Tracer, dep) -> None:
    """Wrap the layer entry points of ``dep`` (and of the shared classes)."""
    from repro.core.fusion import FusedEngine
    from repro.core.queryengine import QueryEngine
    from repro.dcdb.cache import SensorCache
    from repro.dcdb.mqtt import Broker
    from repro.dcdb.network import NetworkConditions
    from repro.dcdb.segments import Segment, SegmentStore

    hosts = set(dep.pushers)
    for task in dep.scheduler.tasks():
        span = _task_span(task.name, hosts)
        if span is not None:
            task.fn = tracer.wrap(span, task.fn, record=True)

    scheduler = dep.scheduler
    add = scheduler.add

    def add_traced(task):
        # One-shot tasks (network deliveries, spill retries) register
        # while the deployment runs.  They are wrapped in untraced ticks
        # too: a delivery fires in the tick after its publish.  There is
        # one delivery per message, so those are counted and timed but
        # not recorded one by one.
        span = _task_span(task.name, hosts)
        if span is not None:
            task.fn = tracer.wrap(span, task.fn,
                                  record=span != "dcdb.network:deliver")
        return add(task)

    scheduler.add = add_traced

    for pusher in dep.pushers.values():
        for name in pusher.plugins():
            plugin = pusher.plugin(name)
            plugin.sample = tracer.wrap("replay:sample", plugin.sample)

    _patch_class(tracer, SensorCache, "store", "dcdb.cache:store")
    _patch_class(tracer, SensorCache, "store_batch", "dcdb.cache:store",
                 items=_len_first_arg)
    _patch_class(tracer, Broker, "publish", "dcdb.mqtt:publish")
    _patch_class(tracer, Broker, "publish_batch", "dcdb.mqtt:publish",
                 items=_len_first_arg)
    # publish_batch on the link loops over publish: only the per-message
    # call is a span, so the per-message cost is not counted twice.
    _patch_class(tracer, NetworkConditions, "publish", "dcdb.network:publish")
    _patch_class(tracer, Segment, "query", "dcdb.segments:query")
    for method in ("write", "replace"):
        write = getattr(SegmentStore, method)

        def counted(*args, _write=write, **kwargs):
            seg = _write(*args, **kwargs)
            tracer.counters["segment_bytes_written"] += seg.disk_bytes
            return seg

        setattr(SegmentStore, method,
                tracer.wrap("dcdb.segments:write", counted))
    for method in ("query_relative", "query_absolute", "query_relative_batch"):
        _patch_class(tracer, QueryEngine, method, "core.queryengine:query")
        _patch_class(tracer, FusedEngine, method, "core.fusion:query")

    storage = dep.agent.storage
    storage.insert = tracer.wrap("dcdb.storage:insert", storage.insert)
    storage.insert_batch = tracer.wrap(
        "dcdb.storage:insert", storage.insert_batch, items=_len_first_arg
    )
    storage.query = tracer.wrap("dcdb.storage:query", storage.query)
    storage.query_aggregate = tracer.wrap(
        "dcdb.storage:query_aggregate", storage.query_aggregate
    )

    for manager in [*dep.managers.values(), dep.agent_manager]:
        for op in manager.operators():
            op.compute = tracer.wrap(
                f"core.operator:pass.{op.name}", op.compute,
                record=True, items=_len_result,
            )
        for group in manager.fused_groups():
            group.run = tracer.wrap("core.fusion:pass", group.run, record=True)
