"""Property-based tests: the sensor cache against a list reference model."""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from repro.dcdb.cache import SensorCache

# Monotone-ish timestamp deltas (>= 0) and arbitrary float values.
reading_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10_000),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
    ),
    max_size=120,
)


def build(readings, capacity, interval=0):
    """Apply readings (cumulative timestamps) to a cache and a reference."""
    cache = SensorCache(capacity, interval_ns=interval)
    reference = []
    ts = 0
    for delta, value in readings:
        ts += delta
        cache.store(ts, value)
        reference.append((ts, value))
        reference = reference[-capacity:]
    return cache, reference


class TestCacheModel:
    @given(readings=reading_lists, capacity=st.integers(1, 32))
    def test_size_and_order_match_reference(self, readings, capacity):
        cache, ref = build(readings, capacity)
        assert len(cache) == len(ref)
        got = list(cache.view_absolute(0, 10**18))
        assert [(r.timestamp, r.value) for r in got] == [
            (t, v) for t, v in ref
        ]

    @given(readings=reading_lists, capacity=st.integers(1, 32))
    def test_latest_and_oldest(self, readings, capacity):
        cache, ref = build(readings, capacity)
        if not ref:
            assert cache.latest() is None
            assert cache.oldest() is None
        else:
            assert (cache.latest().timestamp, cache.latest().value) == ref[-1]
            assert (cache.oldest().timestamp, cache.oldest().value) == ref[0]

    @given(
        readings=reading_lists,
        capacity=st.integers(1, 32),
        lo=st.integers(0, 12_000 * 120),
        span=st.integers(0, 12_000 * 120),
    )
    def test_absolute_view_equals_filtered_reference(
        self, readings, capacity, lo, span
    ):
        cache, ref = build(readings, capacity)
        hi = lo + span
        got = [(r.timestamp, r.value) for r in cache.view_absolute(lo, hi)]
        expected = [(t, v) for t, v in ref if lo <= t <= hi]
        assert got == expected

    @given(
        readings=reading_lists,
        capacity=st.integers(1, 32),
        offset=st.integers(0, 2_000_000),
    )
    def test_relative_view_without_hint_equals_time_filter(
        self, readings, capacity, offset
    ):
        cache, ref = build(readings, capacity, interval=0)
        if not ref:
            assert len(cache.view_relative(offset)) == 0
            return
        newest = ref[-1][0]
        got = [(r.timestamp, r.value) for r in cache.view_relative(offset)]
        if offset == 0:
            assert got == [ref[-1]]
        else:
            expected = [(t, v) for t, v in ref if t >= newest - offset]
            assert got == expected

    @given(readings=reading_lists, capacity=st.integers(1, 32))
    def test_timestamps_always_sorted(self, readings, capacity):
        cache, _ = build(readings, capacity)
        view = cache.view_absolute(0, 10**18)
        ts = view.timestamps()
        assert (np.diff(ts) >= 0).all()

    @given(
        readings=reading_lists,
        capacity=st.integers(2, 32),
        k=st.integers(1, 200),
    )
    def test_relative_with_hint_is_clamped_tail(self, readings, capacity, k):
        # With an interval hint, a relative view is always a suffix of
        # the cache contents, never longer than offset//interval + 1.
        interval = 100
        cache, ref = build(readings, capacity, interval=interval)
        view = cache.view_relative(k * interval)
        assert len(view) <= min(len(ref), k + 1)
        got = [(r.timestamp, r.value) for r in view]
        assert got == ref[len(ref) - len(got):] if ref else got == []


class TestBatchEquivalence:
    # The reported defect: [1, 5, 3, 7] left 3 after 5 in the ring.
    @example(prefill=[], batch=[1, 5, 3, 7], ordered=False, capacity=8)
    @given(
        prefill=st.lists(st.integers(0, 60), max_size=20),
        batch=st.lists(st.integers(0, 60), max_size=80),
        ordered=st.booleans(),
        capacity=st.integers(1, 64),
    )
    def test_store_batch_equals_store_loop(
        self, prefill, batch, ordered, capacity
    ):
        # Sorted, unsorted and duplicate timestamps, into empty and
        # pre-filled caches: one store_batch must equal a store loop.
        if ordered:
            batch = sorted(batch)
        ts = np.asarray(batch, dtype=np.int64)
        values = np.arange(len(batch), dtype=np.float64)
        a = SensorCache(capacity)
        b = SensorCache(capacity)
        for t in sorted(prefill):
            a.store(t, -1.0)
            b.store(t, -1.0)
        a.store_batch(ts, values)
        for t, v in zip(ts, values):
            b.store(int(t), float(v))
        assert list(a.view_absolute(0, 10**18)) == list(
            b.view_absolute(0, 10**18)
        )
        assert a.stale_drops == b.stale_drops
        assert a.latest() == b.latest()
        assert a.newest_ts == b.newest_ts
