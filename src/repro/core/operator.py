"""Operator interface (Sections IV and V-C).

Operators are the computational entities performing ODA tasks.  Each
operator owns a set of units; when computation is invoked it iterates
through them, queries the input sensors through the Query Engine,
processes the readings, and stores results in the output sensors.

Configuration knobs follow the paper's workflow options:

- **mode**: ``online`` operators are invoked at regular intervals and
  produce time-series-like output; ``ondemand`` operators compute only
  when triggered through the REST API, returning (not storing) results.
- **unit management**: ``sequential`` units share one model and are
  processed in order (race-free); ``parallel`` units each get their own
  model instance and may be computed by a worker pool.
- **delay**: online operators can defer their first invocation, useful
  for pipeline stages that must wait for upstream data.
- **operator-level outputs**: aggregate sensors computed across all
  unit results (e.g. the average error of a model over its units).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigError, PluginError, QueryError
from repro.common.timeutil import NS_PER_SEC
from repro.dcdb.sensor import Sensor
from repro.core.breaker import CLOSED, OPEN, UnitBreaker, default_snapshot
from repro.core.queryengine import BatchWindow, QueryEngine
from repro.core.tree import SensorTree
from repro.core.units import Unit, UnitResolver
from repro.sanitizer import hooks
from repro.telemetry import Histogram, MetricRegistry

MODES = ("online", "ondemand")
UNIT_MODES = ("sequential", "parallel")
BATCH_MODES = (True, False, "auto")
FUSION_MODES = (True, False, "auto")


@dataclass
class OperatorConfig:
    """Declarative configuration of one operator.

    Attributes:
        name: operator instance name, unique within its manager.
        interval_ns: computation interval for online operators.
        mode: ``online`` or ``ondemand``.
        unit_mode: ``sequential`` (shared model) or ``parallel``
            (per-unit models, optional worker pool).
        window_ns: length of the input window operators query at each
            computation (0 = most recent value only).
        delay_ns: initial delay before the first online computation.
        relaxed: tolerate unbuildable units during resolution.
        publish_outputs: publish output readings over MQTT.
        max_workers: worker threads for parallel unit mode (1 = inline).
        unit_cadence: compute each unit only every Nth pass, staggered
            by unit index — spreads the load of operators with very
            large unit sets across intervals (1 = every pass).
        batch: ``"auto"`` (default) uses the vectorized
            :meth:`OperatorBase.compute_batch` path when the plugin
            declares ``supports_batch``; ``True`` forces the batch path
            even through the default per-unit fallback; ``False`` pins
            the scalar path.  The runtime sanitizer always computes
            scalar so its per-unit hooks keep firing.
        fusion: ``"auto"`` (default) lets the manager's fusion planner
            group this operator with adjacent pipeline stages into one
            fused pass when eligible; ``True`` additionally forces
            membership through the per-unit fallback paths (like
            ``batch: true``) and admits job operators as terminal
            consumers; ``False`` keeps the operator on the staged path.
        breaker_threshold: consecutive failures after which a unit is
            quarantined (skipped) by its circuit breaker; 0 (default)
            disables automatic tripping, leaving only manual REST
            control.
        breaker_cooldown: passes an open breaker waits before letting a
            probe computation through.
        breaker_max_cooldown: ceiling of the probe backoff doubling.
        inputs / outputs: pattern expressions of the operator's units.
        operator_outputs: names of operator-level aggregate outputs.
        params: plugin-specific parameters.
    """

    name: str
    interval_ns: int = NS_PER_SEC
    mode: str = "online"
    unit_mode: str = "sequential"
    window_ns: int = 0
    delay_ns: int = 0
    relaxed: bool = False
    publish_outputs: bool = True
    max_workers: int = 1
    unit_cadence: int = 1
    batch: object = "auto"
    fusion: object = "auto"
    breaker_threshold: int = 0
    breaker_cooldown: int = 4
    breaker_max_cooldown: int = 64
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    operator_outputs: List[str] = field(default_factory=list)
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"operator {self.name}: bad mode {self.mode!r}")
        if self.unit_mode not in UNIT_MODES:
            raise ConfigError(
                f"operator {self.name}: bad unit_mode {self.unit_mode!r}"
            )
        if self.interval_ns <= 0:
            raise ConfigError(
                f"operator {self.name}: interval must be positive"
            )
        if self.window_ns < 0 or self.delay_ns < 0:
            raise ConfigError(
                f"operator {self.name}: window/delay must be non-negative"
            )
        if self.max_workers < 1:
            raise ConfigError(f"operator {self.name}: max_workers must be >= 1")
        if self.unit_cadence < 1:
            raise ConfigError(
                f"operator {self.name}: unit_cadence must be >= 1"
            )
        if self.batch not in BATCH_MODES:
            raise ConfigError(
                f"operator {self.name}: batch must be true, false or "
                f"'auto', not {self.batch!r}"
            )
        if self.fusion not in FUSION_MODES:
            raise ConfigError(
                f"operator {self.name}: fusion must be true, false or "
                f"'auto', not {self.fusion!r}"
            )
        if self.breaker_threshold < 0:
            raise ConfigError(
                f"operator {self.name}: breaker_threshold must be >= 0"
            )
        if self.breaker_cooldown < 1:
            raise ConfigError(
                f"operator {self.name}: breaker_cooldown must be >= 1"
            )
        # The ceiling can never undercut the base cooldown.
        self.breaker_max_cooldown = max(
            self.breaker_max_cooldown, self.breaker_cooldown
        )


class UnitResult(NamedTuple):
    """Output of one unit computation: output-name -> value."""

    unit: Unit
    values: Dict[str, float]


def _unit_inputs(unit: Unit) -> List[str]:
    """Default topic extractor for :meth:`OperatorBase.batch_window`."""
    return unit.inputs


class OperatorBase:
    """Base class for all Wintermute operator plugins.

    Subclasses implement :meth:`compute_unit` (and optionally
    :meth:`make_model` and :meth:`compute_operator_outputs`).  The base
    class handles unit resolution, model placement (shared vs per-unit),
    scheduling hooks, result storage and bookkeeping.

    Plugins with a vectorized :meth:`compute_batch` set the class
    attribute ``supports_batch = True``; the ``batch`` config knob then
    routes whole passes through one kernel over a
    :class:`~repro.core.queryengine.BatchWindow` instead of U per-unit
    Python calls.
    """

    #: Whether the plugin ships a vectorized :meth:`compute_batch`.
    supports_batch = False

    #: Whether :meth:`compute_batch` treats its :class:`BatchWindow` as
    #: read-only.  Fused pipeline stages (``core/fusion.py``) serve
    #: windows as zero-copy views over live fused-channel matrices to
    #: ``fusion_safe`` consumers; plugins that mutate window arrays in
    #: place must leave this ``False`` to receive private copies.
    fusion_safe = False

    @classmethod
    def flow_transforms(cls, params: dict) -> Dict[str, object]:
        """Declarative output-unit metadata for the static dataflow
        analyzer (``wintermute-sim check --flow``).

        Returns a mapping from output-sensor-name glob (``fnmatch``
        style, ``"*"`` for all) to a *transform* describing how the
        output's physical unit derives from the unit inputs:

        - ``"preserve"`` — same unit as the (pooled) inputs; pooling
          inputs of different physical dimensions is a configuration
          error the analyzer reports (rule F006).
        - ``"per-second"`` — input unit divided by time (``delta``/
          ``rate`` style computations: J becomes W, B becomes B/s).
        - ``"dimensionless"`` — ratios, labels, booleans, counts.
        - ``("input", <sensor-name>)`` — the unit of the named input
          sensor (e.g. a regression target), with no pooling check.

        The default declares nothing: third-party plugins degrade to
        "unknown" output units gracefully (the analyzer reports rule
        F007 as info and skips downstream unit checks).  Implementations
        must stay pure — they are consulted with the raw ``params``
        block, before (and without) operator instantiation.
        """
        return {}

    def __init__(self, config: OperatorConfig) -> None:
        self.config = config
        self.units: List[Unit] = []
        self.host = None
        self.engine: Optional[QueryEngine] = None
        self.enabled = False
        self._shared_model = None
        self._unit_models: Dict[str, object] = {}
        self._operator_output_sensors: List[Sensor] = []
        self._pool: Optional[ThreadPoolExecutor] = None
        self.last_errors: List[str] = []
        # Per-unit circuit breakers, allocated lazily on first failure
        # (or manual trip).  The lock is a sanitizer seam: parallel unit
        # mode records failures from pool worker threads.
        self._breakers: Dict[str, UnitBreaker] = {}
        self._breaker_lock = hooks.make_lock("OperatorBase.breaker")
        # Memoized batch-query layout: (key, topics, slices) from the
        # last batch_window call, keyed on the exact unit identities.
        self._batch_layout: Optional[tuple] = None
        # Memoized one-row-per-unit index (vector-kernel alignment),
        # keyed on the slices object batch_window keeps stable.
        self._row_layout: Optional[tuple] = None
        # Unbound operators instrument against a private registry; bind()
        # migrates the accrued values into the host's registry so every
        # operator shows up under the host's GET /metrics.
        self._telemetry = MetricRegistry()
        self._init_metrics(self._telemetry)

    def _init_metrics(self, registry: MetricRegistry) -> None:
        labels = {"operator": self.config.name}
        self._m_computes = registry.counter("operator_computes_total", **labels)
        self._m_errors = registry.counter("operator_errors_total", **labels)
        self._m_busy = registry.counter("operator_busy_ns_total", **labels)
        self._m_unit_results = registry.counter(
            "operator_unit_results_total", **labels
        )
        self._m_latency = registry.histogram(
            "operator_compute_latency_ns", **labels
        )
        self._m_breaker_trips = registry.counter(
            "breaker_trips_total", **labels
        )
        self._m_breaker_recoveries = registry.counter(
            "breaker_recoveries_total", **labels
        )
        registry.gauge(
            "operator_quarantined_units",
            fn=lambda: len(self.quarantined_units()),
            **labels,
        )

    # ------------------------------------------------------------------
    # Telemetry-backed counters (kept as attributes for compatibility)
    # ------------------------------------------------------------------

    @property
    def compute_count(self) -> int:
        """Completed computation passes."""
        return self._m_computes.value

    @property
    def error_count(self) -> int:
        """Failed unit computations (the operator kept running)."""
        return self._m_errors.value

    @property
    def busy_ns(self) -> int:
        """Cumulative wall-clock nanoseconds spent in compute passes."""
        return self._m_busy.value

    @property
    def unit_results_count(self) -> int:
        """Total unit results produced (unit throughput numerator)."""
        return self._m_unit_results.value

    @property
    def compute_latency(self) -> Histogram:
        """Latency histogram of full compute passes (telemetry view)."""
        return self._m_latency

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """The operator instance name."""
        return self.config.name

    def bind(self, host, engine: QueryEngine) -> None:
        """Attach the operator to its hosting component.

        Operator metrics migrate into the host's metric registry (when
        it has one), carrying over anything accrued before binding.
        """
        self.host = host
        self.engine = engine
        registry = getattr(host, "telemetry", None)
        if registry is not None and registry is not self._telemetry:
            registry.absorb(self._telemetry)
            self._telemetry = registry
            self._init_metrics(registry)

    def make_resolver(self) -> UnitResolver:
        """The resolver for this operator's pattern unit."""
        return UnitResolver(
            inputs=self.config.inputs,
            outputs=self.config.outputs,
            relaxed=self.config.relaxed,
            publish_outputs=self.config.publish_outputs,
        )

    def init_units(self, tree: SensorTree) -> None:
        """Resolve the pattern unit against ``tree`` (Section V-C-2)."""
        self.set_units(self.make_resolver().resolve(tree))

    def set_units(self, units: Sequence[Unit]) -> None:
        """Install pre-built units (used by tests and job operators)."""
        self.units = list(units)
        self._unit_models.clear()
        self._shared_model = None
        self._init_operator_outputs()

    def _init_operator_outputs(self) -> None:
        self._operator_output_sensors = [
            Sensor(
                topic=f"/analytics/{self.name}/{out_name}",
                publish=self.config.publish_outputs,
                is_operator_output=True,
            )
            for out_name in self.config.operator_outputs
        ]

    def start(self) -> None:
        """Enable computation (the manager schedules the task).

        Parallel operators acquire their worker pool here: one
        persistent :class:`ThreadPoolExecutor` owned for the operator's
        whole enabled lifetime, not one per pass — the M4 ablation showed
        per-pass pool construction costing more than the work it ran.
        """
        self.enabled = True
        if self._uses_pool() and self._pool is None:
            self._pool = self._make_pool()

    def stop(self) -> None:
        """Disable computation; the task stays registered but idle."""
        self.enabled = False
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _uses_pool(self) -> bool:
        return self.config.unit_mode == "parallel" and self.config.max_workers > 1

    def _make_pool(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            self.config.max_workers,
            thread_name_prefix=f"op-{self.name}",
        )

    # ------------------------------------------------------------------
    # Models
    # ------------------------------------------------------------------

    def make_model(self):
        """Create one analysis model instance (None for stateless ops)."""
        return None

    def model_for(self, unit: Unit):
        """The model bound to ``unit`` under the configured unit mode.

        Sequential operators share a single model across units;
        parallel operators keep one model per unit (Section IV-c).
        """
        if self.config.unit_mode == "sequential":
            if self._shared_model is None:
                self._shared_model = self.make_model()
            model = self._shared_model
        else:
            model = self._unit_models.get(unit.name)
            if model is None:
                model = self._unit_models[unit.name] = self.make_model()
        san = hooks.CURRENT
        if san is not None:
            san.on_model_access(self, unit, model)
        return model

    # ------------------------------------------------------------------
    # Computation
    # ------------------------------------------------------------------

    def compute_unit(self, unit: Unit, ts: int) -> Dict[str, float]:
        """Analyse one unit at time ``ts``; map output names to values.

        Output names must match the short names of the unit's output
        sensors.  Returning an empty dict stores nothing for the unit
        (useful while a model is still training).
        """
        raise NotImplementedError

    def compute(self, ts: int) -> List[UnitResult]:
        """One full computation pass over all units (online path)."""
        return self.run_pass(ts)

    def run_pass(self, ts: int, channel=None) -> List[UnitResult]:
        """The operator's one pass driver.

        With no ``channel`` the pass stores its results on the host.
        With a fused group's :class:`~repro.core.fusion.FusedChannel`
        it hands them to the channel instead: a plain pass (no cadence
        staggering, no breakers, batching on, one output per unit) as
        the column of :meth:`compute_batch_vector`, any other pass as
        its result list.  Under an active sanitizer it does both, so
        a fallback pass stores like a staged one and the channel keeps
        the window history fused passes will resume from.  Returns the
        result list (empty when the column was handed over).
        """
        if not self.enabled:
            return []
        san = hooks.CURRENT
        if san is not None:
            san.begin_pass(self)
        t0 = time.perf_counter_ns()
        column = None
        if (
            channel is not None
            and channel.vector_ok
            and self.config.unit_cadence <= 1
            and not self._breakers  # unguarded: emptiness fast-path; any breaker routes through the accounted list path
            and self.batch_enabled()
        ):
            try:
                column = self.compute_batch_vector(self.units, ts)
            except (QueryError, PluginError, ValueError, KeyError):
                # The list path below re-raises and accounts for it
                # exactly as a staged pass would.
                column = None
        if column is None:
            results = self._compute_results(ts)
            self._record_unit_successes(results)
            if channel is None or san is not None:
                self._store(ts, results)
            produced = len(results)
        else:
            results = []
            produced = len(column)
        elapsed = time.perf_counter_ns() - t0
        self._m_computes.inc()
        self._m_busy.inc(elapsed)
        self._m_latency.observe(elapsed)
        self._m_unit_results.inc(produced)
        if column is not None:
            channel.append_column(ts, column)
        elif channel is not None:
            channel.append_results(ts, results)
        if san is not None:
            san.end_pass(self)
        return results

    def compute_batch_vector(self, units: Sequence[Unit], ts: int):
        """Optional column kernel for fused intermediate stages.

        When the pass is uniform (see :meth:`_uniform_rows`) and every
        unit has one output, return the float64 output column aligned
        with ``units``.  Return None to decline; :meth:`run_pass` then
        takes the ordinary :meth:`compute_batch` list path.  The column
        must equal the values :meth:`compute_batch` would produce for
        the same pass bit-for-bit, and nothing may be stored.
        """
        return None

    def _uniform_rows(self, window: BatchWindow, slices: List[range]):
        """``(rows, n)`` when the pass is uniform: every unit maps to
        exactly one window row and all those rows hold the same
        non-empty count ``n`` — the stacked-matrix kernels'
        precondition.  None otherwise.  The unit→row index is memoized
        on the slices object, which :meth:`batch_window`'s layout memo
        keeps identity-stable across steady-state passes."""
        memo = self._row_layout
        if memo is not None and memo[0] is slices:
            rows = memo[1]
        else:
            rows = None
            if slices and all(len(s) == 1 for s in slices):
                rows = np.fromiter(
                    (s[0] for s in slices), dtype=np.intp, count=len(slices)
                )
            self._row_layout = (slices, rows)
        if rows is None:
            return None
        counts = window.counts[rows]
        n = int(counts[0])
        if n < 1 or (counts != n).any():
            return None
        return rows, n

    def _due_units(self) -> List[Unit]:
        """Units owed a computation this pass (cadence staggering,
        then circuit-breaker quarantine filtering)."""
        cadence = self.config.unit_cadence
        if cadence > 1:
            phase = self.compute_count % cadence
            units = [
                u for i, u in enumerate(self.units) if i % cadence == phase
            ]
        else:
            units = self.units
        return self._breaker_filter(units)

    # ------------------------------------------------------------------
    # Circuit breaker
    # ------------------------------------------------------------------

    def breaker_enabled(self) -> bool:
        """Whether failures trip unit breakers automatically."""
        return self.config.breaker_threshold > 0

    def _breaker_for(self, unit_name: str) -> UnitBreaker:
        """Get-or-create a unit's breaker (callers hold _breaker_lock)."""
        breaker = self._breakers.get(unit_name)
        if breaker is None:
            breaker = self._breakers[unit_name] = UnitBreaker(
                self.config.breaker_threshold,
                self.config.breaker_cooldown,
                self.config.breaker_max_cooldown,
            )
        return breaker

    def _breaker_filter(self, units: List[Unit]) -> List[Unit]:
        """Drop quarantined units from a pass.

        Open breakers age toward their next probe here (skipped passes
        are the quarantine clock).  With no breakers allocated and
        automatic tripping disabled this is a no-op returning ``units``
        unchanged.
        """
        if not self._breakers:  # unguarded: emptiness fast-path; a stale read only delays quarantine by one pass
            return units
        allowed = []
        with self._breaker_lock:
            for unit in units:
                breaker = self._breakers.get(unit.name)
                if breaker is None or breaker.allow():
                    allowed.append(unit)
        return allowed

    def _record_unit_successes(self, results: List[UnitResult]) -> None:
        """Close/clear breakers of units that produced results."""
        if not self._breakers:  # unguarded: emptiness fast-path; a missed close is retried next pass
            return
        with self._breaker_lock:
            for unit, _values in results:
                breaker = self._breakers.get(unit.name)
                if breaker is None:
                    continue
                recovered = breaker.state != CLOSED
                breaker.record_success()
                if recovered:
                    self._m_breaker_recoveries.inc()

    def quarantined_units(self) -> List[str]:
        """Names of units currently skipped by an open breaker."""
        with self._breaker_lock:
            return sorted(
                name
                for name, b in self._breakers.items()
                if b.state == OPEN
            )

    def breaker_state(self, unit_name: str) -> dict:
        """REST view of one unit's breaker."""
        self._require_unit(unit_name)
        with self._breaker_lock:
            breaker = self._breakers.get(unit_name)
            snap = (
                breaker.snapshot()
                if breaker is not None
                else default_snapshot(self.config.breaker_threshold)
            )
        return {"operator": self.name, "unit": unit_name, **snap}

    def set_breaker(self, unit_name: str, action: str) -> dict:
        """Manual breaker control (REST ``PUT ...?action=trip|reset``)."""
        self._require_unit(unit_name)
        if action not in ("trip", "reset"):
            raise ConfigError(
                f"breaker action must be 'trip' or 'reset', got {action!r}"
            )
        with self._breaker_lock:
            breaker = self._breaker_for(unit_name)
            if action == "trip":
                if breaker.state != OPEN:
                    breaker.trip()
                    self._m_breaker_trips.inc()
            else:
                breaker.reset()
            snap = breaker.snapshot()
        return {"operator": self.name, "unit": unit_name, **snap}

    def _require_unit(self, unit_name: str) -> None:
        if any(u.name == unit_name for u in self.units):
            return
        if unit_name in self._breakers:  # unguarded: racy probe; REST readers tolerate staleness
            return  # job units may have rotated out; state still readable
        raise PluginError(
            f"operator {self.name!r} has no unit {unit_name!r}"
        )

    def batch_enabled(self) -> bool:
        """Whether this pass runs through :meth:`compute_batch`.

        The sanitizer vetoes batching unconditionally: its per-unit
        compute watcher and per-view invariant checks only exist on the
        scalar path.
        """
        if hooks.CURRENT is not None:
            return False
        batch = self.config.batch
        if batch is True:
            return True
        return bool(batch == "auto" and self.supports_batch)

    def _compute_results(self, ts: int) -> List[UnitResult]:
        """Produce the pass's unit results.

        The default iterates units under the configured unit mode (or
        hands the whole due set to :meth:`compute_batch`); cross-unit
        operators (e.g. clustering, which fits one model over all units'
        features) may override it wholesale.
        """
        due_units = self._due_units()
        if self.batch_enabled():
            try:
                return self.compute_batch(due_units, ts)
            except (QueryError, PluginError, ValueError, KeyError) as exc:
                # A batch-wide failure degrades to the per-unit loop for
                # the pass: a kernel bug costs performance, never output.
                self._note_error("<batch>", exc)
                return self._compute_chunk(due_units, ts)
        if not self._uses_pool() or len(due_units) < 2:
            return self._compute_chunk(due_units, ts)
        pool = self._pool
        if pool is None:
            # Enabled without start() (tests drive compute directly).
            pool = self._pool = self._make_pool()
        n = len(due_units)
        workers = min(self.config.max_workers, n)
        chunk = (n + workers - 1) // workers
        futures = [
            pool.submit(self._compute_chunk, due_units[lo:lo + chunk], ts)
            for lo in range(0, n, chunk)
        ]
        results: List[UnitResult] = []
        for future in futures:
            results.extend(future.result())
        return results

    def _compute_chunk(self, units: Sequence[Unit], ts: int) -> List[UnitResult]:
        """The per-unit loop: sequential passes, one worker's contiguous
        share of a parallel pass, and the batch fallback.

        Chunking keeps the future count at ``max_workers`` instead of U,
        and gathering chunks in submission order preserves unit order in
        the result list exactly like the sequential path.
        """
        out = []
        for unit in units:
            result = self._compute_one(unit, ts)
            if result is not None:
                out.append(result)
        return out

    def compute_batch(self, units: Sequence[Unit], ts: int) -> List[UnitResult]:
        """Compute every unit of a pass in one call.

        Vectorizing plugins override this (and set ``supports_batch``)
        with a kernel over :meth:`batch_window`'s stacked matrix.  The
        default preserves exact scalar semantics by delegating to
        :meth:`compute_unit` per unit, including its error accounting.
        """
        return self._compute_chunk(units, ts)

    def batch_window(
        self, units: Sequence[Unit], topics_of=None
    ) -> Tuple[BatchWindow, List[range]]:
        """Fetch all the units' input windows in one batched query.

        Returns ``(window, slices)`` where ``slices[j]`` is the
        ``range(lo, hi)`` of rows in ``window`` holding unit ``j``'s
        inputs, in the unit's input order.  The underlying query plan is
        cached per operator and invalidated by sensor-space generation
        moves, so steady-state passes resolve zero topic names.
        """
        if topics_of is None:
            topics_of = _unit_inputs
        # The layout (flattened topics + per-unit row slices) depends
        # only on the unit identities; steady-state passes reuse it.
        key = (topics_of, tuple(map(id, units)))
        cached = self._batch_layout
        if cached is not None and cached[0] == key:
            topics, slices = cached[1], cached[2]
        else:
            topics = []
            slices: List[range] = []
            for unit in units:
                unit_topics = topics_of(unit)
                lo = len(topics)
                topics.extend(unit_topics)
                slices.append(range(lo, len(topics)))
            topics = tuple(topics)
            self._batch_layout = (key, topics, slices)
        window = self.engine.query_relative_batch(
            topics, self.config.window_ns, key=f"operator:{self.name}"
        )
        return window, slices

    def _compute_one(self, unit: Unit, ts: int) -> Optional[UnitResult]:
        san = hooks.CURRENT
        try:
            if san is None:
                values = self.compute_unit(unit, ts)
            else:
                values = san.watch_unit_compute(
                    self, unit, lambda: self.compute_unit(unit, ts)
                )
        except (QueryError, PluginError, ValueError, KeyError) as exc:
            # A failing unit must not take down the operator: count it
            # and move on, like the production framework's error path.
            self._record_unit_error(unit, exc)
            return None
        if not values:
            return None
        return UnitResult(unit, values)

    def _note_error(self, label: str, exc: Exception) -> None:
        """Count one error into the bounded log.

        ``last_errors`` is rebound, not mutated in place (readers keep
        a stable snapshot), so concurrent notes from pool workers would
        lose entries without the lock.
        """
        self._m_errors.inc()
        with self._breaker_lock:
            self.last_errors = (self.last_errors + [f"{label}: {exc}"])[-16:]

    def _record_unit_error(self, unit: Unit, exc: Exception) -> None:
        """Count one failed unit without aborting the pass.

        Batch kernels call this for rows the scalar path would have
        errored on (e.g. all input sensors missing), keeping the two
        paths' error accounting identical.
        """
        self._note_error(unit.name, exc)
        if self.breaker_enabled() or self._breakers:  # unguarded: fast-path pre-check; the mutation below re-checks under the lock
            with self._breaker_lock:
                breaker = self._breaker_for(unit.name)
                trips_before = breaker.trips
                breaker.record_failure()
                if breaker.trips != trips_before:
                    self._m_breaker_trips.inc()

    def _store(self, ts: int, results: List[UnitResult]) -> None:
        """Hand a pass's readings to the host: unit outputs in (unit,
        output) emission order, then operator outputs, as one list —
        one host call on the batch path, one per reading otherwise."""
        host = self.host
        if host is None:
            return
        readings = []
        for unit, values in results:
            for sensor in unit.outputs:
                value = values.get(sensor.name)
                if value is not None:
                    readings.append((sensor, float(value)))
        if self._operator_output_sensors:
            aggregates = self.compute_operator_outputs(ts, results)
            for sensor in self._operator_output_sensors:
                value = aggregates.get(sensor.name)
                if value is not None:
                    readings.append((sensor, float(value)))
        if not readings:
            return
        if self.batch_enabled() and hasattr(host, "store_readings_batch"):
            host.store_readings_batch(ts, readings)
            return
        for sensor, value in readings:
            host.store_reading(sensor, ts, value)

    def compute_operator_outputs(
        self, ts: int, results: List[UnitResult]
    ) -> Dict[str, float]:
        """Aggregate across unit results for operator-level outputs.

        The default averages each output name over all units that
        produced it — e.g. the mean model error of Section V-C-2.
        Subclasses may override for other aggregates.
        """
        sums: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for _, values in results:
            for key, value in values.items():
                sums[key] = sums.get(key, 0.0) + value
                counts[key] = counts.get(key, 0) + 1
        return {k: sums[k] / counts[k] for k in sums}

    # ------------------------------------------------------------------
    # On-demand path
    # ------------------------------------------------------------------

    def trigger(self, unit_name: str, ts: int, tree: SensorTree) -> Dict[str, float]:
        """Compute one unit on demand and return (not store) the result.

        This is the REST-triggered path of Section IV-b: the output is
        propagated only as a response to the request.  Units already
        resolved are reused; otherwise the unit is built on the fly.
        """
        unit = next((u for u in self.units if u.name == unit_name), None)
        if unit is None:
            unit = self.make_resolver().resolve_for_name(tree, unit_name)
        return self.compute_unit(unit, ts)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Bookkeeping counters for the REST API and benchmarks."""
        return {
            "name": self.name,
            "units": len(self.units),
            "mode": self.config.mode,
            "unit_mode": self.config.unit_mode,
            "computes": self.compute_count,
            "errors": self.error_count,
            "busy_ns": self.busy_ns,
            "unit_results": self.unit_results_count,
            "quarantined": len(self.quarantined_units()),
            "mean_compute_ns": (
                self._m_latency.mean if self._m_latency.count else 0.0
            ),
        }


class JobOperatorBase(OperatorBase):
    """Operator whose units are jobs rather than tree nodes.

    At each computation interval the operator queries the set of running
    jobs and rebuilds one unit per job (Section VI-C: the persyst plugin
    "queries the set of running jobs ... and for each of them it
    instantiates a unit").  Subclasses provide ``job_output_names``.

    Args:
        config: standard operator config; ``inputs`` are resolved
            against each allocated node's subtree.
        job_source: object with ``running_jobs(ts)`` returning jobs with
            ``job_id`` and ``node_paths`` — the scheduler substrate.
    """

    def __init__(self, config: OperatorConfig, job_source=None) -> None:
        super().__init__(config)
        self.job_source = job_source
        self._tree: Optional[SensorTree] = None

    def job_output_names(self) -> List[str]:
        """Names of the per-job output sensors."""
        raise NotImplementedError

    def init_units(self, tree: SensorTree) -> None:
        """Job units are dynamic; stash the tree and start empty."""
        self._tree = tree
        self.set_units([])

    def refresh_units(self, ts: int) -> None:
        """Rebuild units from the jobs running at ``ts``.

        If a job fails to resolve, the sensor space is refreshed once
        for the pass and the job retried — job operators typically load
        before the upstream pipeline stages (or the monitoring itself)
        have produced the sensors their inputs name.
        """
        from repro.core.units import resolve_job_unit

        if self.job_source is None or self._tree is None:
            return
        refreshed = False
        units = []
        for job in self.job_source.running_jobs(ts):
            for attempt in (0, 1):
                try:
                    units.append(
                        resolve_job_unit(
                            self._tree,
                            job.job_id,
                            job.node_paths,
                            self.config.inputs,
                            self.job_output_names(),
                            publish_outputs=self.config.publish_outputs,
                            relaxed=self.config.relaxed,
                        )
                    )
                    break
                except Exception as exc:  # unresolvable job
                    if attempt == 0 and not refreshed and self.engine is not None:
                        self.engine.refresh_navigator()
                        self._tree = self.engine.navigator.tree
                        refreshed = True
                        continue
                    self._note_error(job.job_id, exc)
                    break
        # Preserve per-job models across refreshes in parallel mode.
        kept = {u.name for u in units}
        self._unit_models = {
            name: m for name, m in self._unit_models.items() if name in kept
        }
        self.units = units

    def run_pass(self, ts: int, channel=None) -> List[UnitResult]:
        if self.enabled:
            self.refresh_units(ts)
        return super().run_pass(ts, channel)
