"""Aggregator operator plugin.

The bread-and-butter plugin of the production deployment ("Wintermute is
currently deployed to perform aggregation of monitored metrics in the
CooLMUC-3 system"): each unit pools the readings of all its input
sensors over the configured window and emits scalar aggregates.

Params:
    ``ops`` (dict): output-sensor-name -> aggregate.  Supported
        aggregates: ``mean``, ``std``, ``min``, ``max``, ``sum``,
        ``median``, ``count``, ``last``, ``delta`` (last - first, for
        monotonic counters), ``rate`` (delta per second), ``qNN``
        (quantile, e.g. ``q90``).
    ``op`` (str): shorthand when there is a single output sensor.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.common.errors import ConfigError, QueryError
from repro.core.operator import OperatorBase, OperatorConfig, UnitResult
from repro.core.registry import operator_plugin
from repro.core.units import Unit
from repro.dcdb.cache import CacheView

_QUANTILE_RE = re.compile(r"^q(100|\d{1,2})$")


def _delta(view: CacheView) -> float:
    values = view.values()
    return float(values[-1] - values[0]) if len(values) >= 2 else float("nan")


def _rate(view: CacheView) -> float:
    if len(view) < 2:
        return float("nan")
    ts = view.timestamps()
    span_s = (int(ts[-1]) - int(ts[0])) / 1e9
    if span_s <= 0:
        return float("nan")
    values = view.values()
    return float((values[-1] - values[0]) / span_s)


_SIMPLE_OPS: Dict[str, Callable[[np.ndarray], float]] = {
    "mean": lambda v: float(v.mean()),
    "std": lambda v: float(v.std()),
    "min": lambda v: float(v.min()),
    "max": lambda v: float(v.max()),
    "sum": lambda v: float(v.sum()),
    "median": lambda v: float(np.median(v)),
    "count": lambda v: float(len(v)),
    "last": lambda v: float(v[-1]),
}

# Row-wise (axis=1) twins of _SIMPLE_OPS.  NumPy applies the same
# pairwise reduction per row of a C-contiguous matrix as it does to a
# 1-D copy of that row, so these match the scalar results bit-for-bit.
_SIMPLE_OPS_AXIS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "mean": lambda m: m.mean(axis=1),
    "std": lambda m: m.std(axis=1),
    "min": lambda m: m.min(axis=1),
    "max": lambda m: m.max(axis=1),
    "sum": lambda m: m.sum(axis=1),
    "median": lambda m: np.median(m, axis=1),
    "count": lambda m: np.full(m.shape[0], float(m.shape[1])),
    "last": lambda m: m[:, -1].copy(),
}


@operator_plugin("aggregator")
class AggregatorOperator(OperatorBase):
    """Window aggregates over each unit's pooled input readings."""

    @classmethod
    def flow_transforms(cls, params: dict) -> Dict[str, object]:
        # Derived from the configured aggregates: counts are pure
        # numbers, rates divide by time, everything else (mean, min,
        # delta, quantiles, ...) carries its inputs' unit through.
        ops = dict(params.get("ops", {})) if isinstance(params, dict) else {}
        if isinstance(params, dict) and params.get("op") is not None:
            ops.setdefault("*", params["op"])
        transforms: Dict[str, object] = {}
        for name, op in ops.items():
            if not isinstance(name, str) or not isinstance(op, str):
                continue
            if op == "count":
                transforms[name] = "dimensionless"
            elif op == "rate":
                transforms[name] = "per-second"
            else:
                transforms[name] = "preserve"
        return transforms

    def __init__(self, config: OperatorConfig) -> None:
        super().__init__(config)
        ops = dict(config.params.get("ops", {}))
        single = config.params.get("op")
        if single is not None:
            # Units may get their outputs from config patterns or from
            # explicit set_units; only multiple *declared* outputs make
            # the shorthand ambiguous.
            if len(config.outputs) > 1:
                raise ConfigError(
                    f"{config.name}: shorthand 'op' needs exactly one output"
                )
            # Bind the shorthand to whatever the single output is named.
            ops["*"] = single
        if not ops:
            raise ConfigError(f"{config.name}: params.ops (or op) is required")
        self._ops: Dict[str, str] = {}
        for out_name, op in ops.items():
            self._validate_op(op)
            self._ops[out_name] = op

    @staticmethod
    def _validate_op(op: str) -> None:
        if op in _SIMPLE_OPS or op in ("delta", "rate"):
            return
        if _QUANTILE_RE.match(op):
            return
        raise ConfigError(f"unknown aggregate {op!r}")

    def _apply(self, op: str, view: CacheView, pooled: np.ndarray) -> float:
        if op == "delta":
            return _delta(view)
        if op == "rate":
            return _rate(view)
        if pooled.size == 0:
            return float("nan")
        match = _QUANTILE_RE.match(op)
        if match:
            return float(np.percentile(pooled, int(match.group(1))))
        return _SIMPLE_OPS[op](pooled)

    def _op_for(self, sensor_name: str) -> str:
        op = self._ops.get(sensor_name) or self._ops.get("*")
        if op is None:
            raise ConfigError(
                f"{self.name}: no aggregate configured for output "
                f"{sensor_name!r}"
            )
        return op

    def compute_unit(self, unit: Unit, ts: int) -> Dict[str, float]:
        assert self.engine is not None
        views = [
            self.engine.query_relative(t, self.config.window_ns)  # lint: allow(L007)
            for t in unit.inputs
        ]
        pooled = (
            np.concatenate([v.values() for v in views])
            if views
            else np.empty(0)
        )
        # delta/rate act on the first input's window (they are
        # counter-oriented and pooling counters is meaningless).
        first = views[0] if views else CacheView.empty()
        return {
            sensor.name: self._apply(self._op_for(sensor.name), first, pooled)
            for sensor in unit.outputs
        }

    # ------------------------------------------------------------------
    # Batched path
    # ------------------------------------------------------------------

    supports_batch = True
    #: compute_batch reads its BatchWindow without mutating it, so
    #: fused groups may serve this plugin zero-copy channel views.
    fusion_safe = True

    def compute_batch(self, units: Sequence[Unit], ts: int) -> List[UnitResult]:
        assert self.engine is not None
        window, slices = self.batch_window(units)
        columns = self._uniform_columns(window, slices)
        if columns is None:
            results = []
            for unit, rows in zip(units, slices):
                values = self._unit_from_window(unit, rows, window)
                if values:
                    results.append(UnitResult(unit, values))
            return results
        # tolist() converts each column to plain floats once; per-element
        # float(np.float64) in the unit loop costs more than the kernels
        # themselves at 1000s of units.
        per_op = {op: column.tolist() for op, column in columns.items()}
        resolved: Dict[str, list] = {}
        results = []
        for j, unit in enumerate(units):
            values = {}
            for sensor in unit.outputs:
                name = sensor.name
                column = resolved.get(name)
                if column is None:
                    column = resolved[name] = per_op[self._op_for(name)]
                values[name] = column[j]
            if values:
                results.append(UnitResult(unit, values))
        return results

    def compute_batch_vector(self, units: Sequence[Unit], ts: int):
        # Only the wildcard single-aggregate form (``ops: {"*": op}``)
        # has one column for every output.
        if set(self._ops) != {"*"}:
            return None
        window, slices = self.batch_window(units)
        columns = self._uniform_columns(window, slices)
        return None if columns is None else columns[self._ops["*"]]

    def _uniform_columns(self, window, slices):
        """aggregate -> column, one kernel per configured aggregate over
        a uniform pass's stacked single-input rows; None on multiple or
        ragged inputs."""
        uniform = self._uniform_rows(window, slices)
        if uniform is None:
            return None
        rows, n = uniform
        sub = window.values[rows, window.width - n:]
        tss = window.timestamps[rows, window.width - n:]
        return {
            op: self._kernel(op, sub, tss, n) for op in set(self._ops.values())
        }

    def _kernel(self, op: str, sub, tss, n: int):
        if op == "delta":
            if n < 2:
                return np.full(sub.shape[0], np.nan)
            return sub[:, -1] - sub[:, 0]
        if op == "rate":
            out = np.full(sub.shape[0], np.nan)
            if n >= 2:
                span_s = (tss[:, -1] - tss[:, 0]) / 1e9
                ok = span_s > 0
                out[ok] = (sub[ok, -1] - sub[ok, 0]) / span_s[ok]
            return out
        match = _QUANTILE_RE.match(op)
        if match:
            return np.percentile(sub, int(match.group(1)), axis=1)
        return _SIMPLE_OPS_AXIS[op](sub)

    def _unit_from_window(self, unit: Unit, rows, window) -> Dict[str, float]:
        """Scalar-identical evaluation from prefetched window rows.

        Used for units the uniform kernel cannot cover (several inputs,
        ragged windows): the pooled array and first-input view are built
        from exactly the arrays the scalar queries would have returned.
        """
        segs = []
        first = CacheView.empty()
        for r in rows:
            if not window.counts[r]:
                # The scalar path raises on its first missing input.
                self._record_unit_error(
                    unit, QueryError(f"no data available for sensor {window.topics[r]}")
                )
                return {}
            segs.append(window.row_values(r))
            if len(segs) == 1:
                first = CacheView._snapshot_of(
                    window.row_timestamps(r), window.row_values(r)
                )
        pooled = np.concatenate(segs) if segs else np.empty(0)
        return {
            sensor.name: self._apply(self._op_for(sensor.name), first, pooled)
            for sensor in unit.outputs
        }
