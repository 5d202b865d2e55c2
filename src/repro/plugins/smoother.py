"""Smoother operator plugin.

Moving-average smoothing of individual sensors: each unit's first input
sensor is averaged over the configured window and written to the unit's
output.  With an exponential ``alpha`` parameter the plugin switches to
exponentially weighted smoothing, which weights recent readings higher —
useful ahead of threshold-based control operators to suppress spikes.

Params:
    ``alpha`` (float, optional): EWMA weight in (0, 1]; when absent a
        plain window mean is used.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.common.errors import ConfigError, QueryError
from repro.core.operator import OperatorBase, OperatorConfig, UnitResult
from repro.core.registry import operator_plugin
from repro.core.units import Unit


@operator_plugin("smoother")
class SmootherOperator(OperatorBase):
    """Window-mean or EWMA smoothing of a sensor stream."""

    @classmethod
    def flow_transforms(cls, params: dict) -> Dict[str, object]:
        # Smoothing is a weighted mean: units pass straight through.
        return {"*": "preserve"}

    def __init__(self, config: OperatorConfig) -> None:
        super().__init__(config)
        alpha = config.params.get("alpha")
        if alpha is not None and not (0.0 < float(alpha) <= 1.0):
            raise ConfigError(f"{config.name}: alpha must be in (0, 1]")
        self.alpha = float(alpha) if alpha is not None else None

    def compute_unit(self, unit: Unit, ts: int) -> Dict[str, float]:
        assert self.engine is not None
        if not unit.inputs:
            return {}
        view = self.engine.query_relative(unit.inputs[0], self.config.window_ns)
        values = view.values()
        if values.size == 0:
            return {}
        if self.alpha is None:
            smoothed = float(values.mean())
        else:
            # EWMA over the window, oldest first.
            weights = (1.0 - self.alpha) ** np.arange(len(values) - 1, -1, -1)
            smoothed = float((values * weights).sum() / weights.sum())
        return {sensor.name: smoothed for sensor in unit.outputs}

    # ------------------------------------------------------------------
    # Batched path
    # ------------------------------------------------------------------

    supports_batch = True
    #: compute_batch reads its BatchWindow without mutating it, so
    #: fused groups may serve this plugin zero-copy channel views.
    fusion_safe = True

    def compute_batch(self, units: Sequence[Unit], ts: int) -> List[UnitResult]:
        assert self.engine is not None
        # Only each unit's first input is smoothed, exactly as scalar.
        window, slices = self.batch_window(units, topics_of=_first_input)
        column = self._uniform_column(window, slices)
        if column is not None:
            results = []
            for unit, smoothed in zip(units, column.tolist()):
                values = {s.name: smoothed for s in unit.outputs}
                if values:
                    results.append(UnitResult(unit, values))
            return results
        counts = window.counts
        results = []
        for unit, rows in zip(units, slices):
            if not len(rows):
                continue  # no inputs: scalar returns {} for the unit
            r = rows[0]
            if not counts[r]:
                self._record_unit_error(
                    unit,
                    QueryError(f"no data available for sensor {window.topics[r]}"),
                )
                continue
            values = window.row_values(r)
            if self.alpha is None:
                smoothed = float(values.mean())
            else:
                weights = (1.0 - self.alpha) ** np.arange(len(values) - 1, -1, -1)
                smoothed = float((values * weights).sum() / weights.sum())
            out = {s.name: smoothed for s in unit.outputs}
            if out:
                results.append(UnitResult(unit, out))
        return results

    def compute_batch_vector(self, units: Sequence[Unit], ts: int):
        window, slices = self.batch_window(units, topics_of=_first_input)
        return self._uniform_column(window, slices)

    def _uniform_column(self, window, slices):
        """The stacked mean/EWMA over a uniform pass's rows, one value
        per unit; None when a unit lacks an input or windows are
        ragged."""
        uniform = self._uniform_rows(window, slices)
        if uniform is None:
            return None
        rows, n = uniform
        sub = window.values[rows, window.width - n:]
        if self.alpha is None:
            return sub.mean(axis=1)
        weights = (1.0 - self.alpha) ** np.arange(n - 1, -1, -1)
        return (sub * weights).sum(axis=1) / weights.sum()


def _first_input(unit: Unit) -> List[str]:
    return unit.inputs[:1]
