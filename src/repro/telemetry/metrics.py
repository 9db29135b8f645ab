"""Counters, gauges and summary histograms for the experiment engine.

A :class:`MetricsRegistry` is a plain in-memory accumulator: the
execution engine counts run-cache hits/misses/stale/corrupt entries,
executions, retries, failures and worker restarts, observes per-point
and per-batch wall time, and gauges queue depth and utilization into
one registry per engine.  It is the engine's only counter store —
:class:`~repro.exec.engine.ExecStats` reads it.  The registry is always
on — updates are one dict operation per *point* (not per simulated
event), so the cost is invisible next to a simulation — and is surfaced
through ``ExecutionEngine.summary()``, the run manifest and ``repro
status``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


class HistogramSummary:
    """Streaming summary statistics of one observed series."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        """Fold one observation into the summary.

        Parameters
        ----------
        value : float
            The observed sample.
        """
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def mean(self) -> float:
        """Arithmetic mean of the observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (``count``/``total``/``min``/``max``/``mean``)."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean(),
        }


class MetricsRegistry:
    """Named counters, gauges and histogram summaries.

    Names are dotted strings (``cache.hits``, ``point.wall_s``); the
    registry imposes no schema — whoever renders it sorts by name.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, HistogramSummary] = {}

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``name`` (created at 0).

        Parameters
        ----------
        name : str
            Counter name.
        n : int
            Increment (default 1).
        """
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to its latest ``value``.

        Parameters
        ----------
        name : str
            Gauge name.
        value : float
            Current value (overwrites the previous one).
        """
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into the histogram summary ``name``.

        Parameters
        ----------
        name : str
            Histogram name.
        value : float
            The sample.
        """
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = HistogramSummary()
        hist.observe(value)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready dump of every metric, sorted by name.

        Returns
        -------
        dict
            ``{"counters": {...}, "gauges": {...}, "histograms": {...}}``
            with histogram values in :meth:`HistogramSummary.as_dict`
            form.
        """
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {k: self.histograms[k].as_dict() for k in sorted(self.histograms)},
        }

    def render(self) -> str:
        """Aligned text table of the registry, for ``repro status``.

        Returns
        -------
        str
            One line per metric; histograms show count/mean/min/max.
        """
        return render_snapshot(self.snapshot())


def render_snapshot(snapshot: Dict[str, Any]) -> str:
    """Aligned text table of a :meth:`MetricsRegistry.snapshot` dump.

    Works on the live registry and on a snapshot loaded back from a run
    manifest — ``repro status`` uses the latter.

    Parameters
    ----------
    snapshot : dict
        A ``{"counters": ..., "gauges": ..., "histograms": ...}``
        mapping.

    Returns
    -------
    str
        One indented line per metric.
    """
    lines: List[str] = []
    for name, value in sorted((snapshot.get("counters") or {}).items()):
        lines.append(f"  {name:<28} {value}")
    for name, value in sorted((snapshot.get("gauges") or {}).items()):
        lines.append(f"  {name:<28} {value:.3f}")
    for name, h in sorted((snapshot.get("histograms") or {}).items()):
        lines.append(
            f"  {name:<28} n={h['count']} mean={h['mean']:.3f} "
            f"min={h['min'] or 0.0:.3f} max={h['max'] or 0.0:.3f}"
        )
    return "\n".join(lines)
