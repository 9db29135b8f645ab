"""The probe interface threaded through the CPU and memory substrate.

Two implementations matter:

- :class:`NullProbe` (the module-level :data:`NULL_PROBE` singleton) is
  the default everywhere.  Every instrumented component keeps a local
  ``_probing`` boolean derived from :attr:`Probe.enabled`, so on the
  non-profiled path the probe costs one attribute load and a branch per
  instrumentation site — measured at well under the 5% budget by
  ``benchmarks/bench_profile.py``.
- :class:`RecordingProbe` feeds a :class:`~repro.obs.ledger.CycleLedger`,
  per-component :class:`~repro.obs.histograms.LatencyHistograms` and an
  optional bounded list of :class:`ProbeEvent` records used by the
  Perfetto/CSV exporters in :mod:`repro.experiments.export`.

Attribution protocol
--------------------

The CPU brackets every memory op with :meth:`Probe.begin_op` /
:meth:`Probe.end_op`.  In between, components that serve the access
report their latency contributions through :meth:`Probe.attr` (directly
or via the convenience reporters below); ``end_op`` hands the op's
exposed cost plus the collected contributions to the ledger, which
splits the cost over them deepest-component-first.  Contributions
reported outside an op bracket (background fills, i-fetch) are recorded
as events/histograms but never charged to the ledger, so background work
cannot unbalance the cycle accounting.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .histograms import LatencyHistograms
from .ledger import CycleLedger

#: Ledger category a level's *read* array time is attributed to while a
#: demand-load bracket is open.  ``None`` means record-only (the IL1 is
#: never on a data op's critical path).
_READ_ATTR: Dict[str, Optional[str]] = {
    "dl1": "dl1_read",
    "l2": "l2",
    "dl1-sram-partition": "frontend_hit",
    "il1": None,
}


class Probe:
    """Base observability interface: every method is a no-op.

    Components call these hooks only behind an ``if self._probing:``
    guard (refreshed from :attr:`enabled` when a probe is attached), so
    subclasses may assume they only run on instrumented runs.
    """

    #: Components gate their hook calls on this flag.
    enabled: bool = False

    # -- CPU-side op bracketing ----------------------------------------

    def begin_op(self, kind: str, addr: int, now: float) -> None:
        """Open an op bracket (``kind`` in load/store/prefetch)."""

    def end_op(self, cost: float, latency: float, wait: float = 0.0) -> None:
        """Close the bracket: attribute ``cost`` exposed cycles."""

    def op(self, category: str, cost: float, now: float) -> None:
        """Charge a flat non-memory cost (compute/branch/ifetch/...)."""

    def mark(self, label: str, now: float) -> None:
        """Enter the IR region ``label`` (from an ``IRMark`` event)."""

    def finish(self, result: Any) -> None:
        """End of run: verify the ledger against ``result.cycles``."""

    # -- substrate reporters -------------------------------------------

    def attr(self, category: str, cycles: float) -> None:
        """Report a raw latency contribution to the open op, if any."""

    def cache_access(
        self,
        level: str,
        is_write: bool,
        hit: bool,
        addr: int,
        latency: float,
        array_cycles: float,
        now: float,
    ) -> None:
        """One line access served by cache ``level``."""

    def buffer_access(
        self,
        frontend: str,
        is_write: bool,
        hit: bool,
        addr: int,
        latency: float,
        array_cycles: float,
        now: float,
    ) -> None:
        """One access served by a front-end buffer (VWB/L0/EMSHR)."""

    def promotion(self, frontend: str, addr: int, latency: float, now: float) -> None:
        """A wide promotion/fill issued by a front-end."""

    def bank_conflict(self, level: str, addr: int, wait: float, now: float) -> None:
        """An access waited ``wait`` cycles for a busy bank."""

    def wb_stall(self, level: str, stall: float, now: float) -> None:
        """A producer stalled ``stall`` cycles on a full write buffer."""

    def mshr_event(self, level: str, event: str, addr: int, now: float) -> None:
        """MSHR activity (``allocate``/``merge``/``full``)."""

    def mem_access(self, level: str, is_write: bool, latency: float, now: float) -> None:
        """One line served by main memory."""

    def fault(self, level: str, kind: str, addr: int, cycles: float, now: float) -> None:
        """A reliability mechanism inserted ``cycles`` into the timing.

        ``kind`` is a ledger category (``ecc_decode``/``write_retry``/
        ``fault_refill``) or the record-only ``line_retired``.
        """


class NullProbe(Probe):
    """The zero-overhead default probe (see :data:`NULL_PROBE`)."""

    __slots__ = ()


#: Shared do-nothing probe instance attached to every component by default.
NULL_PROBE = NullProbe()


class ProbeEvent:
    """One structured trace record (maps 1:1 to a Chrome trace event)."""

    __slots__ = ("ts", "dur", "source", "kind", "addr", "region", "args")

    def __init__(
        self,
        ts: float,
        dur: float,
        source: str,
        kind: str,
        addr: Optional[int] = None,
        region: str = "",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.ts = ts
        self.dur = dur
        self.source = source
        self.kind = kind
        self.addr = addr
        self.region = region
        self.args = args

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form used by the CSV exporter."""
        out: Dict[str, Any] = {
            "ts": self.ts,
            "dur": self.dur,
            "source": self.source,
            "kind": self.kind,
            "region": self.region,
        }
        if self.addr is not None:
            out["addr"] = self.addr
        if self.args:
            out.update(self.args)
        return out


class RecordingProbe(Probe):
    """Collects ledger charges, histograms and (optionally) raw events.

    Args:
        record_events: Keep per-access :class:`ProbeEvent` records for
            trace export.  Ledger and histograms are always collected.
        max_events: Bound on retained events; further events are counted
            in :attr:`dropped_events` instead of stored, so profiling a
            large kernel cannot exhaust memory.
    """

    enabled = True

    def __init__(self, record_events: bool = True, max_events: int = 200_000) -> None:
        self.ledger = CycleLedger()
        self.histograms = LatencyHistograms()
        self.events: List[ProbeEvent] = []
        self.dropped_events = 0
        self.record_events = record_events
        self.max_events = max_events
        self.verified = False
        self._region = ""
        # Open-op scratch: (kind, addr, start) and collected attrs.
        self._op: Optional[Tuple[str, int, float]] = None
        self._attrs: List[Tuple[str, float]] = []

    # -- event plumbing ------------------------------------------------

    def _emit(
        self,
        ts: float,
        dur: float,
        source: str,
        kind: str,
        addr: Optional[int] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        if not self.record_events:
            return
        if len(self.events) >= self.max_events:
            self.dropped_events += 1
            return
        self.events.append(ProbeEvent(ts, dur, source, kind, addr, self._region, args))

    # -- CPU-side op bracketing ----------------------------------------

    def begin_op(self, kind: str, addr: int, now: float) -> None:
        self._op = (kind, addr, now)
        self._attrs.clear()

    def end_op(self, cost: float, latency: float, wait: float = 0.0) -> None:
        if self._op is None:
            return
        kind, addr, start = self._op
        self._op = None
        self.ledger.attribute_op(kind, cost, wait, self._attrs, self._region)
        self._attrs.clear()
        if kind == "load":
            self.histograms.add("cpu.load_exposed", cost)
        self._emit(start, cost, "cpu", kind, addr, {"latency": latency})

    def op(self, category: str, cost: float, now: float) -> None:
        self.ledger.charge(category, cost, self._region)
        if category not in ("compute", "branch"):
            # Compute/branch events are too dense to be useful in a
            # trace; stalls and drains are rare enough to keep.
            self._emit(now, cost, "cpu", category)

    def mark(self, label: str, now: float) -> None:
        self._region = label
        self._emit(now, 0.0, "cpu", "ir_mark", None, {"label": label})

    def finish(self, result: Any) -> None:
        self._op = None
        self._attrs.clear()
        self.ledger.verify(result.cycles)
        self.verified = True

    # -- substrate reporters -------------------------------------------

    def attr(self, category: str, cycles: float) -> None:
        if self._op is not None and cycles > 0.0:
            self._attrs.append((category, cycles))

    def cache_access(
        self,
        level: str,
        is_write: bool,
        hit: bool,
        addr: int,
        latency: float,
        array_cycles: float,
        now: float,
    ) -> None:
        if self._op is not None and not is_write:
            # Writes below the CPU are background (posted write-backs /
            # write-allocate fills); only read time is on a load's
            # critical path.  Unknown levels are record-only.
            category = _READ_ATTR.get(level, None)
            if category is not None and array_cycles > 0.0:
                self._attrs.append((category, array_cycles))
        self.histograms.add(f"{level}.{'write' if is_write else 'read'}", latency)
        self._emit(
            now,
            latency,
            level,
            "write" if is_write else "read",
            addr,
            {"hit": hit},
        )

    def buffer_access(
        self,
        frontend: str,
        is_write: bool,
        hit: bool,
        addr: int,
        latency: float,
        array_cycles: float,
        now: float,
    ) -> None:
        if self._op is not None and hit and not is_write and array_cycles > 0.0:
            self._attrs.append(("frontend_hit", array_cycles))
        self.histograms.add(f"{frontend}.{'write' if is_write else 'read'}", latency)
        self._emit(
            now,
            latency,
            frontend,
            "write" if is_write else "read",
            addr,
            {"hit": hit},
        )

    def promotion(self, frontend: str, addr: int, latency: float, now: float) -> None:
        self.histograms.add(f"{frontend}.promotion", latency)
        self._emit(now, latency, frontend, "promotion", addr)

    def bank_conflict(self, level: str, addr: int, wait: float, now: float) -> None:
        if self._op is not None:
            self._attrs.append(("bank_conflict", wait))
        self.histograms.add(f"{level}.bank_wait", wait)
        self._emit(now, wait, level, "bank_conflict", addr)

    def wb_stall(self, level: str, stall: float, now: float) -> None:
        if self._op is not None:
            self._attrs.append(("writeback_stall", stall))
        self.histograms.add(f"{level}.wb_stall", stall)
        self._emit(now, stall, level, "wb_stall")

    def mshr_event(self, level: str, event: str, addr: int, now: float) -> None:
        self._emit(now, 0.0, level, f"mshr_{event}", addr)

    def mem_access(self, level: str, is_write: bool, latency: float, now: float) -> None:
        if self._op is not None and not is_write:
            self._attrs.append(("dram", latency))
        self.histograms.add(f"{level}.{'write' if is_write else 'read'}", latency)
        self._emit(now, latency, level, "write" if is_write else "read")

    def fault(self, level: str, kind: str, addr: int, cycles: float, now: float) -> None:
        if self._op is not None and cycles > 0.0 and kind != "line_retired":
            self._attrs.append((kind, cycles))
        self.histograms.add(f"{level}.{kind}", cycles)
        self._emit(now, cycles, level, kind, addr)
