"""Architectural trace events and their opcodes in the columnar form.

A trace is a flat sequence of events in program order.  The interpreter
writes it as columns (:class:`~repro.workloads.encode.EncodedTrace`);
the event objects here are what decoding yields.  Events are tiny
``__slots__`` classes rather than dataclasses: traces run to hundreds
of thousands of events, and construction cost dominates decoding time.
"""

from __future__ import annotations

from typing import Dict, Iterable


#: Event opcodes of the columnar form, ordered roughly by dynamic frequency.
OP_LOAD = 0
OP_COMPUTE = 1
OP_STORE = 2
OP_BRANCH = 3
OP_PREFETCH = 4
OP_MARK = 5


class TraceEvent:
    """Base class for all trace events."""

    __slots__ = ()


class Compute(TraceEvent):
    """``ops`` cycles worth of datapath work (ALU/FPU, address generation)."""

    __slots__ = ("ops",)

    def __init__(self, ops: int) -> None:
        self.ops = ops

    def __repr__(self) -> str:
        return f"Compute({self.ops})"


class Branch(TraceEvent):
    """A (conditional) branch; ``taken`` back-edges close loop iterations."""

    __slots__ = ("taken",)

    def __init__(self, taken: bool = True) -> None:
        self.taken = taken

    def __repr__(self) -> str:
        return f"Branch(taken={self.taken})"


class Load(TraceEvent):
    """A demand load of ``size`` bytes at ``addr``."""

    __slots__ = ("addr", "size")

    def __init__(self, addr: int, size: int) -> None:
        self.addr = addr
        self.size = size

    def __repr__(self) -> str:
        return f"Load({self.addr:#x}, {self.size})"


class Store(TraceEvent):
    """A demand store of ``size`` bytes at ``addr``."""

    __slots__ = ("addr", "size")

    def __init__(self, addr: int, size: int) -> None:
        self.addr = addr
        self.size = size

    def __repr__(self) -> str:
        return f"Store({self.addr:#x}, {self.size})"


class Prefetch(TraceEvent):
    """A software prefetch hint for the data at ``addr``."""

    __slots__ = ("addr",)

    def __init__(self, addr: int) -> None:
        self.addr = addr

    def __repr__(self) -> str:
        return f"Prefetch({self.addr:#x})"


class IRMark(TraceEvent):
    """A zero-cost region marker naming the IR loop being entered.

    Emitted only when :attr:`~repro.workloads.interp.TraceConfig.annotate_ir`
    is on (profiling runs); the CPU model executes it in zero cycles and
    zero instructions, so annotated and plain traces time identically.
    ``label`` is the dotted loop-variable path, e.g. ``"i.k.j"``.
    """

    __slots__ = ("label",)

    def __init__(self, label: str) -> None:
        self.label = label

    def __repr__(self) -> str:
        return f"IRMark({self.label!r})"


#: Interned branch events.  A trace contains exactly two distinct branch
#: values over hundreds of thousands of occurrences; events are immutable
#: in practice (nothing in the simulator writes to them — pinned by
#: ``tests/test_encode.py``), so decoding shares these singletons
#: instead of allocating per back-edge.
BRANCH_TAKEN = Branch(True)
BRANCH_NOT_TAKEN = Branch(False)

#: Compute events are interned for small op counts the same way — loop
#: bodies reuse a handful of distinct values (flops + overhead ops per
#: statement), so the cache stays tiny while removing one allocation per
#: statement execution.
_COMPUTE_CACHE_MAX = 256
_COMPUTE_CACHE: Dict[int, Compute] = {}


def branch_event(taken: bool) -> Branch:
    """The interned :class:`Branch` for ``taken`` (no allocation)."""
    return BRANCH_TAKEN if taken else BRANCH_NOT_TAKEN


def compute_event(ops: int) -> Compute:
    """A :class:`Compute` of ``ops`` ops, interned for common counts."""
    ev = _COMPUTE_CACHE.get(ops)
    if ev is None:
        ev = Compute(ops)
        if 0 <= ops < _COMPUTE_CACHE_MAX:
            _COMPUTE_CACHE[ops] = ev
    return ev


def trace_summary(events: Iterable[TraceEvent]) -> Dict[str, int]:
    """Count events by kind; useful in tests and workload reports.

    Accepts either an event iterable or an
    :class:`~repro.workloads.encode.EncodedTrace` — the encoded form is
    summarised from its columns directly (duck-typed via its ``summary``
    method to keep this module free of an import cycle), without
    decoding a single event object.

    Returns:
        A dict with keys ``loads``, ``stores``, ``prefetches``,
        ``branches``, ``compute_events``, ``compute_ops``,
        ``load_bytes``, ``store_bytes`` and ``ir_marks``.
    """
    encoded_summary = getattr(events, "summary", None)
    if encoded_summary is not None:
        return encoded_summary()
    counts = {
        "loads": 0,
        "stores": 0,
        "prefetches": 0,
        "branches": 0,
        "compute_events": 0,
        "compute_ops": 0,
        "load_bytes": 0,
        "store_bytes": 0,
        "ir_marks": 0,
    }
    for ev in events:
        kind = type(ev)
        if kind is Load:
            counts["loads"] += 1
            counts["load_bytes"] += ev.size
        elif kind is Store:
            counts["stores"] += 1
            counts["store_bytes"] += ev.size
        elif kind is Compute:
            counts["compute_events"] += 1
            counts["compute_ops"] += ev.ops
        elif kind is Branch:
            counts["branches"] += 1
        elif kind is Prefetch:
            counts["prefetches"] += 1
        elif kind is IRMark:
            counts["ir_marks"] += 1
    return counts
