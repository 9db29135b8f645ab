"""Columnar trace encoding: the memory- and replay-friendly trace form.

A materialised trace is a Python list with one heap object per event —
hundreds of thousands of allocations per kernel, megabytes of pointers,
and a ``type()`` dispatch per event on every replay.  An
:class:`EncodedTrace` stores the same event sequence as parallel columns:

- ``opcodes`` — one byte per event (:data:`OP_LOAD` ... :data:`OP_MARK`,
  defined in :mod:`~repro.workloads.trace`), in program order;
- per-kind integer operand columns, each an ``array`` at the narrowest
  width that holds its values: ``load_addrs``/``store_addrs``/
  ``pf_addrs`` at 4 bytes (``'i'``), ``load_sizes``/``store_sizes`` at 1
  byte (``'B'``), ``ops`` (compute) at 2 bytes (``'H'``) and ``taken``
  (branches) at 1 byte (``'b'``).  The addresses are signed because
  CPython 3.11 boxes an unsigned ``'I'`` entry about 45% slower on
  every replay read, and no kernel address comes near 2 GiB.  The
  first value a narrow column cannot hold — a 48-bit address of an
  imported trace, a layout above 2 GiB, a 300-byte access — widens
  that column to 8 bytes (``'q'``), its values copied over
  (:meth:`EncodedTrace.widen`); the width is decided by the values
  alone;
- a string table ``labels`` plus an index column ``marks`` for
  :class:`~repro.workloads.trace.IRMark` annotations.

The i-th event of kind K takes its operands from position i-of-kind-K in
K's columns, so every column is dense and a consumer that ignores a kind
(e.g. the replay fast path skipping ``IRMark``) never touches its
columns.  :func:`encode_trace` is the one producer of kernel traces: the
interpreter (:func:`~repro.workloads.interp.lower_program`) appends
each event straight to the columns, so no event object is ever built.
:func:`encode_events` encodes object traces from elsewhere (synthetic
traces, trace files, event-list prefixes), and :meth:`EncodedTrace
.decode` round-trips to the exact event sequence — that is all
:func:`materialize_trace` does after :func:`encode_trace`.

``EncodedTrace`` is iterable (iteration decodes lazily), so it can be
passed anywhere a trace is expected; :meth:`repro.cpu.model.InOrderCPU
.run` additionally recognises it and takes the opcode-dispatch fast
path, which is bit-exact with object replay (pinned by
``tests/test_encode.py``).
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, Sequence

from .interp import TraceConfig, lower_program
from .ir import Program
from .trace import (
    OP_BRANCH,
    OP_COMPUTE,
    OP_LOAD,
    OP_MARK,
    OP_PREFETCH,
    OP_STORE,
    Branch,
    Compute,
    IRMark,
    Load,
    Prefetch,
    Store,
    TraceEvent,
    branch_event,
    compute_event,
)


class EncodedTrace:
    """One trace as parallel columnar arrays (see module docstring).

    A trace starts empty and its producer — :func:`encode_trace` (the
    interpreter) or :func:`encode_events` — appends the events in
    program order, through the methods below or by extending the
    columns in bulk (a bulk extend that raises ``OverflowError`` is
    finished by :meth:`widen`).  After that the columns are exposed as
    attributes for the replay fast path but must be treated as
    immutable — traces are shared across runs.
    """

    __slots__ = (
        "opcodes",
        "load_addrs",
        "load_sizes",
        "store_addrs",
        "store_sizes",
        "pf_addrs",
        "ops",
        "taken",
        "marks",
        "labels",
        "_label_index",
        "_analysis",
    )

    def __init__(self) -> None:
        self.opcodes = bytearray()
        self.load_addrs, self.load_sizes = array("i"), array("B")
        self.store_addrs, self.store_sizes = array("i"), array("B")
        self.pf_addrs = array("i")
        self.ops = array("H")
        self.taken = array("b")
        self.marks = array("i")
        self.labels: List[str] = []
        self._label_index: Dict[str, int] = {}
        # Lazy per-trace analysis memo: reuse profiles keyed by
        # ("reuse", line_bytes) and hit-run annotations keyed by
        # ("elim", line_bytes, sets, ways, banks).  Derived data only —
        # never part of equality, round-tripping or nbytes accounting.
        self._analysis: Dict[tuple, object] = {}

    def widen(self, name: str, values: Sequence[int]) -> array:
        """Finish a narrow append or extend of column ``name`` that overflowed.

        ``array.extend`` appends element by element before it raises, so
        the leading ``values`` that fit are dropped first; the column is
        then copied into an 8-byte array, ``values`` are appended there
        and the wide column replaces the narrow one.  A caller that
        bound the column to a local rebinds it to the returned array.

        Raises:
            OverflowError: If the column is already 8 bytes wide.
        """
        column = getattr(self, name)
        if column.itemsize == 8:
            raise OverflowError(f"trace column {name} holds at most 8-byte values")
        fitted = array(column.typecode)
        for value in values:
            try:
                fitted.append(value)
            except OverflowError:
                break
        del column[len(column) - len(fitted):]
        wide = array("q", column)
        wide.extend(values)
        setattr(self, name, wide)
        return wide

    def load(self, addr: int, size: int) -> None:
        """Append one load."""
        try:
            self.load_addrs.append(addr)
        except OverflowError:
            self.widen("load_addrs", (addr,))
        try:
            self.load_sizes.append(size)
        except OverflowError:
            self.widen("load_sizes", (size,))
        self.opcodes.append(OP_LOAD)

    def store(self, addr: int, size: int) -> None:
        """Append one store."""
        try:
            self.store_addrs.append(addr)
        except OverflowError:
            self.widen("store_addrs", (addr,))
        try:
            self.store_sizes.append(size)
        except OverflowError:
            self.widen("store_sizes", (size,))
        self.opcodes.append(OP_STORE)

    def compute(self, ops: int) -> None:
        """Append one compute event."""
        try:
            self.ops.append(ops)
        except OverflowError:
            self.widen("ops", (ops,))
        self.opcodes.append(OP_COMPUTE)

    def branch(self, taken: bool) -> None:
        """Append one branch."""
        self.opcodes.append(OP_BRANCH)
        self.taken.append(1 if taken else 0)

    def prefetch(self, addr: int) -> None:
        """Append one software prefetch."""
        try:
            self.pf_addrs.append(addr)
        except OverflowError:
            self.widen("pf_addrs", (addr,))
        self.opcodes.append(OP_PREFETCH)

    def mark(self, label: str) -> None:
        """Append one IR mark, interning ``label`` in the string table."""
        index = self._label_index.get(label)
        if index is None:
            index = self._label_index[label] = len(self.labels)
            self.labels.append(label)
        self.opcodes.append(OP_MARK)
        self.marks.append(index)

    def __len__(self) -> int:
        return len(self.opcodes)

    def __iter__(self) -> Iterator[TraceEvent]:
        return self.decode_iter()

    def __repr__(self) -> str:
        return (
            f"EncodedTrace({len(self.opcodes)} events, "
            f"{self.nbytes / 1024:.1f} KiB)"
        )

    def decode_iter(self) -> Iterator[TraceEvent]:
        """Yield the exact original event sequence, lazily.

        Loads/stores/prefetches/marks decode to fresh objects; branches
        and computes decode to interned singletons (events are immutable
        in practice, so sharing is safe — see
        :func:`~repro.workloads.trace.branch_event`).
        """
        la, ls = self.load_addrs, self.load_sizes
        sa, ss = self.store_addrs, self.store_sizes
        pa, ops, tk = self.pf_addrs, self.ops, self.taken
        marks, labels = self.marks, self.labels
        li = sti = pi = ci = ti = mi = 0
        for op in self.opcodes:
            if op == OP_LOAD:
                yield Load(la[li], ls[li])
                li += 1
            elif op == OP_COMPUTE:
                yield compute_event(ops[ci])
                ci += 1
            elif op == OP_STORE:
                yield Store(sa[sti], ss[sti])
                sti += 1
            elif op == OP_BRANCH:
                yield branch_event(bool(tk[ti]))
                ti += 1
            elif op == OP_PREFETCH:
                yield Prefetch(pa[pi])
                pi += 1
            else:
                yield IRMark(labels[marks[mi]])
                mi += 1

    def decode(self) -> List[TraceEvent]:
        """The whole trace as an object list (see :meth:`decode_iter`)."""
        return list(self.decode_iter())

    def summary(self) -> Dict[str, int]:
        """Event counts without decoding — same dict as ``trace_summary``.

        Per-kind totals come straight from the column lengths and
        C-speed ``sum()`` over the operand arrays, so summarising an
        encoded trace costs microseconds regardless of length.
        """
        return {
            "loads": len(self.load_addrs),
            "stores": len(self.store_addrs),
            "prefetches": len(self.pf_addrs),
            "branches": len(self.taken),
            "compute_events": len(self.ops),
            "compute_ops": sum(self.ops),
            "load_bytes": sum(self.load_sizes),
            "store_bytes": sum(self.store_sizes),
            "ir_marks": len(self.marks),
        }

    @property
    def nbytes(self) -> int:
        """Approximate memory footprint of the column data in bytes."""
        total = len(self.opcodes)
        for column in (
            self.load_addrs,
            self.load_sizes,
            self.store_addrs,
            self.store_sizes,
            self.pf_addrs,
            self.ops,
            self.taken,
            self.marks,
        ):
            total += len(column) * column.itemsize
        total += sum(len(label) for label in self.labels)
        return total


def encode_events(events: Iterable[TraceEvent]) -> EncodedTrace:
    """Encode an object trace into columns, without materialising it.

    For traces that do not come from the interpreter (synthetic traces,
    trace files, event-list prefixes); kernel traces come from
    :func:`encode_trace`.

    Args:
        events: Trace events in program order.

    Returns:
        The equivalent :class:`EncodedTrace`.
    """
    out = EncodedTrace()
    for ev in events:
        kind = type(ev)
        if kind is Load:
            out.load(ev.addr, ev.size)
        elif kind is Compute:
            out.compute(ev.ops)
        elif kind is Store:
            out.store(ev.addr, ev.size)
        elif kind is Branch:
            out.branch(ev.taken)
        elif kind is Prefetch:
            out.prefetch(ev.addr)
        elif kind is IRMark:
            out.mark(ev.label)
        else:
            raise TypeError(f"cannot encode trace event {ev!r}")
    return out


def encode_trace(program: Program, config: TraceConfig = TraceConfig()) -> EncodedTrace:
    """The columnar trace of one execution of ``program``.

    The interpreter appends every event straight to the columns, so
    peak memory is the columns themselves: 4.3-5.2 bytes per event
    over the PolyBench kernels at MINI (one opcode byte plus narrow
    operands), against about 56 for one event object in a list.
    """
    out = EncodedTrace()
    lower_program(program, config, out)
    return out


def materialize_trace(program: Program, config: TraceConfig = TraceConfig()) -> List[TraceEvent]:
    """The trace of ``program`` as an event-object list (decoded columns)."""
    return encode_trace(program, config).decode()
