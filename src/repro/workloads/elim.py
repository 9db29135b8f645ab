"""Guaranteed-hit run annotation: the event-elimination oracle.

The Mattson profiler in :mod:`repro.workloads.reuse` answers "would this
access hit?" for *fully associative* LRU caches.  This module extends
the idea to the set-associative LRU arrays the simulator actually
models, with one per-set truncated LRU stack per cache set, and uses it
to annotate an :class:`~repro.workloads.encode.EncodedTrace` with
**guaranteed-hit runs**: maximal event spans in which every load and
store *provably* hits a cache of the given shape — no fill, no
eviction, no clean-to-dirty transition — so encoded replay
(:meth:`repro.cpu.model.InOrderCPU.run_encoded`) can consume a whole
run in one step instead of N per-event passes.

Shape and oracle
----------------

A *shape* is ``(line_bytes, sets, ways, banks)`` — everything the hit
oracle and the per-event bank arithmetic depend on.  The oracle keeps,
per set, the ``ways`` most-recently-used line numbers (MRU first) plus
a dirty-line set, and classifies each access:

- **pure hit** — the line is in its set's stack and, for a store, is
  already dirty: eliminable;
- **dirty transition** — a store hit on a clean line: the real cache
  flips a dirty bit, so the event stays on the exact per-event path
  (and the oracle marks the line dirty);
- **miss** — fill + possible eviction + possible write-back: per-event;
- **spanning** — the access crosses a line boundary and takes the
  generic multi-line path: per-event.

Anything but a pure hit is a *boundary event* and ends the current run.
Traces containing software prefetches are never annotated (prefetch
fills and MSHR occupancy are not modelled by the oracle), and neither
are shapes whose line/set/bank counts are not powers of two.

Warm-start soundness
--------------------

The oracle profiles from a *cold* cache, but warm re-runs
(``reset=False``) replay over retained contents.  That is safe because
the oracle only ever **under-claims**: every line in an oracle stack is
resident in the real cache in matching relative recency order (real
fills insert at MRU exactly like the oracle; real evictions take the
set's LRU way, which is never above an oracle line), so an oracle hit
is always a real hit and an oracle-dirty line is always really dirty.
A really-resident line the oracle has not seen can only turn an
oracle "miss" into a real hit — a boundary event, replayed exactly by
the per-event path.  Pinned by the audit's warm leg and
``tests/test_elim.py``.

What a run record carries
-------------------------

Enough for :func:`repro.cpu.fastpath.make_run_applier` to consume the
run without re-reading the address columns: load/store counts for the
bulk hit-counter updates, a packed per-event word array (opcode kind +
bank or operand) for the exact per-event timing loop, the per-set MRU
tag order at run end for the batch LRU-recency replay, and the operand
cursors at run end, where encoded replay resumes each column.

Annotations are memoized on the trace itself (keyed by shape), so a
trace replayed through N same-shaped configurations is profiled once.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from .encode import (
    OP_BRANCH,
    OP_COMPUTE,
    OP_LOAD,
    OP_MARK,
    OP_PREFETCH,
    OP_STORE,
    EncodedTrace,
)

#: Minimum events (marks excluded) for a hit span to be worth a run
#: record: below this, the per-run apply overhead (LRU replay,
#: bookkeeping) eats the per-event savings.
MIN_RUN_EVENTS = 16

#: Packed-word kinds (low 3 bits of each ``HitRun.packed`` entry; the
#: payload — bank, ops count or taken flag — sits in the high bits).
PK_LOAD = 0
PK_COMPUTE = 1
PK_STORE = 2
PK_BRANCH = 3

#: Process-wide elimination counters.  :func:`~repro.exec.point.
#: measure_point` snapshots them around each replay into the point's
#: stats record, which pooled workers send back to the engine.
_COUNTERS = {"events_eliminated": 0, "runs_applied": 0}

#: Session override installed by :func:`forced` (``None`` = default:
#: elimination on, annotation deferred per :func:`runs_for`).
_FORCED: Optional[bool] = None


def enabled() -> bool:
    """Whether the replay paths may consume hit-run annotations.

    Returns
    -------
    bool
        The :func:`forced` override when one is active, else ``True``.
    """
    return _FORCED is not False


@contextmanager
def forced(on: bool) -> Iterator[None]:
    """Force elimination on or off for a scope.

    Parameters
    ----------
    on : bool
        ``True`` forces elimination on from the first pass (no
        deferral); ``False`` forces the pure per-event path.
    """
    global _FORCED
    previous = _FORCED
    _FORCED = bool(on)
    try:
        yield
    finally:
        _FORCED = previous


def counters() -> Dict[str, int]:
    """Snapshot of this process's elimination counters.

    Returns
    -------
    dict
        ``{"events_eliminated": ..., "runs_applied": ...}``.
    """
    return dict(_COUNTERS)


def book_run(events: int) -> None:
    """Record one applied run of ``events`` eliminated events."""
    _COUNTERS["events_eliminated"] += events
    _COUNTERS["runs_applied"] += 1


class HitRun:
    """One guaranteed-hit span of a trace for one cache shape.

    Attributes
    ----------
    start, end : int
        Trace event index range ``[start, end)`` the run covers (leading
        marks trimmed; interior marks included — they cost nothing).
    counts : tuple of int
        ``(n_loads, n_stores)`` over the span, for the bulk hit-counter
        updates.
    packed : array of int
        One word per load/store/compute/branch event in order (marks
        omitted): low 3 bits the ``PK_*`` kind, high bits the bank
        (loads/stores), ops count (computes) or taken flag (branches).
        Drives the applier's exact per-event timing loop.  Stored one
        byte per word (``array('B')``), or eight (``array('q')``) when a
        word exceeds 255 — the trace columns' narrow-then-widen rule.
        Iterating a byte array boxes nothing: CPython returns its cached
        ints for values up to 256.
    lru_sets : tuple of tuple
        ``(set_index, (tag, ...))`` per touched set: the run-touched
        cache tags in MRU-first order at run end, for the batch
        LRU-recency replay.
    cursors : tuple of int
        ``(loads, stores, computes, branches)``: how many events of each
        kind precede ``end`` in the trace — the positions in the
        load/store/ops/taken operand columns at which encoded replay
        resumes after consuming the run.
    """

    __slots__ = ("start", "end", "counts", "packed", "lru_sets", "cursors")

    def __init__(self, start, end, counts, packed, lru_sets, cursors):
        self.start = start
        self.end = end
        self.counts = counts
        self.packed = packed
        self.lru_sets = lru_sets
        self.cursors = cursors

    def __repr__(self) -> str:
        return f"HitRun([{self.start}, {self.end}), {len(self.packed)} events)"


def _pack(words: List[int]) -> array:
    """``words`` one byte each, or eight bytes each if one exceeds 255."""
    try:
        return array("B", words)
    except OverflowError:
        return array("q", words)


def _shape_ok(trace: EncodedTrace, shape: Tuple[int, int, int, int]) -> bool:
    """Whether (trace, shape) is annotatable at all."""
    line_bytes, sets, ways, banks = shape
    if len(trace.pf_addrs):
        return False  # prefetch fills/MSHR state are outside the oracle
    for n in (line_bytes, sets, banks):
        if n <= 0 or n & (n - 1):
            return False
    return ways >= 1


def annotate_trace(
    trace: EncodedTrace, shape: Tuple[int, int, int, int]
) -> Tuple[HitRun, ...]:
    """Annotate ``trace`` with guaranteed-hit runs for ``shape``.

    One profiling pass over the opcode/operand columns with the per-set
    LRU stack oracle; memoized on the trace per shape, so replaying the
    same trace through every same-shaped configuration profiles once.

    Parameters
    ----------
    trace : EncodedTrace
        The columnar event stream.
    shape : tuple of int
        ``(line_bytes, sets, ways, banks)`` of the cache array whose
        hit path the runs will bypass.

    Returns
    -------
    tuple of HitRun
        Run records in trace order — empty for prefetch-bearing traces
        and non-power-of-two shapes.
    """
    memo = trace._analysis
    key = ("elim",) + tuple(shape)
    runs = memo.get(key)
    if runs is None:
        runs = _annotate(trace, shape) if _shape_ok(trace, shape) else ()
        memo[key] = runs
    return runs


def runs_for(trace: EncodedTrace, shape: Tuple[int, int, int, int]) -> Tuple[HitRun, ...]:
    """Runs for one replay pass, deferring annotation to the third pass.

    Measured over the twelve MINI kernels on the eligible sram, dropin
    and hybrid lanes (CPython 3.11 on a 2-vCPU x86-64 guest), the
    profiling pass behind :func:`annotate_trace` costs 0.65 of a
    per-event ``System.run`` and an eliminated run saves 0.35 of one,
    so annotation pays back only after about two eliminated passes.  Encoded replay therefore calls
    this instead of :func:`annotate_trace`: the first two passes over a
    ``(trace, shape)`` in a process run per-event (and only book the
    demand), and annotation happens on the third, once repeated replay
    has shown itself.  Annotating on the second pass lets a one-shot
    grid annotate on the second of its two passes through the SRAM DL1
    shape (drop-in and the SRAM baseline) and never amortise it: the
    serial penalties grid then peaks at 37.6 MB RSS instead of 31.4 MB,
    with no wall-time gain (three alternating pairs on the same guest).
    A :func:`forced` ``True`` scope annotates immediately (benchmarks,
    the audit's eliminated leg and the bit-identity tests all measure
    the steady state).

    Parameters
    ----------
    trace : EncodedTrace
        The columnar event stream.
    shape : tuple of int
        ``(line_bytes, sets, ways, banks)`` of the target cache array.

    Returns
    -------
    tuple of HitRun
        The annotation — empty on the deferred passes and for
        ineligible traces/shapes.
    """
    memo = trace._analysis
    key = ("elim-passes",) + tuple(shape)
    passes = memo.get(key, 0)
    memo[key] = passes + 1
    if passes >= 2 or _FORCED:
        return annotate_trace(trace, shape)
    return ()


def _annotate(trace: EncodedTrace, shape) -> Tuple[HitRun, ...]:
    """The profiling pass behind :func:`annotate_trace`."""
    line_bytes, sets, ways, banks = shape
    off = line_bytes.bit_length() - 1
    set_mask = sets - 1
    index_bits = sets.bit_length() - 1
    bank_mask = banks - 1

    # Oracle state, persistent across runs.
    stacks: List[List[int]] = [[] for _ in range(sets)]
    dirty: set = set()

    opcodes = trace.opcodes
    la, ls = trace.load_addrs, trace.load_sizes
    sa, ss = trace.store_addrs, trace.store_sizes
    ops_col, tk_col = trace.ops, trace.taken
    li = si = ci = ti = 0

    runs: List[HitRun] = []

    # Current-run accumulators; ``reset_run`` restarts them after a
    # boundary event.
    packed: List[int] = []
    pk_append = packed.append
    run_start = 0
    n_loads = n_stores = 0
    touched_lines: Dict[int, bool] = {}

    def close_run(end: int, cursors: Tuple[int, int, int, int]) -> None:
        """Emit the current span as a run if it is long enough.

        Must be called *before* the oracle processes the boundary event:
        the LRU snapshot has to reflect cache state as of the run's last
        in-run hit (at replay time the run is applied first, then the
        boundary event runs per-event against that state).
        """
        if len(packed) >= MIN_RUN_EVENTS:
            # The run's in-run hits reorder but never evict, so each
            # touched set's top-|touched lines| stack prefix is exactly
            # the run-touched lines in MRU order.
            per_set: Dict[int, int] = {}
            for ln in touched_lines:
                s = ln & set_mask
                per_set[s] = per_set.get(s, 0) + 1
            lru_sets = tuple(
                (s, tuple(ln >> index_bits for ln in stacks[s][:n]))
                for s, n in per_set.items()
            )
            runs.append(
                HitRun(
                    start=run_start,
                    end=end,
                    counts=(n_loads, n_stores),
                    packed=_pack(packed),
                    lru_sets=lru_sets,
                    cursors=cursors,
                )
            )

    for i, op in enumerate(opcodes):
        if op == OP_LOAD or op == OP_STORE:
            if op == OP_LOAD:
                addr = la[li]
                size = ls[li]
                li += 1
            else:
                addr = sa[si]
                size = ss[si]
                si += 1
            line = addr >> off
            last_line = (addr + size - 1) >> off
            # Classify first, without touching oracle state: the run
            # snapshot must precede the boundary event's own update.
            if last_line != line:
                boundary = True  # spanning: generic multi-line path
            else:
                stack = stacks[line & set_mask]
                if line not in stack:
                    boundary = True  # miss: fill + possible eviction
                elif op == OP_STORE and line not in dirty:
                    boundary = True  # clean -> dirty transition
                else:
                    boundary = False
            if boundary:
                # The boundary event's own operand is already consumed.
                if op == OP_LOAD:
                    close_run(i, (li - 1, si, ci, ti))
                else:
                    close_run(i, (li, si - 1, ci, ti))
                packed = []
                pk_append = packed.append
                run_start = i + 1
                n_loads = n_stores = 0
                touched_lines = {}
                # Oracle update for the boundary event, mirroring the
                # generic per-line loop (touch hits, fill+evict misses).
                for ln in range(line, last_line + 1):
                    stack = stacks[ln & set_mask]
                    if ln in stack:
                        if stack[0] != ln:
                            stack.remove(ln)
                            stack.insert(0, ln)
                    else:
                        stack.insert(0, ln)
                        if len(stack) > ways:
                            dirty.discard(stack.pop())
                    if op == OP_STORE:
                        dirty.add(ln)
                continue
            # Pure hit: update recency and record the event.
            if stack[0] != line:
                stack.remove(line)
                stack.insert(0, line)
            bank = line & bank_mask
            touched_lines[line] = True
            if op == OP_LOAD:
                pk_append(bank << 3)  # PK_LOAD == 0
                n_loads += 1
            else:
                pk_append(PK_STORE | (bank << 3))
                n_stores += 1
        elif op == OP_COMPUTE:
            o = ops_col[ci]
            ci += 1
            pk_append(PK_COMPUTE | (o << 3))
        elif op == OP_BRANCH:
            t = tk_col[ti]
            ti += 1
            pk_append(PK_BRANCH | (t << 3))
        elif op == OP_MARK:
            if not packed:
                run_start = i + 1  # a run must not start on a mark:
                # the steppers have no mark dispatch arm to trigger on
        # OP_PREFETCH is unreachable: prefetch traces are rejected above.

    close_run(len(opcodes), (li, si, ci, ti))
    return tuple(runs)


def eliminable_fraction(trace: EncodedTrace, shape) -> float:
    """Fraction of trace events covered by guaranteed-hit runs.

    Parameters
    ----------
    trace : EncodedTrace
        The event stream.
    shape : tuple of int
        ``(line_bytes, sets, ways, banks)``.

    Returns
    -------
    float
        Covered events over total events (0.0 for an empty trace or an
        unannotatable shape).
    """
    total = len(trace)
    if not total:
        return 0.0
    runs = annotate_trace(trace, shape)
    return sum(run.end - run.start for run in runs) / total
