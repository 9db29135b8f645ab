"""The workload interpreter: affine IR -> architectural event trace.

This is the stand-in for the compiler+ISA layer of the paper's gem5
setup.  Walking a :class:`~repro.workloads.ir.Program` produces the event
stream an ARM compiler would emit for the kernel at ``-O2``:

- one :class:`~repro.workloads.trace.Load`/``Store`` per array reference
  execution, with exact byte addresses from the row-major layout;
- *scalar replacement* of loop-invariant references in innermost loops
  (an accumulator like ``C[i][j]`` in a ``k``-loop is loaded once before
  the loop and stored once after, like a register-allocated temporary);
- one :class:`~repro.workloads.trace.Compute` per statement execution
  covering its arithmetic and addressing work;
- one taken :class:`~repro.workloads.trace.Branch` per loop back-edge.

Transformation annotations change the emission:

- ``vector_width = W`` processes the loop in chunks of W iterations:
  stride-1 references become single W-element vector accesses, arithmetic
  and back-edges are charged once per chunk (SIMD), and references with
  other strides fall back to per-lane accesses (a gather/scatter);
- ``unroll = U`` charges one back-edge per U iterations/chunks;
- ``prefetch = [(ref, distance)]`` emits a software
  :class:`~repro.workloads.trace.Prefetch` for the reference's address
  ``distance`` iterations ahead, de-duplicated at
  :attr:`TraceConfig.prefetch_block_bytes` granularity so one hint is
  issued per new buffer window, like hand-placed prefetch intrinsics.

Innermost loops are lowered, not interpreted: every subscript is affine
in the loop variable, so each reference advances by a fixed byte stride
per iteration and its address at iteration ``v`` is ``base + stride *
(v - lo)``.  On each loop entry the interpreter evaluates every
reference once (``ref.addr(env)`` at ``v = lo``) into a plan, then emits
the loop's events from the plans with integer arithmetic only.  Scalar
loops (``W = 1``, no prefetches) use ``(base, stride, elem bytes)``
plans; vector and prefetching loops use ``(base, stride, lanes)``
plans, whose lanes give each access's byte offset and size within one
chunk, and prefetch targets are iterations of the same lowering.
Outer loops and statements outside innermost loops still evaluate
under the variable environment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import WorkloadError
from .affine import Var
from .ir import Loop, Node, Program, Ref, Statement
from .trace import (
    IRMark,
    Load,
    Prefetch,
    Store,
    TraceEvent,
    branch_event,
    compute_event,
)


@dataclass(frozen=True)
class TraceConfig:
    """Knobs of the IR-to-trace lowering.

    Attributes:
        prefetch_block_bytes: De-duplication granularity for emitted
            prefetches — one hint per new block a stream enters.  The
            default (64 B, one cache line) serves every front-end: the
            VWB de-duplicates redundant hints internally at window
            granularity, while plain caches need one hint per line.
        scalar_replacement: Hoist loop-invariant references out of
            innermost loops (on, like any optimising compiler).
        layout_base: Base address for array layout when the program has
            not been laid out yet.
        annotate_ir: Emit a zero-cost :class:`~repro.workloads.trace.IRMark`
            each time a loop (level) is entered, labelled with the dotted
            loop-variable path (e.g. ``"i.k.j"``).  Off by default so the
            figures' traces are byte-identical to the seed; the profiler
            turns it on to get per-IR-loop cycle subtotals.
    """

    prefetch_block_bytes: int = 64
    scalar_replacement: bool = True
    layout_base: int = 0x10_0000
    annotate_ir: bool = False


def generate_trace(program: Program, config: TraceConfig = TraceConfig()) -> Iterator[TraceEvent]:
    """Yield the architectural events of one execution of ``program``."""
    if any(a.base_addr is None for a in program.arrays):
        program.layout(base_addr=config.layout_base)
    env: Dict[str, int] = {}
    # Per-generation memo for _split_refs: the partition depends only on
    # the loop body and the config (constant for this walk), yet an
    # innermost loop is *entered* once per surrounding iteration — i*j
    # times for gemm — so the split is computed once per loop node here
    # instead of once per entry.  Keyed by node identity; the memo's
    # lifetime is one generator run, during which the tree is immutable.
    split_memo: Dict[int, tuple] = {}
    for node in program.body:
        yield from _run_node(node, env, config, "", split_memo)


def materialize_trace(program: Program, config: TraceConfig = TraceConfig()) -> List[TraceEvent]:
    """Generate the whole trace as a list (reused across configurations)."""
    return list(generate_trace(program, config))


# ----------------------------------------------------------------------
# Tree walk
# ----------------------------------------------------------------------


def _run_node(
    node: Node,
    env: Dict[str, int],
    cfg: TraceConfig,
    path: str = "",
    split_memo: Optional[Dict[int, tuple]] = None,
) -> Iterator[TraceEvent]:
    if isinstance(node, Statement):
        yield from _run_statement(node, env)
        return
    if node.is_innermost:
        yield from _run_innermost(node, env, cfg, path, split_memo)
        return
    lo = node.lower.evaluate(env)
    hi = node.upper.evaluate(env)
    branch_every = max(1, node.unroll)
    label = f"{path}.{node.var.name}" if path else node.var.name
    for i, v in enumerate(range(lo, hi)):
        env[node.var.name] = v
        if cfg.annotate_ir:
            # Re-marked each iteration so the region pops back correctly
            # after a nested loop overrode it.
            yield IRMark(label)
        for child in node.body:
            yield from _run_node(child, env, cfg, label, split_memo)
        if (i + 1) % branch_every == 0 or v == hi - 1:
            yield branch_event(v != hi - 1)
    env.pop(node.var.name, None)


def _run_statement(node: Statement, env: Dict[str, int]) -> Iterator[TraceEvent]:
    """Execute one statement outside any innermost-loop specialisation."""
    for ref in node.reads:
        yield Load(ref.addr(env), ref.array.elem_bytes)
    yield compute_event(node.flops + node.overhead_ops)
    for ref in node.writes:
        yield Store(ref.addr(env), ref.array.elem_bytes)


# ----------------------------------------------------------------------
# Innermost-loop specialisation
# ----------------------------------------------------------------------


def _split_refs(
    node: Loop, cfg: TraceConfig
) -> Tuple[List[Ref], List[Ref], List[Tuple[Statement, List[Ref], List[Ref]]]]:
    """Partition references into hoisted (loop-invariant) and per-iteration.

    Returns:
        ``(preloads, poststores, per_stmt)`` where ``per_stmt`` holds, for
        each statement, the read and write refs that remain inside the
        loop.  Hoisted refs are de-duplicated across statements by
        (array, subscripts).
    """
    preloads: List[Ref] = []
    poststores: List[Ref] = []
    seen_loads: set = set()
    seen_stores: set = set()
    per_stmt: List[Tuple[Statement, List[Ref], List[Ref]]] = []
    for statement in node.statements():
        inner_reads: List[Ref] = []
        inner_writes: List[Ref] = []
        for ref in statement.reads:
            if cfg.scalar_replacement and ref.stride_elements(node.var) == 0:
                key = (id(ref.array), ref.indices)
                if key not in seen_loads:
                    seen_loads.add(key)
                    preloads.append(ref)
            else:
                inner_reads.append(ref)
        for ref in statement.writes:
            if cfg.scalar_replacement and ref.stride_elements(node.var) == 0:
                key = (id(ref.array), ref.indices)
                if key not in seen_stores:
                    seen_stores.add(key)
                    poststores.append(ref)
            else:
                inner_writes.append(ref)
        per_stmt.append((statement, inner_reads, inner_writes))
    return preloads, poststores, per_stmt


def _run_innermost(
    node: Loop,
    env: Dict[str, int],
    cfg: TraceConfig,
    path: str = "",
    split_memo: Optional[Dict[int, tuple]] = None,
) -> Iterator[TraceEvent]:
    lo = node.lower.evaluate(env)
    hi = node.upper.evaluate(env)
    if hi <= lo:
        return
    if cfg.annotate_ir:
        yield IRMark(f"{path}.{node.var.name}" if path else node.var.name)
    if split_memo is None:
        preloads, poststores, per_stmt = _split_refs(node, cfg)
    else:
        split = split_memo.get(id(node))
        if split is None:
            split = split_memo[id(node)] = _split_refs(node, cfg)
        preloads, poststores, per_stmt = split

    # Hoisted loads execute once, before the loop (scalar replacement).
    env[node.var.name] = lo
    for ref in preloads:
        yield Load(ref.addr(env), ref.array.elem_bytes)

    width = max(1, node.vector_width)
    branch_every = max(1, node.unroll)

    if width == 1 and not node.prefetch:
        # Scalar path: one access per reference per iteration, so a
        # (base, byte stride, elem bytes) plan per reference turns each
        # access into one multiply-add: addr(v) = base + stride * (v - lo).
        var, trips = node.var, hi - lo
        plans = [
            (
                [(ref.addr(env), ref.stride_bytes(var), ref.array.elem_bytes) for ref in reads],
                statement.flops + statement.overhead_ops,
                [(ref.addr(env), ref.stride_bytes(var), ref.array.elem_bytes) for ref in writes],
            )
            for statement, reads, writes in per_stmt
        ]
        for off in range(trips):
            for read_plan, ops_count, write_plan in plans:
                for base, step, elem in read_plan:
                    yield Load(base + step * off, elem)
                yield compute_event(ops_count)
                for base, step, elem in write_plan:
                    yield Store(base + step * off, elem)
            done = off + 1
            if done % branch_every == 0 or done == trips:
                yield branch_event(done != trips)
        # Hoisted stores execute once, after the loop.
        env[node.var.name] = lo
        for ref in poststores:
            yield Store(ref.addr(env), ref.array.elem_bytes)
        env.pop(node.var.name, None)
        return

    # Vector/prefetch path: the same affine lowering, per chunk of W
    # iterations.  A reference's accesses over one chunk are a fixed
    # pattern of (byte offset, size) lanes from its address at the
    # chunk's first iteration `off`, so each plan is (base, byte stride,
    # lanes), built once per loop entry for the full chunk width and,
    # when the trip count is not a multiple of W, for the tail chunk.
    var, trips = node.var, hi - lo

    def lowered(refs: List[Ref], chunk: int) -> list:
        return [(ref.addr(env), ref.stride_bytes(var), _lanes(ref, var, chunk)) for ref in refs]

    def plan(chunk: int) -> list:
        return [
            (
                lowered(reads, chunk),
                statement.flops + statement.overhead_ops,
                lowered(writes, chunk),
            )
            for statement, reads, writes in per_stmt
        ]

    full_plans = plan(width)
    tail_plans = plan(trips % width) if trips % width else full_plans
    # Prefetch targets are iterations too: addr = base + stride * (t - lo).
    pf_plans = [(ref.addr(env), ref.stride_bytes(var), dist) for ref, dist in node.prefetch]
    last_block: List[Optional[int]] = [None] * len(pf_plans)
    block_bytes = cfg.prefetch_block_bytes

    for chunk_index, off in enumerate(range(0, trips, width), 1):
        # Software prefetches run ahead of the demand stream.  The first
        # iteration also prefetches its *own* data — the paper's "cutting
        # initial delay time to fetch critical data to the VWB" — which
        # keeps the fill-buffer pipeline in phase from the start.
        for pf_index, (base, step, distance) in enumerate(pf_plans):
            ahead = min(off + distance, trips - 1)
            for target in ((off, ahead) if off == 0 else (ahead,)):
                addr = base + step * target
                block = addr // block_bytes
                if last_block[pf_index] != block:
                    last_block[pf_index] = block
                    yield Prefetch(addr)

        last = off + width >= trips
        for read_plan, ops_count, write_plan in full_plans if not last else tail_plans:
            for base, step, lanes in read_plan:
                addr = base + step * off
                for delta, size in lanes:
                    yield Load(addr + delta, size)
            yield compute_event(ops_count)
            for base, step, lanes in write_plan:
                addr = base + step * off
                for delta, size in lanes:
                    yield Store(addr + delta, size)
        if chunk_index % branch_every == 0 or last:
            yield branch_event(not last)

    # Hoisted stores execute once, after the loop.
    env[node.var.name] = lo
    for ref in poststores:
        yield Store(ref.addr(env), ref.array.elem_bytes)
    env.pop(node.var.name, None)


def _lanes(ref: Ref, var: Var, chunk: int) -> Tuple[Tuple[int, int], ...]:
    """``(byte offset, size)`` of each access ``ref`` makes over one chunk.

    A chunk of one iteration is the scalar case; wider chunks model SIMD:
    stride-1 refs become a single wide access, loop-invariant refs one
    splat access, other strides per-lane accesses (gather/scatter).
    """
    elem = ref.array.elem_bytes
    stride = ref.stride_elements(var)
    if chunk == 1 or stride == 0:
        return ((0, elem),)
    if stride == 1:
        return ((0, chunk * elem),)
    return tuple((lane * stride * elem, elem) for lane in range(chunk))
