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

The walk builds no event objects: :func:`lower_program`, called by
:func:`~repro.workloads.encode.encode_trace`, appends each event's
opcode and operands straight to the columns of an
:class:`~repro.workloads.encode.EncodedTrace`.

Innermost loops are lowered, not interpreted: every subscript is affine
in the loop variable, so each reference advances by a fixed byte stride
per iteration and its address at iteration ``v`` is ``base + stride *
(v - lo)``.  On each loop entry the interpreter evaluates every
reference once (``ref.addr(env)`` at ``v = lo``) into a plan, then emits
the loop chunk by chunk (W >= 1 iterations each; a scalar loop has
chunks of one) from the plans with integer arithmetic only.  A plan
gives each access of one chunk as a ``(byte address at chunk 0, byte
stride)`` pair plus its size, so a chunk extends every column in bulk;
it is built once per loop entry for the full chunk width and, when the
trip count is not a multiple of W, for the tail chunk.  Prefetch
targets are iterations of the same lowering.  Outer loops and
statements outside innermost loops still evaluate under the variable
environment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .affine import Var
from .ir import Loop, Node, Program, Ref, Statement
from .trace import OP_BRANCH, OP_COMPUTE, OP_LOAD, OP_STORE

if TYPE_CHECKING:
    from .encode import EncodedTrace


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


def lower_program(program: Program, config: TraceConfig, out: EncodedTrace) -> None:
    """Append the events of one execution of ``program`` to ``out``."""
    if any(a.base_addr is None for a in program.arrays):
        program.layout(base_addr=config.layout_base)
    # Per-walk memo for _split_refs: the partition depends only on the
    # loop body and the config (constant for this walk), yet an
    # innermost loop is *entered* once per surrounding iteration — i*j
    # times for gemm — so the split is computed once per loop node here
    # instead of once per entry.  Keyed by node identity; the tree is
    # immutable for the walk's lifetime.
    splits: Dict[int, tuple] = {}
    env: Dict[str, int] = {}
    for node in program.body:
        _run_node(node, env, config, "", splits, out)


# ----------------------------------------------------------------------
# Tree walk
# ----------------------------------------------------------------------


def _run_node(
    node: Node,
    env: Dict[str, int],
    cfg: TraceConfig,
    path: str,
    splits: Dict[int, tuple],
    out: EncodedTrace,
) -> None:
    if isinstance(node, Statement):
        # A statement outside any innermost loop: evaluated under env.
        for ref in node.reads:
            out.load(ref.addr(env), ref.array.elem_bytes)
        out.compute(node.flops + node.overhead_ops)
        for ref in node.writes:
            out.store(ref.addr(env), ref.array.elem_bytes)
        return
    if node.is_innermost:
        _run_innermost(node, env, cfg, path, splits, out)
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
            out.mark(label)
        for child in node.body:
            _run_node(child, env, cfg, label, splits, out)
        if (i + 1) % branch_every == 0 or v == hi - 1:
            out.branch(v != hi - 1)
    env.pop(node.var.name, None)


# ----------------------------------------------------------------------
# Innermost-loop lowering
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
    path: str,
    splits: Dict[int, tuple],
    out: EncodedTrace,
) -> None:
    lo = node.lower.evaluate(env)
    hi = node.upper.evaluate(env)
    if hi <= lo:
        return
    if cfg.annotate_ir:
        out.mark(f"{path}.{node.var.name}" if path else node.var.name)
    split = splits.get(id(node))
    if split is None:
        split = splits[id(node)] = _split_refs(node, cfg)
    preloads, poststores, per_stmt = split

    # Hoisted loads execute once, before the loop (scalar replacement).
    env[node.var.name] = lo
    for ref in preloads:
        out.load(ref.addr(env), ref.array.elem_bytes)

    var, trips = node.var, hi - lo
    width = max(1, node.vector_width)
    branch_every = max(1, node.unroll)
    full_plan = _chunk_plan(per_stmt, env, var, width)
    tail_plan = _chunk_plan(per_stmt, env, var, trips % width) if trips % width else full_plan
    # Prefetch targets are iterations too: addr = base + stride * (t - lo).
    pf_plans = [(ref.addr(env), ref.stride_bytes(var), dist) for ref, dist in node.prefetch]
    last_block: List[Optional[int]] = [None] * len(pf_plans)
    block_bytes = cfg.prefetch_block_bytes

    opcodes = out.opcodes
    load_addrs, load_sizes = out.load_addrs, out.load_sizes
    store_addrs, store_sizes = out.store_addrs, out.store_sizes
    ops, taken = out.ops, out.taken
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
                    out.prefetch(addr)

        last = off + width >= trips
        body, loads, l_sizes, op_counts, stores, s_sizes = tail_plan if last else full_plan
        opcodes += body
        # A value too wide for a narrow column widens it (out.widen),
        # which replaces the column: rebind the local.
        if loads:
            addrs = [base + step * off for base, step in loads]
            try:
                load_addrs.extend(addrs)
            except OverflowError:
                load_addrs = out.widen("load_addrs", addrs)
            try:
                load_sizes.extend(l_sizes)
            except OverflowError:
                load_sizes = out.widen("load_sizes", l_sizes)
        try:
            ops.extend(op_counts)
        except OverflowError:
            ops = out.widen("ops", op_counts)
        if stores:
            addrs = [base + step * off for base, step in stores]
            try:
                store_addrs.extend(addrs)
            except OverflowError:
                store_addrs = out.widen("store_addrs", addrs)
            try:
                store_sizes.extend(s_sizes)
            except OverflowError:
                store_sizes = out.widen("store_sizes", s_sizes)
        if chunk_index % branch_every == 0 or last:
            opcodes.append(OP_BRANCH)
            taken.append(not last)

    # Hoisted stores execute once, after the loop.
    env[node.var.name] = lo
    for ref in poststores:
        out.store(ref.addr(env), ref.array.elem_bytes)
    env.pop(node.var.name, None)


def _chunk_plan(per_stmt: list, env: Dict[str, int], var: Var, chunk: int) -> tuple:
    """The accesses of one ``chunk``-iteration chunk at loop entry ``env``.

    Returns ``(opcodes, loads, load sizes, compute ops, stores, store
    sizes)``: the chunk's opcode bytes in program order, each load's and
    store's ``(byte address at the first chunk, byte stride)`` and size,
    and each statement's op count.  The chunk starting at iteration
    offset ``off`` accesses ``address + stride * off``.
    """
    body = bytearray()
    loads: List[Tuple[int, int]] = []
    load_sizes: List[int] = []
    op_counts: List[int] = []
    stores: List[Tuple[int, int]] = []
    store_sizes: List[int] = []
    for statement, reads, writes in per_stmt:
        for ref in reads:
            addr, step = ref.addr(env), ref.stride_bytes(var)
            for delta, size in _lanes(ref, var, chunk):
                body.append(OP_LOAD)
                loads.append((addr + delta, step))
                load_sizes.append(size)
        body.append(OP_COMPUTE)
        op_counts.append(statement.flops + statement.overhead_ops)
        for ref in writes:
            addr, step = ref.addr(env), ref.stride_bytes(var)
            for delta, size in _lanes(ref, var, chunk):
                body.append(OP_STORE)
                stores.append((addr + delta, step))
                store_sizes.append(size)
    return bytes(body), loads, load_sizes, op_counts, stores, store_sizes


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
