"""Trace-driven, cycle-approximate in-order CPU model.

The paper's platform is a single-core, 1 GHz, in-order ARM (Cortex-A9
like) pipeline simulated in gem5 SE mode.  For the phenomena the paper
studies — L1-D latency on the critical path — the essential behaviours
are:

- **blocking loads** whose exposed latency is the D-cache latency minus
  whatever the pipeline can overlap with independent work
  (:attr:`CPUConfig.load_use_overlap`, one cycle by default: the hit
  latency an in-order pipeline hides in its load-use slot);
- **a small store buffer**: stores retire in the background and only
  stall the core when the buffer is full, so the NVM's 2x write latency
  surfaces as back-pressure rather than per-store stalls — matching the
  paper's observation that the write contribution to the penalty is
  small but grows with kernel write intensity (Figure 4);
- **one cycle per arithmetic op and per taken branch** — the in-order,
  single-issue cost floor that the code transformations attack;
- **prefetch instructions occupy an issue slot** but never block.

Everything else about the core (rename, forwarding details, exact FU
latencies) cancels out of the penalty ratios the paper reports, because
the baseline and NVM configurations share the identical core.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, Optional

from ..core.frontend import DCacheFrontend
from ..errors import ConfigurationError
from ..mem.hierarchy import MemoryHierarchy
from ..obs.probe import NULL_PROBE, Probe
from ..workloads.encode import (
    OP_BRANCH,
    OP_COMPUTE,
    OP_LOAD,
    OP_PREFETCH,
    OP_STORE,
    EncodedTrace,
)
from ..workloads.elim import enabled as elim_enabled
from ..workloads.elim import runs_for as elim_runs_for
from ..workloads.trace import Branch, Compute, IRMark, Load, Prefetch, Store, TraceEvent
from .fastpath import make_fast_ops, make_run_applier

#: Load-latency histogram cap: everything slower lands in this bucket.
LOAD_HISTOGRAM_CAP = 256


@dataclass(frozen=True)
class CPUConfig:
    """Timing parameters of the in-order core.

    Attributes
    ----------
    load_use_overlap : float
        Cycles of each load's latency hidden by the pipeline
        (independent-instruction overlap); the exposed stall is
        ``max(1, latency - load_use_overlap)``.  The default (1.5) is
        calibrated so the drop-in STT-MRAM penalty over the PolyBench
        subset averages the paper's ~54% (Figure 1).
    store_buffer_entries : int
        Store-buffer slots; a store stalls the core only when all slots
        hold stores still draining.
    store_issue_cycles : float
        Issue-slot cost of a store instruction.
    branch_cycles : float
        Cost of a back-edge (taken branch).
    branch_mispredict_cycles : float
        Extra cycles charged on not-taken (loop-exit) branches — the
        one branch per loop a simple predictor reliably mispredicts.
        0 by default: the paper's penalties are latency ratios and a
        fixed mispredict cost cancels; exposed as a knob for
        sensitivity studies.
    prefetch_issue_cycles : float
        Issue-slot cost of a prefetch instruction (0.5: the dual-issue
        A9 pairs the hint with real work).
    model_ifetch : bool
        Charge instruction fetches through the IL1 (off for the
        reproduced figures; the IL1 is SRAM in every configuration, so
        it cancels out of the penalties).
    instructions_per_fetch_line : int
        Instructions consumed per 64 B IL1 line when ``model_ifetch``
        is on (4-byte fixed-width ISA with straight-line code: 16).
    code_bytes : int
        Synthetic code footprint the fetch stream loops over.
    """

    load_use_overlap: float = 1.5
    store_buffer_entries: int = 4
    store_issue_cycles: float = 1.0
    branch_cycles: float = 1.0
    branch_mispredict_cycles: float = 0.0
    prefetch_issue_cycles: float = 0.5
    model_ifetch: bool = False
    instructions_per_fetch_line: int = 16
    code_bytes: int = 4096

    def __post_init__(self) -> None:
        if self.load_use_overlap < 0:
            raise ConfigurationError("load-use overlap must be non-negative")
        if self.branch_mispredict_cycles < 0:
            raise ConfigurationError("mispredict penalty must be non-negative")
        if self.store_buffer_entries <= 0:
            raise ConfigurationError("store buffer needs at least one entry")
        if self.instructions_per_fetch_line <= 0 or self.code_bytes <= 0:
            raise ConfigurationError("ifetch parameters must be positive")


@dataclass
class RunResult:
    """Outcome of executing one trace on one system configuration.

    Attributes
    ----------
    cycles : float
        Total execution time in cycles (ns at 1 GHz).
    instructions : int
        Executed instruction count (compute ops + memory ops + branches
        + prefetches).
    breakdown : dict
        Cycles attributed per activity: ``compute``, ``branch``,
        ``load``, ``store``, ``prefetch``, ``ifetch``.
    counts : dict
        Event counts: ``loads``, ``stores``, ``branches``,
        ``prefetches``, ``compute_ops``.
    frontend_stats : dict
        Per-front-end buffer counters.
    dl1_stats : dict
        Backing DL1 counters.
    l2_stats : dict
        L2 counters.
    il1_stats : dict
        IL1 counters (all zero unless ``model_ifetch`` is on).
    mainmem_stats : dict
        Main-memory counters — reads, writes and
        ``channel_busy_cycles`` (plus row-buffer counters under the
        banked DRAM model).
    memory_accesses : int
        DRAM line transfers.
    load_latency_histogram : dict
        Exposed-load-latency distribution, bucketed by whole cycles
        (key = ``int(exposed)``, capped at :data:`LOAD_HISTOGRAM_CAP`).
        The VWB shows up here as a bimodal shape: a 1-cycle hit mode
        and a promotion mode.
    reliability_stats : dict
        Fault-injection counters and cycle totals (see
        :class:`~repro.reliability.faults.ReliabilityStats`); empty
        unless the system was configured with fault injection enabled.
    retired_lines : int
        DL1 line slots retired by graceful degradation during the run
        (0 without fault injection).
    dl1_line_writes : dict
        Writes per DL1 line slot (key = ``set * ways + way``); empty
        unless the system was configured with ``track_line_writes``.
    """

    cycles: float
    instructions: int
    breakdown: Dict[str, float]
    counts: Dict[str, int]
    frontend_stats: Dict[str, int] = field(default_factory=dict)
    dl1_stats: Dict[str, int] = field(default_factory=dict)
    l2_stats: Dict[str, int] = field(default_factory=dict)
    il1_stats: Dict[str, int] = field(default_factory=dict)
    mainmem_stats: Dict[str, float] = field(default_factory=dict)
    memory_accesses: int = 0
    load_latency_histogram: Dict[int, int] = field(default_factory=dict)
    reliability_stats: Dict[str, float] = field(default_factory=dict)
    retired_lines: int = 0
    dl1_line_writes: Dict[int, int] = field(default_factory=dict)

    def load_latency_quantile(self, q: float) -> float:
        """Approximate q-quantile (0..1) of the exposed load latency.

        Contract (all boundary cases are defined, never an off-by-one or
        a division by zero):

        - ``q`` outside ``[0, 1]`` raises ``ConfigurationError``;
        - an **empty histogram** (a run with zero loads) returns ``0.0``
          for every ``q``;
        - ``q == 0.0`` returns the **minimum** populated bucket (the
          fastest observed load);
        - ``q == 1.0`` returns the **maximum** populated bucket (the
          slowest observed load);
        - interior quantiles use the inverse-CDF convention: the smallest
          bucket whose cumulative count reaches ``q * total``.

        The histogram buckets are whole cycles capped at
        :data:`LOAD_HISTOGRAM_CAP`: every load slower than the cap lands
        in the cap bucket, so high quantiles (p100 in particular) are
        reported as the cap and are a *lower bound* on the true latency
        whenever the overflow bucket is populated.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1]: {q}")
        hist = self.load_latency_histogram
        if not hist:
            return 0.0
        if q == 0.0:
            return float(min(min(hist), LOAD_HISTOGRAM_CAP))
        if q == 1.0:
            return float(min(max(hist), LOAD_HISTOGRAM_CAP))
        total = sum(hist.values())
        threshold = q * total
        seen = 0
        for bucket in sorted(hist):
            seen += hist[bucket]
            if seen >= threshold:
                return float(min(bucket, LOAD_HISTOGRAM_CAP))
        # Unreachable for q <= 1.0 (the cumulative sum reaches `total`),
        # kept as a safe upper bound against float threshold edge cases.
        return float(min(max(hist), LOAD_HISTOGRAM_CAP))

    @property
    def ipc(self) -> float:
        """Instructions per cycle (0 for an empty run)."""
        return self.instructions / self.cycles if self.cycles else 0.0

    def penalty_vs(self, baseline: "RunResult") -> float:
        """Performance penalty in percent relative to ``baseline``.

        This is the metric of every figure in the paper: cycles over the
        SRAM baseline's cycles, minus one, in percent.
        """
        if baseline.cycles <= 0:
            raise ConfigurationError("baseline run has no cycles")
        return (self.cycles - baseline.cycles) / baseline.cycles * 100.0


class InOrderCPU:
    """Executes an architectural event trace against a D-cache front-end.

    Parameters
    ----------
    config : CPUConfig
        Core timing parameters.
    frontend : DCacheFrontend
        The L1-D organisation under test.
    hierarchy : MemoryHierarchy, optional
        Shared backing hierarchy (used for optional i-fetch).
    """

    def __init__(
        self,
        config: CPUConfig,
        frontend: DCacheFrontend,
        hierarchy: Optional[MemoryHierarchy] = None,
    ) -> None:
        if config.model_ifetch and hierarchy is None:
            raise ConfigurationError("i-fetch modelling requires a memory hierarchy")
        self.config = config
        self.frontend = frontend
        self.hierarchy = hierarchy
        self.probe: Probe = NULL_PROBE
        #: Optional event-stream checker (:class:`repro.check.Sanitizer`).
        #: ``None`` (the default) keeps replay on the unchecked fast
        #: paths with zero per-event overhead; when set, `run` wraps the
        #: event stream through ``checker.stream`` and `run_encoded`
        #: falls back to generic object replay (the sanitizer audits the
        #: one canonical implementation of the timing paths).
        self.checker: Optional["EventChecker"] = None
        #: Live view of the store buffer (absolute completion cycles) of
        #: the most recent `run` — one attribute assignment per run, read
        #: by the sanitizer to audit store-buffer occupancy/ordering.
        self.store_queue: Optional[Deque[float]] = None

    def run(self, events: Iterable[TraceEvent]) -> RunResult:
        """Execute ``events`` in order; return the timing result.

        An :class:`~repro.workloads.encode.EncodedTrace` is recognised
        and replayed through :meth:`run_encoded` — same result
        (bit-identical), several times faster.
        """
        if isinstance(events, EncodedTrace):
            return self.run_encoded(events)
        checker = self.checker
        if checker is not None:
            events = checker.stream(events)
        cfg = self.config
        cycles = 0.0
        breakdown = {
            "compute": 0.0,
            "branch": 0.0,
            "load": 0.0,
            "store": 0.0,
            "prefetch": 0.0,
            "ifetch": 0.0,
        }
        counts = {
            "loads": 0,
            "stores": 0,
            "branches": 0,
            "prefetches": 0,
            "compute_ops": 0,
        }
        instructions = 0
        load_histogram: Dict[int, int] = {}
        store_queue: Deque[float] = deque()
        self.store_queue = store_queue
        fetch_budget = 0  # instructions covered by the current IL1 line
        fetch_pc = 0

        frontend = self.frontend
        overlap = cfg.load_use_overlap
        probe = self.probe
        probing = probe.enabled

        for ev in events:
            kind = type(ev)
            if kind is Load:
                counts["loads"] += 1
                instructions += 1
                if probing:
                    probe.begin_op("load", ev.addr, cycles)
                latency = frontend.read(ev.addr, ev.size, cycles)
                exposed = max(1.0, latency - overlap)
                if probing:
                    probe.end_op(exposed, latency)
                cycles += exposed
                breakdown["load"] += exposed
                bucket = min(int(exposed), LOAD_HISTOGRAM_CAP)
                load_histogram[bucket] = load_histogram.get(bucket, 0) + 1
            elif kind is Compute:
                counts["compute_ops"] += ev.ops
                instructions += ev.ops
                cycles += ev.ops
                breakdown["compute"] += ev.ops
                if probing:
                    probe.op("compute", ev.ops, cycles)
            elif kind is Store:
                counts["stores"] += 1
                instructions += 1
                start = cycles
                # Retire drained stores, then stall if the buffer is full.
                while store_queue and store_queue[0] <= cycles:
                    store_queue.popleft()
                if len(store_queue) >= cfg.store_buffer_entries:
                    cycles = store_queue.popleft()
                if probing:
                    probe.begin_op("store", ev.addr, start)
                latency = frontend.write(ev.addr, ev.size, cycles)
                tail = store_queue[-1] if store_queue else cycles
                store_queue.append(max(cycles, tail) + latency)
                cycles += cfg.store_issue_cycles
                breakdown["store"] += cycles - start
                if probing:
                    # The exposed cost is the issue slot plus any wait for
                    # a free store-buffer entry; the write itself retires
                    # in the background.
                    probe.end_op(
                        cycles - start, latency, cycles - start - cfg.store_issue_cycles
                    )
            elif kind is Branch:
                counts["branches"] += 1
                instructions += 1
                cost = cfg.branch_cycles
                if not ev.taken:
                    cost += cfg.branch_mispredict_cycles
                cycles += cost
                breakdown["branch"] += cost
                if probing:
                    probe.op("branch", cost, cycles)
            elif kind is Prefetch:
                counts["prefetches"] += 1
                instructions += 1
                if probing:
                    probe.begin_op("prefetch", ev.addr, cycles)
                stall = frontend.prefetch(ev.addr, cycles)
                cycles += cfg.prefetch_issue_cycles + stall
                breakdown["prefetch"] += cfg.prefetch_issue_cycles + stall
                if probing:
                    probe.end_op(cfg.prefetch_issue_cycles + stall, stall, stall)
            elif kind is IRMark:
                # Zero-cost region annotation (profiling traces only).
                if probing:
                    probe.mark(ev.label, cycles)
                continue

            if cfg.model_ifetch:
                new_instrs = instructions - fetch_budget
                while new_instrs > 0:
                    latency = self.hierarchy.ifetch(fetch_pc, cycles)
                    # A hit overlaps with decode; only misses stall.
                    stall = max(0.0, latency - 1.0)
                    cycles += stall
                    breakdown["ifetch"] += stall
                    if probing and stall > 0.0:
                        probe.op("ifetch", stall, cycles)
                    fetch_pc = (fetch_pc + 64) % cfg.code_bytes
                    fetch_budget += cfg.instructions_per_fetch_line
                    new_instrs -= cfg.instructions_per_fetch_line

        # Drain the store buffer: the kernel is done when memory is.
        # The drain is store work, so it is attributed to the store
        # category — `sum(breakdown.values()) == cycles` holds even when
        # the last event is a store that fills the buffer (identical
        # attribution in `run_encoded`; pinned by tests/test_cpu_model.py).
        if store_queue and store_queue[-1] > cycles:
            drain = store_queue[-1] - cycles
            if probing:
                probe.op("store_buffer_full", drain, cycles)
            breakdown["store"] += drain
            cycles = store_queue[-1]

        return RunResult(
            cycles=cycles,
            instructions=instructions,
            breakdown=breakdown,
            counts=counts,
            frontend_stats=frontend.stats.as_dict(),
            dl1_stats=frontend.backing.stats.as_dict(),
            load_latency_histogram=load_histogram,
        )

    def run_encoded(self, trace: EncodedTrace) -> RunResult:
        """Replay an encoded trace; bit-identical to :meth:`run` on it.

        The hot loop dispatches on the integer opcode stream with every
        counter bound to a local, a preallocated latency-histogram list
        instead of per-event dict traffic, and the front-end's inlined
        kernels (:func:`~repro.cpu.fastpath.make_fast_ops`) serving the
        common single-line hits and, on the VWB, software prefetches —
        anything else falls back to the generic ``frontend.read``/
        ``write``/``prefetch`` call for that event, so the
        timing arithmetic is evaluated in the identical order and the
        result is bit-identical (pinned by ``tests/test_encode.py``).

        On lanes eligible for hit-run elimination
        (:func:`~repro.cpu.fastpath.make_run_applier`) the trace's
        guaranteed-hit runs (:func:`~repro.workloads.elim.runs_for`)
        split the opcode stream into gaps.  Each gap replays per event;
        each run between two gaps is consumed by one ``applier.apply``
        call that advances the clock, accumulators, store queue, bank
        busy times, LRU orders and stat counters to the values the
        per-event loop would reach, after which the operand iterators
        are re-seated at the run's end cursors (:attr:`~repro
        .workloads.elim.HitRun.cursors`).  Without runs the whole trace
        is one gap.  Bit-identity with elimination forced off is pinned
        by ``tests/test_elim.py``.

        Probed and i-fetch-modelling runs replay the decoded event
        stream through :meth:`run` instead: probe callbacks fire with
        exactly the object path's arguments and ordering.
        """
        cfg = self.config
        if self.probe.enabled or cfg.model_ifetch or self.checker is not None:
            return self.run(trace.decode_iter())

        frontend = self.frontend
        runs = ()
        if elim_enabled():
            applier = make_run_applier(frontend, cfg)
            if applier is not None:
                runs = elim_runs_for(trace, applier.shape)
                apply_run = applier.apply
        fast = make_fast_ops(frontend)
        fast_read, fast_write, fast_prefetch = fast if fast is not None else (None, None, None)
        frontend_read = frontend.read
        frontend_write = frontend.write
        frontend_prefetch = frontend.prefetch

        # Operand columns as bound iterators: each kind's stream is
        # consumed strictly in opcode order, so a `next` per event
        # replaces index-plus-cursor bookkeeping in the hot loop.  A run
        # re-seats them on zero-copy views of the columns.
        opcodes, ops_col = trace.opcodes, trace.ops
        load_addrs, load_sizes = trace.load_addrs, trace.load_sizes
        store_addrs, store_sizes = trace.store_addrs, trace.store_sizes
        taken = trace.taken
        next_load_addr = iter(load_addrs).__next__
        next_load_size = iter(load_sizes).__next__
        next_store_addr = iter(store_addrs).__next__
        next_store_size = iter(store_sizes).__next__
        next_pf_addr = iter(trace.pf_addrs).__next__
        next_ops = iter(ops_col).__next__
        next_taken = iter(taken).__next__
        if runs:
            la_view, ls_view, sa_view, ss_view, ops_view, tk_view = map(
                memoryview,
                (load_addrs, load_sizes, store_addrs, store_sizes, ops_col, taken),
            )
        op_load, op_compute, op_store = OP_LOAD, OP_COMPUTE, OP_STORE
        op_branch, op_prefetch = OP_BRANCH, OP_PREFETCH

        # Accumulator locals (same float-addition order as `run`).
        cycles = 0.0
        b_compute = b_branch = b_load = b_store = b_prefetch = 0.0
        cap = LOAD_HISTOGRAM_CAP
        hist = [0] * (cap + 1)
        store_queue: Deque[float] = deque()
        self.store_queue = store_queue
        sq_popleft = store_queue.popleft
        sq_append = store_queue.append
        sb_entries = cfg.store_buffer_entries
        store_issue = cfg.store_issue_cycles
        overlap = cfg.load_use_overlap
        pf_issue = cfg.prefetch_issue_cycles
        taken_cost = cfg.branch_cycles
        exit_cost = cfg.branch_cycles + cfg.branch_mispredict_cycles

        gap_start = 0
        for run in (*runs, None):
            gap_end = len(opcodes) if run is None else run.start
            for op in opcodes[gap_start:gap_end]:
                if op == op_load:
                    addr = next_load_addr()
                    size = next_load_size()
                    if fast_read is not None:
                        latency = fast_read(addr, size, cycles)
                        if latency is None:
                            latency = frontend_read(addr, size, cycles)
                    else:
                        latency = frontend_read(addr, size, cycles)
                    exposed = latency - overlap
                    if exposed < 1.0:
                        exposed = 1.0
                    cycles += exposed
                    b_load += exposed
                    bucket = int(exposed)
                    hist[bucket if bucket < cap else cap] += 1
                elif op == op_compute:
                    o = next_ops()
                    cycles += o
                    b_compute += o
                elif op == op_store:
                    addr = next_store_addr()
                    size = next_store_size()
                    start = cycles
                    # Retire drained stores, then stall if the buffer is full.
                    while store_queue and store_queue[0] <= cycles:
                        sq_popleft()
                    if len(store_queue) >= sb_entries:
                        cycles = sq_popleft()
                    if fast_write is not None:
                        latency = fast_write(addr, size, cycles)
                        if latency is None:
                            latency = frontend_write(addr, size, cycles)
                    else:
                        latency = frontend_write(addr, size, cycles)
                    tail = store_queue[-1] if store_queue else cycles
                    sq_append(max(cycles, tail) + latency)
                    cycles += store_issue
                    b_store += cycles - start
                elif op == op_branch:
                    cost = taken_cost if next_taken() else exit_cost
                    cycles += cost
                    b_branch += cost
                elif op == op_prefetch:
                    addr = next_pf_addr()
                    if fast_prefetch is not None:
                        stall = fast_prefetch(addr, cycles)
                        if stall is None:
                            stall = frontend_prefetch(addr, cycles)
                    else:
                        stall = frontend_prefetch(addr, cycles)
                    cost = pf_issue + stall
                    cycles += cost
                    b_prefetch += cost
                # else OP_MARK: zero-cost annotation, nothing to do unprobed.
            if run is None:
                break
            cycles, b_compute, b_branch, b_load, b_store = apply_run(
                run, cycles, b_compute, b_branch, b_load, b_store,
                store_queue, hist,
            )
            li, si, ci, ti = run.cursors
            next_load_addr = iter(la_view[li:]).__next__
            next_load_size = iter(ls_view[li:]).__next__
            next_store_addr = iter(sa_view[si:]).__next__
            next_store_size = iter(ss_view[si:]).__next__
            next_ops = iter(ops_view[ci:]).__next__
            next_taken = iter(tk_view[ti:]).__next__
            gap_start = run.end

        # Drain the store buffer: the kernel is done when memory is.
        # Same final-drain attribution as `run`: the drain books under
        # the store category in both replay paths, bit-identically.
        if store_queue and store_queue[-1] > cycles:
            b_store += store_queue[-1] - cycles
            cycles = store_queue[-1]

        # Event totals come straight from the column lengths; they equal
        # the per-event increments of the object path exactly (integers).
        n_loads, n_stores = len(load_addrs), len(store_addrs)
        n_branches, n_prefetches = len(taken), len(trace.pf_addrs)
        total_ops = sum(ops_col)
        return RunResult(
            cycles=cycles,
            instructions=n_loads + n_stores + n_branches + n_prefetches + total_ops,
            breakdown={
                "compute": b_compute,
                "branch": b_branch,
                "load": b_load,
                "store": b_store,
                "prefetch": b_prefetch,
                "ifetch": 0.0,
            },
            counts={
                "loads": n_loads,
                "stores": n_stores,
                "branches": n_branches,
                "prefetches": n_prefetches,
                "compute_ops": total_ops,
            },
            frontend_stats=frontend.stats.as_dict(),
            dl1_stats=frontend.backing.stats.as_dict(),
            load_latency_histogram={b: n for b, n in enumerate(hist) if n},
        )
