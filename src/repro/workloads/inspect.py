"""Static analysis of workload programs: footprints, streams, strides.

Answers, before any simulation, the questions that predict how a kernel
behaves on the NVM+VWB platform:

- How big is each array, and does the working set fit the 64 KB DL1?
- How many distinct *streams* (loop-varying references) does each
  innermost loop carry — more streams than VWB lines + fill buffers
  means promotion thrash;
- What are their strides — unit-stride streams amortise one wide
  promotion over a whole window, window-or-larger strides promote every
  iteration;
- Is the loop vectorizable under the NEON-like model?

The ``python -m repro inspect`` command renders this per kernel, and
tests use it to pin each kernel's documented character (e.g. ``mvt``'s
column-walking second phase).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..transforms.vectorize import Vectorize
from .encode import encode_trace
from .ir import Loop, Program, Ref
from .trace import trace_summary


@dataclass(frozen=True)
class StreamInfo:
    """One loop-varying reference stream in an innermost loop.

    Attributes:
        array: Array name.
        subscripts: Rendered subscript expressions.
        stride_bytes: Byte stride per loop iteration.
        is_read: Appears as a read.
        is_write: Appears as a write.
    """

    array: str
    subscripts: str
    stride_bytes: int
    is_read: bool
    is_write: bool

    @property
    def unit_stride(self) -> bool:
        """True for 4-byte (one-element) forward strides."""
        return 0 < self.stride_bytes <= 8


@dataclass(frozen=True)
class LoopInfo:
    """Analysis of one innermost loop.

    Attributes:
        variable: Loop variable name.
        depth: Nesting depth (1 = top level).
        streams: Loop-varying reference streams.
        invariant_refs: References hoisted by scalar replacement.
        vectorizable: Accepted by the NEON-like vectorizer.
    """

    variable: str
    depth: int
    streams: Tuple[StreamInfo, ...]
    invariant_refs: int
    vectorizable: bool

    @property
    def stream_count(self) -> int:
        """Number of distinct varying streams."""
        return len(self.streams)


@dataclass
class ProgramReport:
    """Static report over a whole program."""

    name: str
    footprint_bytes: int
    array_bytes: Dict[str, int]
    loops: List[LoopInfo] = field(default_factory=list)

    @property
    def max_streams(self) -> int:
        """Largest stream count of any innermost loop."""
        return max((lp.stream_count for lp in self.loops), default=0)

    @property
    def fully_vectorizable(self) -> bool:
        """True when every innermost loop vectorizes."""
        return all(lp.vectorizable for lp in self.loops)

    def fits_in(self, capacity_bytes: int) -> bool:
        """Does the whole working set fit a cache of this capacity?"""
        return self.footprint_bytes <= capacity_bytes


def _stream_key(ref: Ref) -> Tuple[int, Tuple]:
    return (id(ref.array), ref.indices)


def analyze(program: Program) -> ProgramReport:
    """Build a :class:`ProgramReport` for ``program`` (no simulation)."""
    report = ProgramReport(
        name=program.name,
        footprint_bytes=program.footprint_bytes,
        array_bytes={a.name: a.size_bytes for a in program.arrays},
    )
    vectorizer = Vectorize()

    def visit(node, depth: int) -> None:
        if not isinstance(node, Loop):
            return
        if node.is_innermost:
            streams: Dict[Tuple, Dict] = {}
            invariant = 0
            for statement in node.statements():
                for ref, is_write in [(r, False) for r in statement.reads] + [
                    (r, True) for r in statement.writes
                ]:
                    stride = ref.stride_bytes(node.var)
                    if stride == 0:
                        invariant += 1
                        continue
                    key = _stream_key(ref)
                    entry = streams.setdefault(
                        key,
                        {
                            "array": ref.array.name,
                            "subscripts": ", ".join(repr(ix) for ix in ref.indices),
                            "stride": stride,
                            "read": False,
                            "write": False,
                        },
                    )
                    entry["read"] = entry["read"] or not is_write
                    entry["write"] = entry["write"] or is_write
            report.loops.append(
                LoopInfo(
                    variable=node.var.name,
                    depth=depth,
                    streams=tuple(
                        StreamInfo(
                            array=e["array"],
                            subscripts=e["subscripts"],
                            stride_bytes=e["stride"],
                            is_read=e["read"],
                            is_write=e["write"],
                        )
                        for e in streams.values()
                    ),
                    invariant_refs=invariant,
                    vectorizable=vectorizer._eligible(node),
                )
            )
        for child in node.body:
            visit(child, depth + 1)

    for node in program.body:
        visit(node, 1)
    return report


def event_counts(program: Program) -> Dict[str, int]:
    """Dynamic event counts of ``program``, via the columnar trace.

    Encodes the trace once (:func:`~repro.workloads.encode.encode_trace`
    builds no per-event objects) and summarises it column-wise with
    :func:`~repro.workloads.trace.trace_summary`.

    Returns:
        The :func:`trace_summary` dict (loads, stores, prefetches,
        branches, compute ops, byte volumes).
    """
    return trace_summary(encode_trace(program))


def render_locality(trace) -> str:
    """Reuse-distance and elimination prospects of one encoded trace.

    Three dynamic-locality views, rendered per named platform
    configuration:

    - a reuse-distance histogram summary at each distinct line
      granularity the configurations use (one Mattson profile per line
      size, memoized on the trace — see
      :func:`~repro.workloads.reuse.profile_trace`);
    - the Mattson-predicted miss rate at each configuration's capacity
      (the DL1 for single-array front-ends, the SRAM partition for the
      hybrid) — a fully associative prediction, so an optimistic bound
      for the set-associative arrays;
    - the fraction of trace events hit-run elimination
      (:mod:`repro.workloads.elim`) can consume for the configuration's
      exact array shape, or why the front-end is ineligible.

    Args:
        trace: The :class:`~repro.workloads.encode.EncodedTrace`.

    Returns:
        The rendered block (no trailing newline).
    """
    from ..cpu.fastpath import make_run_applier
    from ..cpu.system import System
    from ..experiments.runner import CONFIGURATIONS
    from .elim import eliminable_fraction
    from .reuse import COLD, profile_trace

    rows = []
    line_sizes: List[int] = []
    for name, sys_config in CONFIGURATIONS.items():
        system = System(sys_config)
        frontend = system.frontend
        cache = getattr(frontend, "sram", None) or frontend.backing
        cfg = cache.config
        if cfg.line_bytes not in line_sizes:
            line_sizes.append(cfg.line_bytes)
        capacity_lines = cfg.sets * cfg.associativity
        profile = profile_trace(trace, cfg.line_bytes)
        miss = profile.miss_rate_for(capacity_lines) * 100.0
        applier = make_run_applier(frontend, system.config.cpu)
        if applier is None:
            elim = "eliminable n/a (front-end hooks the hit path)"
        else:
            frac = eliminable_fraction(trace, applier.shape) * 100.0
            elim = f"eliminable {frac:.1f}%"
        rows.append(
            f"    {name:<7} {cfg.line_bytes}B x {capacity_lines} lines: "
            f"predicted miss {miss:.1f}%, {elim}"
        )

    lines = []
    for line_bytes in line_sizes:
        profile = profile_trace(trace, line_bytes)
        reused = profile.total_accesses - profile.cold_accesses
        dists = sorted(
            (d, n) for d, n in profile.histogram.items() if d != COLD
        )

        def _quantile(q: float) -> int:
            target = q * reused
            running = 0
            for distance, count in dists:
                running += count
                if running >= target:
                    return distance
            return dists[-1][0] if dists else 0

        lines.append(
            f"reuse:     {profile.total_accesses} line accesses @ "
            f"{line_bytes}B, {profile.unique_lines} distinct lines, "
            f"{profile.cold_accesses} cold; distance p50 {_quantile(0.5)}, "
            f"p90 {_quantile(0.9)}"
        )
    return "\n".join(lines + ["locality:"] + rows)


def render_report(
    report: ProgramReport,
    dl1_bytes: int = 65536,
    counts: Optional[Dict[str, int]] = None,
) -> str:
    """Human-readable rendering of a :class:`ProgramReport`.

    Args:
        report: The static analysis to render.
        dl1_bytes: DL1 capacity the footprint is judged against.
        counts: Optional :func:`event_counts` dict; when given, a
            dynamic-trace line (loads/stores/branches and byte volumes)
            is appended to the static summary.
    """
    lines = [
        f"== {report.name} ==",
        f"footprint: {report.footprint_bytes / 1024:.1f} KB "
        f"({'fits' if report.fits_in(dl1_bytes) else 'exceeds'} the "
        f"{dl1_bytes // 1024} KB DL1)",
        "arrays:    "
        + ", ".join(f"{n} {b / 1024:.1f}KB" for n, b in report.array_bytes.items()),
    ]
    for lp in report.loops:
        vec = "vectorizable" if lp.vectorizable else "NOT vectorizable"
        lines.append(
            f"loop {lp.variable} (depth {lp.depth}): {lp.stream_count} streams, "
            f"{lp.invariant_refs} register-allocated refs, {vec}"
        )
        for stream in lp.streams:
            mode = "rw" if stream.is_read and stream.is_write else ("r" if stream.is_read else "w")
            lines.append(
                f"    {stream.array}[{stream.subscripts}] stride "
                f"{stream.stride_bytes:+d}B ({mode})"
            )
    if counts is not None:
        lines.append(
            f"trace:     {counts['loads']} loads ({counts['load_bytes'] / 1024:.1f}KB), "
            f"{counts['stores']} stores ({counts['store_bytes'] / 1024:.1f}KB), "
            f"{counts['branches']} branches, {counts['compute_ops']} ops, "
            f"{counts['prefetches']} prefetches"
        )
    return "\n".join(lines)
