"""Full-system assembly: CPU + D-cache front-end + shared hierarchy.

:class:`SystemConfig` captures one experimental configuration of the
paper's platform (which DL1 technology, which front-end organisation,
what VWB geometry); :class:`System` builds and runs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Union

from ..core.dropin import PlainFrontend
from ..core.emshr import EMSHRFrontend
from ..core.frontend import DCacheFrontend
from ..core.hybrid import HybridFrontend
from ..core.l0 import L0Frontend
from ..core.vwb import VWBConfig
from ..core.vwb_frontend import VWBFrontend
from ..errors import ConfigurationError
from ..mem.cache import Cache, CacheConfig
from ..mem.hierarchy import HierarchyConfig, MemoryHierarchy
from ..mem.prefetcher import StridePrefetcher
from ..obs.probe import NULL_PROBE, Probe
from ..reliability.faults import FaultInjector, ReliabilityConfig
from ..tech.params import MemoryTechnology, get_technology
from ..units import kib, ns_to_cycles
from ..workloads.trace import TraceEvent
from .model import CPUConfig, InOrderCPU, RunResult

#: Default DL1 line size.  Figure 1's drop-in comparison replaces the
#: SRAM D-cache "by a NVM counterpart with similar characteristics (size,
#: associativity...)", so both technologies default to the NVM's 512-bit
#: line; Table I's 256-bit SRAM line is available by passing
#: ``dl1_line_bytes=32`` (exercised by the line-size ablation).
_DEFAULT_LINE_BYTES = 64


@dataclass(frozen=True)
class SystemConfig:
    """One platform configuration of the paper's evaluation.

    Attributes
    ----------
    technology : str or MemoryTechnology
        DL1 array technology — a preset name (``"sram"``,
        ``"stt-mram"``, ...) or a :class:`MemoryTechnology`.
    frontend : str
        D-cache organisation: ``"plain"`` (baseline/drop-in), ``"vwb"``
        (the proposal), ``"l0"`` or ``"emshr"``.
    dl1_capacity_bytes : int
        DL1 size (64 KB in the paper).
    dl1_associativity : int
        DL1 ways (2 in the paper).
    dl1_line_bytes : int, optional
        DL1 line size; ``None`` selects the 64 B (512-bit) line the
        paper's NVM DL1 uses, for both technologies — Figure 1 replaces
        the SRAM cache by an NVM one "with similar characteristics".
        Pass 32 for Table I's 256-bit SRAM line.
    dl1_banks : int
        Banks in the DL1 array (the paper simulates a banked NVM
        array).
    dl1_replacement : str
        DL1 replacement policy name.
    vwb_bits : int
        VWB capacity for the ``"vwb"`` front-end (Figure 7 sweeps
        1024/2048/4096).
    vwb_lines : int
        VWB wide-line count (2 in the paper).
    buffer_bits : int
        Capacity of the L0/EMSHR structure (2 Kbit in Figure 8).
    hybrid_sram_bytes : int
        SRAM partition size of the ``"hybrid"`` front-end (related-work
        extension).
    il1_technology : str or MemoryTechnology, optional
        Override the instruction-cache technology (default SRAM, as in
        every experiment of the paper); used by the NVM-I-cache
        exploration together with ``cpu.model_ifetch``.
    hw_prefetcher : bool
        Attach a hardware stride prefetcher to the ``"plain"``
        front-end (extension; off in every reproduced figure).
    dl1_fast_write_cycles : int, optional
        Enable the AWARE asymmetric-write model in the DL1 array
        (extension; see :class:`~repro.mem.cache.CacheConfig`).
    dl1_fast_write_fraction : float
        Fraction of fast writes under AWARE.
    track_line_writes : bool
        Record per-line DL1 write counts (endurance).
    dl1_replacement_seed : int
        Seed for the DL1's ``random`` replacement policy (ignored by
        the deterministic policies).
    reliability : ReliabilityConfig, optional
        Optional DL1 fault-injection parameters.  ``None`` — and any
        config whose fault rates are all zero — leaves the timing
        bit-exact with the fault-free model.
    cpu : CPUConfig
        Core timing parameters.
    hierarchy : HierarchyConfig
        IL1/L2/DRAM parameters.
    """

    technology: Union[str, MemoryTechnology] = "sram"
    frontend: str = "plain"
    dl1_capacity_bytes: int = kib(64)
    dl1_associativity: int = 2
    dl1_line_bytes: Optional[int] = None
    dl1_banks: int = 4
    dl1_replacement: str = "lru"
    vwb_bits: int = 2048
    vwb_lines: int = 2
    buffer_bits: int = 2048
    hybrid_sram_bytes: int = 8192
    il1_technology: Optional[Union[str, MemoryTechnology]] = None
    hw_prefetcher: bool = False
    dl1_fast_write_cycles: Optional[int] = None
    dl1_fast_write_fraction: float = 0.5
    track_line_writes: bool = False
    dl1_replacement_seed: int = 0
    reliability: Optional[ReliabilityConfig] = None
    cpu: CPUConfig = field(default_factory=CPUConfig)
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)

    def resolved_technology(self) -> MemoryTechnology:
        """The DL1 technology as a :class:`MemoryTechnology`."""
        if isinstance(self.technology, MemoryTechnology):
            return self.technology
        return get_technology(self.technology)

    def resolved_line_bytes(self) -> int:
        """The DL1 line size (512-bit unless overridden)."""
        if self.dl1_line_bytes is not None:
            return self.dl1_line_bytes
        return _DEFAULT_LINE_BYTES

    def dl1_cache_config(self) -> CacheConfig:
        """Derive the DL1 :class:`CacheConfig` (latencies from the tech)."""
        tech = self.resolved_technology()
        return CacheConfig(
            name="dl1",
            capacity_bytes=self.dl1_capacity_bytes,
            associativity=self.dl1_associativity,
            line_bytes=self.resolved_line_bytes(),
            read_hit_cycles=ns_to_cycles(tech.read_latency_ns),
            write_hit_cycles=ns_to_cycles(tech.write_latency_ns),
            banks=self.dl1_banks,
            replacement=self.dl1_replacement,
            replacement_seed=self.dl1_replacement_seed,
            track_line_writes=self.track_line_writes,
            fast_write_cycles=self.dl1_fast_write_cycles,
            fast_write_fraction=self.dl1_fast_write_fraction,
        )

    def with_technology(self, technology: Union[str, MemoryTechnology]) -> "SystemConfig":
        """Copy of this config with a different DL1 technology."""
        return replace(self, technology=technology)

    def resolved_hierarchy(self) -> HierarchyConfig:
        """The hierarchy config, with the IL1 re-timed if overridden."""
        if self.il1_technology is None:
            return self.hierarchy
        tech = (
            self.il1_technology
            if isinstance(self.il1_technology, MemoryTechnology)
            else get_technology(self.il1_technology)
        )
        il1 = replace(
            self.hierarchy.il1,
            read_hit_cycles=ns_to_cycles(tech.read_latency_ns),
            write_hit_cycles=ns_to_cycles(tech.write_latency_ns),
        )
        return replace(self.hierarchy, il1=il1)


def build_frontend(config: SystemConfig, backing: Cache) -> DCacheFrontend:
    """Construct the configured D-cache front-end over ``backing``."""
    kind = config.frontend.strip().lower()
    if kind == "plain":
        prefetcher = StridePrefetcher(backing) if config.hw_prefetcher else None
        return PlainFrontend(backing, hw_prefetcher=prefetcher)
    if kind == "vwb":
        vwb_config = VWBConfig(
            total_bits=config.vwb_bits,
            n_lines=config.vwb_lines,
            cache_line_bytes=backing.config.line_bytes,
        )
        return VWBFrontend(backing, vwb_config)
    if kind == "l0":
        return L0Frontend(backing, total_bits=config.buffer_bits)
    if kind == "emshr":
        return EMSHRFrontend(backing, total_bits=config.buffer_bits)
    if kind == "hybrid":
        return HybridFrontend(backing, sram_bytes=config.hybrid_sram_bytes)
    raise ConfigurationError(
        f"unknown front-end {config.frontend!r}; expected plain, vwb, l0, emshr or hybrid"
    )


class System:
    """A complete simulated platform ready to execute traces."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.hierarchy = MemoryHierarchy(config.resolved_hierarchy())
        injector: Optional[FaultInjector] = None
        if config.reliability is not None:
            injector = FaultInjector(
                config.reliability, config.resolved_line_bytes() * 8
            )
        self.dl1 = Cache(config.dl1_cache_config(), self.hierarchy.l2_port, injector)
        self.frontend = build_frontend(config, self.dl1)
        self.cpu = InOrderCPU(config.cpu, self.frontend, self.hierarchy)

    def attach_probe(self, probe: Probe) -> None:
        """Thread ``probe`` through the CPU, front-end and hierarchy."""
        self.cpu.probe = probe
        self.frontend.set_probe(probe)
        self.hierarchy.set_probe(probe)

    def run(
        self,
        events: Iterable[TraceEvent],
        reset: bool = True,
        warm_regions: Optional[Iterable] = None,
        probe: Optional[Probe] = None,
    ) -> RunResult:
        """Execute a trace.

        Parameters
        ----------
        events : iterable of TraceEvent
            The architectural event stream.
        reset : bool
            Reset all state first; pass ``False`` to keep cache
            contents from a previous run (warm caches).  The run's
            clock always restarts at zero, so timing state and
            statistics are cleared either way.
        warm_regions : iterable of (int, int), optional
            ``(base_addr, size_bytes)`` regions to stream into the L2
            before the measured run — modelling PolyBench's
            array-initialisation loops, which the paper's gem5 SE runs
            execute ahead of the kernel.  The L1 D-cache itself starts
            cold (initialisation touches far more data than it holds).
        probe : Probe, optional
            Observability probe for this run only.  It is attached
            *after* the warm-up phase (warm-up cycles are not part of
            the measured run), its ``finish`` hook runs with the result
            (verifying the cycle ledger), and the system is returned to
            the null probe before the call returns.
        """
        if reset:
            self.reset()
        else:
            # Keep contents, but stale absolute timestamps (bank busy
            # times, in-flight fills) must not leak into the new clock.
            self.hierarchy.clear_stats()
            self.frontend.clear_stats()
        if warm_regions is not None:
            self.warm_l2(warm_regions)
        if probe is not None:
            self.attach_probe(probe)
        try:
            result = self.cpu.run(events)
        finally:
            if probe is not None:
                self.attach_probe(NULL_PROBE)
        result.l2_stats = self.hierarchy.l2.stats.as_dict()
        result.il1_stats = self.hierarchy.il1.stats.as_dict()
        result.mainmem_stats = self.hierarchy.memory.stats_dict()
        result.memory_accesses = self.hierarchy.memory.accesses
        if self.dl1.reliability is not None:
            result.reliability_stats = self.dl1.reliability.stats.as_dict()
            # Per-run count (the injector's stats are cleared with the
            # rest of the run statistics), not the cumulative
            # `dl1.retired_lines` — on a warm re-run the two differ and
            # the docstring promises "during the run".
            result.retired_lines = int(self.dl1.reliability.stats.retired_lines)
        if self.dl1.config.track_line_writes:
            result.dl1_line_writes = self.dl1.line_write_counts
        if probe is not None:
            probe.finish(result)
        return result

    def warm_l2(self, regions: Iterable) -> None:
        """Stream ``(base, size)`` regions into the L2, then zero stats."""
        line = self.hierarchy.l2.config.line_bytes
        t = 0.0
        for base, size in regions:
            addr = (base // line) * line
            while addr < base + size:
                t += self.hierarchy.l2.line_access(addr, True, t)
                addr += line
        self.hierarchy.clear_stats()
        self.frontend.clear_stats()

    def reset(self) -> None:
        """Return every component to its power-on state."""
        self.hierarchy.reset()
        self.frontend.reset()

    def describe(self) -> str:
        """Human-readable one-paragraph summary of the platform."""
        tech = self.config.resolved_technology()
        dl1 = self.dl1.config
        il1 = self.hierarchy.il1.config
        l2 = self.hierarchy.l2.config
        lines = [
            f"CPU: in-order @1GHz, load-use overlap {self.config.cpu.load_use_overlap}, "
            f"store buffer {self.config.cpu.store_buffer_entries}",
            f"DL1: {dl1.capacity_bytes // 1024}KB {dl1.associativity}-way, "
            f"{dl1.line_bytes}B lines, {dl1.banks} banks, {tech.name} "
            f"(rd {dl1.read_hit_cycles} / wr {dl1.write_hit_cycles} cycles), "
            f"front-end '{self.frontend.name}'",
            f"IL1: {il1.capacity_bytes // 1024}KB {il1.associativity}-way "
            f"(rd {il1.read_hit_cycles} cycles)",
            f"L2: {l2.capacity_bytes // (1024 * 1024)}MB {l2.associativity}-way "
            f"(rd {l2.read_hit_cycles} cycles), DRAM "
            f"{self.config.hierarchy.memory_latency_cycles:.0f} cycles",
        ]
        if self.frontend.name == "vwb":
            vwb = self.frontend.vwb.config
            lines.insert(
                2,
                f"VWB: {vwb.total_bits} bits, {vwb.n_lines} lines x "
                f"{vwb.window_bytes}B windows ({vwb.lines_per_window} DL1 lines each)",
            )
        return "\n".join(lines)


def warm_regions_of(program) -> list:
    """The ``(base, size)`` regions covering a program's arrays.

    Convenience for :meth:`System.run`'s ``warm_regions`` argument; the
    program must have been laid out (done automatically by trace
    generation).
    """
    return [(a.base_addr, a.size_bytes) for a in program.arrays if a.base_addr is not None]
