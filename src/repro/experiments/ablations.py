"""Design-choice ablations extending the paper's exploration.

Each ablation probes one modelling/design decision DESIGN.md calls out:

- bank count of the NVM array (the paper's conflict-stall argument);
- promotion width (wide lines per VWB window);
- software-prefetch look-ahead distance;
- DL1 replacement policy;
- dataset scaling (the paper's extrapolation claim);
- Table I's 256-bit SRAM line vs the matched 512-bit line.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from ..transforms.branchopt import BranchOptimize
from ..transforms.prefetch import InsertPrefetch
from ..transforms.vectorize import Vectorize
from ..transforms.pipeline import OptLevel
from ..workloads.datasets import DatasetSize
from .report import FigureResult
from .runner import CONFIGURATIONS, ExperimentRunner

__all__ = [
    "run_bank_sweep",
    "run_promotion_width_sweep",
    "run_prefetch_distance_sweep",
    "run_replacement_sweep",
    "run_dataset_sweep",
    "run_hybrid_comparison",
    "run_nvm_icache",
    "run_hw_prefetch_comparison",
    "run_latency_sensitivity",
    "run_interchange_study",
    "run_aware_writes",
    "run_line_size_study",
]


def run_bank_sweep(
    runner: Optional[ExperimentRunner] = None, banks: Sequence[int] = (1, 2, 4, 8)
) -> FigureResult:
    """How much does banking the NVM array hide promotion conflicts?"""
    runner = runner or ExperimentRunner()
    series = {}
    for n in banks:
        config = replace(CONFIGURATIONS["vwb"], dl1_banks=n)
        series[f"{n}_banks"] = [
            runner.penalty(config, k, OptLevel.FULL, cache_key=f"banks{n}")
            for k in runner.kernels
        ]
    avgs = {k: sum(v) / len(v) for k, v in series.items()}
    return FigureResult(
        name="ablation-banks",
        title="Optimized NVM+VWB penalty vs NVM array bank count",
        labels=list(runner.kernels),
        series=series,
        notes=["averages: " + ", ".join(f"{k}={v:.1f}%" for k, v in avgs.items())],
    )


def run_promotion_width_sweep(
    runner: Optional[ExperimentRunner] = None, lines: Sequence[int] = (2, 4)
) -> FigureResult:
    """Sensitivity to the number of VWB wide lines at fixed capacity."""
    runner = runner or ExperimentRunner()
    series = {}
    for n in lines:
        config = replace(CONFIGURATIONS["vwb"], vwb_lines=n)
        series[f"{n}_lines"] = [
            runner.penalty(config, k, OptLevel.FULL, cache_key=f"vwblines{n}")
            for k in runner.kernels
        ]
    avgs = {k: sum(v) / len(v) for k, v in series.items()}
    return FigureResult(
        name="ablation-promotion",
        title="Optimized NVM+VWB penalty vs wide-line count (2 Kbit total)",
        labels=list(runner.kernels),
        series=series,
        notes=[
            "more, narrower lines trade promotion width for associativity",
            "averages: " + ", ".join(f"{k}={v:.1f}%" for k, v in avgs.items()),
        ],
    )


def run_prefetch_distance_sweep(
    runner: Optional[ExperimentRunner] = None,
    ahead_bytes: Sequence[int] = (32, 64, 128, 256),
) -> FigureResult:
    """How far ahead must software prefetch run?

    Each look-ahead is a variant of the untransformed kernel (the full
    pipeline with that prefetch distance), against the FULL SRAM baseline.
    """
    runner = runner or ExperimentRunner()
    series = {}
    for ahead in ahead_bytes:
        passes = (InsertPrefetch(ahead_bytes=ahead), Vectorize(), BranchOptimize())
        series[f"ahead_{ahead}B"] = runner.penalties(
            CONFIGURATIONS["vwb"],
            OptLevel.NONE,
            baseline_level=OptLevel.FULL,
            cache_key=f"vwb+ahead{ahead}B",
            passes=passes,
        )
    avgs = {k: sum(v) / len(v) for k, v in series.items()}
    return FigureResult(
        name="ablation-prefetch",
        title="Optimized NVM+VWB penalty vs prefetch look-ahead",
        labels=list(runner.kernels),
        series=series,
        notes=["averages: " + ", ".join(f"{k}={v:.1f}%" for k, v in avgs.items())],
    )


def run_replacement_sweep(
    runner: Optional[ExperimentRunner] = None,
    policies: Sequence[str] = ("lru", "plru", "fifo", "random"),
    seed: int = 0,
) -> FigureResult:
    """DL1 replacement policy sensitivity for the NVM+VWB system.

    ``seed`` feeds the ``random`` policy's generator (through
    :func:`repro.reliability.rng.make_rng`); the deterministic policies
    ignore it.
    """
    runner = runner or ExperimentRunner()
    series = {}
    for policy in policies:
        config = replace(
            CONFIGURATIONS["vwb"], dl1_replacement=policy, dl1_replacement_seed=seed
        )
        series[policy] = [
            runner.penalty(config, k, OptLevel.FULL, cache_key=f"repl-{policy}-{seed}")
            for k in runner.kernels
        ]
    avgs = {k: sum(v) / len(v) for k, v in series.items()}
    return FigureResult(
        name="ablation-replacement",
        title="Optimized NVM+VWB penalty vs DL1 replacement policy",
        labels=list(runner.kernels),
        series=series,
        notes=["averages: " + ", ".join(f"{k}={v:.1f}%" for k, v in avgs.items())],
    )


def run_dataset_sweep(
    runner: Optional[ExperimentRunner] = None,
    sizes: Sequence[DatasetSize] = (DatasetSize.MINI, DatasetSize.SMALL),
    kernels: Optional[Sequence[str]] = None,
) -> FigureResult:
    """Does the conclusion extrapolate to larger kernels (paper Sec. VI)?

    Uses a kernel subset by default: the SMALL datasets multiply trip
    counts by up to 8x and this ablation exists to check the *trend*.
    """
    runner = runner or ExperimentRunner()
    base_kernels = list(kernels) if kernels else ["gemm", "atax", "mvt", "2mm"]
    series = {}
    labels = base_kernels
    for size in sizes:
        sized_runner = runner.scoped(kernels=base_kernels, size=size)
        series[size.name.lower()] = sized_runner.penalties("vwb", OptLevel.FULL)
    avgs = {k: sum(v) / len(v) for k, v in series.items()}
    return FigureResult(
        name="ablation-datasets",
        title="Optimized NVM+VWB penalty vs dataset size",
        labels=labels,
        series=series,
        notes=[
            "paper claims the penalty reduction extrapolates to larger kernels",
            "averages: " + ", ".join(f"{k}={v:.1f}%" for k, v in avgs.items()),
        ],
    )


def run_latency_sensitivity(
    runner: Optional[ExperimentRunner] = None,
    factors: Sequence[float] = (1.0, 0.5, 0.25),
) -> FigureResult:
    """Read- vs write-latency sensitivity of the drop-in NVM DL1.

    Section II: "the write latency oriented techniques do not lead to
    good results and they do not really mitigate the real latency
    penalty".  This ablation makes the claim quantitative: halving or
    quartering the STT-MRAM *write* latency (what an AWARE-style
    asymmetric-write scheme, ref [1], buys) barely moves the drop-in
    penalty, while the same scaling of the *read* latency removes most
    of it.
    """
    from ..tech.params import STT_MRAM_32NM

    runner = runner or ExperimentRunner()
    series = {}
    for factor in factors:
        write_tech = STT_MRAM_32NM.with_latencies(
            STT_MRAM_32NM.read_latency_ns, STT_MRAM_32NM.write_latency_ns * factor
        )
        read_tech = STT_MRAM_32NM.with_latencies(
            max(0.787, STT_MRAM_32NM.read_latency_ns * factor), STT_MRAM_32NM.write_latency_ns
        )
        write_cfg = replace(CONFIGURATIONS["dropin"], technology=write_tech)
        read_cfg = replace(CONFIGURATIONS["dropin"], technology=read_tech)
        series[f"write_x{factor:g}"] = [
            runner.penalty(write_cfg, k, OptLevel.NONE, cache_key=f"wr{factor}")
            for k in runner.kernels
        ]
        series[f"read_x{factor:g}"] = [
            runner.penalty(read_cfg, k, OptLevel.NONE, cache_key=f"rd{factor}")
            for k in runner.kernels
        ]
    avgs = {k: sum(v) / len(v) for k, v in series.items()}
    return FigureResult(
        name="ablation-latency",
        title="Drop-in penalty under read- vs write-latency scaling",
        labels=list(runner.kernels),
        series=series,
        notes=[
            "write-oriented mitigation (AWARE-style) barely moves the "
            "penalty; read scaling removes most of it — Section II's claim",
            "averages: " + ", ".join(f"{k}={v:.1f}%" for k, v in avgs.items()),
        ],
    )


def run_aware_writes(runner: Optional[ExperimentRunner] = None) -> FigureResult:
    """AWARE asymmetric-write acceleration on the drop-in NVM cache.

    Implements the actual mechanism of reference [1] (half the array
    writes complete in one cycle through the redundant block) rather
    than just scaling latencies: even with it enabled, the drop-in
    penalty barely moves, because the paper's workloads are
    read-latency-bound — the VWB row is shown for scale.
    """
    runner = runner or ExperimentRunner()
    dropin = runner.penalties("dropin", OptLevel.NONE)
    vwb = runner.penalties("vwb", OptLevel.NONE)
    aware_cfg = replace(
        CONFIGURATIONS["dropin"], dl1_fast_write_cycles=1, dl1_fast_write_fraction=0.5
    )
    aware = [
        runner.penalty(aware_cfg, k, OptLevel.NONE, cache_key="dropin-aware")
        for k in runner.kernels
    ]
    avg = lambda xs: sum(xs) / len(xs)  # noqa: E731 - local reducer
    return FigureResult(
        name="ablation-aware",
        title="AWARE asymmetric-write acceleration on the drop-in NVM DL1",
        labels=list(runner.kernels),
        series={"dropin": dropin, "dropin_aware": aware, "vwb": vwb},
        notes=[
            "write acceleration recovers almost nothing: the workloads are "
            "read-latency-bound (Section II's argument, by mechanism)",
            f"averages: dropin {avg(dropin):.1f}%, +AWARE {avg(aware):.1f}%, "
            f"vwb {avg(vwb):.1f}%",
        ],
    )


def run_hybrid_comparison(runner: Optional[ExperimentRunner] = None) -> FigureResult:
    """The VWB vs a classic hybrid SRAM/NVM organisation (Section II).

    The hybrid's 8 KB SRAM partition is 32x the VWB's 2 Kbit: the
    comparison shows what the VWB's wide, software-managed organisation
    buys per bit of fast storage.
    """
    runner = runner or ExperimentRunner()
    vwb = runner.penalties("vwb", OptLevel.FULL)
    hybrid = runner.penalties("hybrid", OptLevel.FULL)
    dropin = runner.penalties("dropin", OptLevel.FULL)
    avg = lambda xs: sum(xs) / len(xs)  # noqa: E731 - local reducer
    return FigureResult(
        name="ablation-hybrid",
        title="VWB (2 Kbit) vs hybrid SRAM partition (8 KB) over the NVM DL1",
        labels=list(runner.kernels),
        series={"vwb": vwb, "hybrid_8kb": hybrid, "dropin": dropin},
        notes=[
            "the hybrid buys a similar shield with ~32x the fast-storage bits",
            f"averages: vwb {avg(vwb):.1f}%, hybrid {avg(hybrid):.1f}%, "
            f"dropin {avg(dropin):.1f}%",
        ],
    )


def run_nvm_icache(
    runner: Optional[ExperimentRunner] = None, kernels: Optional[Sequence[str]] = None
) -> FigureResult:
    """NVM instruction cache exploration (the DATE'14 companion study).

    Enables instruction-fetch modelling and swaps the IL1 technology;
    the paper keeps the IL1 SRAM in all its experiments, noting that
    I-caches are even more read-critical than D-caches.
    """
    from ..cpu.model import CPUConfig

    base_kernels = list(kernels) if kernels else ["gemm", "atax", "trmm"]
    scoped = (runner or ExperimentRunner()).scoped(kernels=base_kernels)
    cpu = CPUConfig(model_ifetch=True)
    sram_il1 = replace(CONFIGURATIONS["sram"], cpu=cpu)
    nvm_il1 = replace(CONFIGURATIONS["sram"], cpu=cpu, il1_technology="stt-mram")
    penalties = []
    for kernel in base_kernels:
        base = scoped.run(sram_il1, kernel, OptLevel.NONE, cache_key="ifetch-sram")
        nvm = scoped.run(nvm_il1, kernel, OptLevel.NONE, cache_key="ifetch-nvm")
        penalties.append(nvm.penalty_vs(base))
    return FigureResult(
        name="ablation-icache",
        title="Drop-in NVM instruction cache penalty (i-fetch modelled)",
        labels=base_kernels,
        series={"nvm_il1": penalties},
        notes=[
            "every fetch group pays the NVM array read even though the loops "
            "are IL1-resident — the read-latency problem the DATE'14 EMSHR "
            "companion paper attacks on the I-cache side",
        ],
    )


def run_hw_prefetch_comparison(runner: Optional[ExperimentRunner] = None) -> FigureResult:
    """Hardware stride prefetching vs the paper's software approach.

    A stride prefetcher on the drop-in NVM cache hides L2/DRAM miss
    latency but fills through the *same* NVM array — every demand read
    still pays the 4-cycle array access, so the drop-in penalty barely
    moves.  The software-prefetched VWB stages data in 1-cycle buffer
    cells, which is why the paper's combination wins.
    """
    runner = runner or ExperimentRunner()
    dropin = runner.penalties("dropin", OptLevel.NONE)
    hwpf_cfg = replace(CONFIGURATIONS["dropin"], hw_prefetcher=True)
    dropin_hwpf = [
        runner.penalty(hwpf_cfg, k, OptLevel.NONE, cache_key="dropin-hwpf")
        for k in runner.kernels
    ]
    vwb_swpf = runner.penalties("vwb", OptLevel.PREFETCH)
    avg = lambda xs: sum(xs) / len(xs)  # noqa: E731 - local reducer
    return FigureResult(
        name="ablation-hwprefetch",
        title="Drop-in + HW stride prefetcher vs VWB + SW prefetch",
        labels=list(runner.kernels),
        series={
            "dropin": dropin,
            "dropin_hw_prefetch": dropin_hwpf,
            "vwb_sw_prefetch": vwb_swpf,
        },
        notes=[
            "HW prefetching cannot remove the NVM read-hit latency; "
            "SW prefetch into the VWB can",
            f"averages: dropin {avg(dropin):.1f}%, +hwpf {avg(dropin_hwpf):.1f}%, "
            f"vwb+swpf {avg(vwb_swpf):.1f}%",
        ],
    )


def run_interchange_study(
    runner: Optional[ExperimentRunner] = None, kernels: Optional[Sequence[str]] = None
) -> FigureResult:
    """Loop interchange as a fourth transformation (extension).

    Applies :class:`~repro.transforms.interchange.Interchange` before the
    full pipeline on kernels whose author-marked permutable nests allow
    it, and measures what it adds over the paper's three transformations.
    """
    from ..transforms.interchange import Interchange

    base_kernels = list(kernels) if kernels else ["gemm", "syrk", "syr2k"]
    scoped = (runner or ExperimentRunner()).scoped(kernels=base_kernels)
    without = scoped.penalties("vwb", OptLevel.FULL)
    with_ic = scoped.penalties(
        CONFIGURATIONS["vwb"], OptLevel.FULL, cache_key="vwb+interchange", passes=(Interchange(),)
    )
    return FigureResult(
        name="ablation-interchange",
        title="Adding loop interchange to the transformation pipeline",
        labels=base_kernels,
        series={"full": without, "full_plus_interchange": with_ic},
        notes=[
            "the paper's kernels are already written stride-friendly, so "
            "interchange is mostly a no-op here; it matters for "
            "column-major-authored code",
        ],
    )


def run_dram_model_study(
    runner: Optional[ExperimentRunner] = None, kernels: Optional[Sequence[str]] = None
) -> FigureResult:
    """Flat-latency vs banked row-buffer DRAM (modelling-fidelity probe).

    The reproduced figures use the flat model (the kernels are L2-warm,
    so DRAM detail is irrelevant there); this ablation re-runs the main
    comparison on open-page banked DRAM and checks the conclusions are
    insensitive to the choice.
    """
    from ..mem.hierarchy import HierarchyConfig

    base_kernels = list(kernels) if kernels else ["gemm", "atax", "2mm"]
    scoped = (runner or ExperimentRunner()).scoped(kernels=base_kernels)
    banked = HierarchyConfig(memory_model="banked")
    banked_sram = replace(CONFIGURATIONS["sram"], hierarchy=banked)

    def _banked_penalties(config_name: str, cache_key: str):
        values = []
        for k in base_kernels:
            run = scoped.run(
                replace(CONFIGURATIONS[config_name], hierarchy=banked),
                k,
                OptLevel.NONE,
                cache_key=cache_key,
            )
            # The baseline must use the same DRAM model.
            baseline = scoped.run(banked_sram, k, OptLevel.NONE, cache_key="sram-bankeddram")
            values.append(run.penalty_vs(baseline))
        return values

    series = {
        "dropin_flat": scoped.penalties("dropin", OptLevel.NONE),
        "dropin_banked": _banked_penalties("dropin", "dropin-bankeddram"),
        "vwb_flat": scoped.penalties("vwb", OptLevel.NONE),
        "vwb_banked": _banked_penalties("vwb", "vwb-bankeddram"),
    }
    avgs = {k: sum(v) / len(v) for k, v in series.items()}
    return FigureResult(
        name="ablation-dram",
        title="Flat vs banked row-buffer DRAM under the main comparison",
        labels=base_kernels,
        series=series,
        notes=[
            "with the paper's L2-warm setup the kernels never reach DRAM, "
            "so the penalties are insensitive to the DRAM model — the "
            "figures' flat-latency choice is validated",
            "averages: " + ", ".join(f"{k}={v:.1f}%" for k, v in avgs.items()),
        ],
    )


def run_line_size_study(runner: Optional[ExperimentRunner] = None) -> FigureResult:
    """Table I's 256-bit SRAM line vs the matched 512-bit baseline."""
    runner = runner or ExperimentRunner()
    sram32 = replace(CONFIGURATIONS["sram"], dl1_line_bytes=32)
    penalties_matched = runner.penalties("dropin", OptLevel.NONE)
    penalties_t1 = []
    for kernel in runner.kernels:
        base = runner.run(sram32, kernel, OptLevel.NONE, cache_key="sram32")
        penalties_t1.append(runner.run("dropin", kernel, OptLevel.NONE).penalty_vs(base))
    return FigureResult(
        name="ablation-linesize",
        title="Drop-in penalty vs 512-bit-line and Table-I 256-bit-line SRAM baselines",
        labels=list(runner.kernels),
        series={
            "vs_512bit_sram": penalties_matched,
            "vs_256bit_sram": penalties_t1,
        },
        notes=[
            "the 256-bit SRAM baseline fetches half as much per miss, so the "
            "NVM's wide line wins back part of the penalty",
        ],
    )
