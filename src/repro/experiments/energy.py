"""Energy and endurance extensions (the paper's deferred power models).

The paper argues qualitatively that the STT-MRAM DL1 wins on leakage and
total energy ("power models have yet to be fully developed though").
These experiments quantify the claim with the analytic array model:

- :func:`run` — per-kernel DL1 energy (dynamic + leakage) for the SRAM
  baseline vs the NVM+VWB proposal;
- :func:`run_endurance` — lifetime of the STT-MRAM array under the
  kernel's write traffic, reproducing the Section II endurance argument
  against ReRAM/PRAM.
"""

from __future__ import annotations

from typing import Optional

from ..mem.cache import CacheConfig
from ..tech.array_model import ArrayGeometry, estimate_array
from ..tech.endurance import EnduranceModel
from ..tech.energy import EnergyLedger
from ..tech.params import RERAM_32NM, PRAM_32NM, SRAM_32NM_HP, STT_MRAM_32NM
from ..cpu.model import RunResult
from ..cpu.system import SystemConfig
from ..transforms.pipeline import OptLevel
from .report import FigureResult
from .runner import CONFIGURATIONS, ExperimentRunner


def _dl1_energy_nj(result: RunResult, config: SystemConfig) -> float:
    """Price a run's DL1 activity under its technology."""
    tech = config.resolved_technology()
    cache_config: CacheConfig = config.dl1_cache_config()
    geometry = ArrayGeometry(
        capacity_bytes=cache_config.capacity_bytes,
        associativity=cache_config.associativity,
        line_bytes=cache_config.line_bytes,
        banks=cache_config.banks,
    )
    estimate = estimate_array(tech, geometry)
    ledger = EnergyLedger()
    ledger.register("dl1", estimate)
    stats = result.dl1_stats
    reads = stats["read_hits"] + stats["read_misses"]
    writes = stats["write_hits"] + stats["write_misses"] + stats["fills"]
    ledger.count_read("dl1", reads)
    ledger.count_write("dl1", writes)
    return ledger.report(elapsed_ns=result.cycles).total_nj


def run(runner: Optional[ExperimentRunner] = None, level: OptLevel = OptLevel.FULL) -> FigureResult:
    """DL1 energy (nJ) per kernel: SRAM baseline vs NVM+VWB proposal."""
    runner = runner or ExperimentRunner()
    sram_nj = []
    nvm_nj = []
    for kernel in runner.kernels:
        sram_result = runner.run("sram", kernel, level)
        nvm_result = runner.run("vwb", kernel, level)
        sram_nj.append(_dl1_energy_nj(sram_result, CONFIGURATIONS["sram"]))
        nvm_nj.append(_dl1_energy_nj(nvm_result, CONFIGURATIONS["vwb"]))
    ratio = sum(sram_nj) / max(1e-9, sum(nvm_nj))
    return FigureResult(
        name="energy",
        title="DL1 energy per kernel run (dynamic + leakage)",
        labels=list(runner.kernels),
        series={"sram_nj": sram_nj, "nvm_vwb_nj": nvm_nj},
        unit="nJ",
        notes=[
            "paper (qualitative): NVM DL1 gains in energy, dominated by leakage",
            f"measured: SRAM consumes {ratio:.2f}x the NVM+VWB DL1 energy overall",
        ],
    )


def run_endurance(
    runner: Optional[ExperimentRunner] = None, level: OptLevel = OptLevel.NONE
) -> FigureResult:
    """Worst-line lifetime (years) of candidate NVM DL1 technologies.

    Reproduces the Section II argument: STT-MRAM's ~1e15 write endurance
    survives L1 write traffic for decades; ReRAM/PRAM do not.
    """
    runner = runner or ExperimentRunner()
    technologies = (STT_MRAM_32NM, RERAM_32NM, PRAM_32NM)
    series = {tech.name: [] for tech in technologies}
    config = SystemConfig(technology="stt-mram", frontend="vwb", track_line_writes=True)
    runner.prefetch([(config, k, level, "vwb+line-writes") for k in runner.kernels])
    for kernel in runner.kernels:
        result = runner.run(config, kernel, level, cache_key="vwb+line-writes")
        elapsed_s = result.cycles * 1e-9  # 1 GHz
        for tech in technologies:
            estimate = EnduranceModel(tech).estimate(result.dl1_line_writes, elapsed_s)
            years = estimate.lifetime_years_worst
            series[tech.name].append(min(years, 1e6))
    return FigureResult(
        name="endurance",
        title="Worst-line DL1 lifetime under kernel write traffic (capped at 1e6)",
        labels=list(runner.kernels),
        series=series,
        unit="years",
        notes=[
            "paper (Section II): STT-MRAM endurance ~1e15 writes vs 1e9-1e11 "
            "for PRAM/ReRAM rules the latter out at L1",
        ],
    )
