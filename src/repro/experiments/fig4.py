"""Figure 4: read vs write contribution to the NVM+VWB penalty.

Paper: "The read contribution far exceeds that of it's write counterpart
towards the total penalty.  With increasingly complex kernels, the write
penalty contribution also seems to increase, albeit slightly."

Method (differential latency attribution): rerun the NVM+VWB system with
the STT-MRAM *read* latency replaced by the SRAM value — the remaining
penalty is the write contribution; symmetrically for the read
contribution.  The two contributions are normalised to 100% per kernel,
matching the figure's "Relative Penalty Contribution" axis.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..cpu.system import SystemConfig
from ..tech.params import SRAM_32NM_HP, STT_MRAM_32NM
from ..transforms.pipeline import OptLevel
from .report import FigureResult
from .runner import CONFIGURATIONS, ExperimentRunner


def _hybrid_config(read_ns: float, write_ns: float) -> SystemConfig:
    tech = STT_MRAM_32NM.with_latencies(read_ns, write_ns)
    return replace(CONFIGURATIONS["vwb"], technology=tech)


def run(runner: Optional[ExperimentRunner] = None, level: OptLevel = OptLevel.NONE) -> FigureResult:
    """Relative read/write penalty contributions per kernel."""
    runner = runner or ExperimentRunner()
    sram_read = SRAM_32NM_HP.read_latency_ns
    sram_write = SRAM_32NM_HP.write_latency_ns
    nvm_read = STT_MRAM_32NM.read_latency_ns
    nvm_write = STT_MRAM_32NM.write_latency_ns

    read_only = _hybrid_config(nvm_read, sram_write)  # only reads are slow
    write_only = _hybrid_config(sram_read, nvm_write)  # only writes are slow

    runner.prefetch(
        [("sram", k, level) for k in runner.kernels]
        + [(read_only, k, level, "vwb-rdonly") for k in runner.kernels]
        + [(write_only, k, level, "vwb-wronly") for k in runner.kernels]
    )
    read_shares = []
    write_shares = []
    for kernel in runner.kernels:
        baseline = runner.run("sram", kernel, level)
        read_pen = max(0.0, runner.run(read_only, kernel, level, cache_key="vwb-rdonly").penalty_vs(baseline))
        write_pen = max(0.0, runner.run(write_only, kernel, level, cache_key="vwb-wronly").penalty_vs(baseline))
        total = read_pen + write_pen
        if total <= 0:
            read_shares.append(0.0)
            write_shares.append(0.0)
            continue
        read_shares.append(read_pen / total * 100.0)
        write_shares.append(write_pen / total * 100.0)

    avg_read = sum(read_shares) / len(read_shares)
    return FigureResult(
        name="fig4",
        title="Read vs write contribution to the NVM+VWB penalty",
        labels=list(runner.kernels),
        series={"read_share": read_shares, "write_share": write_shares},
        notes=[
            "paper: read contribution far exceeds write; write share grows "
            "slightly with kernel complexity",
            f"measured: average read share {avg_read:.1f}%",
        ],
    )
