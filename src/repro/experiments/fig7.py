"""Figure 7: effect of the VWB size (1/2/4 Kbit) on the penalty.

Paper: "larger size VWB's help in reducing the penalty more ... However,
a limit is present to the VWB size put forward by technology, circuit
level aspects cost and energy ... we found it ideal to keep the size of
the VWB to around 2KBit."

The sweep keeps the paper's two-line organisation and widens the lines
(1 Kbit VWB = two 512-bit lines, one DL1 line each; 4 Kbit = two 2-Kbit
lines spanning four DL1 lines each).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from ..transforms.pipeline import OptLevel
from .report import FigureResult
from .runner import CONFIGURATIONS, ExperimentRunner

#: VWB capacities swept by the paper.
SIZES_BITS = (1024, 2048, 4096)


def run(
    runner: Optional[ExperimentRunner] = None,
    sizes_bits: Sequence[int] = SIZES_BITS,
    level: OptLevel = OptLevel.FULL,
) -> FigureResult:
    """Optimized NVM+VWB penalty per kernel for each VWB capacity."""
    runner = runner or ExperimentRunner()
    configs = {bits: replace(CONFIGURATIONS["vwb"], vwb_bits=bits) for bits in sizes_bits}
    runner.prefetch(
        [("sram", k, level) for k in runner.kernels]
        + [(configs[bits], k, level, f"vwb{bits}") for bits in sizes_bits for k in runner.kernels]
    )
    series = {}
    for bits, config in configs.items():
        series[f"vwb_{bits//1024}kbit"] = [
            runner.penalty(config, kernel, level, cache_key=f"vwb{bits}")
            for kernel in runner.kernels
        ]
    averages = {key: sum(vals) / len(vals) for key, vals in series.items()}
    ordered = list(averages.values())
    monotone = all(a >= b for a, b in zip(ordered, ordered[1:]))
    return FigureResult(
        name="fig7",
        title="Penalty of the optimized proposal for different VWB sizes",
        labels=list(runner.kernels),
        series=series,
        notes=[
            "paper: bigger VWBs reduce the penalty more; 2 Kbit chosen as the "
            "sweet spot given area/energy/associative-search limits",
            "measured averages: "
            + ", ".join(f"{k}={v:.1f}%" for k, v in averages.items())
            + (" (monotone)" if monotone else " (NOT monotone)"),
        ],
    )
