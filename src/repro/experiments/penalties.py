"""All-configuration penalty table: the evaluation grid in one figure.

Runs every NVM D-cache organisation of the study (drop-in replacement,
VWB, L0 filter cache, Enhanced MSHR, hybrid partition) over the full
kernel list against the SRAM baseline and reports per-kernel penalties.
This is the suite's canonical "everything" workload: each kernel's trace
is encoded once and replayed through all six systems, which is exactly
the shape ``benchmarks/bench_trace.py`` and the ``trace-fastpath`` CI
job time — and, diffed against a committed golden table, the
bit-exactness oracle for the encoded replay path.
"""

from __future__ import annotations

from typing import Optional

from ..transforms.pipeline import OptLevel
from .report import FigureResult
from .runner import ExperimentRunner

#: The NVM organisations, in CONFIGURATIONS order (sram is the baseline).
NVM_CONFIGS = ("dropin", "vwb", "l0", "emshr", "hybrid")


def run(runner: Optional[ExperimentRunner] = None, level: OptLevel = OptLevel.NONE) -> FigureResult:
    """Per-kernel penalties of every NVM configuration vs SRAM.

    Parameters
    ----------
    runner : ExperimentRunner, optional
        Shared runner (a fresh one is built when omitted).
    level : OptLevel
        Optimization level every configuration (and the baseline) runs.

    Returns
    -------
    FigureResult
        One series per NVM configuration, one row per kernel.
    """
    runner = runner or ExperimentRunner()
    # Hand the whole grid to the engine up front: one fan-out instead
    # of per-config pairs.
    runner.prefetch(
        [(name, k, level) for name in NVM_CONFIGS for k in runner.kernels]
        + [("sram", k, level) for k in runner.kernels]
    )
    series = {name: runner.penalties(name, level) for name in NVM_CONFIGS}
    averages = {
        name: sum(vals) / len(vals) for name, vals in series.items()
    }
    best = min(averages, key=averages.get)
    return FigureResult(
        name="penalties",
        title=f"Penalty vs SRAM baseline, all NVM configurations ({level.name} code)",
        labels=list(runner.kernels),
        series=series,
        notes=[
            "every kernel trace encoded once and replayed through all six systems",
            f"lowest average penalty: {best} ({averages[best]:.1f}%)",
        ],
    )
