"""Reliability sweep: performance cost of tolerating STT-MRAM write errors.

STT-MRAM writes are stochastic — a pulse fails to switch the cell with a
probability set by the thermal stability factor and the write current
(see :meth:`repro.tech.params.MemoryTechnology.write_error_rate`).  A
deployable NVM DL1 therefore pairs the paper's latency story with a
fault-tolerance stack: write-verify-retry, SECDED on reads, and
retirement of worn line slots.  None of that is free, and the cost lands
exactly where the paper's architectures differ — retries lengthen the
array-write occupancy that the VWB was designed to hide.

This experiment sweeps the raw bit error rate and reports, per
configuration, the penalty against the fault-free SRAM baseline (the
Figure 5 metric with reliability overhead stacked on the technology
penalty).  At realistic rber (~1e-5, the thermal model's prediction for
the Table I cell) the overhead is the fixed SECDED decode adder plus a
negligible retry tail; the curve bends once multi-retry writes become
common enough to back-pressure the store buffer.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .report import FigureResult
from .runner import ExperimentRunner, resolve_config_name

#: Swept raw bit error rates: from the thermal model's nominal
#: prediction up to a deliberately pathological tail.
DEFAULT_RATES: Sequence[float] = (1e-5, 1e-4, 1e-3, 1e-2)


def run(
    runner: Optional[ExperimentRunner] = None,
    kernel: str = "gemm",
    rates: Sequence[float] = DEFAULT_RATES,
    configs: Sequence[str] = ("dropin", "vwb"),
    seed: int = 0,
) -> FigureResult:
    """Reliability penalty curves for one kernel, drop-in vs VWB.

    Parameters
    ----------
    runner : ExperimentRunner, optional
        Shared experiment runner (a fresh one by default); a parallel
        execution engine fans the whole rber grid out at once.
    kernel : str
        Kernel to sweep.
    rates : sequence of float
        Raw per-bit write error rates.
    configs : sequence of str
        Configuration names/aliases to compare.
    seed : int
        Fault-injection seed.

    Returns
    -------
    FigureResult
        One penalty curve per configuration, in ``rates`` order.
    """
    runner = runner if runner is not None else ExperimentRunner()
    names = [resolve_config_name(c) for c in configs]
    curves = runner.reliability_sweep(kernel, rates, names, seed=seed)
    return FigureResult(
        name="reliability",
        title=f"{kernel}: penalty vs SRAM across write raw bit error rate",
        labels=[f"rber={rate:g}" for rate in rates],
        series={name: curves[name] for name in names},
        unit="%",
        notes=[
            "fault model: stochastic write failures + write-verify-retry, "
            "SECDED decode on reads, line retirement at defaults",
            "penalties vs the fault-free SRAM baseline (Figure 5 metric); "
            f"fault seed {seed}",
        ],
        average_row=False,
    )
