"""Experiment harness: one module per table/figure of the paper.

Every experiment exposes ``run(runner=None, **options) -> FigureResult``
and is registered in :data:`EXPERIMENTS` for the CLI
(``python -m repro <name>``) and the benchmark suite.

The shared :class:`~repro.experiments.runner.ExperimentRunner` hands
every simulation to an :class:`~repro.exec.engine.ExecutionEngine` as
a :class:`~repro.exec.point.RunPoint`; traces are memoised per process,
so regenerating the full evaluation costs one trace generation per
(kernel, optimization level).  A parallel engine fans each figure's
independent points across worker processes and replays unchanged
points from its content-addressed run cache (``python -m repro all
--jobs 4``) — results are bit-identical to the serial path either way.
"""

from .runner import ExperimentRunner, CONFIGURATIONS, make_system
from .report import FigureResult, render_figure
from . import table1, fig1, fig3, fig4, fig5, fig6, fig7, fig8, fig9
from . import ablations, energy, penalties, reliability, summary, validate

#: Registry: experiment name -> callable(runner=None) -> FigureResult.
EXPERIMENTS = {
    "table1": table1.run,
    "fig1": fig1.run,
    "fig3": fig3.run,
    "fig4": fig4.run,
    "fig5": fig5.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "penalties": penalties.run,
    "ablation-banks": ablations.run_bank_sweep,
    "ablation-promotion": ablations.run_promotion_width_sweep,
    "ablation-prefetch": ablations.run_prefetch_distance_sweep,
    "ablation-replacement": ablations.run_replacement_sweep,
    "ablation-datasets": ablations.run_dataset_sweep,
    "ablation-linesize": ablations.run_line_size_study,
    "ablation-hybrid": ablations.run_hybrid_comparison,
    "ablation-icache": ablations.run_nvm_icache,
    "ablation-latency": ablations.run_latency_sensitivity,
    "ablation-hwprefetch": ablations.run_hw_prefetch_comparison,
    "ablation-interchange": ablations.run_interchange_study,
    "ablation-aware": ablations.run_aware_writes,
    "ablation-dram": ablations.run_dram_model_study,
    "energy": energy.run,
    "endurance": energy.run_endurance,
    "reliability": reliability.run,
    "validate": validate.run,
    "summary": summary.run,
}

__all__ = [
    "ExperimentRunner",
    "CONFIGURATIONS",
    "make_system",
    "FigureResult",
    "render_figure",
    "EXPERIMENTS",
]
