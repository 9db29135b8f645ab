"""Simulation points: the unit of work the execution engine schedules.

A :class:`RunPoint` is one fully-specified, independent simulation —
``(kernel, system configuration, optimization level, dataset size)``,
with any fault-injection seed carried inside the configuration's
:class:`~repro.reliability.faults.ReliabilityConfig`.  Points are plain
frozen dataclasses so they pickle cheaply across worker-process
boundaries, and :func:`execute_point` is a module-level function so the
:mod:`concurrent.futures` machinery can address it by name.

:func:`execute_point` reproduces *exactly* the recipe
:meth:`repro.experiments.runner.ExperimentRunner.run` uses — build the
kernel at the requested size, optimize, encode the trace, warm the
L2 with the program's arrays, simulate — so a point executed in a worker
process is bit-identical to the same point executed inline (pinned by
``tests/test_exec.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..cpu.model import RunResult
from ..cpu.system import System, SystemConfig, warm_regions_of
from ..transforms.pipeline import OptLevel, optimize
from ..workloads import build_kernel
from ..workloads.datasets import DatasetSize
from ..workloads.encode import EncodedTrace, encode_trace

#: Per-process memo of built programs and encoded traces, keyed by
#: ``(kernel, size, level)``.  A worker that executes several points of
#: the same kernel (one per configuration, the common batch shape)
#: encodes the trace once; sharing is safe because ``System.run`` never
#: mutates events and ``optimize`` clones before annotating — exactly
#: the sharing ``ExperimentRunner`` does on the serial path.  The
#: columnar form keeps the per-process footprint small under large
#: ``--jobs`` fan-outs (every worker holds its own memo).
_PROGRAMS: Dict[Tuple[str, DatasetSize, OptLevel], object] = {}
_TRACES: Dict[Tuple[str, DatasetSize, OptLevel], EncodedTrace] = {}


@dataclass(frozen=True)
class RunPoint:
    """One independent simulation of the evaluation grid.

    Parameters
    ----------
    kernel : str
        Kernel name from the PolyBench registry.
    config : SystemConfig
        The complete platform configuration.  Reliability seeds live in
        ``config.reliability``; the DL1 replacement seed in
        ``config.dl1_replacement_seed``.
    level : OptLevel
        Code optimization level applied before tracing.
    size : DatasetSize
        Dataset size class of the kernel.
    label : str
        Display name for progress reporting and probe events (defaults
        to ``kernel/frontend/level``).
    """

    kernel: str
    config: SystemConfig
    level: OptLevel = OptLevel.NONE
    size: DatasetSize = DatasetSize.MINI
    label: str = field(default="", compare=False)

    def display(self) -> str:
        """Progress label — ``label`` or ``kernel/frontend/level``.

        Returns
        -------
        str
            The human-readable identity of this point.
        """
        if self.label:
            return self.label
        return f"{self.kernel}/{self.config.frontend}/{self.level.name}"


def build_point_program(point: RunPoint):
    """Build (and optimize) the IR program a point simulates.

    Parameters
    ----------
    point : RunPoint
        The simulation point.

    Returns
    -------
    repro.workloads.ir.Program
        The kernel at ``point.size`` with ``point.level`` transforms
        applied — the exact program :func:`execute_point` traces, and
        the IR the cache key fingerprints.
    """
    key = (point.kernel, point.size, point.level)
    if key not in _PROGRAMS:
        program = build_kernel(point.kernel, point.size)
        if point.level is not OptLevel.NONE:
            program = optimize(program, point.level)
        _PROGRAMS[key] = program
    return _PROGRAMS[key]


def _point_trace(point: RunPoint) -> EncodedTrace:
    """The encoded trace for a point, memoised per process."""
    key = (point.kernel, point.size, point.level)
    if key not in _TRACES:
        _TRACES[key] = encode_trace(build_point_program(point))
    return _TRACES[key]


def execute_point(point: RunPoint) -> RunResult:
    """Simulate one point from scratch (worker-process entry point).

    Mirrors ``ExperimentRunner.run`` step for step: the L2 is pre-warmed
    with the program's arrays (PolyBench initialisation) and the DL1
    starts cold.  The function rebuilds all state locally, so it is safe
    to call concurrently from any number of processes.

    Parameters
    ----------
    point : RunPoint
        The simulation point.

    Returns
    -------
    RunResult
        The timing result, bit-identical to an inline
        ``ExperimentRunner.run`` of the same point.
    """
    program = build_point_program(point)
    trace = _point_trace(point)
    system = System(point.config)
    return system.run(trace, warm_regions=warm_regions_of(program))

