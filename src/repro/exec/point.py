"""Simulation points: the unit of work the execution engine schedules.

A :class:`RunPoint` is one fully-specified, independent simulation —
``(kernel, system configuration, optimization level, dataset size,
extra passes)``, with any fault-injection seed carried inside the
configuration's :class:`~repro.reliability.faults.ReliabilityConfig`.
Points are plain frozen dataclasses so they pickle cheaply across
worker-process boundaries, and :func:`execute_point` is a module-level
function so the :mod:`concurrent.futures` machinery can address it by
name.

Every simulation of the experiment layer is a point:
:class:`~repro.experiments.runner.ExperimentRunner` hands each one to
an :class:`~repro.exec.engine.ExecutionEngine` (sanitized runs replay
the same point material in-process), so a point executed in a worker
process is bit-identical to the same point executed inline (pinned by
``tests/test_exec.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..cpu.model import RunResult
from ..cpu.system import System, SystemConfig, warm_regions_of
from ..transforms.base import Transform, apply_all
from ..transforms.pipeline import OptLevel, optimize
from ..workloads import build_kernel
from ..workloads.datasets import DatasetSize
from ..workloads.encode import EncodedTrace, encode_trace

#: A point's workload: ``(kernel, size, level, passes)``.
Workload = Tuple[str, DatasetSize, OptLevel, Tuple[Transform, ...]]

#: Per-process memo of built programs and encoded traces, keyed by
#: :data:`Workload`.  A process that executes several points of the
#: same kernel (one per configuration, the common batch shape) encodes
#: the trace once; sharing is safe because ``System.run`` never mutates
#: events and every transform clones before annotating.  Transforms
#: compare by value, so equal pass lists share one entry.  The columnar
#: form keeps the per-process footprint small under large ``--jobs``
#: fan-outs (every worker holds its own memo).
_PROGRAMS: Dict[Workload, object] = {}
_TRACES: Dict[Workload, EncodedTrace] = {}


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
    passes : tuple of Transform
        Extra IR passes applied after ``level`` — a program variant
        such as a prefetch look-ahead or loop interchange (default none).
    label : str
        Display name for progress reporting and probe events (defaults
        to ``kernel/frontend/level``).
    """

    kernel: str
    config: SystemConfig
    level: OptLevel = OptLevel.NONE
    size: DatasetSize = DatasetSize.MINI
    passes: Tuple[Transform, ...] = ()
    label: str = field(default="", compare=False)

    @property
    def workload(self) -> Workload:
        """The memo key of the program and trace this point simulates."""
        return (self.kernel, self.size, self.level, self.passes)

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


def workload_program(
    kernel: str,
    size: DatasetSize,
    level: OptLevel = OptLevel.NONE,
    passes: Tuple[Transform, ...] = (),
):
    """The kernel at ``size`` with ``level`` then ``passes`` applied, memoised.

    Returns
    -------
    repro.workloads.ir.Program
        The exact program :func:`execute_point` traces, and the IR the
        cache key fingerprints.
    """
    key = (kernel, size, level, passes)
    if key not in _PROGRAMS:
        program = build_kernel(kernel, size)
        if level is not OptLevel.NONE:
            program = optimize(program, level)
        _PROGRAMS[key] = apply_all(program, passes)
    return _PROGRAMS[key]


def workload_trace(
    kernel: str,
    size: DatasetSize,
    level: OptLevel = OptLevel.NONE,
    passes: Tuple[Transform, ...] = (),
) -> EncodedTrace:
    """The encoded trace of :func:`workload_program`, memoised."""
    key = (kernel, size, level, passes)
    if key not in _TRACES:
        _TRACES[key] = encode_trace(workload_program(*key))
    return _TRACES[key]


def build_point_program(point: RunPoint):
    """The program a point simulates (see :func:`workload_program`)."""
    return workload_program(*point.workload)


def execute_point(point: RunPoint) -> RunResult:
    """Simulate one point from scratch (worker-process entry point).

    The L2 is pre-warmed with the program's arrays (PolyBench
    initialisation) and the DL1 starts cold.  The function rebuilds all
    state locally, so it is safe to call concurrently from any number
    of processes.

    Parameters
    ----------
    point : RunPoint
        The simulation point.

    Returns
    -------
    RunResult
        The timing result, bit-identical wherever the point executes.
    """
    trace = workload_trace(*point.workload)
    regions = warm_regions_of(build_point_program(point))
    return System(point.config).run(trace, warm_regions=regions)
