"""Simulation points: the unit of work the execution engine schedules.

A :class:`RunPoint` is one fully-specified, independent simulation —
``(kernel, system configuration, optimization level, dataset size,
extra passes)``, with any fault-injection seed carried inside the
configuration's :class:`~repro.reliability.faults.ReliabilityConfig`.
Points are plain frozen dataclasses so they pickle cheaply across
worker-process boundaries.  :func:`measure_point` runs one and returns
its result with a :class:`PointStats` record of where the host time
went and how much memory the executing process holds, small enough to
ride back over a worker's pipe; :func:`execute_point` is the same run
without the record.

Every simulation of the experiment layer is a point:
:class:`~repro.experiments.runner.ExperimentRunner` hands each one to
an :class:`~repro.exec.engine.ExecutionEngine` (sanitized runs replay
the same point material in-process), so a point executed in a worker
process is bit-identical to the same point executed inline (pinned by
``tests/test_exec.py``).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..cpu.model import RunResult
from ..cpu.system import System, SystemConfig, warm_regions_of
from ..transforms.base import Transform, apply_all
from ..transforms.pipeline import OptLevel, optimize
from ..workloads import build_kernel, elim
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


@dataclass(frozen=True)
class PointStats:
    """Where one point's host time went, in the process that ran it.

    A worker sends this record back with each result, so the engine's
    metrics registry accounts for pooled work the same way it accounts
    for in-process work.

    Attributes
    ----------
    encode_s : float
        Host seconds spent encoding the point's trace (0 when the
        process's memo already held it).
    build_s : float
        Host seconds spent constructing the :class:`System`.
    warm_s : float
        Host seconds spent pre-warming the L2 with the program's arrays.
    replay_s : float
        Host seconds spent replaying the trace.
    traces_encoded : int
        Traces this point encoded (0 or 1).
    events_eliminated : int
        Trace events consumed through guaranteed-hit runs
        (:mod:`repro.workloads.elim`) during the replay.
    runs_applied : int
        Guaranteed-hit runs applied during the replay.
    peak_rss_mb : float
        Peak resident set size of the executing process so far
        (``ru_maxrss`` after the point), in MB.
    trace_bytes : int
        Column bytes of the replayed trace (:attr:`~repro.workloads
        .encode.EncodedTrace.nbytes`).
    """

    encode_s: float
    build_s: float
    warm_s: float
    replay_s: float
    traces_encoded: int
    events_eliminated: int
    runs_applied: int
    peak_rss_mb: float
    trace_bytes: int


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB."""
    import resource  # first needed after a point, not at CLI start-up

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def measure_point(point: RunPoint) -> Tuple[RunResult, PointStats]:
    """Simulate one point from scratch and time its stages.

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
    tuple of (RunResult, PointStats)
        The timing result, bit-identical wherever the point executes,
        and the host-side stats record of this execution.
    """
    program = build_point_program(point)
    encoded = point.workload not in _TRACES
    t0 = time.perf_counter()
    trace = workload_trace(*point.workload)
    t1 = time.perf_counter()
    system = System(point.config)
    t2 = time.perf_counter()
    # ``System.run(trace, warm_regions=...)`` split in two stages: the
    # warm-up ends by zeroing the statistics, so the replay keeps state.
    system.reset()
    system.warm_l2(warm_regions_of(program))
    t3 = time.perf_counter()
    before = elim.counters()
    result = system.run(trace, reset=False)
    t4 = time.perf_counter()
    after = elim.counters()
    return result, PointStats(
        encode_s=t1 - t0 if encoded else 0.0,
        build_s=t2 - t1,
        warm_s=t3 - t2,
        replay_s=t4 - t3,
        traces_encoded=int(encoded),
        events_eliminated=after["events_eliminated"] - before["events_eliminated"],
        runs_applied=after["runs_applied"] - before["runs_applied"],
        peak_rss_mb=peak_rss_mb(),
        trace_bytes=trace.nbytes,
    )


def execute_point(point: RunPoint) -> RunResult:
    """Simulate one point from scratch (:func:`measure_point` without stats).

    Parameters
    ----------
    point : RunPoint
        The simulation point.

    Returns
    -------
    RunResult
        The timing result, bit-identical wherever the point executes.
    """
    return measure_point(point)[0]
