"""Shared machinery for running kernels across platform configurations.

The paper's evaluation grid is (kernel) x (D-cache organisation) x
(optimization level).  Every simulation :class:`ExperimentRunner`
performs is a :class:`~repro.exec.point.RunPoint` handed to its
:class:`~repro.exec.engine.ExecutionEngine`, which builds and encodes
each kernel trace once per process, warms the L2 with the kernel's
arrays (the paper's gem5 runs execute PolyBench's initialisation before
the measured kernel) and simulates; the runner memoises results by the
point's content-addressed key, so the figures share baseline runs and
one point asked for under two labels runs once.

A plain runner's engine is serial with no cache and no journal; the
CLI hands it an engine that fans independent points out across worker
processes (one per usable CPU by default) and, with
``--jobs``/``--cache-dir``/``--telemetry``, replays unchanged points
from its content-addressed run cache.  Results are bit-identical either
way (see :mod:`repro.exec`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..cpu.model import RunResult
from ..cpu.system import System, SystemConfig, warm_regions_of
from ..errors import ConfigurationError
from ..exec.cache import cache_key_of
from ..exec.engine import ExecutionEngine
from ..exec.point import RunPoint, build_point_program, workload_program, workload_trace
from ..obs import ProfileResult, RecordingProbe
from ..reliability.faults import ReliabilityConfig
from ..transforms.base import Transform
from ..transforms.pipeline import OptLevel
from ..workloads import build_kernel, kernel_names  # noqa: F401 - benchmarks/perf wraps build_kernel
from ..workloads.datasets import DatasetSize
from ..workloads.encode import EncodedTrace, encode_trace
from ..workloads.interp import TraceConfig

#: The named platform configurations of the evaluation (Section VI).
CONFIGURATIONS: Dict[str, SystemConfig] = {
    "sram": SystemConfig(technology="sram", frontend="plain"),
    "dropin": SystemConfig(technology="stt-mram", frontend="plain"),
    "vwb": SystemConfig(technology="stt-mram", frontend="vwb"),
    "l0": SystemConfig(technology="stt-mram", frontend="l0"),
    "emshr": SystemConfig(technology="stt-mram", frontend="emshr"),
    "hybrid": SystemConfig(technology="stt-mram", frontend="hybrid"),
}

#: Spelled-out aliases accepted anywhere a configuration name is
#: (``repro profile gemm --config nvm-vwb`` reads naturally).
CONFIG_ALIASES: Dict[str, str] = {
    "baseline": "sram",
    "nvm": "dropin",
    "nvm-dropin": "dropin",
    "nvm-vwb": "vwb",
    "nvm-l0": "l0",
    "nvm-emshr": "emshr",
    "nvm-hybrid": "hybrid",
}


def resolve_config_name(name: str) -> str:
    """Canonical configuration name for ``name`` (aliases resolved).

    Parameters
    ----------
    name : str
        A configuration name from :data:`CONFIGURATIONS` or an alias
        from :data:`CONFIG_ALIASES`, case-insensitively.

    Returns
    -------
    str
        The canonical :data:`CONFIGURATIONS` key.

    Raises
    ------
    ConfigurationError
        For unknown names — never a bare ``KeyError`` — listing every
        valid name and alias; the CLI maps it to the documented usage
        exit code 2.
    """
    if not isinstance(name, str):
        valid = ", ".join(list(CONFIGURATIONS) + sorted(CONFIG_ALIASES))
        raise ConfigurationError(
            f"configuration name must be a string, got {name!r}; expected one of: {valid}"
        )
    name = name.strip().lower()
    name = CONFIG_ALIASES.get(name, name)
    if name not in CONFIGURATIONS:
        valid = ", ".join(list(CONFIGURATIONS) + sorted(CONFIG_ALIASES))
        raise ConfigurationError(
            f"unknown configuration {name!r}; expected one of: {valid}"
        )
    return name


def resolve_config(config: Union[str, SystemConfig]) -> SystemConfig:
    """The :class:`SystemConfig` for a name, alias or config object.

    Parameters
    ----------
    config : str or SystemConfig
        A named configuration/alias, or an already-built config.

    Returns
    -------
    SystemConfig
        The configuration object (named configs are shared instances).

    Raises
    ------
    ConfigurationError
        For unknown configuration names (see :func:`resolve_config_name`).
    """
    if isinstance(config, SystemConfig):
        return config
    return CONFIGURATIONS[resolve_config_name(config)]


def make_system(name_or_config: Union[str, SystemConfig]) -> System:
    """Build a :class:`System` from a configuration name or object.

    Parameters
    ----------
    name_or_config : str or SystemConfig
        A named configuration/alias, or a config object.

    Returns
    -------
    System
        A freshly assembled platform.
    """
    return System(resolve_config(name_or_config))


class ExperimentRunner:
    """Runs and memoises the simulation points of the experiment suite.

    Parameters
    ----------
    size : DatasetSize
        Dataset size class for every kernel (MINI reproduces the paper;
        larger sizes feed the dataset-scaling ablation).
    kernels : list of str, optional
        Kernel subset to evaluate (default: the full 12-kernel
        registry, in figure order).
    engine : repro.exec.ExecutionEngine, optional
        The engine every point runs through.  ``None`` (the default)
        builds a serial one with no cache, journal or progress output;
        a parallel/cached engine runs whole-figure batches with up to
        ``engine.jobs``-way parallelism and replays unchanged points
        from its run cache.  Results are bit-identical either way.
    check : bool
        Run every point under the invariant sanitizer
        (:class:`repro.check.Sanitizer`).  Sanitized points execute
        in-process from the same point material — a sanitized run must
        observe the live structures, so the engine's worker processes
        and run cache are bypassed — and raise
        :class:`~repro.errors.InvariantViolation` at the first
        corrupted event.  Results are bit-identical to unchecked runs.
    check_stride : int
        Invariant-check stride for sanitized runs (check after every
        N-th event; the end-of-run check always happens).
    """

    def __init__(
        self,
        size: DatasetSize = DatasetSize.MINI,
        kernels: Optional[List[str]] = None,
        engine: Optional[ExecutionEngine] = None,
        check: bool = False,
        check_stride: int = 997,
    ) -> None:
        self.size = size
        self.kernels = list(kernels) if kernels is not None else kernel_names()
        self.engine = engine if engine is not None else ExecutionEngine()
        self.check = bool(check)
        self.check_stride = check_stride
        self._results: Dict[str, RunResult] = {}

    def scoped(
        self, kernels: Optional[Sequence[str]] = None, size: Optional[DatasetSize] = None
    ) -> "ExperimentRunner":
        """A runner over other kernels/size sharing this one's engine and checks.

        Parameters
        ----------
        kernels : sequence of str, optional
            Kernel subset (default: this runner's).
        size : DatasetSize, optional
            Dataset size class (default: this runner's).

        Returns
        -------
        ExperimentRunner
            A runner with its own result memo, on this runner's engine
            with the same ``check``/``check_stride``.
        """
        return ExperimentRunner(
            size=self.size if size is None else size,
            kernels=self.kernels if kernels is None else list(kernels),
            engine=self.engine,
            check=self.check,
            check_stride=self.check_stride,
        )

    # ------------------------------------------------------------------
    # Workload material
    # ------------------------------------------------------------------

    def program(self, kernel: str, level: OptLevel = OptLevel.NONE):
        """The (possibly transformed) program for a kernel, memoised.

        Parameters
        ----------
        kernel : str
            Kernel name.
        level : OptLevel
            Optimization level to apply.

        Returns
        -------
        repro.workloads.ir.Program
            The kernel IR after the level's transformation passes (the
            process-wide point memo's entry).
        """
        return workload_program(kernel, self.size, level)

    def trace(self, kernel: str, level: OptLevel = OptLevel.NONE) -> EncodedTrace:
        """The encoded event trace for a kernel/level, memoised.

        Parameters
        ----------
        kernel : str
            Kernel name.
        level : OptLevel
            Optimization level of the traced code.

        Returns
        -------
        EncodedTrace
            The architectural event stream in columnar form (the
            process-wide point memo's entry).
        """
        return workload_trace(kernel, self.size, level)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _point(
        self,
        config: Union[str, SystemConfig],
        kernel: str,
        level: OptLevel,
        cache_key: Optional[str] = None,
        passes: Sequence[Transform] = (),
    ) -> Tuple[str, RunPoint]:
        """The result-memo key and :class:`RunPoint` of a run request.

        The memo key is the point's content-addressed key
        (:func:`~repro.exec.cache.cache_key_of`), so equal points share
        one result whatever they are called; the configuration name or
        ``cache_key`` only labels the point for display.
        """
        if isinstance(config, str):
            label = resolve_config_name(config)
        else:
            label = cache_key or config.frontend
        point = RunPoint(
            kernel=kernel,
            config=resolve_config(config),
            level=level,
            size=self.size,
            passes=tuple(passes),
            label=f"{kernel}/{label}/{level.name}",
        )
        return cache_key_of(point), point

    def run(
        self,
        config: Union[str, SystemConfig],
        kernel: str,
        level: OptLevel = OptLevel.NONE,
        cache_key: Optional[str] = None,
        passes: Sequence[Transform] = (),
    ) -> RunResult:
        """Run one kernel/level on one configuration (L2 pre-warmed).

        Parameters
        ----------
        config : str or SystemConfig
            A configuration name/alias from :data:`CONFIGURATIONS` or a
            :class:`SystemConfig`.
        kernel : str
            Kernel name.
        level : OptLevel
            Optimization level of the code.
        cache_key : str, optional
            Progress label for ad hoc :class:`SystemConfig` objects
            (every point memoises by content, so two labels of one
            point share its result).
        passes : sequence of Transform
            Extra IR passes applied after ``level`` (a program variant,
            see :class:`~repro.exec.point.RunPoint`).

        Returns
        -------
        RunResult
            The timing result (shared across repeat requests).
        """
        key, point = self._point(config, kernel, level, cache_key, passes)
        if key not in self._results:
            if self.check:
                # Sanitized runs execute in-process: the checker hooks
                # the live CPU event loop, which worker processes and
                # the run cache cannot observe.  Imported lazily to keep
                # the check package optional on the hot import path.
                from ..check.sanitizer import Sanitizer

                trace = workload_trace(*point.workload)
                regions = warm_regions_of(build_point_program(point))
                sanitizer = Sanitizer(System(point.config), stride=self.check_stride)
                self._results[key] = sanitizer.run(trace, warm_regions=regions)
            else:
                self._results[key] = self.engine.run_points([point])[0]
        return self._results[key]

    def prefetch(self, specs: Sequence[Tuple]) -> None:
        """Hand a batch of run requests to the engine up front.

        The whole batch goes to the engine at once, so independent
        points run with up to ``engine.jobs``-way parallelism and cache
        hits replay immediately; results land in the runner's memo,
        making the subsequent :meth:`run` calls instant, and are
        bit-identical to on-demand runs.  Sanitized runners skip the
        batch: :meth:`run` checks each point in-process on demand.

        Parameters
        ----------
        specs : sequence of tuple
            ``(config, kernel, level)``, ``(config, kernel, level,
            cache_key)`` or ``(config, kernel, level, cache_key,
            passes)`` tuples, exactly as :meth:`run` would receive them.
            Already-memoised and duplicate requests are skipped.
        """
        if self.check:
            return  # unchecked batch results would defeat --check
        batch: Dict[str, RunPoint] = {}
        for spec in specs:
            key, point = self._point(*spec)
            if key not in self._results:
                batch.setdefault(key, point)
        if batch:
            self._results.update(zip(batch, self.engine.run_points(list(batch.values()))))

    def profile(
        self,
        kernel: str,
        config: str = "vwb",
        level: OptLevel = OptLevel.NONE,
        record_events: bool = True,
        max_events: int = 200_000,
    ) -> ProfileResult:
        """Run one kernel under a :class:`RecordingProbe` and package it.

        The run uses an IR-annotated trace (same cycle count as the plain
        trace — marks are zero-cost) so the ledger carries per-IR-loop
        subtotals, and verifies ledger exactness against the run's cycle
        count before returning.  Profiling always executes inline — a
        probe observes one live run, so there is nothing to parallelise
        or replay.

        Parameters
        ----------
        kernel : str
            Kernel name.
        config : str
            Configuration name or alias (e.g. ``"nvm-vwb"``).
        level : OptLevel
            Optimization level of the code.
        record_events : bool
            Keep the per-event timeline for trace export
            (ledger/histograms are always collected).
        max_events : int
            Cap on retained timeline events; overflow is counted in
            :attr:`ProfileResult.dropped_events`.

        Returns
        -------
        ProfileResult
            The instrumented run, with a verified cycle ledger.
        """
        name = resolve_config_name(config)
        system = make_system(name)
        probe = RecordingProbe(record_events=record_events, max_events=max_events)
        program = self.program(kernel, level)
        trace = encode_trace(program, TraceConfig(annotate_ir=True))
        regions = warm_regions_of(program)
        if self.check:
            from ..check.sanitizer import Sanitizer

            sanitizer = Sanitizer(system, stride=self.check_stride)
            result = sanitizer.run(trace, warm_regions=regions, probe=probe)
        else:
            result = system.run(trace, warm_regions=regions, probe=probe)
        return ProfileResult(
            kernel=kernel,
            config=name,
            level=level.name,
            result=result,
            ledger=probe.ledger,
            histograms=probe.histograms,
            events=probe.events,
            dropped_events=probe.dropped_events,
        )

    def penalty(
        self,
        config: Union[str, SystemConfig],
        kernel: str,
        level: OptLevel = OptLevel.NONE,
        baseline_level: Optional[OptLevel] = None,
        cache_key: Optional[str] = None,
        passes: Sequence[Transform] = (),
    ) -> float:
        """Penalty (%) of a configuration against the SRAM baseline.

        The baseline runs the same code by default (``baseline_level``
        overrides this for gain-style comparisons).

        Parameters
        ----------
        config : str or SystemConfig
            Configuration under test.
        kernel : str
            Kernel name.
        level : OptLevel
            Optimization level of the tested configuration's code.
        baseline_level : OptLevel, optional
            Optimization level of the SRAM baseline (defaults to
            ``level``).
        cache_key : str, optional
            Label for ad hoc configs (see :meth:`run`).
        passes : sequence of Transform
            Extra IR passes of the tested code (see :meth:`run`); the
            baseline never gets them.

        Returns
        -------
        float
            ``penalty_vs`` the SRAM baseline, in percent.
        """
        base_level = level if baseline_level is None else baseline_level
        baseline = self.run("sram", kernel, base_level)
        return self.run(config, kernel, level, cache_key, passes).penalty_vs(baseline)

    def penalties(
        self,
        config: Union[str, SystemConfig],
        level: OptLevel = OptLevel.NONE,
        baseline_level: Optional[OptLevel] = None,
        cache_key: Optional[str] = None,
        passes: Sequence[Transform] = (),
    ) -> List[float]:
        """Per-kernel penalties over the runner's kernel list.

        Every (kernel, config) point of the figure — baselines
        included — is first handed to the engine as one batch
        (see :meth:`prefetch`); the per-kernel ratios are then computed
        from the memoised results in kernel order, so the output is
        independent of scheduling.

        Parameters
        ----------
        config : str or SystemConfig
            Configuration under test.
        level : OptLevel
            Optimization level of the tested configuration's code.
        baseline_level : OptLevel, optional
            Optimization level of the SRAM baseline (defaults to
            ``level``).
        cache_key : str, optional
            Label for ad hoc configs (see :meth:`run`).
        passes : sequence of Transform
            Extra IR passes of the tested code (see :meth:`penalty`).

        Returns
        -------
        list of float
            One penalty per kernel, in ``self.kernels`` order.
        """
        base_level = level if baseline_level is None else baseline_level
        self.prefetch(
            [(config, k, level, cache_key, passes) for k in self.kernels]
            + [("sram", k, base_level) for k in self.kernels]
        )
        return [
            self.penalty(config, k, level, baseline_level, cache_key, passes)
            for k in self.kernels
        ]

    def reliability_sweep(
        self,
        kernel: str,
        rates: Sequence[float],
        configs: Sequence[str] = ("dropin", "vwb"),
        seed: int = 0,
        level: OptLevel = OptLevel.NONE,
    ) -> Dict[str, List[float]]:
        """Penalty curves over a raw-bit-error-rate sweep.

        For each configuration, each point enables stochastic write
        faults at the given rber (with write-verify-retry, SECDED and
        line retirement at their defaults) and reports the penalty
        against the fault-free SRAM baseline — the Figure 5 metric, with
        reliability overhead added on top of the technology penalty.
        All ``configs`` x ``rates`` points (and the baseline) go to the
        engine as one batch.

        Parameters
        ----------
        kernel : str
            Kernel name.
        rates : sequence of float
            Raw per-bit write error rates to sweep.
        configs : sequence of str
            Configuration names/aliases to compare.
        seed : int
            Fault-injection seed shared by every point.
        level : OptLevel
            Optimization level of the code.

        Returns
        -------
        dict
            Mapping of canonical configuration name to per-rate
            penalties (%), in ``rates`` order.
        """
        grid = []
        for config in configs:
            name = resolve_config_name(config)
            base = CONFIGURATIONS[name]
            for rate in rates:
                faulty = replace(
                    base,
                    reliability=ReliabilityConfig(seed=seed, write_error_rate=rate),
                )
                grid.append((name, rate, faulty))
        self.prefetch(
            [
                (faulty, kernel, level, f"{name}+rber={rate:g}+seed={seed}")
                for name, rate, faulty in grid
            ]
            + [("sram", kernel, level)]
        )
        curves: Dict[str, List[float]] = {}
        for name, rate, faulty in grid:
            curves.setdefault(name, []).append(
                self.penalty(
                    faulty,
                    kernel,
                    level,
                    cache_key=f"{name}+rber={rate:g}+seed={seed}",
                )
            )
        return curves
