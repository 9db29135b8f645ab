"""Shared machinery for running kernels across platform configurations.

The paper's evaluation grid is (kernel) x (D-cache organisation) x
(optimization level).  :class:`ExperimentRunner` materialises each
kernel/level trace once, warms the L2 with the kernel's arrays (the
paper's gem5 runs execute PolyBench's initialisation before the measured
kernel), and caches results keyed by configuration so the figures share
baseline runs.

When constructed with an :class:`~repro.exec.engine.ExecutionEngine`,
the runner fans independent points of a figure or sweep out across
worker processes and replays unchanged points from the engine's
content-addressed run cache; results are bit-identical to the serial
path (see :mod:`repro.exec`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..cpu.model import RunResult
from ..cpu.system import System, SystemConfig, warm_regions_of
from ..errors import ConfigurationError
from ..obs import ProfileResult, RecordingProbe
from ..reliability.faults import ReliabilityConfig
from ..transforms.pipeline import OptLevel, optimize
from ..workloads import build_kernel, kernel_names
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
    """Caches traces and run results across the experiment suite.

    Parameters
    ----------
    size : DatasetSize
        Dataset size class for every kernel (MINI reproduces the paper;
        larger sizes feed the dataset-scaling ablation).
    kernels : list of str, optional
        Kernel subset to evaluate (default: the full 12-kernel
        registry, in figure order).
    engine : repro.exec.ExecutionEngine, optional
        Parallel/cached execution engine.  ``None`` (the default) keeps
        the classic in-process serial path; with an engine, whole-figure
        batches run with up to ``engine.jobs``-way parallelism and
        unchanged points replay from the engine's run cache.  Results
        are bit-identical either way.
    check : bool
        Run every point under the invariant sanitizer
        (:class:`repro.check.Sanitizer`).  Forces the in-process serial
        path — a sanitized run must observe the live structures, so the
        engine's worker processes and run cache are bypassed — and
        raises :class:`~repro.errors.InvariantViolation` at the first
        corrupted event.  Results are bit-identical to unchecked runs.
    check_stride : int
        Invariant-check stride for sanitized runs (check after every
        N-th event; the end-of-run check always happens).
    """

    def __init__(
        self,
        size: DatasetSize = DatasetSize.MINI,
        kernels: Optional[List[str]] = None,
        engine: Optional["ExecutionEngine"] = None,
        check: bool = False,
        check_stride: int = 997,
    ) -> None:
        self.size = size
        self.kernels = list(kernels) if kernels is not None else kernel_names()
        self.engine = engine
        self.check = bool(check)
        self.check_stride = check_stride
        self._programs: Dict[Tuple[str, OptLevel], object] = {}
        self._traces: Dict[Tuple[str, OptLevel], EncodedTrace] = {}
        self._annotated_traces: Dict[Tuple[str, OptLevel], EncodedTrace] = {}
        self._results: Dict[Tuple, RunResult] = {}

    # ------------------------------------------------------------------
    # Workload material
    # ------------------------------------------------------------------

    def program(self, kernel: str, level: OptLevel = OptLevel.NONE):
        """The (possibly transformed) program for a kernel, cached.

        Parameters
        ----------
        kernel : str
            Kernel name.
        level : OptLevel
            Optimization level to apply.

        Returns
        -------
        repro.workloads.ir.Program
            The kernel IR after the level's transformation passes.
        """
        key = (kernel, level)
        if key not in self._programs:
            base = build_kernel(kernel, self.size)
            self._programs[key] = optimize(base, level) if level is not OptLevel.NONE else base
        return self._programs[key]

    def trace(self, kernel: str, level: OptLevel = OptLevel.NONE) -> EncodedTrace:
        """The encoded event trace for a kernel/level, cached.

        Stored in the columnar :class:`~repro.workloads.encode.EncodedTrace`
        form, which ``System.run`` replays through the opcode fast path —
        bit-identical to the object stream, at a fraction of the memory.

        Parameters
        ----------
        kernel : str
            Kernel name.
        level : OptLevel
            Optimization level of the traced code.

        Returns
        -------
        EncodedTrace
            The architectural event stream in columnar form.
        """
        key = (kernel, level)
        if key not in self._traces:
            self._traces[key] = encode_trace(self.program(kernel, level))
        return self._traces[key]

    def annotated_trace(self, kernel: str, level: OptLevel = OptLevel.NONE) -> EncodedTrace:
        """Trace with zero-cost IR loop marks, for profiling runs.

        Cached separately from :meth:`trace` so figure runs keep using
        the mark-free traces.

        Parameters
        ----------
        kernel : str
            Kernel name.
        level : OptLevel
            Optimization level of the traced code.

        Returns
        -------
        EncodedTrace
            The event stream with ``IRMark`` region annotations.
        """
        key = (kernel, level)
        if key not in self._annotated_traces:
            self._annotated_traces[key] = encode_trace(
                self.program(kernel, level), TraceConfig(annotate_ir=True)
            )
        return self._annotated_traces[key]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _memo_key(
        self,
        config: Union[str, SystemConfig],
        kernel: str,
        level: OptLevel,
        cache_key: Optional[str],
    ) -> Optional[Tuple]:
        """In-memory result key for a run request (``None``: don't memoise)."""
        if isinstance(config, str):
            return (resolve_config_name(config), kernel, level, self.size)
        if cache_key is not None:
            return (cache_key, kernel, level, self.size)
        return None

    def _point(
        self,
        config: Union[str, SystemConfig],
        kernel: str,
        level: OptLevel,
        cache_key: Optional[str] = None,
    ) -> "RunPoint":
        """Build the :class:`~repro.exec.point.RunPoint` for a run request."""
        from ..exec.point import RunPoint

        if isinstance(config, str):
            label = resolve_config_name(config)
        else:
            label = cache_key or config.frontend
        return RunPoint(
            kernel=kernel,
            config=resolve_config(config),
            level=level,
            size=self.size,
            label=f"{kernel}/{label}/{level.name}",
        )

    def run(
        self,
        config: Union[str, SystemConfig],
        kernel: str,
        level: OptLevel = OptLevel.NONE,
        cache_key: Optional[str] = None,
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
            Override for the result-memo key when passing ad hoc
            :class:`SystemConfig` objects (named configs memoise
            automatically; unnamed ones by this key, by content when an
            engine is attached, or not at all).

        Returns
        -------
        RunResult
            The timing result (shared across repeat requests).
        """
        key = self._memo_key(config, kernel, level, cache_key)
        if key is not None and key in self._results:
            return self._results[key]
        if self.check:
            # Sanitized runs execute in-process: the checker hooks the
            # live CPU event loop, which worker processes and the run
            # cache cannot observe.  Imported lazily to keep the
            # check package optional on the hot import path.
            from ..check.sanitizer import Sanitizer

            system = make_system(config)
            trace = self.trace(kernel, level)
            regions = warm_regions_of(self.program(kernel, level))
            sanitizer = Sanitizer(system, stride=self.check_stride)
            result = sanitizer.run(trace, warm_regions=regions)
        elif self.engine is not None:
            from ..exec.cache import cache_key_of

            point = self._point(config, kernel, level, cache_key)
            if key is None:
                key = ("exec", cache_key_of(point))
                if key in self._results:
                    return self._results[key]
            result = self.engine.run_points([point])[0]
        else:
            system = make_system(config)
            trace = self.trace(kernel, level)
            regions = warm_regions_of(self.program(kernel, level))
            result = system.run(trace, warm_regions=regions)
        if key is not None:
            self._results[key] = result
        return result

    def prefetch(
        self,
        specs: Sequence[Tuple],
    ) -> None:
        """Hand a batch of run requests to the engine up front.

        With an engine attached the whole batch is handed over at once,
        so independent points run with up to ``engine.jobs``-way
        parallelism and cache hits replay immediately; results land in
        the runner's in-memory memo, making the subsequent :meth:`run`
        calls instant, and are bit-identical to on-demand serial runs.
        Without an engine this is a no-op: :meth:`run` replays each
        request on demand, one encoded pass per point.

        Parameters
        ----------
        specs : sequence of tuple
            ``(config, kernel, level)`` or ``(config, kernel, level,
            cache_key)`` tuples, exactly as :meth:`run` would receive
            them.  Already-memoised and duplicate requests are skipped.
        """
        if self.check or self.engine is None:
            # Sanitized runs never fan out (see :meth:`run`); letting
            # a prefetch path compute unchecked results would defeat
            # --check.
            return
        from ..exec.cache import cache_key_of

        points, keys = [], []
        seen = set()
        for spec in specs:
            config, kernel, level = spec[0], spec[1], spec[2]
            cache_key = spec[3] if len(spec) > 3 else None
            key = self._memo_key(config, kernel, level, cache_key)
            if key is None:
                point = self._point(config, kernel, level, cache_key)
                key = ("exec", cache_key_of(point))
            else:
                point = None
            if key in self._results or key in seen:
                continue
            seen.add(key)
            if point is None:
                point = self._point(config, kernel, level, cache_key)
            points.append(point)
            keys.append(key)
        if not points:
            return
        for key, result in zip(keys, self.engine.run_points(points)):
            self._results[key] = result

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
        trace = self.annotated_trace(kernel, level)
        regions = warm_regions_of(self.program(kernel, level))
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
            Memo key for ad hoc configs (see :meth:`run`).

        Returns
        -------
        float
            ``penalty_vs`` the SRAM baseline, in percent.
        """
        base_level = level if baseline_level is None else baseline_level
        baseline = self.run("sram", kernel, base_level)
        return self.run(config, kernel, level, cache_key=cache_key).penalty_vs(baseline)

    def penalties(
        self,
        config: Union[str, SystemConfig],
        level: OptLevel = OptLevel.NONE,
        baseline_level: Optional[OptLevel] = None,
        cache_key: Optional[str] = None,
    ) -> List[float]:
        """Per-kernel penalties over the runner's kernel list.

        With an engine attached, every (kernel, config) point of the
        figure — baselines included — is first fanned out as one batch
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
            Memo key for ad hoc configs (see :meth:`run`).

        Returns
        -------
        list of float
            One penalty per kernel, in ``self.kernels`` order.
        """
        base_level = level if baseline_level is None else baseline_level
        self.prefetch(
            [(config, k, level, cache_key) for k in self.kernels]
            + [("sram", k, base_level) for k in self.kernels]
        )
        return [
            self.penalty(config, k, level, baseline_level, cache_key=cache_key)
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
        With an engine attached, all ``configs`` x ``rates`` points (and
        the baseline) run as one parallel batch.

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
