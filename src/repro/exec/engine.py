"""The parallel experiment engine: fan points out, replay what's cached.

:class:`ExecutionEngine` takes a batch of independent
:class:`~repro.exec.point.RunPoint` simulations and returns their
:class:`~repro.cpu.model.RunResult` list **in input order**, regardless
of how the work was scheduled:

1. every point's content-addressed key is computed
   (:func:`~repro.exec.cache.cache_key_of`) and looked up in the
   :class:`~repro.exec.cache.RunCache` — hits replay from disk, so a
   resumed run executes only the points that never finished (with the
   cache off, a journal ``RunCache`` plays the same part);
2. the remaining points are deduplicated by key (a figure batch shares
   one SRAM baseline across configurations) and handed to the engine's
   one :class:`~repro.exec.resilience.Supervisor` — it runs them
   in-process when ``jobs == 1`` or the batch has one such point, else
   on a crash-surviving, trace-affine pool of ``jobs`` workers that is
   spawned at the first such batch and reused by every later one until
   :meth:`ExecutionEngine.close`;
3. each result is stored in the cache (or, with the cache off, the
   journal) the moment it completes, so an interrupted sweep resumes
   from the finished points — the result store is the checkpoint.

Failure handling follows the :class:`~repro.exec.resilience.RetryPolicy`
(`--timeout`/`--max-retries`/`--fail-fast`): worker deaths restart only
the dead worker, hung points are killed at their (cost-scaled) deadline,
failed attempts retry with backoff, and points that exhaust the budget
become structured :class:`~repro.exec.resilience.PointFailure` records —
:meth:`ExecutionEngine.run_points` raises
:class:`~repro.errors.SweepFailure` listing them, while
:meth:`ExecutionEngine.run_points_detailed` returns the partial results
alongside the failures.  Stale or corrupt cache entries are quarantined
(:meth:`~repro.exec.cache.RunCache.quarantine`) and recomputed; a cache
that stops accepting writes (disk full, permissions) degrades the sweep
to cache-off mode with one structured warning (and stops
checkpointing).  The failure model is
specified in ``docs/ARCHITECTURE.md`` §2.12.

Because :func:`~repro.exec.point.execute_point` is deterministic and
self-contained, results are bit-identical whether a point ran inline,
in a worker, was retried after a crash, or was replayed from the cache
or the journal — the engine's central invariant, pinned by
``tests/test_exec.py`` and the chaos suite in
``tests/test_resilience.py``.

Per-point progress goes to the ``progress`` stream.  Every counter —
hits, misses, retries, timeouts, executions, and the stage times,
memory figures and elimination counts of each executed point's
:class:`~repro.exec.point.PointStats` record, wherever it ran — lives
once, in the engine's :class:`~repro.telemetry.metrics.MetricsRegistry`;
:class:`ExecStats` is a read-only view of it.  When a
:class:`~repro.telemetry.events.TelemetryRecorder` is attached, the
engine additionally emits batch/point spans and retry events into
``events.jsonl`` and collects the per-point provenance records
(failures included) the run manifest is built from — all of it guarded
on ``telemetry.enabled`` so a disabled run pays nothing and stays
bit-identical (the same contract ``NullProbe`` upholds).
"""

from __future__ import annotations

import os
import signal
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, TextIO

from ..cpu.model import RunResult
from ..errors import ConfigurationError, SweepFailure
from ..telemetry import log
from ..telemetry.events import NULL_TELEMETRY, Telemetry
from ..telemetry.metrics import MetricsRegistry
from .cache import RunCache, cache_key_of, canonicalize, key_material_of
from .point import PointStats, RunPoint
from .resilience import (
    DEFAULT_JOURNAL_DIR,
    FaultPlan,
    PointFailure,
    RetryPolicy,
    Supervisor,
    Task,
    estimate_point_cost,
    scale_timeouts,
)


def _counter(name: str) -> property:
    """An :class:`ExecStats` attribute reading registry counter ``name``."""
    return property(lambda self: self.metrics.counters.get(name, 0))


def _histogram_total(name: str) -> property:
    """An :class:`ExecStats` attribute summing registry histogram ``name``."""

    def total(self: "ExecStats") -> float:
        hist = self.metrics.histograms.get(name)
        return hist.total if hist is not None else 0.0

    return property(total)


def _histogram_max(name: str) -> property:
    """An :class:`ExecStats` attribute reading registry histogram ``name``'s maximum."""

    def maximum(self: "ExecStats") -> float:
        hist = self.metrics.histograms.get(name)
        return hist.maximum if hist is not None else 0.0

    return property(maximum)


class ExecStats:
    """Read-only view of one :class:`ExecutionEngine`'s counters.

    Every attribute reads the engine's
    :class:`~repro.telemetry.metrics.MetricsRegistry` (the registry
    name is in brackets), so each counter has one source of truth.

    Attributes
    ----------
    points : int
        Points requested across all batches, duplicates included
        [``exec.points``].
    hits : int
        Points replayed from the run cache [``cache.hit``].
    misses : int
        Points not found in the cache (``journal_hits`` + ``executed``
        + ``deduplicated`` + ``failed``, plus the points a ``fail_fast``
        stop left unrun) [``cache.miss``].
    journal_hits : int
        Cache-missing points replayed from the checkpoint journal of an
        interrupted previous sweep, within ``misses`` [``journal.replay``].
    stale : int
        Misses caused by an entry of another cache format [``cache.stale``].
    corrupt : int
        Misses caused by an unreadable or undecodable entry [``cache.corrupt``].
    executed : int
        Simulations actually run to completion [``exec.executed``].
    deduplicated : int
        Cache-missing points that shared a key with another point of the
        same batch, or with one an earlier batch of this engine
        checkpointed to or replayed from the journal, and were computed
        (or replayed) only once [``exec.deduplicated``].
    retries : int
        Attempts re-dispatched after an error, timeout or worker crash
        [``exec.retries``].
    timeouts : int
        Attempts killed for exceeding their wall-clock budget
        [``exec.attempt_timeout``].
    worker_restarts : int
        Worker processes respawned after a death
        [``exec.worker_restarts``].
    quarantined : int
        Poison points degraded to in-process execution
        [``exec.quarantined``].
    failed : int
        Points terminally failed after the retry budget was exhausted
        [``exec.failed``].
    events_eliminated : int
        Trace events consumed through guaranteed-hit runs
        (:mod:`repro.workloads.elim`) instead of per-event simulation,
        summed over executed points in-process and pooled alike
        [``elim.events_eliminated``].
    runs_applied : int
        Guaranteed-hit runs applied [``elim.runs_applied``].
    traces_encoded : int
        Traces encoded by executed points, in whichever process ran
        them [``point.traces_encoded``].
    encode_s, build_s, warm_s, replay_s : float
        Host seconds executed points spent encoding traces, building
        ``System`` objects, warming the L2 and replaying, summed over
        every process [totals of ``point.encode_s`` etc.].
    peak_rss_mb : float
        The largest peak resident set size, in MB, that a process
        reported after executing a point — with a pool, the largest
        worker's [maximum of ``point.peak_rss_mb``].
    trace_bytes : int
        Column bytes of the traces executed points encoded, summed over
        every process: what the per-process trace memos hold
        [``point.trace_bytes``].
    elapsed : float
        Wall-clock seconds spent inside :meth:`ExecutionEngine.run_points`
        [total of ``exec.batch_wall_s``].
    busy : float
        Summed execution wall seconds across all workers — divided by
        ``elapsed * jobs`` this is the pool's utilization [total of
        ``exec.point_wall_s``].

    Parameters
    ----------
    metrics : MetricsRegistry
        The registry the engine counts into.
    """

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.metrics = metrics

    points = _counter("exec.points")
    hits = _counter("cache.hit")
    misses = _counter("cache.miss")
    journal_hits = _counter("journal.replay")
    stale = _counter("cache.stale")
    corrupt = _counter("cache.corrupt")
    executed = _counter("exec.executed")
    deduplicated = _counter("exec.deduplicated")
    retries = _counter("exec.retries")
    timeouts = _counter("exec.attempt_timeout")
    worker_restarts = _counter("exec.worker_restarts")
    quarantined = _counter("exec.quarantined")
    failed = _counter("exec.failed")
    events_eliminated = _counter("elim.events_eliminated")
    runs_applied = _counter("elim.runs_applied")
    traces_encoded = _counter("point.traces_encoded")
    encode_s = _histogram_total("point.encode_s")
    build_s = _histogram_total("point.build_s")
    warm_s = _histogram_total("point.warm_s")
    replay_s = _histogram_total("point.replay_s")
    peak_rss_mb = _histogram_max("point.peak_rss_mb")
    trace_bytes = _counter("point.trace_bytes")
    elapsed = _histogram_total("exec.batch_wall_s")
    busy = _histogram_total("exec.point_wall_s")

    def hit_rate(self) -> float:
        """Cache hit rate in percent (100.0 for an all-hit batch).

        Returns
        -------
        float
            ``hits / points * 100``, or 0.0 before any point ran.
        """
        return self.hits / self.points * 100.0 if self.points else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """Every attribute by name, for the run manifest.

        Returns
        -------
        dict
            Attribute name to value, in declaration order.
        """
        return {
            name: getattr(self, name)
            for name, attr in vars(ExecStats).items()
            if isinstance(attr, property)
        }


@dataclass
class _Pending:
    """One unique cache-missing key and the input slots it fills."""

    point: RunPoint
    indices: List[int] = field(default_factory=list)


@dataclass
class BatchOutcome:
    """What one :meth:`ExecutionEngine.run_points_detailed` produced.

    Attributes
    ----------
    results : list of RunResult or None
        ``results[i]`` is the outcome of input point ``i`` — ``None``
        for the points listed in ``failures`` and for the points a
        ``fail_fast`` stop left unrun.
    failures : list of PointFailure
        Terminal failures of this batch (empty for a clean run).
    """

    results: List[Optional[RunResult]]
    failures: List[PointFailure]

    @property
    def ok(self) -> bool:
        """Whether every point of the batch completed."""
        return not self.failures


@contextmanager
def _interrupts_held() -> Iterator[None]:
    """Hold ``SIGINT``/``SIGTERM`` until the block ends (where the OS can).

    The CLI turns both signals into ``KeyboardInterrupt``.  Raised
    between a point's checkpoint write and its manifest record, it would
    leave a checkpointed point the manifest does not list; held, it is
    raised right after the block instead.
    """
    if not hasattr(signal, "pthread_sigmask"):
        yield
        return
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


class _Batch:
    """One batch's cache-missing points, as the supervisor reports them.

    The :class:`~repro.exec.resilience.Supervisor` calls these methods
    as scheduling events happen, for in-process and pooled attempts
    alike; they feed the engine's metrics, telemetry, progress stream
    and result store (the run cache, or the journal when the cache is
    off), and fill the batch's result slots.
    """

    def __init__(
        self,
        engine: "ExecutionEngine",
        pending: Dict[str, _Pending],
        results: List[Optional[RunResult]],
        total: int,
        span: int,
    ) -> None:
        self.engine = engine
        self.pending = pending
        self.results = results
        self.total = total
        self.span = span
        self.spans: Dict[str, int] = {}
        self.submitted: Dict[str, float] = {}

    def attempt_started(self, task: Task) -> None:
        """Open the point span on the first attempt; note retry starts."""
        self.submitted.setdefault(task.key, time.monotonic())
        tele = self.engine.telemetry
        if tele.enabled:
            if task.key not in self.spans:
                self.spans[task.key] = tele.begin_span(
                    "point", parent=self.span, label=task.point.display(), key=task.key
                )
            if task.attempts > 1:
                tele.event(
                    "point_attempt", label=task.point.display(), attempt=task.attempts
                )

    def attempt_failed(self, task: Task, kind: str) -> None:
        """Count one failed attempt (``kind``: error/timeout/crash)."""
        self.engine.metrics.count(f"exec.attempt_{kind}")
        if self.engine.telemetry.enabled:
            self.engine.telemetry.event(
                "point_attempt_failed",
                label=task.point.display(),
                kind=kind,
                attempt=task.attempts,
            )

    def retrying(self, task: Task, kind: str) -> None:
        """Count and announce one re-queued point."""
        self.engine.metrics.count("exec.retries")
        log.warn(
            f"{task.point.display()}: attempt {task.attempts} {kind}; retrying "
            f"(budget {self.engine.policy.max_retries + 1} attempts)"
        )
        if self.engine.telemetry.enabled:
            self.engine.telemetry.event(
                "point_retry", label=task.point.display(), kind=kind, attempt=task.attempts
            )

    def quarantined(self, task: Task) -> None:
        """Count and announce one poison point degrading to in-process."""
        self.engine.metrics.count("exec.quarantined")
        log.warn(
            f"{task.point.display()}: crashed {task.crashes} worker(s); "
            "quarantined to in-process execution"
        )
        if self.engine.telemetry.enabled:
            self.engine.telemetry.event(
                "point_quarantined", label=task.point.display(), crashes=task.crashes
            )

    def worker_restarted(self) -> None:
        """Count one worker respawn after a death."""
        self.engine.metrics.count("exec.worker_restarts")
        log.warn("worker process died; restarted a replacement")
        if self.engine.telemetry.enabled:
            self.engine.telemetry.event("worker_restarted")

    def completed(
        self, task: Task, result: RunResult, stats: PointStats, pid: int, wall_s: float
    ) -> None:
        """Persist one finished point, fold its stats, fill its slots."""
        engine = self.engine
        entry = self.pending[task.key]
        dt = time.monotonic() - self.submitted.get(task.key, time.monotonic())
        metrics = engine.metrics
        metrics.count("exec.executed")
        metrics.observe("exec.point_wall_s", wall_s)
        for stage in ("encode_s", "build_s", "warm_s", "replay_s", "peak_rss_mb"):
            metrics.observe(f"point.{stage}", getattr(stats, stage))
        for name, n in (
            ("point.traces_encoded", stats.traces_encoded),
            ("point.trace_bytes", stats.trace_bytes if stats.traces_encoded else 0),
            ("elim.events_eliminated", stats.events_eliminated),
            ("elim.runs_applied", stats.runs_applied),
        ):
            if n:
                metrics.count(name, n)
        tele = engine.telemetry
        with _interrupts_held():  # the checkpoint and its record land together
            engine._store(task.key, result, entry.point)
            for i in entry.indices:
                self.results[i] = result
            if tele.enabled:
                end = tele.now()
                engine._record_point(
                    entry.point, task.key, "run", pid, wall_s, max(0.0, end - wall_s), result
                )
                tele.end_span(
                    self.spans.get(task.key, 0),
                    status="run",
                    worker_pid=int(pid),
                    wall_s=round(wall_s, 6),
                )
        engine._report(entry.point, "run", entry.indices[0], self.total, dt)

    def failed(self, failure: PointFailure) -> None:
        """Record one terminal point failure."""
        engine = self.engine
        engine.metrics.count("exec.failed")
        engine.failures.append(failure)
        if not failure.invalid_input:  # run_points re-raises those verbatim
            log.error(failure.describe())
        tele = engine.telemetry
        if tele.enabled:
            point = self.pending[failure.key].point
            engine._record_point(
                point, failure.key, "failed", failure.worker_pid, 0.0, tele.now(), None
            )
            tele.end_span(
                self.spans.get(failure.key, 0),
                status="failed",
                kind=failure.kind,
                attempts=failure.attempts,
            )


class ExecutionEngine:
    """Runs batches of simulation points, in parallel, cached, resilient.

    Every cache-missing point goes through the engine's one
    :class:`~repro.exec.resilience.Supervisor`, whatever ``jobs`` is,
    and every counter goes into :attr:`metrics` (:attr:`stats` is a
    read-only view of it).  With ``jobs > 1`` the supervisor's worker
    pool is spawned at the first batch with two or more cache-missing
    points and lives until :meth:`close` (or the ``with`` block, or the
    engine's garbage collection), so later batches reuse its workers
    and the traces they already encoded.

    Parameters
    ----------
    jobs : int
        Worker processes for cache-missing points.  ``1`` (the default)
        spawns none: the supervisor runs every point in this process,
        under the same retry policy minus timeouts.  Results are
        bit-identical either way.
    cache_dir : str or pathlib.Path, optional
        Run-cache directory.  ``None`` disables the cache entirely
        (every point recomputes, and ``journal_dir`` decides whether
        completed points are checkpointed).  With a cache, the cache is
        the checkpoint: an interrupted sweep resumes from its entries.
    progress : TextIO, optional
        Stream for one human-readable line per completed point (the CLI
        passes ``sys.stderr``); ``None`` silences progress output.
    telemetry : Telemetry, optional
        Structured event sink (:data:`~repro.telemetry.events.
        NULL_TELEMETRY` by default).  When enabled, the engine emits
        batch/point spans and retry events, cache-anomaly warnings, and
        accumulates the ``point_records`` / ``technologies`` /
        ``failures`` provenance that
        :func:`repro.telemetry.manifest.build_manifest` captures.
    policy : RetryPolicy, optional
        Retry/timeout/quarantine bounds applied to every failure
        (defaults are forgiving: two retries, no timeout).
    fault_plan : FaultPlan, optional
        Chaos-injection plan, used by the resilience test suite only.
    journal_dir : str or pathlib.Path, optional
        Root of the checkpoint journal, a
        :class:`~repro.exec.cache.RunCache` used only when ``cache_dir``
        is ``None`` (ignored otherwise).  ``None`` disables journaling,
        keeping bare library use free of filesystem side effects — the
        CLI passes :data:`~repro.exec.resilience.DEFAULT_JOURNAL_DIR`
        so ``--no-cache`` sweeps still resume.  :meth:`finish` removes
        the journal's entries, never other files in the directory.

    Raises
    ------
    ConfigurationError
        If ``jobs`` is not a positive integer.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        progress: Optional[TextIO] = None,
        telemetry: Telemetry = NULL_TELEMETRY,
        policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        journal_dir: Optional[str] = None,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"--jobs must be at least 1, got {jobs}")
        self.jobs = int(jobs)
        self.cache = RunCache(cache_dir) if cache_dir is not None else None
        self.progress = progress
        self.telemetry = telemetry
        self.policy = policy if policy is not None else RetryPolicy()
        self.fault_plan = fault_plan
        self.metrics = MetricsRegistry()
        self.stats = ExecStats(self.metrics)
        #: Terminal point failures across all batches.
        self.failures: List[PointFailure] = []
        #: Per-point provenance dicts (manifest ``points``), collected
        #: only while ``telemetry.enabled``.
        self.point_records: List[Dict[str, Any]] = []
        #: Resolved technology parameter sets seen across batches,
        #: keyed by technology name (canonicalized like the cache key
        #: material); collected only while ``telemetry.enabled``.
        self.technologies: Dict[str, Any] = {}
        #: Checkpoint store of a cache-less engine (``None`` with a cache).
        self.journal: Optional[RunCache] = (
            RunCache(journal_dir) if self.cache is None and journal_dir is not None else None
        )
        #: Keys this engine itself wrote to or replayed from :attr:`journal`.
        self._journaled: set = set()
        self._cache_degraded = False
        self._corrupted_indices: set = set()
        self._supervisor = Supervisor(self.jobs)
        # A forgotten engine's workers die with it, not with the interpreter.
        self._close_pool = weakref.finalize(self, self._supervisor.close)

    def close(self) -> None:
        """Stop the worker pool, if one was spawned; idempotent.

        A later batch spawns a new pool, so closing only costs the
        workers' warm trace memos.
        """
        self._supervisor.close()

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def _report(self, point: RunPoint, status: str, index: int, total: int, dt: float) -> None:
        """Print one per-point progress line to the progress stream."""
        if self.progress is not None:
            print(
                f"[{index + 1}/{total}] {point.display()}: {status} ({dt:.2f}s)",
                file=self.progress,
                flush=True,
            )

    def summary(self) -> str:
        """One-line account of the engine's work so far.

        Returns
        -------
        str
            E.g. ``exec: 26 points — 26 cache hits, 0 misses (100% cache
            hits), jobs=4, cache .repro-cache``, with journal replays,
            stale/corrupt entries and resilience counters appended when
            non-zero.
        """
        s = self.stats
        if self.cache is not None:
            where = str(self.cache.root)
        else:
            where = "off (degraded)" if self._cache_degraded else "off"
        line = (
            f"exec: {s.points} points — {s.hits} cache hits, {s.misses} misses "
            f"({s.hit_rate():.0f}% cache hits), jobs={self.jobs}, cache {where}"
        )
        if s.journal_hits:
            line += f" [{s.journal_hits} journal replays]"
        if s.stale or s.corrupt:
            line += f" [{s.stale} stale, {s.corrupt} corrupt entries]"
        extras = []
        for label, value in (
            ("retries", s.retries),
            ("timeouts", s.timeouts),
            ("worker restarts", s.worker_restarts),
            ("quarantined", s.quarantined),
            ("failed", s.failed),
        ):
            if value:
                extras.append(f"{value} {label}")
        if extras:
            line += f" [{', '.join(extras)}]"
        return line

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run_points(self, points: Sequence[RunPoint]) -> List[RunResult]:
        """Execute a batch; results come back in input order.

        Cache hits replay instantly; unique misses run with up to
        ``jobs``-way parallelism and are persisted as they finish.  The
        output order depends only on ``points``, never on scheduling.

        Parameters
        ----------
        points : sequence of RunPoint
            Independent simulation points.

        Returns
        -------
        list of RunResult
            ``results[i]`` is the outcome of ``points[i]``.

        Raises
        ------
        ConfigurationError
            When a point's configuration is invalid (such a point fails
            on its first attempt; the first one's message is raised).
        SweepFailure
            When at least one point failed terminally after exhausting
            its retry budget.  Completed points were stored (cache or
            journal) before the raise, so re-running retries only the
            failures.
        """
        outcome = self.run_points_detailed(points)
        for failure in outcome.failures:
            if failure.invalid_input:
                raise ConfigurationError(failure.message)
        if outcome.failures:
            raise SweepFailure(outcome.failures)
        return [r for r in outcome.results if r is not None]

    def run_points_detailed(self, points: Sequence[RunPoint]) -> BatchOutcome:
        """Execute a batch, returning partial results plus failures.

        The tolerant sibling of :meth:`run_points`: terminal point
        failures never raise — the corresponding result slots are
        ``None`` and the structured failure records ride alongside, so
        a caller can salvage everything that completed.

        Parameters
        ----------
        points : sequence of RunPoint
            Independent simulation points.

        Returns
        -------
        BatchOutcome
            Input-ordered results (``None`` for failed points and for
            points a ``fail_fast`` stop left unrun) and this batch's
            terminal failures.
        """
        started = time.monotonic()
        points = list(points)
        total = len(points)
        self.metrics.count("exec.points", total)
        results: List[Optional[RunResult]] = [None] * total
        failures_before = len(self.failures)

        tele = self.telemetry
        batch = tele.span("batch", points=total, jobs=self.jobs)
        with batch:
            pending: Dict[str, _Pending] = {}
            for i, point in enumerate(points):
                key = cache_key_of(point)
                self._maybe_corrupt_entry(i, key)
                found = self.cache.lookup(key) if self.cache is not None else None
                if found is not None and found.status in ("stale", "corrupt"):
                    self._note_cache_anomaly(found.status, key, point)
                if found is not None and found.result is not None:
                    self.metrics.count("cache.hit")
                    results[i] = found.result
                    if tele.enabled:
                        self._record_point(
                            point, key, "hit", os.getpid(), 0.0, tele.now(), found.result
                        )
                        tele.event("point_hit", label=point.display(), key=key)
                    self._report(point, "hit", i, total, 0.0)
                    continue
                self.metrics.count("cache.miss")
                journaled = self.journal.get(key) if self.journal is not None else None
                if journaled is not None:
                    if key in self._journaled:
                        # Served by an earlier batch of this engine: a
                        # duplicate of a point already run or resumed.
                        self.metrics.count("exec.deduplicated")
                        results[i] = journaled
                    else:
                        self._replay_journal(point, key, journaled, results, i, total)
                    continue
                if key in pending:
                    self.metrics.count("exec.deduplicated")
                    pending[key].indices.append(i)
                else:
                    pending[key] = _Pending(point, [i])

            if pending:
                self._execute_pending(pending, results, total, batch.id)

        self.metrics.observe("exec.batch_wall_s", time.monotonic() - started)
        if self.stats.elapsed > 0.0:
            self.metrics.gauge(
                "exec.utilization_pct",
                min(100.0, 100.0 * self.stats.busy / (self.stats.elapsed * self.jobs)),
            )
        return BatchOutcome(results, self.failures[failures_before:])

    def finish(self) -> None:
        """Mark the sweep complete: discard the checkpoint journal.

        Called by the CLI after an experiment ran to the end with no
        terminal failures.  An interrupted or failed sweep never gets
        here, so its journal survives for the resuming run.  Only the
        journal's entries go (:meth:`~repro.exec.cache.RunCache.clear`);
        anything else under ``journal_dir`` stays.
        """
        if self.journal is not None and not self.failures:
            self.journal.clear()

    # ------------------------------------------------------------------
    # Resilience plumbing
    # ------------------------------------------------------------------

    def _maybe_corrupt_entry(self, index: int, key: str) -> None:
        """Apply the fault plan's cache-entry corruption, once per index."""
        if (
            self.fault_plan is None
            or self.cache is None
            or index not in self.fault_plan.corrupt_entries
            or index in self._corrupted_indices
        ):
            return
        self._corrupted_indices.add(index)
        path = self.cache.path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text('{"format": 1, "truncated mid-wri')
        except OSError:
            pass

    def _replay_journal(
        self,
        point: RunPoint,
        key: str,
        result: RunResult,
        results: List[Optional[RunResult]],
        index: int,
        total: int,
    ) -> None:
        """Fill one slot from the interrupted-sweep checkpoint journal."""
        self.metrics.count("journal.replay")
        self._journaled.add(key)
        results[index] = result
        tele = self.telemetry
        if tele.enabled:
            self._record_point(point, key, "journal", os.getpid(), 0.0, tele.now(), result)
            tele.event("point_journal", label=point.display(), key=key)
        self._report(point, "journal", index, total, 0.0)

    def _store(self, key: str, result: RunResult, point: RunPoint) -> None:
        """Persist one result to the cache or journal, degrading on error."""
        if self.cache is not None:
            try:
                self.cache.put(key, result, key_material_of(point))
            except OSError as exc:
                root = self.cache.root
                self.cache = None
                self._cache_degraded = True
                self.metrics.count("cache.degraded")
                log.warn(
                    f"run cache degraded to off: cannot write {root} "
                    f"({type(exc).__name__}: {exc}); the sweep continues uncached "
                    "and an interrupted run will not resume from it"
                )
                self.telemetry.warning(
                    "cache_degraded", root=str(root), error=f"{type(exc).__name__}: {exc}"
                )
        elif self.journal is not None:
            try:
                self.journal.put(key, result)
                self._journaled.add(key)
            except OSError:
                root = self.journal.root
                self.journal = None
                self.metrics.count("journal.degraded")
                log.warn(
                    f"checkpoint journal degraded to off: cannot write {root}; "
                    "an interrupted sweep will not resume from this run"
                )
                self.telemetry.warning("journal_degraded", path=str(root))

    def _note_cache_anomaly(self, status: str, key: str, point: RunPoint) -> None:
        """Count, report and quarantine one stale/corrupt cache entry."""
        self.metrics.count(f"cache.{status}")
        path = str(self.cache.path_for(key))
        moved = self.cache.quarantine(key, f"{status} entry for {point.display()} ({key})")
        where = f"quarantined to {moved}" if moved is not None else "left in place"
        log.warn(f"cache entry {status}: {key} for {point.display()} ({path}); {where}; recomputing")
        self.telemetry.warning(
            f"cache_entry_{status}",
            key=key,
            path=path,
            point=point.display(),
            quarantined=moved is not None,
        )

    # ------------------------------------------------------------------
    # Pending-point execution
    # ------------------------------------------------------------------

    def _execute_pending(
        self,
        pending: Dict[str, _Pending],
        results: List[Optional[RunResult]],
        total: int,
        batch_span: int = 0,
    ) -> None:
        """Run the unique cache-missing points and fill their slots."""
        tasks = [
            Task(index=entry.indices[0], key=key, point=entry.point)
            for key, entry in pending.items()
        ]
        if self.policy.timeout is not None:
            costs = [estimate_point_cost(task.point) for task in tasks]
            for task, budget in zip(tasks, scale_timeouts(costs, self.policy.timeout)):
                task.timeout = budget
        self.metrics.gauge("exec.queue_depth", len(tasks))
        self._supervisor.run(
            tasks, _Batch(self, pending, results, total, batch_span), self.policy, self.fault_plan
        )
        self.metrics.gauge("exec.queue_depth", 0)

    def _record_point(
        self,
        point: RunPoint,
        key: str,
        status: str,
        worker_pid: int,
        wall_s: float,
        start_s: float,
        result: Optional[RunResult],
    ) -> None:
        """Append one manifest point record (telemetry-enabled path only)."""
        config = point.config
        tech = config.resolved_technology()
        if tech.name not in self.technologies:
            self.technologies[tech.name] = canonicalize(tech)
        record = {
            "label": point.display(),
            "kernel": point.kernel,
            "frontend": str(config.frontend),
            "technology": tech.name,
            "level": point.level.name,
            "size": point.size.name,
            "seed": config.reliability.seed if config.reliability is not None else None,
            "cache_key": key,
            "status": status,
            "worker_pid": int(worker_pid),
            "wall_s": round(float(wall_s), 6),
            "start_s": round(float(start_s), 6),
        }
        if result is not None:
            record["cycles"] = float(result.cycles)
        self.point_records.append(record)


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask), at least 1.

    The CLI's default ``--jobs``: a container or ``taskset`` that limits
    the process to fewer CPUs than the machine has limits the pool too.

    Returns
    -------
    int
        ``len(os.sched_getaffinity(0))``, or ``os.cpu_count()`` where
        the platform has no affinity call.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # no sched_getaffinity on this platform
        return max(1, os.cpu_count() or 1)


def make_engine(
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    no_cache: bool = False,
    progress: Optional[TextIO] = None,
    telemetry: Telemetry = NULL_TELEMETRY,
    timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    fail_fast: bool = False,
    fault_plan: Optional[FaultPlan] = None,
) -> Optional[ExecutionEngine]:
    """Build an engine from CLI-style options, or ``None`` for plain runs.

    A configured engine is built when an explicit ``--jobs N`` above 1,
    caching, telemetry or a resilience bound was requested.  For plain
    ``repro fig1`` (and for an explicit ``--jobs 1`` or ``--no-cache``
    alone) this returns ``None`` and the caller runs its points on a
    silent engine with no cache and no journal — no filesystem side
    effects and no ``exec:`` line — of ``jobs`` workers, or
    :func:`usable_cpus` when ``jobs`` was not given.  Either way every
    point is scheduled by the same supervisor.

    Parameters
    ----------
    jobs : int, optional
        Requested worker count (``--jobs``); ``None`` when not given,
        which means :func:`usable_cpus` workers and engages nothing.
    cache_dir : str, optional
        Requested cache directory (``--cache-dir``); when ``None`` but
        the engine engages, :data:`~repro.exec.cache.DEFAULT_CACHE_DIR`
        is used unless ``no_cache`` is set.
    no_cache : bool
        Disable the run cache (``--no-cache``) while keeping ``jobs``.
    progress : TextIO, optional
        Forwarded to :class:`ExecutionEngine`; defaults to the levelled
        CLI log's progress stream (``sys.stderr`` unless ``--quiet``).
    telemetry : Telemetry, optional
        Forwarded to :class:`ExecutionEngine`.  An *enabled* telemetry
        sink engages the engine even for a plain run, so every point
        flows through the instrumented path (``--telemetry``).
    timeout : float, optional
        Base per-point wall-clock budget (``--timeout``); engages the
        engine and is scaled per point by the static cost estimate.
        Enforced only on attempts in worker processes: with ``jobs ==
        1``, in a one-point batch and for quarantined points the
        supervisor runs the point in-process, where a hung attempt
        cannot be killed.
    max_retries : int, optional
        Retry budget per point (``--max-retries``); engages the engine.
        ``None`` keeps the :class:`~repro.exec.resilience.RetryPolicy`
        default.
    fail_fast : bool
        Stop at the first terminal point failure (``--fail-fast``);
        engages the engine.
    fault_plan : FaultPlan, optional
        Chaos-injection plan, forwarded to :class:`ExecutionEngine`
        (used by the resilience tests and CI chaos job only).

    Returns
    -------
    ExecutionEngine or None
        ``None`` when neither an explicit ``--jobs`` above 1, a cache,
        telemetry nor a resilience flag was asked for.

    Raises
    ------
    ConfigurationError
        If ``jobs`` or ``max_retries`` is out of range.
    """
    if jobs is not None and jobs < 1:
        raise ConfigurationError(f"--jobs must be at least 1, got {jobs}")
    if max_retries is not None and max_retries < 0:
        raise ConfigurationError(f"--max-retries must be at least 0, got {max_retries}")
    if timeout is not None and timeout <= 0:
        raise ConfigurationError(f"--timeout must be positive, got {timeout}")
    resilient = timeout is not None or max_retries is not None or fail_fast or fault_plan is not None
    parallel = jobs is not None and jobs > 1
    if not parallel and cache_dir is None and not telemetry.enabled and not resilient:
        return None
    from .cache import DEFAULT_CACHE_DIR

    resolved_dir: Optional[str] = cache_dir
    if no_cache:
        resolved_dir = None
    elif resolved_dir is None:
        resolved_dir = DEFAULT_CACHE_DIR
    if not parallel and resolved_dir is None and not telemetry.enabled and not resilient:
        return None
    if progress is None:
        progress = log.progress_stream()
    policy = RetryPolicy(
        max_retries=max_retries if max_retries is not None else RetryPolicy.max_retries,
        timeout=timeout,
        fail_fast=fail_fast,
    )
    return ExecutionEngine(
        jobs=jobs if jobs is not None else usable_cpus(),
        cache_dir=resolved_dir,
        progress=progress,
        telemetry=telemetry,
        policy=policy,
        fault_plan=fault_plan,
        journal_dir=DEFAULT_JOURNAL_DIR if resolved_dir is None else None,
    )
