"""Fault-tolerant execution: supervised workers, retries, checkpoints.

The execution engine schedules every cache-missing point through this
module, so one failure model covers serial and parallel sweeps alike:

- :class:`Supervisor` is the only scheduler, one per engine.  With
  ``jobs > 1`` it owns a pool of worker processes that lives from the
  first batch of two or more points until the engine closes, each
  worker connected over its own duplex pipe: crashes are detected as
  pipe EOF (no shared queue can be corrupted by a dying worker), the
  dead worker is reaped and respawned, and only its in-flight point is
  re-dispatched.  Dispatch is trace-affine, so each worker encodes the
  traces it is given and little else.  With ``jobs == 1`` (or a
  one-task batch) it runs every point in-process, through the same
  routine that runs quarantined points of a pool.
- :class:`RetryPolicy` bounds the damage a point can do: failed and
  timed-out attempts retry with exponential backoff up to
  ``max_retries``; points that keep killing workers are quarantined
  after ``quarantine_after`` crashes and degraded to in-process
  execution as a last resort; per-point wall-clock timeouts are
  enforced by killing the worker (the only way to stop a hung
  simulation, so in-process attempts have none) and scale with a
  static per-kernel cost estimate (:func:`estimate_point_cost`).
- Terminal failures become structured :class:`PointFailure` records —
  exception, traceback, worker pid, attempt count — instead of an
  abort, so a partial sweep still returns every completed result.
- The engine stores each completed point in the run cache the moment
  it finishes (under ``--no-cache``, in a journal
  :class:`~repro.exec.cache.RunCache` rooted at
  :data:`DEFAULT_JOURNAL_DIR`), so an interrupted sweep
  (``SIGINT``/``SIGTERM``, exit 130) resumes exactly.
- :class:`FaultPlan` injects worker crashes, hangs, in-process errors
  and cache-entry corruption by point index — deterministic chaos in
  the spirit of the reliability subsystem's seeded fault injection —
  powering the ``tests/test_resilience.py`` suite that proves a
  disturbed sweep's results are bit-identical to an undisturbed run.

The supervisor decides *when* and *where* a point runs; the engine's
per-batch object (:class:`repro.exec.engine._Batch`) receives every
scheduling event and owns progress, telemetry, metrics and the result
store.  See ``docs/ARCHITECTURE.md`` §2.12 for the failure model.
"""

from __future__ import annotations

import os
import signal
import time
import traceback as traceback_module
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection, get_context
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Set, Tuple

from ..errors import ConfigurationError
from ..workloads.ir import Loop
from . import point as point_module
from .point import RunPoint, Workload, build_point_program, measure_point

if TYPE_CHECKING:
    from .engine import _Batch

#: Root of the checkpoint journal used when the run cache is disabled
#: (``--no-cache`` sweeps still checkpoint, or they could never resume).
DEFAULT_JOURNAL_DIR = ".repro-journal"

#: Exit code a worker uses for an injected crash (distinguishable from
#: real segfault signals in the supervisor's logs).
FAULT_EXIT_CODE = 86

#: Floor of the supervisor's poll interval in seconds.
_MIN_WAIT = 0.01

#: Ceiling on one exponential-backoff sleep in seconds.
_MAX_BACKOFF = 2.0

#: How often an idle worker checks that its supervising process lives.
_PARENT_CHECK_S = 1.0


# ----------------------------------------------------------------------
# Failure records and policies
# ----------------------------------------------------------------------


@dataclass
class PointFailure:
    """Terminal failure record of one simulation point.

    Attributes
    ----------
    label : str
        The point's display label (``kernel/config/level``).
    kernel : str
        Kernel name.
    key : str
        Content-addressed cache key of the point.
    kind : str
        Failure classification: ``"error"`` (the point raised),
        ``"timeout"`` (every attempt exceeded its wall-clock budget),
        ``"crash"`` (the point kept killing workers and was never
        quarantined), or ``"poison"`` (quarantined to in-process
        execution and failed there too).
    attempts : int
        Attempts consumed, the quarantined in-process attempt included.
    exception : str
        Exception class name of the last attempt (empty for crashes).
    message : str
        Exception message (or a crash/timeout description).
    traceback : str
        Formatted traceback of the last raising attempt (empty when the
        worker died without reporting one).
    worker_pid : int
        Pid of the last worker that attempted the point.
    """

    label: str
    kernel: str
    key: str
    kind: str
    attempts: int
    exception: str = ""
    message: str = ""
    traceback: str = ""
    worker_pid: int = 0

    def describe(self) -> str:
        """One-line human-readable account of the failure.

        Returns
        -------
        str
            E.g. ``gemm/vwb/NONE: error after 3 attempt(s) —
            ValueError: boom``.
        """
        what = f"{self.exception}: {self.message}" if self.exception else self.message
        return f"{self.label}: {self.kind} after {self.attempts} attempt(s) — {what}"

    @property
    def invalid_input(self) -> bool:
        """The point raised :class:`~repro.errors.ConfigurationError`."""
        return self.exception == ConfigurationError.__name__

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form for the run manifest's ``failures`` list.

        Returns
        -------
        dict
            Every attribute, stringified where needed.
        """
        return {
            "label": self.label,
            "kernel": self.kernel,
            "cache_key": self.key,
            "kind": self.kind,
            "attempts": int(self.attempts),
            "exception": self.exception,
            "message": self.message,
            "traceback": self.traceback,
            "worker_pid": int(self.worker_pid),
        }


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds on how hard the engine fights for each point.

    Attributes
    ----------
    max_retries : int
        Re-dispatches allowed after the first attempt (so a point runs
        at most ``max_retries + 1`` times before it is declared failed).
        A point raising ``ConfigurationError`` is never retried.
    timeout : float, optional
        Base per-point wall-clock budget in seconds (``None`` disables
        timeouts).  The effective budget of a heavy point is scaled up
        by its static cost estimate — see :func:`scale_timeouts`.
    backoff_s : float
        First retry delay in seconds.
    backoff_factor : float
        Multiplier applied per additional retry (exponential backoff,
        capped at two seconds per wait).
    quarantine_after : int
        Worker crashes after which a point is quarantined and degraded
        to in-process execution instead of being re-dispatched.
    fail_fast : bool
        Stop the batch at the first terminal failure instead of
        finishing the remaining points.
    """

    max_retries: int = 2
    timeout: Optional[float] = None
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    quarantine_after: int = 2
    fail_fast: bool = False

    def backoff(self, retry: int) -> float:
        """Sleep before the ``retry``-th re-dispatch (1-based).

        Parameters
        ----------
        retry : int
            How many retries the point has already consumed.

        Returns
        -------
        float
            Seconds to hold the point back, exponentially growing and
            capped so a sweep never stalls on backoff alone.
        """
        return min(_MAX_BACKOFF, self.backoff_s * (self.backoff_factor ** max(0, retry - 1)))


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault injection for the chaos test suite.

    Faults are keyed by the point's position in its batch, so a plan is
    reproducible run to run (the same spirit as the reliability
    subsystem's seeded write-error injection).  Crash and hang faults
    only ever fire inside worker processes — applying them in the
    supervising process would kill or stall the whole sweep, which is
    exactly what the resilience layer exists to prevent — while error
    faults fire anywhere, so in-process attempts retry too.

    Attributes
    ----------
    crashes : mapping of int to int
        ``{point_index: n}`` — hard-kill the worker (``os._exit``) on
        the point's first ``n`` worker attempts.
    hangs : mapping of int to int
        ``{point_index: n}`` — hang the point's first ``n`` worker
        attempts for :attr:`hang_seconds`.
    errors : mapping of int to int
        ``{point_index: n}`` — raise a ``RuntimeError`` on the point's
        first ``n`` attempts, in workers and in-process alike.
    corrupt_entries : tuple of int
        Point indices whose on-disk cache entry the engine overwrites
        with garbage before its first lookup — exercising the cache's
        quarantine-and-recompute healing end to end.
    hang_seconds : float
        How long a hung attempt sleeps (far beyond any test timeout).
    """

    crashes: Mapping[int, int] = field(default_factory=dict)
    hangs: Mapping[int, int] = field(default_factory=dict)
    errors: Mapping[int, int] = field(default_factory=dict)
    corrupt_entries: Tuple[int, ...] = ()
    hang_seconds: float = 3600.0

    def apply(self, index: int, attempt: int) -> None:
        """Fire the planned fault for one worker attempt, if any.

        Called inside a worker process before the point executes.

        Parameters
        ----------
        index : int
            Batch-relative point index.
        attempt : int
            1-based attempt number of the point.

        Raises
        ------
        RuntimeError
            For a planned ``errors`` fault.
        """
        if attempt <= self.crashes.get(index, 0):
            os._exit(FAULT_EXIT_CODE)
        if attempt <= self.hangs.get(index, 0):
            time.sleep(self.hang_seconds)
        self.apply_inline(index, attempt)

    def apply_inline(self, index: int, attempt: int) -> None:
        """Fire only the faults that are safe in the supervising process.

        Crash and hang faults are skipped — a quarantined point's
        in-process attempt must be allowed to succeed.

        Parameters
        ----------
        index : int
            Batch-relative point index.
        attempt : int
            1-based attempt number of the point.

        Raises
        ------
        RuntimeError
            For a planned ``errors`` fault.
        """
        if attempt <= self.errors.get(index, 0):
            raise RuntimeError(f"injected fault: point {index}, attempt {attempt}")


# ----------------------------------------------------------------------
# Static cost estimation (timeout scaling)
# ----------------------------------------------------------------------


def _walk_cost(nodes: Any, multiplier: int, env: Dict[str, int]) -> int:
    """Accumulated access-count estimate of an IR subtree."""
    total = 0
    for node in nodes:
        if isinstance(node, Loop):
            lower = node.lower.evaluate(env)
            upper = node.upper.evaluate(env)
            trips = max(1, upper - lower)
            inner_env = dict(env)
            inner_env[node.var.name] = lower + trips // 2
            total += _walk_cost(node.body, multiplier * trips, inner_env)
        else:
            total += multiplier * (len(node.reads) + len(node.writes) + 1)
    return total


def estimate_point_cost(point: RunPoint) -> int:
    """Static relative cost estimate of one simulation point.

    Walks the kernel's (optimized) IR counting memory references times
    estimated trip counts — triangular bounds are evaluated at the
    midpoint of their enclosing loops, so the estimate is exact for
    rectangular nests and a reasonable middle for skewed ones.  No
    trace is generated: the program is already memoised in the
    supervising process (the cache key fingerprints it), so the
    estimate is effectively free.

    Parameters
    ----------
    point : RunPoint
        The simulation point.

    Returns
    -------
    int
        Estimated dynamic access count (always at least 1).  Only
        *ratios* between points are meaningful — the engine uses them
        to scale per-point timeouts.
    """
    program = build_point_program(point)
    return max(1, _walk_cost(program.body, 1, {}))


def scale_timeouts(costs: List[int], timeout: Optional[float]) -> List[Optional[float]]:
    """Per-point effective timeouts from one base budget.

    ``timeout`` is the budget of an *average* point of the batch;
    heavier points get proportionally more, lighter points keep the
    full base budget (scaling only ever extends, never shrinks, so a
    user-supplied ``--timeout`` is a floor).

    Parameters
    ----------
    costs : list of int
        Static cost estimates (:func:`estimate_point_cost`), one per
        point.
    timeout : float, optional
        Base budget in seconds; ``None`` disables timeouts entirely.

    Returns
    -------
    list of float or None
        Effective per-point budgets, aligned with ``costs``.
    """
    if timeout is None:
        return [None] * len(costs)
    mean = sum(costs) / len(costs) if costs else 1.0
    if mean <= 0:
        mean = 1.0
    return [timeout * max(1.0, cost / mean) for cost in costs]


# ----------------------------------------------------------------------
# Supervised worker pool
# ----------------------------------------------------------------------


@dataclass
class Task:
    """One unit of supervised work: a unique cache-missing point.

    Attributes
    ----------
    index : int
        Batch-relative index of the point's first occurrence (the fault
        plan's key, and the slot progress is reported against).
    key : str
        Content-addressed cache key.
    point : RunPoint
        The simulation point.
    timeout : float, optional
        Effective wall-clock budget of one attempt (already scaled).
    attempts : int
        Attempts started so far.
    crashes : int
        Worker deaths this point has caused.
    not_before : float
        Monotonic time before which the task must not be re-dispatched
        (exponential backoff).
    last_error : tuple
        ``(kind, exception, message, traceback, pid)`` of the most
        recent failed attempt.
    """

    index: int
    key: str
    point: RunPoint
    timeout: Optional[float] = None
    attempts: int = 0
    crashes: int = 0
    not_before: float = 0.0
    last_error: Tuple[str, str, str, str, int] = ("", "", "", "", 0)

    @property
    def invalid_input(self) -> bool:
        """The last attempt raised ``ConfigurationError``: retrying cannot help."""
        return self.last_error[1] == ConfigurationError.__name__

    def failure(self, kind: str) -> PointFailure:
        """Terminal :class:`PointFailure` for this task.

        Parameters
        ----------
        kind : str
            Failure classification (see :class:`PointFailure`).

        Returns
        -------
        PointFailure
            The structured record, carrying the last attempt's error.
        """
        _, exception, message, tb, pid = self.last_error
        return PointFailure(
            label=self.point.display(),
            kernel=self.point.kernel,
            key=self.key,
            kind=kind,
            attempts=self.attempts,
            exception=exception,
            message=message,
            traceback=tb,
            worker_pid=pid,
        )


def _worker_main(conn: Any) -> None:
    """Worker-process loop: receive points, simulate, send results back.

    ``SIGINT`` is ignored so a Ctrl-C to the process group leaves the
    drain-and-checkpoint shutdown under the supervisor's control.  Any
    exception is reported as a structured error message; the worker
    survives to take the next task.  Each result travels with its
    :class:`~repro.exec.point.PointStats` record.  The loop ends on a
    ``None`` message, when the supervisor's end of the pipe closes, or
    when the supervising process is gone (a worker never outlives it).

    Each task message carries the batch's chaos-injection plan
    (usually ``None``), consulted before the attempt.

    Parameters
    ----------
    conn : multiprocessing.connection.Connection
        The worker's end of its duplex pipe.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = os.getppid()
    while True:
        try:
            if not conn.poll(_PARENT_CHECK_S):
                if os.getppid() != parent:
                    return
                continue
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        task_key, point, index, attempt, fault_plan = message
        started = time.monotonic()
        try:
            if fault_plan is not None:
                fault_plan.apply(index, attempt)
            result, stats = measure_point(point)
            wall = time.monotonic() - started
            reply = ("ok", task_key, os.getpid(), wall, result, stats)
        except Exception as exc:  # structured failure, worker survives
            wall = time.monotonic() - started
            reply = (
                "error",
                task_key,
                os.getpid(),
                wall,
                type(exc).__name__,
                str(exc),
                traceback_module.format_exc(),
            )
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


class _Worker:
    """Supervisor-side record of one worker process."""

    __slots__ = ("process", "conn", "task", "killed", "deadline", "held")

    def __init__(self, process: Any, conn: Any, held: Set[Workload]) -> None:
        self.process = process
        self.conn = conn
        self.task: Optional[Task] = None
        self.killed = False
        self.deadline: Optional[float] = None
        #: Workloads whose encoded trace this worker's memo holds.
        self.held = held


class Supervisor:
    """The engine's one scheduler: crash-, hang- and error-surviving.

    Runs the :class:`Task` objects of each batch it is given and applies
    a :class:`RetryPolicy` to every failed attempt.  A batch of two or
    more tasks with ``jobs > 1`` goes to a pool of long-lived workers,
    each owning a private duplex pipe (so a dying worker can never
    corrupt a shared queue).  The pool is spawned at the first such
    batch and outlives it: later batches reuse the same workers, and
    their per-process trace memos, until :meth:`close`.  A one-task
    batch, and every batch with ``jobs == 1``, runs in-process through
    the same routine that runs quarantined points.

    Dispatch is trace-affine: an idle worker gets a pending point whose
    trace it already holds, else one whose trace no worker holds, else
    the oldest pending point — so each trace is encoded about once per
    command rather than once per worker that touches it.

    - a raising attempt retries with backoff up to ``max_retries``,
      then becomes a terminal ``"error"`` failure;
    - a pooled attempt past its wall-clock budget gets its worker
      killed (the only way to stop a hung simulation), retries, and
      becomes a terminal ``"timeout"`` failure when the budget never
      suffices — in-process attempts cannot be killed, so timeouts are
      pool-only;
    - a worker death (pipe EOF without a result) restarts the worker
      and re-dispatches only the in-flight point; a point that crashes
      workers ``quarantine_after`` times runs in-process instead —
      success there completes it normally, failure classifies it
      ``"poison"``.

    Every scheduling event — attempt started or failed, retry,
    quarantine, worker restart, completion, terminal failure — is
    reported to the engine's per-batch object, which owns progress,
    telemetry, metrics and the result store.  Point failures
    never raise, but ``KeyboardInterrupt`` (the CLI's
    ``SIGINT``/``SIGTERM`` path) kills all workers immediately and
    propagates, leaving completed points checkpointed.

    Parameters
    ----------
    jobs : int
        Maximum concurrent worker processes; ``1`` runs in-process.
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = max(1, int(jobs))
        #: The batch being run: its observer, retry policy and chaos
        #: plan (``None``/defaults between batches).
        self.batch: Optional["_Batch"] = None
        self.policy = RetryPolicy()
        self.fault_plan: Optional[FaultPlan] = None
        self._pooled = False
        self._ctx = get_context()
        self._workers: List[_Worker] = []
        self._queue: deque = deque()
        self._failed = 0

    # -- worker lifecycle ------------------------------------------------

    def _spawn(self) -> _Worker:
        """Start one worker process with its private pipe."""
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()
        # A forked worker starts with a copy of this process's trace memo.
        held = set(point_module._TRACES) if self._ctx.get_start_method() == "fork" else set()
        worker = _Worker(process, parent_conn, held)
        self._workers.append(worker)
        return worker

    def _reap(self, worker: _Worker) -> None:
        """Remove a dead worker and release its resources."""
        if worker in self._workers:
            self._workers.remove(worker)
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join(timeout=1.0)

    def close(self, force: bool = False) -> None:
        """Stop every worker — gracefully, or by kill (``force``).

        Idle workers are asked to exit; busy ones (and all of them under
        ``force``) are killed.  Every worker is joined, so none outlives
        the call.  Safe to call repeatedly; a later batch spawns a new
        pool.

        Parameters
        ----------
        force : bool
            Kill every worker instead of asking the idle ones to exit.
        """
        for worker in list(self._workers):
            if force or worker.task is not None:
                worker.process.kill()
            else:
                try:
                    worker.conn.send(None)
                except OSError:
                    worker.process.kill()
        for worker in list(self._workers):
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        self._workers.clear()

    # -- scheduling ------------------------------------------------------

    def run(
        self,
        tasks: List[Task],
        batch: "_Batch",
        policy: RetryPolicy,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        """Execute every task, surviving crashes, hangs and errors.

        Completed results and terminal failures are delivered to
        ``batch`` as they happen.  With ``fail_fast`` the run stops at
        this batch's first terminal failure, leaving later tasks unrun
        and killing the workers still busy with them; idle workers stay
        for the next batch.

        Parameters
        ----------
        tasks : list of Task
            Unique cache-missing points of one batch.
        batch : repro.exec.engine._Batch
            The engine's observer of this batch.
        policy : RetryPolicy
            Retry/timeout/quarantine bounds.
        fault_plan : FaultPlan, optional
            Chaos plan sent to workers with each task (and applied to
            in-process attempts, error faults only).
        """
        self.batch = batch
        self.policy = policy
        self.fault_plan = fault_plan
        self._queue = deque(tasks)
        self._failed = 0
        self._pooled = self.jobs > 1 and len(tasks) > 1
        outstanding = len(tasks)
        try:
            if self._pooled:
                while len(self._workers) < min(self.jobs, len(tasks)):
                    self._spawn()
            while True:
                outstanding -= self._dispatch()
                if outstanding <= self._failed or self._stopped():
                    break
                if not self._pooled:
                    time.sleep(self._wait_timeout(time.monotonic()))
                    continue
                ready = connection.wait(
                    [w.conn for w in self._workers], self._wait_timeout(time.monotonic())
                )
                for conn in ready:
                    worker = next((w for w in self._workers if w.conn is conn), None)
                    if worker is not None:
                        outstanding -= self._drain(worker)
                self._expire(time.monotonic())
            for worker in [w for w in self._workers if w.task is not None]:
                worker.process.kill()  # abandoned by a fail-fast stop
                self._reap(worker)
        except BaseException:
            self.close(force=True)
            raise
        finally:
            self.batch = None

    def _stopped(self) -> bool:
        """Whether ``fail_fast`` ends this batch (it has a terminal failure)."""
        return self.policy.fail_fast and self._failed > 0

    def _quarantined(self, task: Task) -> bool:
        """Whether ``task`` crashed workers often enough to run in-process."""
        return task.crashes > 0 and task.crashes >= self.policy.quarantine_after

    def _pick(self, worker: _Worker, ready: List[Task]) -> Task:
        """The ready task ``worker`` should take: trace-affine, then oldest."""
        for task in ready:
            if task.point.workload in worker.held:
                return task
        held = set().union(*(w.held for w in self._workers))
        for task in ready:
            if task.point.workload not in held:
                return task
        return ready[0]

    def _dispatch(self) -> int:
        """Hand ready tasks to idle workers, or run them in-process.

        Returns
        -------
        int
            Tasks completed in-process.
        """
        done = 0
        queue = self._queue
        while queue and not self._stopped():
            now = time.monotonic()
            ready = [task for task in queue if task.not_before <= now]
            if not ready:
                break
            inline = next(
                (t for t in ready if not self._pooled or self._quarantined(t)), None
            )
            if inline is not None:
                queue.remove(inline)
                done += self._run_inline(inline)
                continue
            worker = next((w for w in self._workers if w.task is None), None)
            if worker is None:
                break
            task = self._pick(worker, ready)
            queue.remove(task)
            task.attempts += 1
            try:
                worker.conn.send(
                    (task.key, task.point, task.index, task.attempts, self.fault_plan)
                )
            except OSError:
                # The worker died before taking the task: roll the
                # attempt back, re-queue, and replace the worker.
                task.attempts -= 1
                queue.appendleft(task)
                worker.killed = False
                self._on_worker_death(worker)
                continue
            worker.task = task
            worker.held.add(task.point.workload)
            worker.deadline = None if task.timeout is None else now + task.timeout
            self.batch.attempt_started(task)
        return done

    def _run_inline(self, task: Task) -> int:
        """Run one attempt of ``task`` in the supervising process.

        Serves every task of a worker-less batch (``jobs == 1`` or one
        task) and the quarantined points of a pool.  No wall-clock
        budget applies: a hung in-process attempt cannot be killed.

        Returns
        -------
        int
            1 when the task completed, 0 when the attempt failed.
        """
        if self._quarantined(task):
            self.batch.quarantined(task)
        task.attempts += 1
        self.batch.attempt_started(task)
        started = time.monotonic()
        try:
            if self.fault_plan is not None:
                self.fault_plan.apply_inline(task.index, task.attempts)
            result, stats = measure_point(task.point)
        except Exception as exc:
            task.last_error = (
                "error",
                type(exc).__name__,
                str(exc),
                traceback_module.format_exc(),
                os.getpid(),
            )
            self._retry_or_fail(task, "error")
            return 0
        self.batch.completed(task, result, stats, os.getpid(), time.monotonic() - started)
        return 1

    def _wait_timeout(self, now: float) -> float:
        """Poll interval until the next deadline or backoff expiry."""
        horizon = 10.0
        for worker in self._workers:
            if worker.deadline is not None:
                horizon = min(horizon, worker.deadline - now)
        for task in self._queue:
            horizon = min(horizon, task.not_before - now)
        return max(_MIN_WAIT, horizon)

    def _drain(self, worker: _Worker) -> int:
        """Process one ready pipe: a result, an error, or a death.

        Returns
        -------
        int
            Tasks completed by this message (0 or 1).
        """
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            self._on_worker_death(worker)
            return 0
        task = worker.task
        worker.task = None
        worker.deadline = None
        if task is None:
            return 0  # late message from a worker already written off
        if message[0] == "ok":
            _, _, pid, wall, result, stats = message
            self.batch.completed(task, result, stats, pid, wall)
            return 1
        _, _, pid, wall, exc_name, exc_message, tb = message
        task.last_error = ("error", exc_name, exc_message, tb, pid)
        self._retry_or_fail(task, "error")
        return 0

    def _on_worker_death(self, worker: _Worker) -> None:
        """Reap and replace a dead worker; reschedule its in-flight task."""
        task = worker.task
        killed = worker.killed
        pid = worker.process.pid or 0
        self._reap(worker)
        self._spawn()  # the pool keeps its size for this batch and later ones
        self.batch.worker_restarted()
        if task is None:
            return
        if killed:
            task.last_error = (
                "timeout",
                "",
                f"attempt exceeded its {task.timeout:.1f}s wall-clock budget",
                "",
                pid,
            )
            self._retry_or_fail(task, "timeout")
        else:
            task.crashes += 1
            exitcode = worker.process.exitcode
            task.last_error = (
                "crash",
                "",
                f"worker {pid} died (exit code {exitcode})",
                "",
                pid,
            )
            self._retry_or_fail(task, "crash")

    def _retry_or_fail(self, task: Task, kind: str) -> None:
        """Apply the retry policy to one failed attempt, inline or pooled.

        A quarantined task is re-queued after the crash that quarantined
        it (to run in-process next) and terminally ``"poison"`` when its
        in-process attempt fails.
        """
        self.batch.attempt_failed(task, kind)
        quarantined = self._quarantined(task)
        if quarantined and kind == "error":
            kind = "poison"
        exhausted = task.attempts > self.policy.max_retries or task.invalid_input
        if kind == "poison" or (exhausted and not quarantined):
            self._failed += 1
            self.batch.failed(task.failure(kind))
            return
        task.not_before = time.monotonic() + self.policy.backoff(task.attempts)
        self._queue.append(task)
        self.batch.retrying(task, kind)

    def _expire(self, now: float) -> None:
        """Kill workers whose task exceeded its wall-clock budget."""
        for worker in self._workers:
            if worker.task is not None and worker.deadline is not None and now > worker.deadline:
                worker.killed = True
                worker.process.kill()
