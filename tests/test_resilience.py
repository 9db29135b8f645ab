"""Chaos suite for the fault-tolerant execution engine.

Every scenario injects a deterministic fault through
:class:`~repro.exec.resilience.FaultPlan` — worker crashes, hung points,
poison points, corrupted cache entries, a full disk — and asserts the
sweep still completes with results **bit-identical** to a clean serial
run (full :class:`~repro.cpu.model.RunResult` equality, histogram
included).  The interrupt tests drive the real CLI in a subprocess:
``SIGINT`` mid-sweep must exit 130 after checkpointing, and re-running
the same command must resume executing only the remaining points.
"""

import dataclasses
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import EXIT_INTERRUPTED, EXIT_OK, main
from repro.errors import SweepFailure
from repro.exec import (
    ExecutionEngine,
    FaultPlan,
    PointFailure,
    RetryPolicy,
    RunCache,
    RunPoint,
    cache_key_of,
    estimate_point_cost,
)
from repro.exec.point import execute_point
from repro.exec.resilience import scale_timeouts
from repro.experiments.runner import CONFIGURATIONS

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
KERNELS = ("gemm", "atax", "bicg", "mvt")
CONFIGS = ("sram", "vwb")


def _points():
    return [
        RunPoint(kernel=k, config=CONFIGURATIONS[c], label=f"{k}/{c}")
        for k in KERNELS
        for c in CONFIGS
    ]


@pytest.fixture(scope="module")
def reference():
    """Clean serial results every chaos run must reproduce exactly."""
    return [execute_point(p) for p in _points()]


def _chaos_engine(tmp_path, plan, policy=None, jobs=3, cache=True):
    return ExecutionEngine(
        jobs=jobs,
        cache_dir=str(tmp_path / "cache") if cache else None,
        policy=policy or RetryPolicy(),
        fault_plan=plan,
    )


class TestPolicyAndEstimates:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff_s=0.1, backoff_factor=2.0)
        waits = [policy.backoff(n) for n in (1, 2, 3, 10)]
        assert waits[0] == pytest.approx(0.1)
        assert waits[1] == pytest.approx(0.2)
        assert waits[2] == pytest.approx(0.4)
        assert waits == sorted(waits)
        assert waits[-1] <= 2.0

    def test_cost_estimate_is_deterministic_and_kernel_specific(self):
        """The static estimate reflects the kernel, not a shared constant."""
        gemm = estimate_point_cost(RunPoint("gemm", CONFIGURATIONS["vwb"]))
        atax = estimate_point_cost(RunPoint("atax", CONFIGURATIONS["vwb"]))
        assert gemm > 0 and atax > 0
        assert gemm != atax
        assert gemm == estimate_point_cost(RunPoint("gemm", CONFIGURATIONS["vwb"]))

    def test_timeout_scaling_extends_never_shrinks(self):
        budgets = scale_timeouts([100, 400, 1000], 10.0)
        assert budgets[0] == pytest.approx(10.0)  # light point keeps the floor
        assert budgets[2] == pytest.approx(20.0)  # 2x the mean cost -> 2x budget
        assert all(b >= 10.0 for b in budgets)
        assert scale_timeouts([1, 2], None) == [None, None]

    def test_failure_record_round_trips(self):
        failure = PointFailure(
            label="gemm/vwb", kernel="gemm", key="k" * 64, kind="timeout",
            attempts=3, message="exceeded budget", worker_pid=41,
        )
        data = failure.as_dict()
        assert data["kind"] == "timeout" and data["attempts"] == 3
        assert "timeout after 3 attempt(s)" in failure.describe()


class TestCacheHardening:
    def test_orphaned_tmp_files_swept_at_open(self, tmp_path):
        """Satellite: ``*.tmp`` leaked between mkstemp and replace."""
        root = tmp_path / "cache"
        (root / "ab").mkdir(parents=True)
        orphan = root / "ab" / "stale123.tmp"
        orphan.write_text("half an entry")
        old = time.time() - 3600
        os.utime(orphan, (old, old))
        RunCache(root)
        assert not orphan.exists()

    def test_fresh_tmp_files_survive_the_sweep(self, tmp_path):
        """A concurrent writer's in-flight tmp file must not be raced."""
        root = tmp_path / "cache"
        (root / "ab").mkdir(parents=True)
        fresh = root / "ab" / "inflight.tmp"
        fresh.write_text("being written right now")
        future = time.time() + 3600
        os.utime(fresh, (future, future))
        RunCache(root)
        assert fresh.exists()

    def test_quarantine_moves_entry_with_reason(self, tmp_path, reference):
        cache = RunCache(tmp_path / "cache")
        key = cache_key_of(_points()[0])
        cache.put(key, reference[0])
        cache.path_for(key).write_text("not json at all")
        assert cache.lookup(key).status == "corrupt"
        moved = cache.quarantine(key, "corrupt entry (test)")
        assert moved is not None and moved.exists()
        reason = moved.parent / f"{key}.reason.txt"
        assert "corrupt" in reason.read_text()
        assert cache.lookup(key).status == "miss"  # healed: recomputes
        assert cache.entries() == []  # quarantined entries are not live
        assert cache.quarantined() == [moved]


class TestChaos:
    def test_worker_crash_mid_batch_is_bit_identical(self, tmp_path, reference):
        engine = _chaos_engine(tmp_path, FaultPlan(crashes={0: 1, 5: 1}))
        assert engine.run_points(_points()) == reference
        assert engine.stats.worker_restarts >= 2
        assert engine.stats.retries >= 2
        assert engine.metrics.snapshot()["counters"]["exec.worker_restarts"] >= 2

    def test_hung_point_times_out_and_retries(self, tmp_path, reference):
        engine = _chaos_engine(
            tmp_path,
            FaultPlan(hangs={1: 1}),
            policy=RetryPolicy(timeout=3.0),
        )
        assert engine.run_points(_points()) == reference
        assert engine.stats.timeouts == 1

    def test_poison_point_quarantined_to_serial(self, tmp_path, reference):
        engine = _chaos_engine(
            tmp_path,
            FaultPlan(crashes={2: 99}),  # crashes every worker attempt
            policy=RetryPolicy(max_retries=5, quarantine_after=2),
        )
        assert engine.run_points(_points()) == reference
        assert engine.stats.quarantined == 1
        assert engine.stats.worker_restarts >= 2

    def test_corrupt_cache_entries_quarantined_and_recomputed(self, tmp_path, reference):
        warm = _chaos_engine(tmp_path, None, jobs=1)
        warm.run_points(_points())
        engine = _chaos_engine(tmp_path, FaultPlan(corrupt_entries=(1, 4)), jobs=1)
        assert engine.run_points(_points()) == reference
        assert engine.stats.corrupt == 2
        quarantined = engine.cache.quarantined()
        assert len(quarantined) == 2
        for entry in quarantined:
            reason = entry.parent / f"{entry.stem}.reason.txt"
            assert "corrupt" in reason.read_text()

    def test_disk_full_degrades_to_cache_off(self, tmp_path, reference, monkeypatch):
        engine = _chaos_engine(tmp_path, None, jobs=1)

        def full_disk(key, result, material=None):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(engine.cache, "put", full_disk)
        assert engine.run_points(_points()) == reference
        assert engine.cache is None  # degraded, not crashed
        assert "off (degraded)" in engine.summary()
        assert engine.metrics.snapshot()["counters"]["cache.degraded"] == 1

    def test_terminal_failure_is_structured_not_fatal(self, tmp_path, reference):
        plan = FaultPlan(errors={3: 99})
        engine = _chaos_engine(tmp_path, plan, policy=RetryPolicy(max_retries=1))
        with pytest.raises(SweepFailure) as excinfo:
            engine.run_points(_points())
        (failure,) = excinfo.value.failures
        assert failure.kind == "error"
        assert failure.attempts == 2
        assert failure.exception == "RuntimeError"
        assert "injected fault" in failure.message

        detailed = _chaos_engine(
            tmp_path / "d", plan, policy=RetryPolicy(max_retries=1)
        ).run_points_detailed(_points())
        assert [r is None for r in detailed.results] == [i == 3 for i in range(8)]
        kept = [r for r in detailed.results if r is not None]
        assert kept == [r for i, r in enumerate(reference) if i != 3]

    def test_serial_path_retries_identically(self, tmp_path, reference):
        engine = _chaos_engine(
            tmp_path,
            FaultPlan(errors={0: 1, 6: 2}),
            policy=RetryPolicy(max_retries=2, backoff_s=0.01),
            jobs=1,
        )
        assert engine.run_points(_points()) == reference
        assert engine.stats.retries == 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fail_fast_stops_only_its_own_batch(self, tmp_path, reference, jobs):
        """A fail-fast stop names its point and never leaks into later batches."""
        engine = ExecutionEngine(
            jobs=jobs,
            policy=RetryPolicy(max_retries=0, fail_fast=True),
            fault_plan=FaultPlan(errors={1: 1}),
        )
        with pytest.raises(SweepFailure) as excinfo:
            engine.run_points(_points()[:4])
        (failure,) = excinfo.value.failures
        assert failure.label == _points()[1].display()
        engine.fault_plan = None
        later = engine.run_points_detailed(_points()[4:])
        assert later.ok
        assert later.results == reference[4:]
        assert engine.run_points(_points()[4:]) == reference[4:]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_cache_sweep_resumes_from_the_journal(self, tmp_path, reference, jobs):
        """Without a cache, completed points are checkpointed and replayed."""
        points = _points()[:4]
        journal = tmp_path / "j"
        first = ExecutionEngine(
            jobs=jobs,
            journal_dir=str(journal),
            policy=RetryPolicy(max_retries=0),
            fault_plan=FaultPlan(errors={1: 1}),
        )
        assert len(first.run_points_detailed(points).failures) == 1
        first.finish()  # a failed sweep keeps its checkpoint
        assert len(RunCache(journal).entries()) == len(points) - 1

        resumed = ExecutionEngine(jobs=jobs, journal_dir=str(journal))
        assert resumed.run_points(points) == reference[:4]
        s = resumed.stats
        assert s.journal_hits == len(points) - 1
        assert s.executed == 1
        assert s.misses == s.journal_hits + s.executed + s.deduplicated + s.failed
        resumed.run_points(points)  # a repeat counts as duplicates, not replays
        assert s.journal_hits == len(points) - 1
        assert s.deduplicated == len(points)
        resumed.finish()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_own_checkpoint_is_a_duplicate_not_a_replay(self, tmp_path, reference, jobs):
        """A point this engine journaled in an earlier batch is deduplicated."""
        engine = ExecutionEngine(jobs=jobs, journal_dir=str(tmp_path / "j"))
        assert engine.run_points(_points()[:1]) == reference[:1]
        assert engine.run_points(_points()[:1]) == reference[:1]
        s = engine.stats
        assert s.journal_hits == 0
        assert s.executed == 1
        assert s.deduplicated == 1
        assert s.misses == s.journal_hits + s.executed + s.deduplicated + s.failed

    def test_retry_telemetry_is_the_same_inline_and_pooled(self, tmp_path):
        """Both job counts write the same span and event records for a retry."""
        from repro.telemetry import TelemetryRecorder, read_events

        shapes = []
        for jobs in (1, 2):
            rec = TelemetryRecorder(tmp_path / f"tele{jobs}")
            engine = ExecutionEngine(
                jobs=jobs,
                telemetry=rec,
                policy=RetryPolicy(backoff_s=0.01),
                fault_plan=FaultPlan(errors={1: 1}),
            )
            engine.run_points(_points()[:4])
            rec.close()
            records = read_events(rec.path)
            begins = {r["span"] for r in records if r["kind"] == "span_begin"}
            ends = {r["span"] for r in records if r["kind"] == "span_end"}
            assert begins == ends
            shapes.append(sorted((r["kind"], str(r.get("name"))) for r in records))
        assert shapes[0] == shapes[1]
        assert ("event", "point_attempt") in shapes[0]


class TestInterruptAndResume:
    def _spawn(self, cwd, *extra):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        cmd = [
            sys.executable, "-m", "repro", "penalties", "--no-bars",
            "--jobs", "4", "--cache-dir", ".cache", "--telemetry", ".tele",
        ] + list(extra)
        return subprocess.Popen(
            cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True,  # isolate from pytest's process group
        )

    def test_sigint_checkpoints_then_resume_executes_only_the_rest(self, tmp_path):
        proc = self._spawn(tmp_path)
        cache = tmp_path / ".cache"
        # Interrupt mid-sweep: as soon as the first point is checkpointed
        # (its cache entry written), with more outstanding.  A fixed sleep
        # races a fast host's sweep.
        deadline = time.monotonic() + 120.0
        while not list(cache.glob("*/*.json")):
            assert proc.poll() is None, "sweep finished before its first checkpoint"
            assert time.monotonic() < deadline, "no checkpoint within 120 s"
            time.sleep(0.02)
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == EXIT_INTERRUPTED, err.decode()
        assert b"resume" in err
        assert not list(cache.rglob("journal.jsonl"))  # the cache is the checkpoint

        interrupted = json.loads((tmp_path / ".tele" / "manifest.json").read_text())
        done_before = {
            p["cache_key"] for p in interrupted["points"] if p["status"] in ("run", "hit")
        }
        assert done_before, "expected some completed points before the interrupt"

        resume = self._spawn(tmp_path)
        _, err = resume.communicate(timeout=300)
        assert resume.returncode == EXIT_OK, err.decode()
        manifest = json.loads((tmp_path / ".tele" / "manifest.json").read_text())
        stats = manifest["engine"]["stats"]
        assert stats["failed"] == 0
        # Exact resume: everything that completed before the interrupt
        # replays (cache hit), only the remainder executes.
        assert stats["hits"] >= len(done_before)
        assert 0 < stats["executed"] < stats["points"]
        assert not list(cache.rglob("journal.jsonl"))

    @pytest.mark.skipif(not hasattr(signal, "pthread_sigmask"), reason="needs pthread_sigmask")
    def test_interrupt_waits_for_the_checkpoint_record(self):
        from repro.exec.engine import _interrupts_held

        recorded = False
        with pytest.raises(KeyboardInterrupt):
            with _interrupts_held():
                os.kill(os.getpid(), signal.SIGINT)
                time.sleep(0.05)
                recorded = True
        assert recorded

    def test_keyboard_interrupt_maps_to_130_in_process(self, monkeypatch):
        """Satellite: KeyboardInterrupt routes through the error handler."""
        import repro.cli as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_dispatch", interrupted)
        assert main(["fig1"]) == EXIT_INTERRUPTED


def _alive(pid):
    """Whether ``pid`` is a live process (an exited zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _children(pid):
    """Pids of ``pid``'s child processes, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as handle:
            return [int(c) for c in handle.read().split()]
    except OSError:
        return []


class TestPoolLifetime:
    """No worker outlives the command: success, fail-fast, SIGINT, parent death."""

    ARGS = ["fig1", "--kernels", "gemm", "atax", "--no-bars"]

    @pytest.fixture
    def spawned(self, monkeypatch):
        from repro.exec.resilience import Supervisor

        processes = []
        spawn = Supervisor._spawn

        def recording(self):
            worker = spawn(self)
            processes.append(worker.process)
            return worker

        monkeypatch.setattr(Supervisor, "_spawn", recording)
        return processes

    def test_plain_run_pools_and_leaves_nothing(self, tmp_path, monkeypatch, capsys, spawned):
        import repro.exec.engine as engine_module

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(engine_module, "usable_cpus", lambda: 2)
        assert main(self.ARGS) == EXIT_OK
        out = capsys.readouterr().out
        assert "exec:" not in out and "fig1" in out
        assert len(spawned) == 2  # one pool of the usable CPUs, reused by each batch
        assert not any(p.is_alive() for p in spawned)
        assert not list(tmp_path.iterdir())  # no .repro-cache, no .repro-journal

    def test_fail_fast_failure_leaves_no_worker(self, tmp_path, monkeypatch, spawned):
        import repro.exec as exec_package

        make_engine = exec_package.make_engine
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(
            exec_package, "make_engine",
            lambda **kw: make_engine(**kw, fault_plan=FaultPlan(errors={0: 9})),
        )
        code = main(self.ARGS + ["--jobs", "2", "--no-cache", "--fail-fast", "--max-retries", "0"])
        assert code == 3
        assert spawned and not any(p.is_alive() for p in spawned)

    def _cli(self, cwd):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "penalties", "--no-bars", "--jobs", "2", "--no-cache"],
            cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )

    def _workers_once_checkpointed(self, proc, cwd):
        deadline = time.monotonic() + 120.0
        while not list((cwd / ".repro-journal").glob("*/*.json")):
            assert proc.poll() is None, "sweep finished before its first checkpoint"
            assert time.monotonic() < deadline, "no checkpoint within 120 s"
            time.sleep(0.02)
        workers = _children(proc.pid)
        assert len(workers) == 2
        return workers

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_sigint_leaves_no_worker(self, tmp_path):
        proc = self._cli(tmp_path)
        workers = self._workers_once_checkpointed(proc, tmp_path)
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=120) == EXIT_INTERRUPTED
        assert not any(_alive(w) for w in workers)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_workers_exit_when_the_supervisor_dies(self, tmp_path):
        proc = self._cli(tmp_path)
        workers = self._workers_once_checkpointed(proc, tmp_path)
        proc.kill()  # no chance to close the pool
        proc.wait(timeout=30)
        deadline = time.monotonic() + 30.0
        while any(_alive(w) for w in workers):
            assert time.monotonic() < deadline, "a worker outlived its supervisor"
            time.sleep(0.1)


class TestBenchReportSatellite:
    def _write(self, tmp_path, name, generations, with_name=True):
        record = {"format": 1, "generations": generations}
        if with_name:
            record["name"] = name
        (tmp_path / f"BENCH_{name}.json").write_text(json.dumps(record))

    def test_single_generation_reports_no_baseline_and_exits_zero(self, tmp_path, capsys):
        from repro.telemetry import bench_report

        gen = {"created": "now", "metrics": {"wall_s": {"value": 1.0}}, "context": {}}
        self._write(tmp_path, "solo", [gen])
        text, regressions = bench_report(tmp_path)
        assert "no baseline yet" in text
        assert regressions == []
        assert main(["bench-report", "--bench-dir", str(tmp_path)]) == EXIT_OK
        assert "no baseline yet" in capsys.readouterr().out

    def test_record_without_name_falls_back_to_filename(self, tmp_path):
        from repro.telemetry import bench_report

        gen = {"created": "now", "metrics": {"wall_s": {"value": 1.0}}, "context": {}}
        self._write(tmp_path, "anon", [gen], with_name=False)
        text, regressions = bench_report(tmp_path)
        assert "anon: 1 generation(s)" in text
        assert regressions == []
