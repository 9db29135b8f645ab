"""The parallel execution engine and its content-addressed run cache.

The central invariant — a point's result is bit-identical whether it ran
inline, in a worker process, or was replayed from the cache — is pinned
here with full :class:`~repro.cpu.model.RunResult` equality (the
dataclass ``==`` compares every field, histogram included).
"""

import dataclasses
import json
import multiprocessing

import pytest

from repro.cli import main
from repro.cpu.system import System, warm_regions_of
from repro.errors import ConfigurationError
from repro.exec import (
    DEFAULT_CACHE_DIR,
    ExecutionEngine,
    RunCache,
    RunPoint,
    cache_key_of,
    code_fingerprint,
    key_material_of,
    make_engine,
)
from repro.exec import point as point_module
from repro.exec.cache import decode_result, encode_result
from repro.exec.engine import usable_cpus
from repro.exec.point import build_point_program, execute_point, measure_point, workload_trace
from repro.exec.resilience import Supervisor, Task, _Worker
from repro.experiments import ExperimentRunner, ablations, fig4, fig7
from repro.experiments.runner import CONFIGURATIONS
from repro.reliability.faults import ReliabilityConfig
from repro.telemetry import TelemetryRecorder
from repro.transforms.pipeline import OptLevel
from repro.workloads.encode import encode_trace


def point(kernel="gemm", config="vwb", level=OptLevel.NONE, **replacements):
    cfg = CONFIGURATIONS[config]
    if replacements:
        cfg = dataclasses.replace(cfg, **replacements)
    return RunPoint(kernel=kernel, config=cfg, level=level)


class TestCacheKey:
    def test_key_is_deterministic(self):
        assert cache_key_of(point()) == cache_key_of(point())

    def test_key_differs_across_kernels_levels_configs(self):
        keys = {
            cache_key_of(point()),
            cache_key_of(point(kernel="atax")),
            cache_key_of(point(level=OptLevel.FULL)),
            cache_key_of(point(config="sram")),
        }
        assert len(keys) == 4

    def test_changed_tech_params_change_key(self):
        """Editing one technology number must orphan the old entry."""
        base = point()
        tech = base.config.resolved_technology()
        slower = dataclasses.replace(tech, write_latency_ns=tech.write_latency_ns + 0.1)
        assert cache_key_of(point(technology=slower)) != cache_key_of(base)

    def test_changed_seed_changes_key(self):
        a = point(reliability=ReliabilityConfig(seed=0, write_error_rate=1e-4))
        b = point(reliability=ReliabilityConfig(seed=1, write_error_rate=1e-4))
        assert cache_key_of(a) != cache_key_of(b)

    def test_material_lists_documented_fields(self):
        material = key_material_of(point())
        assert set(material) == {
            "format", "code", "kernel", "size", "level",
            "seed", "ir", "config", "tech", "il1_tech",
        }
        assert material["code"] == code_fingerprint()
        # The material must be JSON-serialisable (it is what gets hashed).
        json.dumps(material, sort_keys=True)

    def test_label_does_not_affect_key(self):
        a = RunPoint(kernel="gemm", config=CONFIGURATIONS["vwb"], label="x")
        b = RunPoint(kernel="gemm", config=CONFIGURATIONS["vwb"], label="y")
        assert cache_key_of(a) == cache_key_of(b)


class TestRunCache:
    @pytest.fixture(scope="class")
    def result(self):
        return execute_point(point(kernel="atax"))

    def test_round_trip_is_bit_identical(self, result):
        tracked = execute_point(point(kernel="atax", track_line_writes=True))
        assert tracked.dl1_line_writes and not result.dl1_line_writes
        for original in (result, tracked):
            stored = json.loads(json.dumps(encode_result(original)))
            assert decode_result(stored) == original

    def test_put_get_identity(self, tmp_path, result):
        cache = RunCache(tmp_path)
        cache.put("ab" * 32, result, material={"kernel": "atax"})
        assert cache.get("ab" * 32) == result

    def test_missing_entry_is_none(self, tmp_path):
        assert RunCache(tmp_path).get("cd" * 32) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path, result):
        cache = RunCache(tmp_path)
        cache.put("ab" * 32, result)
        cache.path_for("ab" * 32).write_text("{not json")
        assert cache.get("ab" * 32) is None

    def test_format_version_mismatch_is_a_miss(self, tmp_path, result):
        cache = RunCache(tmp_path)
        cache.put("ab" * 32, result)
        entry = json.loads(cache.path_for("ab" * 32).read_text())
        entry["format"] = 0
        cache.path_for("ab" * 32).write_text(json.dumps(entry))
        assert cache.get("ab" * 32) is None

    def test_two_level_layout(self, tmp_path, result):
        cache = RunCache(tmp_path)
        key = "ef" * 32
        cache.put(key, result)
        assert cache.path_for(key) == tmp_path / "ef" / f"{key}.json"
        assert cache.entries() == [cache.path_for(key)]

    def test_clear_removes_entries_and_keeps_foreign_files(self, tmp_path, result):
        root = tmp_path / "journal"
        cache = RunCache(root)
        cache.put("ab" * 32, result)
        cache.put("cd" * 32, result)
        (root / "notes").mkdir()
        (root / "notes" / "plan.json").write_text("{}")  # not an entry
        cache.clear()
        assert cache.entries() == [root / "notes" / "plan.json"]
        assert sorted(p.name for p in root.iterdir()) == ["notes"]
        (root / "notes" / "plan.json").unlink()
        (root / "notes").rmdir()
        cache.clear()
        assert not root.exists()


class TestEngine:
    POINTS = [
        point(kernel="gemm"),
        point(kernel="atax"),
        point(kernel="gemm", config="sram"),
    ]

    @pytest.fixture(scope="class")
    def serial(self):
        return [execute_point(p) for p in self.POINTS]

    def test_parallel_matches_serial_bit_for_bit(self, tmp_path, serial):
        engine = ExecutionEngine(jobs=2, cache_dir=str(tmp_path / "c"))
        assert engine.run_points(self.POINTS) == serial
        assert engine.stats.executed == 3

    def test_warm_replay_is_all_hits_and_identical(self, tmp_path, serial):
        cache_dir = str(tmp_path / "c")
        ExecutionEngine(jobs=2, cache_dir=cache_dir).run_points(self.POINTS)
        warm = ExecutionEngine(jobs=2, cache_dir=cache_dir)
        assert warm.run_points(self.POINTS) == serial
        assert warm.stats.hits == 3
        assert warm.stats.executed == 0
        assert warm.stats.hit_rate() == 100.0

    def test_within_batch_dedup(self, tmp_path):
        engine = ExecutionEngine(jobs=1, cache_dir=str(tmp_path / "c"))
        results = engine.run_points([point(), point()])
        assert results[0] == results[1]
        assert engine.stats.executed == 1
        assert engine.stats.deduplicated == 1

    def test_resume_after_interrupt(self, tmp_path, serial):
        """A partial sweep's completed points replay; only the rest run."""
        cache_dir = str(tmp_path / "c")
        ExecutionEngine(jobs=1, cache_dir=cache_dir).run_points(self.POINTS[:1])
        resumed = ExecutionEngine(jobs=1, cache_dir=cache_dir)
        assert resumed.run_points(self.POINTS) == serial
        assert resumed.stats.hits == 1
        assert resumed.stats.executed == 2

    def test_no_cache_still_parallel(self, serial):
        engine = ExecutionEngine(jobs=2, cache_dir=None)
        assert engine.run_points(self.POINTS) == serial
        assert engine.stats.hits == 0
        assert "cache off" in engine.summary()

    def test_progress_stream(self, tmp_path):
        import io

        stream = io.StringIO()
        ExecutionEngine(jobs=1, cache_dir=str(tmp_path / "c"), progress=stream).run_points(
            [point()]
        )
        assert "[1/1] gemm/vwb/NONE: run" in stream.getvalue()

    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="--jobs"):
            ExecutionEngine(jobs=0)


class TestPointStats:
    @pytest.mark.parametrize("config", sorted(CONFIGURATIONS))
    @pytest.mark.parametrize("level", [OptLevel.NONE, OptLevel.FULL], ids=lambda l: l.name)
    def test_staged_run_equals_one_system_run(self, config, level):
        """Warm-up, then replay without reset, is ``System.run`` with warm regions."""
        p = point(kernel="mvt", config=config, level=level)
        expected = System(p.config).run(
            workload_trace(*p.workload), warm_regions=warm_regions_of(build_point_program(p))
        )
        result, stats = measure_point(p)
        assert result == expected
        assert stats.build_s > 0 and stats.warm_s > 0 and stats.replay_s > 0

    def test_encode_counted_once_per_process(self, monkeypatch):
        monkeypatch.setattr(point_module, "_TRACES", {})
        first = measure_point(point(kernel="atax"))[1]
        second = measure_point(point(kernel="atax", config="sram"))[1]
        assert (first.traces_encoded, second.traces_encoded) == (1, 0)
        assert first.encode_s > 0 and second.encode_s == 0.0

    def test_memory_figures(self):
        p = point(kernel="bicg")
        stats = measure_point(p)[1]
        assert stats.trace_bytes == encode_trace(build_point_program(p)).nbytes
        assert stats.peak_rss_mb > 0


class TestPool:
    """One long-lived, trace-affine pool per engine, reporting stats records."""

    KERNELS = ("gemm", "atax")

    def test_pool_outlives_batches_and_matches_serial(self, tmp_path):
        first = [point(kernel=k, config="sram") for k in self.KERNELS]
        second = [point(kernel=k, config="vwb") for k in self.KERNELS]
        recorder = TelemetryRecorder(str(tmp_path / "tele"))
        with ExecutionEngine(jobs=2, telemetry=recorder) as engine:
            pooled = engine.run_points(first) + engine.run_points(second)
        recorder.close()
        assert pooled == [execute_point(p) for p in first + second]
        pids = [r["worker_pid"] for r in engine.point_records]
        # Both batches ran on the same two workers: a pool per batch
        # would have brought two new pids to the second.
        assert len(pids) == 4 and len(set(pids)) <= 2
        assert not multiprocessing.active_children()

    def test_pooled_stats_reach_the_engine_metrics(self, monkeypatch):
        monkeypatch.setattr(point_module, "_PROGRAMS", {})
        monkeypatch.setattr(point_module, "_TRACES", {})  # workers fork without traces
        points = [point(kernel=k, config=c) for k in self.KERNELS for c in ("sram", "vwb")]
        with ExecutionEngine(jobs=2) as engine:
            engine.run_points(points)
        stats = engine.stats
        assert stats.executed == 4
        assert stats.encode_s > 0 and stats.build_s > 0
        assert stats.warm_s > 0 and stats.replay_s > 0
        assert 2 <= stats.traces_encoded <= 4
        assert engine.metrics.histograms["point.replay_s"].count == 4
        assert not point_module._TRACES  # the encodes happened in the workers
        # Memory comes from the workers too: the parent encoded nothing.
        assert stats.peak_rss_mb > 0
        one_each = sum(encode_trace(build_point_program(point(kernel=k))).nbytes
                       for k in self.KERNELS)
        assert one_each <= stats.trace_bytes <= 2 * one_each

    def test_single_point_and_cached_batches_spawn_no_worker(self, tmp_path):
        cache_dir = str(tmp_path / "c")
        with ExecutionEngine(jobs=2, cache_dir=cache_dir) as engine:
            engine.run_points([point()])
            assert not engine._supervisor._workers
        with ExecutionEngine(jobs=2, cache_dir=cache_dir) as warm:
            warm.run_points([point(), point()])
            assert warm.stats.hits == 2
            assert not warm._supervisor._workers

    def test_dispatch_is_trace_affine(self):
        supervisor = Supervisor(2)
        tasks = {k: Task(index=i, key=k, point=point(kernel=k))
                 for i, k in enumerate(("gemm", "atax", "bicg"))}
        gemm, atax, bicg = (tasks[k].point.workload for k in ("gemm", "atax", "bicg"))
        mine, other = _Worker(None, None, {atax}), _Worker(None, None, {gemm})
        supervisor._workers = [mine, other]
        ready = list(tasks.values())
        assert supervisor._pick(mine, ready) is tasks["atax"]  # a trace it holds
        mine.held = set()
        assert supervisor._pick(mine, ready) is tasks["atax"]  # a trace no one holds
        other.held = {gemm, atax, bicg}
        assert supervisor._pick(mine, ready) is tasks["gemm"]  # else the oldest


class TestMakeEngine:
    def test_plain_serial_gets_no_engine(self):
        assert make_engine(jobs=1, cache_dir=None) is None
        assert make_engine(jobs=1, cache_dir=None, no_cache=True) is None

    def test_default_jobs_engage_nothing(self):
        assert make_engine() is None
        assert make_engine(no_cache=True) is None

    def test_default_jobs_are_the_usable_cpus(self, tmp_path):
        engine = make_engine(cache_dir=str(tmp_path))
        assert engine.jobs == usable_cpus() >= 1

    def test_jobs_engage_default_cache(self):
        engine = make_engine(jobs=2)
        assert engine is not None
        assert str(engine.cache.root) == DEFAULT_CACHE_DIR

    def test_no_cache_keeps_parallelism(self):
        engine = make_engine(jobs=2, no_cache=True)
        assert engine.cache is None
        assert engine.jobs == 2

    def test_cache_dir_alone_engages(self, tmp_path):
        engine = make_engine(jobs=1, cache_dir=str(tmp_path))
        assert engine is not None
        assert engine.jobs == 1

    def test_bad_jobs_rejected(self):
        with pytest.raises(ConfigurationError, match="--jobs"):
            make_engine(jobs=0)


class TestRunnerIntegration:
    KERNELS = ["gemm", "atax"]

    @pytest.fixture(scope="class")
    def serial_runner(self):
        return ExperimentRunner(kernels=self.KERNELS)

    def engine_runner(self, tmp_path, jobs=2):
        engine = ExecutionEngine(jobs=jobs, cache_dir=str(tmp_path / "c"), progress=None)
        return ExperimentRunner(kernels=self.KERNELS, engine=engine), engine

    def test_penalties_identical_serial_vs_engine(self, tmp_path, serial_runner):
        expected = serial_runner.penalties("vwb", OptLevel.FULL)
        runner, engine = self.engine_runner(tmp_path)
        assert runner.penalties("vwb", OptLevel.FULL) == expected
        # Whole figure went out as one batch: vwb + sram per kernel.
        assert engine.stats.points == 4

    def test_penalties_identical_on_warm_cache(self, tmp_path, serial_runner):
        expected = serial_runner.penalties("vwb", OptLevel.FULL)
        self.engine_runner(tmp_path)[0].penalties("vwb", OptLevel.FULL)
        warm_runner, warm_engine = self.engine_runner(tmp_path)
        assert warm_runner.penalties("vwb", OptLevel.FULL) == expected
        assert warm_engine.stats.hits == 4
        assert warm_engine.stats.executed == 0

    def test_reliability_sweep_identical(self, tmp_path):
        rates = (1e-4, 1e-3)
        expected = ExperimentRunner(kernels=self.KERNELS).reliability_sweep(
            "gemm", rates, configs=("vwb",), seed=3
        )
        runner, engine = self.engine_runner(tmp_path)
        assert runner.reliability_sweep("gemm", rates, configs=("vwb",), seed=3) == expected
        assert engine.stats.points == 3  # 2 faulty points + 1 sram baseline

    def test_one_point_under_two_labels_runs_once(self):
        engine = ExecutionEngine()
        runner = ExperimentRunner(kernels=["gemm"], engine=engine)
        result = ablations.run_latency_sensitivity(runner)
        # sram + write/read x {1, 0.5, 0.25}: write_x1 and read_x1 are one point.
        assert engine.stats.points == 6
        assert engine.stats.executed == 6
        assert result.series_for("write_x1") == result.series_for("read_x1")

    @pytest.mark.parametrize("figure", [fig4, fig7], ids=["fig4", "fig7"])
    def test_figure_grid_is_one_batch(self, figure):
        engine = ExecutionEngine()
        figure.run(ExperimentRunner(kernels=["gemm", "atax"], engine=engine))
        assert engine.metrics.histograms["exec.batch_wall_s"].count == 1

    def test_run_memoises_adhoc_configs_by_content(self, tmp_path):
        runner, engine = self.engine_runner(tmp_path, jobs=1)
        cfg = dataclasses.replace(CONFIGURATIONS["vwb"], dl1_banks=2)
        first = runner.run(cfg, "gemm")
        second = runner.run(cfg, "gemm")
        assert first == second
        assert engine.stats.points == 1  # second call hit the in-memory memo


class TestCLI:
    def test_cold_then_warm_sweep_is_identical_and_all_hits(self, tmp_path, capsys):
        args = [
            "sweep", "--param", "dl1_banks", "--values", "1", "2",
            "--kernels", "gemm", "--jobs", "2",
            "--cache-dir", str(tmp_path / "c"),
        ]
        assert main(args) == 0
        cold = capsys.readouterr()
        assert main(args) == 0
        warm = capsys.readouterr()

        def table(text):
            return [line for line in text.splitlines() if not line.startswith("exec:")]

        assert table(warm.out) == table(cold.out)
        assert "0 misses (100% cache hits)" in warm.out
        assert "3 cache hits" in warm.out  # 2 swept + 1 shared sram baseline

    def test_jobs_zero_is_usage_error(self, capsys):
        assert main(["fig1", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_invalid_point_config_is_a_usage_error_on_first_attempt(
        self, jobs, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)  # --no-cache sweeps journal in the cwd
        code = main(
            ["sweep", "--param", "dl1_banks", "--values", "3", "--kernels", "gemm",
             "--jobs", jobs, "--no-cache"]
        )
        err = capsys.readouterr().err
        assert code == 2
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == ["error: dl1: bank count must be a power of two"]
        assert "retrying" not in err

    def test_unknown_sweep_config_lists_aliases(self, capsys):
        code = main(
            ["sweep", "--param", "dl1_banks", "--values", "1", "--config", "victim"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown configuration" in err
        assert "nvm-vwb" in err
