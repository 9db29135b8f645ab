"""Telemetry contract tests: bit-identity, spans, manifests, bench gate.

The load-bearing invariants of ``repro.telemetry``:

- results are ``RunResult``-equal with telemetry enabled, disabled, or
  bypassed entirely (the engine's central invariant extends to the
  instrumented path);
- ``events.jsonl`` is well-formed: monotone sequence numbers, balanced
  span begin/end pairs, point spans parented on their batch;
- manifests schema-validate, round-trip through disk, and reject
  documents that violate the schema;
- stale and corrupt cache entries are counted separately, surfaced on
  :class:`~repro.exec.engine.ExecStats` and named in a structured
  warning;
- the CLI log honours ``--quiet``/``--verbose`` and ``REPRO_LOG``;
- ``repro bench-report`` exits non-zero on an injected regression.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import EXIT_OK, EXIT_RUNTIME, main
from repro.exec import CACHE_FORMAT_VERSION, ExecutionEngine, RunPoint, cache_key_of, execute_point
from repro.experiments.runner import CONFIGURATIONS
from repro.telemetry import (
    NULL_TELEMETRY,
    TelemetryRecorder,
    build_manifest,
    load_manifest,
    metric,
    read_events,
    record_bench,
    sweep_timeline,
    validate_manifest,
    write_manifest,
)
from repro.telemetry import log as repro_log

KERNELS = ("gemm", "atax")
CONFIGS = ("sram", "vwb", "dropin")


def _grid_points():
    return [
        RunPoint(kernel=kernel, config=CONFIGURATIONS[config])
        for kernel in KERNELS
        for config in CONFIGS
    ]


@pytest.fixture(autouse=True)
def _reset_log_level():
    """The CLI log level is process-global; restore the default after use."""
    yield
    repro_log.configure()


@pytest.fixture()
def recorder(tmp_path):
    rec = TelemetryRecorder(tmp_path / "tele")
    yield rec
    rec.close()


class TestBitIdentity:
    def test_telemetry_on_off_and_bypass_are_equal(self, tmp_path):
        points = _grid_points()
        bare = [execute_point(p) for p in points]

        engine_off = ExecutionEngine(jobs=1, telemetry=NULL_TELEMETRY)
        off = engine_off.run_points(points)

        rec = TelemetryRecorder(tmp_path / "tele")
        engine_on = ExecutionEngine(jobs=2, telemetry=rec)
        on = engine_on.run_points(points)
        rec.close()

        assert off == bare
        assert on == bare

    def test_null_telemetry_is_inert(self):
        assert NULL_TELEMETRY.enabled is False
        assert NULL_TELEMETRY.now() == 0.0
        assert NULL_TELEMETRY.begin_span("x") == 0
        assert NULL_TELEMETRY.end_span(0) is None
        assert NULL_TELEMETRY.event("x") is None
        with NULL_TELEMETRY.span("x") as span:
            assert span.id == 0


class TestEventLog:
    def _run(self, recorder, jobs=2):
        engine = ExecutionEngine(jobs=jobs, telemetry=recorder)
        with recorder.span("sweep", command="test"):
            engine.run_points(_grid_points())
        return engine

    def test_events_are_well_formed(self, recorder):
        self._run(recorder)
        recorder.close()
        records = read_events(recorder.path)

        seqs = [r["seq"] for r in records]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert all("ts" in r and "pid" in r for r in records)
        assert records[0]["name"] == "telemetry_start"
        assert records[-1]["name"] == "telemetry_end"

        begins = {r["span"] for r in records if r["kind"] == "span_begin"}
        ends = {r["span"] for r in records if r["kind"] == "span_end"}
        assert begins == ends

    def test_point_spans_nest_under_batch_under_sweep(self, recorder):
        self._run(recorder)
        recorder.close()
        records = read_events(recorder.path)
        by_name = {}
        for r in records:
            if r["kind"] == "span_begin":
                by_name.setdefault(r["name"], []).append(r)
        assert len(by_name["sweep"]) == 1
        sweep_id = by_name["sweep"][0]["span"]
        assert [b["parent"] for b in by_name["batch"]] == [sweep_id]
        batch_id = by_name["batch"][0]["span"]
        assert len(by_name["point"]) == len(KERNELS) * len(CONFIGS)
        assert all(b["parent"] == batch_id for b in by_name["point"])

    def test_timestamps_are_monotonic(self, recorder):
        self._run(recorder, jobs=1)
        recorder.close()
        ts = [r["ts"] for r in read_events(recorder.path)]
        assert ts == sorted(ts)


class TestManifest:
    def _engine(self, tmp_path, jobs=2):
        rec = TelemetryRecorder(tmp_path / "tele")
        engine = ExecutionEngine(jobs=jobs, telemetry=rec)
        engine.run_points(_grid_points())
        rec.close()
        return engine

    def test_round_trip_and_schema(self, tmp_path):
        engine = self._engine(tmp_path)
        doc = build_manifest("penalties", engine, argv=["penalties", "--jobs", "2"])
        validate_manifest(doc)
        path = write_manifest(doc, tmp_path / "tele")
        loaded = load_manifest(tmp_path / "tele")
        assert loaded == json.loads(path.read_text())
        assert loaded["command"] == "penalties"
        assert len(loaded["points"]) == len(KERNELS) * len(CONFIGS)
        assert loaded["engine"]["stats"]["executed"] == len(KERNELS) * len(CONFIGS)
        assert set(loaded["technologies"]) == {"SRAM 32nm HP", "STT-MRAM 32nm"}

    def test_worker_attribution(self, tmp_path):
        engine = self._engine(tmp_path, jobs=2)
        doc = build_manifest("penalties", engine)
        runs = [p for p in doc["points"] if p["status"] == "run"]
        assert runs, "expected executed points"
        assert all(p["worker_pid"] > 0 for p in runs)
        assert all(p["wall_s"] > 0.0 for p in runs)

    def test_invalid_manifest_is_rejected(self, tmp_path):
        engine = self._engine(tmp_path, jobs=1)
        doc = build_manifest("penalties", engine)
        doc["points"][0]["status"] = "bogus"
        with pytest.raises(ValueError, match="status"):
            validate_manifest(doc)
        del doc["points"]
        with pytest.raises(ValueError, match="points"):
            validate_manifest(doc)

    def test_timeline_tracks_workers(self, tmp_path):
        engine = self._engine(tmp_path, jobs=2)
        doc = build_manifest("penalties", engine)
        trace = sweep_timeline(doc)
        events = trace["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        slices = [e for e in events if e["ph"] == "X"]
        worker_threads = [e for e in metas if e["name"] == "thread_name"]
        assert len(slices) == len(doc["points"])
        assert len(worker_threads) == len({p["worker_pid"] for p in doc["points"]})
        body_ts = [e["ts"] for e in slices]
        assert body_ts == sorted(body_ts)


class TestCacheAnomalies:
    def _cached_engine(self, tmp_path, telemetry=NULL_TELEMETRY):
        return ExecutionEngine(jobs=1, cache_dir=str(tmp_path / "cache"), telemetry=telemetry)

    def test_corrupt_entry_counts_and_warns(self, tmp_path, capsys):
        point = RunPoint(kernel="gemm", config=CONFIGURATIONS["sram"])
        engine = self._cached_engine(tmp_path)
        [first] = engine.run_points([point])

        key = cache_key_of(point)
        engine.cache.path_for(key).write_text("{not json")

        rec = TelemetryRecorder(tmp_path / "tele")
        engine2 = ExecutionEngine(jobs=1, cache_dir=str(tmp_path / "cache"), telemetry=rec)
        [again] = engine2.run_points([point])
        rec.close()

        assert again == first
        assert engine2.stats.corrupt == 1
        assert engine2.stats.stale == 0
        assert engine2.metrics.counters["cache.corrupt"] == 1
        assert "corrupt" in engine2.summary()
        warnings = [r for r in read_events(rec.path) if r["kind"] == "warning"]
        assert len(warnings) == 1
        assert warnings[0]["key"] == key
        assert key in capsys.readouterr().err

    def test_stale_entry_counts_separately(self, tmp_path):
        point = RunPoint(kernel="gemm", config=CONFIGURATIONS["sram"])
        engine = self._cached_engine(tmp_path)
        engine.run_points([point])

        key = cache_key_of(point)
        path = engine.cache.path_for(key)
        entry = json.loads(path.read_text())
        entry["format"] = CACHE_FORMAT_VERSION + 1
        path.write_text(json.dumps(entry))

        engine2 = self._cached_engine(tmp_path)
        engine2.run_points([point])
        assert engine2.stats.stale == 1
        assert engine2.stats.corrupt == 0
        assert engine2.stats.misses == 1

    def test_lookup_classifies_miss_kinds(self, tmp_path):
        from repro.exec import RunCache

        cache = RunCache(tmp_path / "cache")
        assert cache.lookup("ab" * 32).status == "miss"
        path = cache.path_for("ab" * 32)
        path.parent.mkdir(parents=True)
        path.write_text("garbage")
        assert cache.lookup("ab" * 32).status == "corrupt"
        assert cache.get("ab" * 32) is None


class TestLogLevels:
    def teardown_method(self):
        repro_log.configure()

    def test_quiet_beats_verbose(self):
        assert repro_log.configure(quiet=True, verbose=True) == "quiet"
        assert repro_log.progress_stream() is None

    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv(repro_log.ENV_VAR, "debug")
        assert repro_log.configure() == "debug"
        monkeypatch.setenv(repro_log.ENV_VAR, "nonsense")
        assert repro_log.configure() == "info"

    def test_levels_filter_output(self, capsys):
        repro_log.configure(quiet=True)
        repro_log.warn("hidden")
        repro_log.info("hidden")
        repro_log.error("shown")
        err = capsys.readouterr().err
        assert "hidden" not in err
        assert "error: shown" in err


class TestBenchReport:
    def _record(self, tmp_path, value):
        record_bench("trace", {"throughput": metric(value, unit="x")}, tmp_path)

    def test_flags_injected_regression(self, tmp_path, capsys):
        self._record(tmp_path, 5.0)
        self._record(tmp_path, 4.0)  # -20%: beyond the 10% threshold
        code = main(["bench-report", "--bench-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == EXIT_RUNTIME
        assert "REGRESSED" in out

    def test_improvement_and_noise_pass(self, tmp_path, capsys):
        self._record(tmp_path, 5.0)
        self._record(tmp_path, 4.8)  # -4%: within threshold
        code = main(["bench-report", "--bench-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "no regressions" in out

    def test_lower_is_better_direction(self, tmp_path):
        record_bench("p", {"overhead": metric(1.0, unit="x", higher_is_better=False)}, tmp_path)
        record_bench("p", {"overhead": metric(1.3, unit="x", higher_is_better=False)}, tmp_path)
        code = main(["bench-report", "--bench-dir", str(tmp_path)])
        assert code == EXIT_RUNTIME


class TestCLITelemetry:
    def test_penalties_with_telemetry_writes_artifacts(self, tmp_path, capsys):
        tele = tmp_path / "tele"
        code = main(
            [
                "penalties",
                "--kernels",
                "gemm",
                "--telemetry",
                str(tele),
                "--cache-dir",
                str(tmp_path / "cache"),
                "--quiet",
            ]
        )
        assert code == EXIT_OK
        assert (tele / "events.jsonl").exists()
        assert (tele / "manifest.json").exists()
        assert (tele / "sweep_timeline.json").exists()
        doc = load_manifest(tele)
        assert doc["command"] == "penalties"
        assert doc["points"]

        capsys.readouterr()
        assert main(["status", str(tele)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "penalties" in out
        assert "cache.miss" in out
        assert "host time: encode" in out
        assert "memory: peak RSS" in out

    def test_quiet_suppresses_progress(self, tmp_path, capsys):
        code = main(
            [
                "penalties",
                "--kernels",
                "gemm",
                "--telemetry",
                str(tmp_path / "tele"),
                "--cache-dir",
                str(tmp_path / "cache"),
                "--quiet",
            ]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
