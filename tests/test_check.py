"""The sanitizer: shadow capture, invariants, differential replay audit."""

from collections import deque

import pytest

import repro.cpu.model as cpu_model
from repro.check import (
    Sanitizer,
    audit_point,
    bisect_divergence,
    capture_cache,
    capture_system,
    check_cache,
    check_store_queue,
    check_system,
    check_wide_buffer,
    diff_states,
)
from repro.core.vwb import VeryWideBuffer, VWBConfig
from repro.errors import ConfigurationError, InvariantViolation
from repro.experiments.runner import CONFIGURATIONS, ExperimentRunner, make_system
from repro.transforms.pipeline import OptLevel
from repro.workloads.encode import encode_events
from repro.workloads.trace import Compute, Load, Store

ALL_CONFIGS = sorted(CONFIGURATIONS)


def short_trace():
    """A small mixed trace touching a few lines (hits and misses)."""
    events = []
    for i in range(8):
        events.append(Load(i * 64, 4))
        events.append(Compute(2))
        events.append(Store(i * 64 + 8, 4))
    for i in range(8):  # revisit: hits on whatever is resident
        events.append(Load(i * 64, 4))
    return events


# ----------------------------------------------------------------------
# Shadow capture
# ----------------------------------------------------------------------


class TestShadowCapture:
    @pytest.mark.parametrize("config", ALL_CONFIGS)
    def test_fresh_systems_capture_equal(self, config):
        a = capture_system(make_system(config))
        b = capture_system(make_system(config))
        assert a == b
        assert diff_states(a, b) == []

    @pytest.mark.parametrize("config", ALL_CONFIGS)
    def test_run_changes_capture(self, config):
        system = make_system(config)
        before = capture_system(system)
        system.run(short_trace())
        after = capture_system(system)
        assert before != after
        assert diff_states(before, after)

    @pytest.mark.parametrize("config", ALL_CONFIGS)
    def test_capture_is_readonly(self, config):
        system = make_system(config)
        system.run(short_trace())
        assert capture_system(system) == capture_system(system)

    def test_capture_covers_frontend_structures(self):
        vwb = capture_system(make_system("vwb"))["frontend"]
        assert "vwb" in vwb and "pending" in vwb
        l0 = capture_system(make_system("l0"))["frontend"]
        assert "store" in l0 and "fill_ready" in l0
        emshr = capture_system(make_system("emshr"))["frontend"]
        assert "entries" in emshr
        hybrid = capture_system(make_system("hybrid"))["frontend"]
        assert "sram" in hybrid and "tags" in hybrid["sram"]

    def test_capture_cache_covers_substructures(self):
        system = make_system("sram")
        system.run(short_trace())
        state = capture_cache(system.dl1)
        for key in ("tags", "dirty", "repl", "bank_busy", "write_buffer",
                    "mshr", "line_writes", "fast_write_credit", "stats"):
            assert key in state

    def test_diff_names_the_leaf(self):
        a = {"dl1": {"tags": ((1, 2), (3, 4))}}
        b = {"dl1": {"tags": ((1, 2), (3, 9))}}
        diffs = diff_states(a, b)
        assert diffs == [("dl1.tags[1][1]", 4, 9)]

    def test_diff_reports_absent_keys(self):
        diffs = diff_states({"x": 1}, {"y": 2})
        assert ("x", 1, "<absent>") in diffs
        assert ("y", "<absent>", 2) in diffs


# ----------------------------------------------------------------------
# Invariants
# ----------------------------------------------------------------------


class TestInvariants:
    @pytest.mark.parametrize("config", ALL_CONFIGS)
    def test_clean_run_passes(self, config):
        system = make_system(config)
        system.run(short_trace())
        check_system(system)  # no raise

    def test_duplicate_tag_caught(self):
        system = make_system("sram")
        system.run(short_trace())
        dl1 = system.dl1
        index = next(i for i, ways in enumerate(dl1._tags) if ways[0] is not None)
        dl1._tags[index][1] = dl1._tags[index][0]
        with pytest.raises(InvariantViolation, match="duplicate tag"):
            check_cache(dl1)

    def test_dirty_invalid_way_caught(self):
        system = make_system("sram")
        assert system.dl1._tags[0][0] is None
        system.dl1._dirty[0][0] = True
        with pytest.raises(InvariantViolation, match="dirty but invalid"):
            check_cache(system.dl1)

    def test_lru_corruption_caught(self):
        system = make_system("sram")
        system.dl1._repl[0]._order[0] = system.dl1._repl[0]._order[1]
        with pytest.raises(InvariantViolation, match="not a permutation"):
            check_cache(system.dl1)

    def test_write_buffer_disorder_caught(self):
        system = make_system("sram")
        system.dl1._write_buffer._completions.extend([10.0, 5.0])
        with pytest.raises(InvariantViolation, match="not FIFO-ordered"):
            check_cache(system.dl1)

    def test_store_queue_disorder_caught(self):
        system = make_system("sram")
        system.run(short_trace())
        system.cpu.store_queue = deque([10.0, 5.0])
        with pytest.raises(InvariantViolation, match="not FIFO-ordered"):
            check_store_queue(system.cpu)

    def test_store_queue_overflow_caught(self):
        system = make_system("sram")
        entries = system.config.cpu.store_buffer_entries
        system.cpu.store_queue = deque(float(i) for i in range(entries + 1))
        with pytest.raises(InvariantViolation, match="capacity"):
            check_store_queue(system.cpu)

    def test_stale_recency_stamp_caught(self):
        # The bug class fixed in VeryWideBuffer.invalidate: an
        # invalidated line keeping its old last_touch stamp.
        vwb = VeryWideBuffer(VWBConfig())
        vwb.allocate(0)
        line = vwb._lines[vwb.lookup(0)]
        line.window_addr = None
        line.dirty = False
        line.last_touch = 7  # stale
        with pytest.raises(InvariantViolation, match="stale recency stamp"):
            check_wide_buffer(vwb, "vwb")

    def test_stamp_ahead_of_clock_caught(self):
        vwb = VeryWideBuffer(VWBConfig())
        vwb.allocate(0)
        vwb._lines[vwb.lookup(0)].last_touch = vwb._clock + 5
        with pytest.raises(InvariantViolation, match="ahead of the"):
            check_wide_buffer(vwb, "vwb")

    def test_violation_carries_event_index(self):
        system = make_system("sram")
        system.dl1._dirty[0][0] = True
        with pytest.raises(InvariantViolation) as excinfo:
            check_system(system, event_index=41)
        assert excinfo.value.event_index == 41
        assert "after event 41" in str(excinfo.value)


# ----------------------------------------------------------------------
# The live sanitizer
# ----------------------------------------------------------------------


class TestSanitizer:
    def test_stride_validation(self):
        with pytest.raises(ConfigurationError):
            Sanitizer(make_system("sram"), stride=0)

    @pytest.mark.parametrize("config", ["sram", "vwb", "l0"])
    def test_sanitized_run_is_bit_identical(self, config):
        events = short_trace()
        plain = make_system(config).run(list(events))
        system = make_system(config)
        sanitizer = Sanitizer(system, stride=1)
        checked = sanitizer.run(list(events))
        assert checked.cycles == plain.cycles
        assert checked.breakdown == plain.breakdown
        assert checked.counts == plain.counts
        assert sanitizer.events_seen == len(events)
        assert sanitizer.checks_run >= len(events)
        assert system.cpu.checker is None  # always detached afterwards

    def test_corruption_caught_at_the_injecting_event(self):
        system = make_system("sram")
        events = [Compute(1)] * 10  # no memory traffic: lines stay invalid

        def corruptor():
            for i, event in enumerate(events):
                if i == 5:
                    system.dl1._dirty[0][0] = True
                yield event

        with pytest.raises(InvariantViolation) as excinfo:
            Sanitizer(system, stride=1).run(corruptor())
        assert excinfo.value.event_index == 5
        assert system.cpu.checker is None  # detached even on failure

    def test_final_sweep_catches_late_corruption(self):
        # Stride larger than the trace: no in-stream check ever fires,
        # only the post-drain sweep at the end of Sanitizer.run.
        system = make_system("sram")
        events = [Compute(1)] * 10

        def corruptor():
            for i, event in enumerate(events):
                if i == len(events) - 1:
                    system.dl1._dirty[0][0] = True
                yield event

        sanitizer = Sanitizer(system, stride=10_000)
        with pytest.raises(InvariantViolation) as excinfo:
            sanitizer.run(corruptor())
        assert excinfo.value.event_index == len(events) - 1
        assert sanitizer.checks_run == 1  # the final sweep only

    def test_encoded_trace_falls_back_to_checked_generic(self):
        # A sanitized run of an EncodedTrace must still stream events
        # through the checker (run_encoded bypasses it by design).
        events = short_trace()
        system = make_system("sram")
        sanitizer = Sanitizer(system, stride=1)
        result = sanitizer.run(encode_events(events))
        assert sanitizer.events_seen == len(events)
        assert result.cycles == make_system("sram").run(encode_events(events)).cycles


# ----------------------------------------------------------------------
# Differential audit
# ----------------------------------------------------------------------


class TestAudit:
    @pytest.mark.parametrize("config", ["sram", "nvm-vwb", "nvm-l0"])
    @pytest.mark.parametrize("kernel", ["gemm", "3mm", "mvt"])
    def test_audit_passes(self, kernel, config):
        report = audit_point(kernel, config, stride=20_011)
        assert report.ok, report.summary()
        assert report.events > 0
        assert "PASS" in report.summary()

    def test_audit_detects_injected_fastpath_divergence(self, monkeypatch):
        real = cpu_model.make_fast_ops

        def poisoned(frontend):
            ops = real(frontend)
            if ops is None:
                return None
            fast_read, fast_write, fast_prefetch = ops

            def bad_read(addr, size, now):
                cost = fast_read(addr, size, now)
                return None if cost is None else cost + 0.5

            return bad_read, fast_write, fast_prefetch

        monkeypatch.setattr(cpu_model, "make_fast_ops", poisoned)
        report = audit_point("gemm", "sram", bisect=False)
        assert not report.ok
        legs = {leg for leg, _, _, _ in report.divergences}
        assert any(leg.startswith("encoded") for leg in legs)
        assert "FAIL" in report.summary()

    def test_audit_detects_injected_prefetch_kernel_divergence(self, monkeypatch):
        # FULL-level traces carry software prefetches; the VWB serves
        # them through `fast_prefetch`, so a poisoned stall must show up
        # as an encoded-leg divergence.
        real = cpu_model.make_fast_ops

        def poisoned(frontend):
            ops = real(frontend)
            if ops is None or ops[2] is None:
                return ops
            fast_read, fast_write, fast_prefetch = ops

            def bad_prefetch(addr, now):
                stall = fast_prefetch(addr, now)
                return None if stall is None else stall + 1.0

            return fast_read, fast_write, bad_prefetch

        monkeypatch.setattr(cpu_model, "make_fast_ops", poisoned)
        report = audit_point("gemm", "vwb", level=OptLevel.FULL, bisect=False)
        assert not report.ok
        legs = {leg for leg, _, _, _ in report.divergences}
        assert any(leg.startswith("encoded") for leg in legs)

    def test_bisection_finds_the_offending_event(self, monkeypatch):
        # Build a trace where address POISON is loaded twice: a miss
        # (generic in both paths) and later a hit served by the fast
        # path.  Poison only that hit: the first diverging event is the
        # second load's index, exactly.
        poison_addr = 0
        events = [Load(poison_addr, 4)] + [Load(64 * i, 4) for i in range(1, 10)]
        events += [Compute(3)] * 5
        poison_index = len(events)
        events.append(Load(poison_addr, 4))  # the poisoned hit
        events += [Load(64 * i, 4) for i in range(1, 10)]

        real = cpu_model.make_fast_ops

        def poisoned(frontend):
            ops = real(frontend)
            if ops is None:
                return None
            fast_read, fast_write, fast_prefetch = ops

            def bad_read(addr, size, now):
                cost = fast_read(addr, size, now)
                if cost is not None and addr == poison_addr:
                    # Big enough to survive the CPU's load-use overlap
                    # and change the exposed latency.
                    return cost + 10.0
                return cost

            return bad_read, fast_write, fast_prefetch

        monkeypatch.setattr(cpu_model, "make_fast_ops", poisoned)
        config = CONFIGURATIONS["sram"]
        trace = encode_events(events)
        assert bisect_divergence(config, trace, None) == poison_index

    def test_bisection_returns_none_without_divergence(self):
        trace = encode_events(short_trace())
        assert bisect_divergence(CONFIGURATIONS["sram"], trace, None) is None


# ----------------------------------------------------------------------
# Runner and CLI wiring
# ----------------------------------------------------------------------


class TestCheckWiring:
    def test_runner_check_is_bit_identical(self):
        checked = ExperimentRunner(check=True, check_stride=20_011)
        plain = ExperimentRunner()
        a = checked.run("vwb", "gemm")
        b = plain.run("vwb", "gemm")
        assert a.cycles == b.cycles
        assert a.breakdown == b.breakdown
        assert a.counts == b.counts

    def test_runner_check_skips_engine_prefetch(self):
        class ExplodingEngine:
            jobs = 4

            def run_points(self, points):  # pragma: no cover - must not run
                raise AssertionError("sanitized runs must stay in-process")

        runner = ExperimentRunner(check=True, check_stride=20_011, engine=ExplodingEngine())
        runner.prefetch([("vwb", "gemm", OptLevel.NONE)])
        result = runner.run("vwb", "gemm")
        assert result.cycles > 0

    @pytest.mark.parametrize(
        "experiment, kwargs",
        [
            ("ablation-icache", {"kernels": ["gemm"]}),
            ("ablation-datasets", {"kernels": ["gemm"]}),
            ("ablation-dram", {"kernels": ["gemm"]}),
            ("ablation-interchange", {"kernels": ["gemm"]}),
            ("ablation-prefetch", {"ahead_bytes": (64,)}),
            ("endurance", {}),
        ],
    )
    def test_every_checked_simulation_is_sanitized(self, monkeypatch, experiment, kwargs):
        from repro.check.sanitizer import Sanitizer
        from repro.cpu.system import System
        from repro.experiments import EXPERIMENTS

        depth, sanitized, unsanitized = [0], [], []
        sanitizer_run, system_run = Sanitizer.run, System.run

        def counting_sanitizer_run(self, *args, **kwargs):
            depth[0] += 1
            try:
                return sanitizer_run(self, *args, **kwargs)
            finally:
                depth[0] -= 1

        def counting_system_run(self, *args, **kwargs):
            (sanitized if depth[0] else unsanitized).append(self.config)
            return system_run(self, *args, **kwargs)

        monkeypatch.setattr(Sanitizer, "run", counting_sanitizer_run)
        monkeypatch.setattr(System, "run", counting_system_run)
        runner = ExperimentRunner(kernels=["gemm"], check=True, check_stride=20_011)
        EXPERIMENTS[experiment](runner=runner, **kwargs)
        assert sanitized
        assert unsanitized == []

    def test_cli_check_command_passes(self, capsys):
        from repro.cli import main

        code = main(["check", "gemm", "--configs", "sram", "--stride", "20011", "--no-bisect"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        assert "1 passed, 0 failed" in out

    def test_cli_check_rejects_unknown_config(self, capsys):
        from repro.cli import main

        assert main(["check", "gemm", "--configs", "nope"]) == 2
