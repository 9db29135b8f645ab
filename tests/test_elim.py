"""Hit-run elimination: oracle soundness, bit-identity, stats plumbing.

Four contracts are pinned here:

- every event inside an annotated **run** is a pure hit under an
  independently written brute-force set-associative LRU simulation —
  no fill, no eviction, no clean-to-dirty transition — across fuzzed
  shapes and synthetic traces (hypothesis), and the run records'
  counts and end cursors are internally consistent;
- replay with elimination forced **on** is bit-identical (whole
  ``RunResult``) to replay with it forced **off** over a
  kernel/configuration grid, including cores with a non-zero branch
  mispredict cost (set ``REPRO_ELIM_GRID=full`` for the full
  kernel x config x opt-level sweep CI runs);
- annotation is deferred to the third replay pass over a
  (trace, shape), so one-shot grids never pay for it;
- the elimination counters flow into :class:`~repro.exec.engine
  .ExecStats` and telemetry manifests.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.fastpath import make_run_applier
from repro.cpu.model import CPUConfig
from repro.cpu.system import System, SystemConfig, warm_regions_of
from repro.exec import ExecutionEngine, RunPoint
from repro.exec import point as point_module
from repro.experiments.runner import ExperimentRunner
from repro.transforms.pipeline import OptLevel, optimize
from repro.workloads import build_kernel, kernel_names
from repro.workloads.elim import (
    annotate_trace,
    counters,
    eliminable_fraction,
    forced,
    runs_for,
)
from repro.workloads.encode import (
    OP_BRANCH,
    OP_COMPUTE,
    OP_LOAD,
    OP_MARK,
    OP_STORE,
    encode_events,
    encode_trace,
)
from repro.workloads.trace import BRANCH_TAKEN, Compute, Load, Store

#: A core that charges loop-exit branches: gap replay must read each
#: branch's own taken flag, not the one at the last run's end.
MISPREDICT = CPUConfig(branch_mispredict_cycles=8.0)

CONFIGS = {
    "sram": lambda: SystemConfig(technology="sram", frontend="plain"),
    "dropin": lambda: SystemConfig(technology="stt-mram", frontend="plain"),
    "vwb": lambda: SystemConfig(technology="stt-mram", frontend="vwb"),
    "l0": lambda: SystemConfig(technology="stt-mram", frontend="l0"),
    "emshr": lambda: SystemConfig(technology="stt-mram", frontend="emshr"),
    "hybrid": lambda: SystemConfig(technology="stt-mram", frontend="hybrid"),
    "sram-mispredict": lambda: SystemConfig(
        technology="sram", frontend="plain", cpu=MISPREDICT
    ),
    "dropin-mispredict": lambda: SystemConfig(
        technology="stt-mram", frontend="plain", cpu=MISPREDICT
    ),
    "hybrid-mispredict": lambda: SystemConfig(
        technology="stt-mram", frontend="hybrid", cpu=MISPREDICT
    ),
}

#: Oracle outcome codes of the brute-force reference below.
MISS = 0
DIRTY_TRANSITION = 1
PURE_HIT = 2
SPANNING = 3

#: ``REPRO_ELIM_GRID=full`` (the CI trace-fastpath job) widens the
#: identity sweep to the full kernel x config x opt-level grid.
FULL_GRID = os.environ.get("REPRO_ELIM_GRID") == "full"
GRID_KERNELS = kernel_names() if FULL_GRID else ["atax", "gemm", "mvt"]
GRID_LEVELS = list(OptLevel) if FULL_GRID else [OptLevel.NONE]

_MATERIAL = {}


def _material(kernel, level=OptLevel.NONE):
    key = (kernel, level)
    if key not in _MATERIAL:
        program = build_kernel(kernel)
        if level is not OptLevel.NONE:
            program = optimize(program, level)
        _MATERIAL[key] = (encode_trace(program), warm_regions_of(program))
    return _MATERIAL[key]


# ----------------------------------------------------------------------
# Brute-force reference: an independently structured set-associative
# LRU cache (way arrays + timestamps, not recency stacks).
# ----------------------------------------------------------------------


class _BruteLRU:
    """Set-associative LRU cache, timestamps and way slots."""

    def __init__(self, line_bytes, sets, ways):
        self.line_bytes = line_bytes
        self.sets = sets
        self.ways = ways
        self.lines = [[None] * ways for _ in range(sets)]
        self.stamps = [[0] * ways for _ in range(sets)]
        self.dirty = [[False] * ways for _ in range(sets)]
        self.clock = 0

    def access(self, addr, size, store):
        """Classify then apply one access; returns the outcome code."""
        first = addr // self.line_bytes
        last = (addr + size - 1) // self.line_bytes
        if first != last:
            code = SPANNING
        else:
            way = self._find(first)
            if way is None:
                code = MISS
            elif store and not self.dirty[first % self.sets][way]:
                code = DIRTY_TRANSITION
            else:
                code = PURE_HIT
        for line in range(first, last + 1):
            self._touch(line, store)
        return code

    def _find(self, line):
        slots = self.lines[line % self.sets]
        for way in range(self.ways):
            if slots[way] == line:
                return way
        return None

    def _touch(self, line, store):
        index = line % self.sets
        self.clock += 1
        way = self._find(line)
        if way is None:
            stamps = self.stamps[index]
            way = min(range(self.ways), key=lambda w: stamps[w])
            self.lines[index][way] = line
            self.dirty[index][way] = False
        if store:
            self.dirty[index][way] = True
        self.stamps[index][way] = self.clock


def _brute_outcomes(trace, shape):
    line_bytes, sets, ways, _banks = shape
    cache = _BruteLRU(line_bytes, sets, ways)
    la, ls = trace.load_addrs, trace.load_sizes
    sa, ss = trace.store_addrs, trace.store_sizes
    li = si = 0
    out = bytearray()
    for op in trace.opcodes:
        if op == OP_LOAD:
            out.append(cache.access(la[li], ls[li], False))
            li += 1
        elif op == OP_STORE:
            out.append(cache.access(sa[si], ss[si], True))
            si += 1
    return bytes(out)


def _cursors_at(trace, end):
    """Operand-column cursors (load, store, compute, branch) at ``end``."""
    prefix = trace.opcodes[:end]
    return tuple(prefix.count(op) for op in (OP_LOAD, OP_STORE, OP_COMPUTE, OP_BRANCH))


_accesses = st.lists(
    st.tuples(
        st.booleans(),  # store?
        st.integers(min_value=0, max_value=1023),  # address
        st.sampled_from([1, 2, 4, 8, 32]),  # size (32 can span)
    ),
    min_size=0,
    max_size=200,
)


class TestOracleProperty:
    """Annotated runs hold only accesses brute-force LRU calls pure hits."""

    @settings(max_examples=200, deadline=None)
    @given(
        accesses=_accesses,
        line_bytes=st.sampled_from([16, 32, 64]),
        sets=st.sampled_from([1, 2, 4, 8]),
        ways=st.sampled_from([1, 2, 4]),
    )
    def test_annotated_runs_cover_only_pure_hits(
        self, accesses, line_bytes, sets, ways
    ):
        events = [
            Store(addr, size) if store else Load(addr, size)
            for store, addr, size in accesses
        ]
        trace = encode_events(events)
        shape = (line_bytes, sets, ways, 2)
        runs = annotate_trace(trace, shape)
        brute = _brute_outcomes(trace, shape)
        # Map trace index -> load/store ordinal.
        ordinal = {}
        n = 0
        for i, op in enumerate(trace.opcodes):
            if op in (OP_LOAD, OP_STORE):
                ordinal[i] = n
                n += 1
        for run in runs:
            assert run.end > run.start
            for i in range(run.start, run.end):
                if i in ordinal:
                    assert brute[ordinal[i]] == PURE_HIT, (i, run)
            span = trace.opcodes[run.start : run.end]
            assert run.counts == (span.count(OP_LOAD), span.count(OP_STORE))
            assert len(run.packed) == len(span) - span.count(OP_MARK)
            assert run.cursors == _cursors_at(trace, run.end)


class TestRealTraces:
    """Annotation facts on real kernel traces."""

    def test_kernel_runs_are_pure_hits_under_brute_force(self):
        trace, _ = _material("gemm")
        shape = (64, 64, 2, 1)  # the hybrid SRAM partition
        runs = annotate_trace(trace, shape)
        assert runs, "gemm should produce hit runs"
        brute = _brute_outcomes(trace, shape)
        ordinal = {}
        n = 0
        for i, op in enumerate(trace.opcodes):
            if op in (OP_LOAD, OP_STORE):
                ordinal[i] = n
                n += 1
        for run in runs:
            for i in range(run.start, run.end):
                if i in ordinal:
                    assert brute[ordinal[i]] == PURE_HIT
            assert run.cursors == _cursors_at(trace, run.end)

    def test_high_locality_kernels_are_mostly_eliminable(self):
        for kernel in ("gemm", "doitgen"):
            trace, _ = _material(kernel)
            assert eliminable_fraction(trace, (64, 512, 2, 4)) > 0.9, kernel

    def test_kernel_run_words_pack_one_byte_each(self):
        trace, _ = _material("gemm")
        runs = annotate_trace(trace, (64, 512, 2, 4))
        assert runs and all(run.packed.typecode == "B" for run in runs)

    def test_annotation_is_memoized_per_shape(self):
        trace, _ = _material("atax")
        a = annotate_trace(trace, (64, 512, 2, 4))
        b = annotate_trace(trace, (64, 512, 2, 4))
        assert a is b
        assert annotate_trace(trace, (64, 64, 2, 1)) is not a

    def test_applier_shapes(self):
        dl1 = System(CONFIGS["sram"]())
        applier = make_run_applier(dl1.frontend, dl1.config.cpu)
        assert applier is not None and applier.shape == (64, 512, 2, 4)
        hybrid = System(CONFIGS["hybrid"]())
        applier = make_run_applier(hybrid.frontend, hybrid.config.cpu)
        assert applier is not None and applier.shape == (64, 64, 2, 1)
        vwb = System(CONFIGS["vwb"]())
        assert make_run_applier(vwb.frontend, vwb.config.cpu) is None

    def test_first_pass_defers_annotation(self):
        # Encoded replay only annotates from the third pass over a
        # (trace, shape): annotation costs about two thirds of a replay
        # and each eliminated pass saves about a third, so one-shot
        # grids must not pay for it.  forced(True) overrides the
        # deferral.
        program = build_kernel("atax")
        trace = encode_trace(program)
        shape = (64, 512, 2, 4)
        for _ in range(2):
            assert runs_for(trace, shape) == ()
            assert ("elim",) + shape not in trace._analysis
        assert len(runs_for(trace, shape)) > 0
        forced_trace = encode_trace(program)
        with forced(True):
            assert len(runs_for(forced_trace, shape)) > 0

    def test_one_shot_penalties_never_annotate(self, monkeypatch):
        # A plain runner's penalties column replays each kernel twice
        # through the SRAM DL1 shape (drop-in, then the SRAM baseline):
        # below the break-even, so no trace may carry an annotation.
        # The trace memo is process-wide; start from fresh traces so
        # passes replayed by earlier tests do not count.
        monkeypatch.setattr(point_module, "_PROGRAMS", {})
        monkeypatch.setattr(point_module, "_TRACES", {})
        runner = ExperimentRunner(kernels=["atax", "gemm"])
        runner.penalties("dropin")
        for kernel in runner.kernels:
            memo = runner.trace(kernel)._analysis
            assert not any(key[0] == "elim" for key in memo), kernel


class TestBitIdentity:
    """Eliminated replay equals per-event replay, whole ``RunResult``."""

    @pytest.mark.parametrize("level", GRID_LEVELS, ids=lambda l: l.name)
    @pytest.mark.parametrize("kernel", GRID_KERNELS)
    def test_serial_grid(self, kernel, level):
        trace, regions = _material(kernel, level)
        for name, make in CONFIGS.items():
            with forced(True):
                on = System(make()).run(trace, warm_regions=regions)
            with forced(False):
                off = System(make()).run(trace, warm_regions=regions)
            assert on == off, f"{kernel}/{name}/{level.name}"

    def test_warm_reruns_stay_identical(self):
        trace, regions = _material("atax")
        for name in ("sram", "hybrid"):
            make = CONFIGS[name]
            with forced(True):
                system = System(make())
                system.run(trace, warm_regions=regions)
                on = system.run(trace, reset=False)
            with forced(False):
                system = System(make())
                system.run(trace, warm_regions=regions)
                off = system.run(trace, reset=False)
            assert on == off, name

    def test_wide_run_words_stay_identical(self):
        # A 40-op compute packs to 40 << 3 | PK_COMPUTE = 321, past one
        # byte, so the runs holding it store their words at 8 bytes.
        events = []
        for _ in range(4):
            for i in range(32):
                events += [Load(0x1000 + 8 * i, 8), Compute(40 if i == 5 else 2)]
            events.append(BRANCH_TAKEN)
        trace = encode_events(events)
        with forced(True):
            runs = annotate_trace(trace, (64, 512, 2, 4))
            assert "q" in {run.packed.typecode for run in runs}
            on = System(CONFIGS["sram"]()).run(trace)
        with forced(False):
            off = System(CONFIGS["sram"]()).run(trace)
        assert on == off

    def test_elimination_actually_fires(self):
        trace, regions = _material("gemm")
        before = counters()
        with forced(True):
            System(CONFIGS["sram"]()).run(trace, warm_regions=regions)
        after = counters()
        assert after["events_eliminated"] > before["events_eliminated"]
        assert after["runs_applied"] > before["runs_applied"]


class TestStatsPlumbing:
    """Counters surface in ``ExecStats`` and telemetry manifests."""

    def test_engine_stats_and_manifest(self, tmp_path):
        from repro.telemetry import TelemetryRecorder
        from repro.telemetry.manifest import build_manifest, validate_manifest

        rec = TelemetryRecorder(tmp_path / "tele")
        engine = ExecutionEngine(
            jobs=1, cache_dir=str(tmp_path / "c"), telemetry=rec
        )
        with forced(True):
            engine.run_points(
                [RunPoint(kernel="atax", config=CONFIGS["sram"]())]
            )
        rec.close()
        assert engine.stats.events_eliminated > 0
        assert engine.stats.runs_applied > 0
        doc = build_manifest("penalties", engine)
        validate_manifest(doc)
        stats = doc["engine"]["stats"]
        assert stats["events_eliminated"] == engine.stats.events_eliminated
        assert stats["runs_applied"] == engine.stats.runs_applied

    def test_cache_hits_eliminate_nothing(self, tmp_path):
        point = RunPoint(kernel="atax", config=CONFIGS["sram"]())
        cache_dir = str(tmp_path / "c")
        with forced(True):
            ExecutionEngine(jobs=1, cache_dir=cache_dir).run_points([point])
            warm = ExecutionEngine(jobs=1, cache_dir=cache_dir)
            warm.run_points([point])
        assert warm.stats.hits == 1
        assert warm.stats.events_eliminated == 0
        assert warm.stats.runs_applied == 0
