"""Columnar trace encoding: round-trip and bit-exact replay contract.

The contract pinned here is what lets every memo site hold
:class:`~repro.workloads.encode.EncodedTrace` instead of event lists:

- ``decode -> encode_events`` reproduces every column of an encoded
  trace byte for byte, for every PolyBench kernel at every optimization
  level, IR annotations included (the exact events themselves are
  pinned against the reference interpreter in
  ``tests/test_interp_reference.py``);
- replaying the encoded form produces a ``RunResult`` **equal as a
  whole object** to object replay on every front-end, with and without
  fault injection, and with a probe attached;
- replay never mutates trace events (several systems share one trace);
- every operand column of a kernel trace stays at its narrow width
  (at most 6 bytes per event in all), and a value too wide for one
  widens just that column to 8 bytes, with exactly the events it was
  built from.
"""

from __future__ import annotations

import pytest

from repro.cpu.system import System, SystemConfig
from repro.obs import RecordingProbe
from repro.reliability.faults import ReliabilityConfig
from repro.transforms.pipeline import OptLevel, optimize
from repro.workloads import build_kernel, kernel_names, materialize_trace
from repro.workloads.encode import EncodedTrace, encode_events, encode_trace
from repro.workloads.interp import TraceConfig
from repro.workloads.trace import (
    BRANCH_NOT_TAKEN,
    BRANCH_TAKEN,
    Branch,
    Compute,
    IRMark,
    Load,
    Prefetch,
    Store,
    trace_summary,
)

CONFIG_NAMES = ("sram", "dropin", "vwb", "l0", "emshr", "hybrid")

SYSTEMS = {
    "sram": lambda: SystemConfig(technology="sram", frontend="plain"),
    "dropin": lambda: SystemConfig(technology="stt-mram", frontend="plain"),
    "vwb": lambda: SystemConfig(technology="stt-mram", frontend="vwb"),
    "l0": lambda: SystemConfig(technology="stt-mram", frontend="l0"),
    "emshr": lambda: SystemConfig(technology="stt-mram", frontend="emshr"),
    "hybrid": lambda: SystemConfig(technology="stt-mram", frontend="hybrid"),
}


def _program(kernel: str, level: OptLevel):
    base = build_kernel(kernel)
    return optimize(base, level) if level is not OptLevel.NONE else base


def _assert_same_events(decoded, events):
    assert len(decoded) == len(events)
    for got, want in zip(decoded, events):
        assert type(got) is type(want)
        if isinstance(want, Load) or isinstance(want, Store):
            assert (got.addr, got.size) == (want.addr, want.size)
        elif isinstance(want, Compute):
            assert got.ops == want.ops
        elif isinstance(want, Branch):
            assert got.taken == want.taken
        elif isinstance(want, Prefetch):
            assert got.addr == want.addr
        else:
            assert isinstance(want, IRMark)
            assert got.label == want.label


#: Every column of an :class:`EncodedTrace` (the whole trace content).
COLUMNS = (
    "opcodes", "load_addrs", "load_sizes", "store_addrs", "store_sizes",
    "pf_addrs", "ops", "taken", "marks", "labels",
)


def _assert_round_trip(encoded):
    """``encode_events(encoded.decode())`` reproduces every column byte for byte."""
    again = encode_events(encoded.decode())
    for column in COLUMNS:
        got, want = getattr(again, column), getattr(encoded, column)
        assert type(got) is type(want), column
        assert getattr(got, "typecode", None) == getattr(want, "typecode", None), column
        if column == "labels":
            assert got == want
        else:
            assert bytes(got) == bytes(want), column


class TestRoundTrip:
    @pytest.mark.parametrize("kernel", kernel_names())
    @pytest.mark.parametrize("level", list(OptLevel))
    def test_every_kernel_every_level(self, kernel, level):
        _assert_round_trip(encode_trace(_program(kernel, level)))

    @pytest.mark.parametrize("kernel", ("gemm", "mvt", "trmm"))
    def test_annotated_traces(self, kernel):
        encoded = encode_trace(_program(kernel, OptLevel.FULL), TraceConfig(annotate_ir=True))
        assert len(encoded.labels) > 0 and len(encoded.marks) > 0
        _assert_round_trip(encoded)

    def test_iteration_matches_decode(self):
        program = _program("atax", OptLevel.VECTORIZE)
        encoded = encode_trace(program)
        assert len(encoded) == len(encoded.decode())
        _assert_same_events(list(encoded), encoded.decode())

    def test_encode_events_matches_encode_trace(self):
        program = _program("bicg", OptLevel.NONE)
        from_list = encode_events(materialize_trace(program))
        from_program = encode_trace(program)
        _assert_same_events(from_list.decode(), from_program.decode())


class TestBitExactReplay:
    @pytest.mark.parametrize("config", CONFIG_NAMES)
    def test_runresult_equal_all_frontends(self, config):
        program = _program("gemm", OptLevel.NONE)
        events = materialize_trace(program)
        encoded = encode_trace(program)
        obj = System(SYSTEMS[config]()).run(events)
        enc = System(SYSTEMS[config]()).run(encoded)
        assert obj == enc

    @pytest.mark.parametrize("config", CONFIG_NAMES)
    def test_runresult_equal_optimized(self, config):
        program = _program("trmm", OptLevel.FULL)
        events = materialize_trace(program)
        encoded = encode_trace(program)
        obj = System(SYSTEMS[config]()).run(events)
        enc = System(SYSTEMS[config]()).run(encoded)
        assert obj == enc

    @pytest.mark.parametrize("config", ("dropin", "vwb"))
    def test_runresult_equal_with_fault_injection(self, config):
        base = SYSTEMS[config]()
        from dataclasses import replace

        faulty = replace(
            base, reliability=ReliabilityConfig(seed=7, write_error_rate=1e-4)
        )
        program = _program("atax", OptLevel.NONE)
        events = materialize_trace(program)
        encoded = encode_trace(program)
        obj = System(faulty).run(events)
        enc = System(faulty).run(encoded)
        assert obj == enc
        assert enc.reliability_stats is not None

    def test_runresult_equal_with_probe(self):
        program = _program("gemm", OptLevel.NONE)
        events = materialize_trace(program, TraceConfig(annotate_ir=True))
        encoded = encode_trace(program, TraceConfig(annotate_ir=True))
        p_obj, p_enc = RecordingProbe(), RecordingProbe()
        obj = System(SYSTEMS["vwb"]()).run(events, probe=p_obj)
        enc = System(SYSTEMS["vwb"]()).run(encoded, probe=p_enc)
        assert obj == enc
        assert p_obj.ledger.nonzero() == p_enc.ledger.nonzero()

    def test_warm_runs_stay_exact(self):
        program = _program("mvt", OptLevel.NONE)
        events = materialize_trace(program)
        encoded = encode_trace(program)
        s_obj, s_enc = System(SYSTEMS["vwb"]()), System(SYSTEMS["vwb"]())
        s_obj.run(events)
        s_enc.run(encoded)
        assert s_obj.run(events, reset=False) == s_enc.run(encoded, reset=False)


class TestEventImmutability:
    def test_replay_does_not_mutate_shared_events(self):
        events = materialize_trace(build_kernel("gemm"))
        def freeze():
            return [
                (type(ev).__name__,)
                + tuple(getattr(ev, f) for f in type(ev).__slots__)
                for ev in events
            ]

        snapshot = freeze()
        for config in CONFIG_NAMES:
            System(SYSTEMS[config]()).run(events)
        assert freeze() == snapshot

    def test_branch_singletons_are_interned(self):
        events = materialize_trace(build_kernel("gemm"))
        branches = [ev for ev in events if isinstance(ev, Branch)]
        assert branches
        assert all(ev is BRANCH_TAKEN or ev is BRANCH_NOT_TAKEN for ev in branches)

    def test_decoded_branches_use_singletons(self):
        encoded = encode_trace(build_kernel("gemm"))
        branches = [ev for ev in encoded if isinstance(ev, Branch)]
        assert branches
        assert all(ev is BRANCH_TAKEN or ev is BRANCH_NOT_TAKEN for ev in branches)


class TestSummaryAndSize:
    def test_summary_matches_object_trace(self):
        program = _program("gemver", OptLevel.FULL)
        events = materialize_trace(program, TraceConfig(annotate_ir=True))
        encoded = encode_trace(program, TraceConfig(annotate_ir=True))
        assert trace_summary(encoded) == trace_summary(events)

    def test_encoded_form_is_compact(self):
        # One opcode byte plus narrow operands: against ~56 bytes for
        # one Python event object, and 10.6-14.6 with 8-byte operands.
        for kernel in kernel_names():
            for level in OptLevel:
                encoded = encode_trace(_program(kernel, level))
                assert 0 < encoded.nbytes <= 6 * len(encoded), (kernel, level)


#: The operand columns that start narrow and widen to 8 bytes on demand.
NARROW = {
    "load_addrs": "i", "load_sizes": "B", "store_addrs": "i", "store_sizes": "B",
    "pf_addrs": "i", "ops": "H",
}


class TestWidening:
    """A value a narrow column cannot hold widens that column, exactly."""

    def test_kernel_columns_stay_narrow(self):
        encoded = encode_trace(_program("gemm", OptLevel.FULL))
        assert {name: getattr(encoded, name).typecode for name in NARROW} == NARROW

    def test_encode_events_widens_and_round_trips(self):
        events = [
            Load(0x1000, 8), Store(0x2000, 4), Compute(3), BRANCH_TAKEN,
            Load(2**40, 8), Load(0x1008, 300), Compute(70_000), Prefetch(0x3000),
            Store(0x2008, 4), Load(0x1010, 8), Compute(2), BRANCH_NOT_TAKEN,
        ]
        encoded = encode_events(events)
        widened = {name for name in NARROW if getattr(encoded, name).typecode == "q"}
        assert widened == {"load_addrs", "load_sizes", "ops"}
        # No partial values: each column holds exactly its kind's operands.
        assert list(encoded.load_addrs) == [0x1000, 2**40, 0x1008, 0x1010]
        assert list(encoded.load_sizes) == [8, 8, 300, 8]
        assert list(encoded.ops) == [3, 70_000, 2]
        _assert_same_events(encoded.decode(), events)
        _assert_round_trip(encoded)

    def test_failed_narrow_extend_leaves_no_partial_values(self):
        encoded = EncodedTrace()
        encoded.ops.extend([1, 2])
        values = [3, 4, 70_000, 5]
        with pytest.raises(OverflowError):
            encoded.ops.extend(values)  # appends 3 and 4 before it raises
        wide = encoded.widen("ops", values)
        assert wide is encoded.ops and wide.typecode == "q"
        assert list(wide) == [1, 2, 3, 4, 70_000, 5]

    def test_wide_column_overflow_raises(self):
        encoded = encode_events([Load(2**40, 8)])
        with pytest.raises(OverflowError, match="load_addrs"):
            encoded.widen("load_addrs", [2**70])

    def test_interpreter_widens_above_4_gib(self):
        default = encode_trace(build_kernel("gemm"))
        high = encode_trace(build_kernel("gemm"), TraceConfig(layout_base=0x10_0000 + 2**33))
        assert high.load_addrs.typecode == high.store_addrs.typecode == "q"
        assert list(high.load_addrs) == [a + 2**33 for a in default.load_addrs]
        assert list(high.store_addrs) == [a + 2**33 for a in default.store_addrs]
        assert bytes(high.opcodes) == bytes(default.opcodes)
        _assert_round_trip(high)

    @pytest.mark.parametrize("config", CONFIG_NAMES)
    def test_widened_trace_replays_equal(self, config):
        # The 2**33 shift is a multiple of every set-index, bank and VWB
        # window span, so only the tags change and every count is equal.
        default = encode_trace(build_kernel("gemm"))
        high = encode_trace(build_kernel("gemm"), TraceConfig(layout_base=0x10_0000 + 2**33))
        assert System(SYSTEMS[config]()).run(high) == System(SYSTEMS[config]()).run(default)
