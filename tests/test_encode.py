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
- replay never mutates trace events (several systems share one trace).
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
        encoded = encode_trace(build_kernel("gemm"))
        # Well under the ~56 bytes a single Python object costs per event.
        assert 0 < encoded.nbytes < 24 * len(encoded)
