"""The IR interpreter: event emission semantics."""

import pytest

from repro.workloads.affine import Var
from repro.workloads.ir import Array, Loop, Program, loop, stmt
from repro.workloads import TraceConfig, materialize_trace
from repro.workloads.trace import Branch, Compute, Load, Prefetch, Store, trace_summary

i, j = Var("i"), Var("j")


def simple_stream(n=8, flops=2):
    """for i in [0,n): y[i] = f(x[i])"""
    x = Array("x", (n,))
    y = Array("y", (n,))
    prog = Program("s", [loop(i, n, [stmt(reads=[x[i]], writes=[y[i]], flops=flops)])])
    prog.layout(base_addr=0)
    return prog, x, y


class TestScalarEmission:
    def test_event_counts(self):
        prog, _, _ = simple_stream(n=8)
        s = trace_summary(materialize_trace(prog))
        assert s["loads"] == 8
        assert s["stores"] == 8
        assert s["branches"] == 8
        assert s["compute_events"] == 8

    def test_load_addresses_are_sequential(self):
        prog, x, _ = simple_stream(n=4)
        loads = [ev for ev in materialize_trace(prog) if isinstance(ev, Load)]
        assert [ev.addr for ev in loads] == [x.base_addr + 4 * k for k in range(4)]

    def test_compute_includes_overhead(self):
        prog, _, _ = simple_stream(n=1, flops=2)
        comp = [ev for ev in materialize_trace(prog) if isinstance(ev, Compute)]
        assert comp[0].ops == 3  # flops + default overhead 1

    def test_last_branch_not_taken(self):
        prog, _, _ = simple_stream(n=3)
        branches = [ev for ev in materialize_trace(prog) if isinstance(ev, Branch)]
        assert [b.taken for b in branches] == [True, True, False]

    def test_empty_loop_emits_nothing(self):
        x = Array("x", (4,))
        prog = Program("e", [Loop(i, 5, 5, [stmt(reads=[x[0]])])])
        assert materialize_trace(prog) == []

    def test_auto_layout(self):
        x = Array("x", (4,))
        prog = Program("a", [loop(i, 4, [stmt(reads=[x[i]])])])
        assert prog.arrays[0].base_addr is None
        materialize_trace(prog)
        assert prog.arrays[0].base_addr is not None


class TestScalarReplacement:
    def test_invariant_read_hoisted(self):
        """An accumulator-style stride-0 read loads once per loop entry."""
        a = Array("A", (4, 8))
        acc = Array("acc", (4,))
        body = loop(i, 4, [loop(j, 8, [stmt(reads=[acc[i], a[i, j]], writes=[acc[i]], flops=2)])])
        prog = Program("dot", [body])
        s = trace_summary(materialize_trace(prog))
        # acc: 1 load + 1 store per i-iteration; A: 8 loads per i-iteration.
        assert s["loads"] == 4 * (8 + 1)
        assert s["stores"] == 4

    def test_hoisting_disabled(self):
        a = Array("A", (4, 8))
        acc = Array("acc", (4,))
        body = loop(i, 4, [loop(j, 8, [stmt(reads=[acc[i], a[i, j]], writes=[acc[i]], flops=2)])])
        prog = Program("dot", [body])
        s = trace_summary(materialize_trace(prog, TraceConfig(scalar_replacement=False)))
        assert s["loads"] == 4 * 16
        assert s["stores"] == 32

    def test_duplicate_invariant_refs_deduplicated(self):
        x = Array("x", (8,))
        c = Array("c", (1,))
        body = loop(
            j,
            8,
            [
                stmt(reads=[c[0], x[j]], writes=[x[j]], flops=1),
                stmt(reads=[c[0], x[j]], writes=[x[j]], flops=1),
            ],
        )
        prog = Program("d", [body])
        s = trace_summary(materialize_trace(prog))
        # c is loaded exactly once for the whole loop; x twice per iteration.
        assert s["loads"] == 1 + 16


class TestVectorEmission:
    def _vec_prog(self, n=8, width=4):
        prog, x, y = simple_stream(n=n)
        prog.loops()[0].vector_width = width
        return prog, x, y

    def test_wide_accesses(self):
        prog, x, _ = self._vec_prog()
        loads = [ev for ev in materialize_trace(prog) if isinstance(ev, Load)]
        assert len(loads) == 2
        assert all(ev.size == 16 for ev in loads)

    def test_compute_amortized(self):
        prog, _, _ = self._vec_prog()
        s = trace_summary(materialize_trace(prog))
        assert s["compute_events"] == 2
        assert s["branches"] == 2

    def test_remainder_chunk(self):
        prog, _, _ = self._vec_prog(n=10)
        loads = [ev for ev in materialize_trace(prog) if isinstance(ev, Load)]
        assert [ev.size for ev in loads] == [16, 16, 8]

    def test_same_bytes_covered(self):
        scalar, _, _ = simple_stream(n=8)
        vector, _, _ = self._vec_prog(n=8)
        s_scalar = trace_summary(materialize_trace(scalar))
        s_vector = trace_summary(materialize_trace(vector))
        assert s_scalar["load_bytes"] == s_vector["load_bytes"]
        assert s_scalar["store_bytes"] == s_vector["store_bytes"]

    def test_strided_ref_becomes_gather(self):
        a = Array("A", (8, 8))
        prog = Program("g", [loop(i, 8, [stmt(reads=[a[i, 0]], flops=1)])])
        prog.loops()[0].vector_width = 4
        loads = [ev for ev in materialize_trace(prog) if isinstance(ev, Load)]
        assert len(loads) == 8  # per-lane accesses
        assert all(ev.size == 4 for ev in loads)

    def test_invariant_ref_once_per_chunk(self):
        x = Array("x", (8,))
        c = Array("c", (2,))
        prog = Program("inv", [loop(i, 8, [stmt(reads=[x[i], c[0]], writes=[x[i]])])])
        prog.loops()[0].vector_width = 4
        s = trace_summary(materialize_trace(prog, TraceConfig(scalar_replacement=False)))
        # x: 2 wide loads; c: 1 narrow load per chunk (not per lane).
        assert s["loads"] == 4


class TestUnroll:
    def test_fewer_branches(self):
        prog, _, _ = simple_stream(n=8)
        prog.loops()[0].unroll = 4
        s = trace_summary(materialize_trace(prog))
        assert s["branches"] == 2
        assert s["loads"] == 8  # data stream unchanged

    def test_non_multiple_trip_count(self):
        prog, _, _ = simple_stream(n=10)
        prog.loops()[0].unroll = 4
        s = trace_summary(materialize_trace(prog))
        assert s["branches"] == 3  # 4 + 4 + 2

    def test_outer_loop_unroll(self):
        a = Array("A", (4, 8))
        inner = loop(j, 8, [stmt(reads=[a[i, j]])])
        outer = loop(i, 4, [inner])
        outer.unroll = 2
        prog = Program("o", [outer])
        s = trace_summary(materialize_trace(prog))
        # Inner back-edges unchanged (4 x 8); outer halved (4 -> 2).
        assert s["branches"] == 32 + 2


class TestPrefetchEmission:
    def _pf_prog(self, n=64, distance=16):
        prog, x, y = simple_stream(n=n)
        lp = prog.loops()[0]
        ref = lp.statements()[0].reads[0]
        lp.prefetch = [(ref, distance)]
        return prog, x

    def test_prefetch_deduplicated_per_block(self):
        prog, x = self._pf_prog(n=64, distance=16)
        prefetches = [ev for ev in materialize_trace(prog) if isinstance(ev, Prefetch)]
        # 64 elements x 4 B = 256 B = 4 blocks of 64 B: the preheader hint
        # covers block 0 and the look-ahead stream covers blocks 1-3, each
        # exactly once.
        assert len(prefetches) == 4
        blocks = sorted(ev.addr // 64 for ev in prefetches)
        assert blocks == [0, 1, 2, 3]

    def test_preheader_prefetches_own_window(self):
        prog, x = self._pf_prog(n=64, distance=16)
        first = next(ev for ev in materialize_trace(prog) if isinstance(ev, Prefetch))
        assert first.addr == x.base_addr

    def test_target_clamped_to_bounds(self):
        prog, x = self._pf_prog(n=8, distance=100)
        prefetches = [ev for ev in materialize_trace(prog) if isinstance(ev, Prefetch)]
        assert all(ev.addr < x.base_addr + x.size_bytes for ev in prefetches)
