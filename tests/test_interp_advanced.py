"""Interpreter: imperfect nests, triangular bounds, combined annotations."""

import pytest

from repro.workloads.affine import Var
from repro.workloads.ir import Array, Loop, Program, loop, stmt
from repro.workloads import TraceConfig, encode_trace, materialize_trace
from repro.workloads.trace import Branch, Compute, Load, Prefetch, Store, trace_summary

i, j, k = Var("i"), Var("j"), Var("k")


class TestImperfectNests:
    def test_statement_before_inner_loop(self):
        """gesummv-style: init statement + inner loop + combine statement."""
        x = Array("x", (4, 8))
        acc = Array("acc", (4,))
        body = loop(
            i,
            4,
            [
                stmt(writes=[acc[i]], flops=0, label="init"),
                loop(j, 8, [stmt(reads=[acc[i], x[i, j]], writes=[acc[i]], flops=1)]),
                stmt(reads=[acc[i]], writes=[acc[i]], flops=2, label="post"),
            ],
        )
        s = trace_summary(materialize_trace(Program("p", [body])))
        # Per i: init store, 1 hoisted acc load + 8 x loads, 1 hoisted
        # store, post load + store.
        assert s["stores"] == 4 * 3
        assert s["loads"] == 4 * (1 + 8 + 1)

    def test_two_sequential_nests(self):
        a = Array("A", (4, 4))
        p1 = loop(i, 4, [loop(j, 4, [stmt(reads=[a[i, j]], flops=1)])])
        p2 = loop(i, 4, [loop(j, 4, [stmt(writes=[a[i, j]], flops=1)])])
        s = trace_summary(materialize_trace(Program("p", [p1, p2])))
        assert s["loads"] == 16
        assert s["stores"] == 16

    def test_three_deep_nest(self):
        a = Array("A", (2, 3, 4))
        body = loop(i, 2, [loop(j, 3, [loop(k, 4, [stmt(reads=[a[i, j, k]], flops=1)])])])
        s = trace_summary(materialize_trace(Program("p", [body])))
        assert s["loads"] == 24
        assert s["branches"] == 24 + 6 + 2


class TestTriangularBounds:
    def test_triangular_trip_counts(self):
        a = Array("A", (8, 8))
        inner = Loop(j, 0, i, [stmt(reads=[a[i, j]], flops=1)])
        body = loop(i, 8, [inner])
        s = trace_summary(materialize_trace(Program("p", [body])))
        assert s["loads"] == sum(range(8))  # 0+1+...+7

    def test_triangular_with_vectorization(self):
        a = Array("A", (8, 8))
        inner = Loop(j, 0, i, [stmt(reads=[a[i, j]], flops=1)])
        inner.vector_width = 4
        body = loop(i, 8, [inner])
        s = trace_summary(materialize_trace(Program("p", [body])))
        # Bytes covered must equal the scalar version's.
        assert s["load_bytes"] == sum(range(8)) * 4

    def test_empty_triangular_first_iteration(self):
        a = Array("A", (4, 4))
        inner = Loop(j, 0, i, [stmt(reads=[a[i, j]], flops=1)])
        body = loop(i, 4, [inner])
        events = materialize_trace(Program("p", [body]))
        # i=0 contributes nothing; trace still well-formed.
        assert trace_summary(events)["loads"] == 6


class TestNegativeStride:
    def test_reverse_walk(self):
        a = Array("A", (16,))
        body = loop(i, 16, [stmt(reads=[a[15 - i]], flops=1)])
        loads = [ev for ev in materialize_trace(Program("p", [body])) if isinstance(ev, Load)]
        addrs = [ev.addr for ev in loads]
        assert addrs == sorted(addrs, reverse=True)

    def test_negative_stride_not_vector_friendly(self):
        from repro.transforms import Vectorize

        a = Array("A", (16,))
        prog = Program("p", [loop(i, 16, [stmt(reads=[a[15 - i]], flops=1)])])
        out = Vectorize().apply(prog)
        assert out.loops()[0].vector_width == 1  # stride -1 is not 0/1


class TestCombinedAnnotations:
    def _annotated(self, n=32, width=4, unroll=2, distance=8):
        x = Array("x", (n,))
        y = Array("y", (n,))
        body = loop(i, n, [stmt(reads=[x[i]], writes=[y[i]], flops=1)])
        body.vector_width = width
        body.unroll = unroll
        body.prefetch = [(body.statements()[0].reads[0], distance)]
        return Program("p", [body])

    def test_vector_plus_unroll_branches(self):
        s = trace_summary(materialize_trace(self._annotated()))
        # 32 elems / width 4 = 8 chunks; branch every 2 chunks -> 4.
        assert s["branches"] == 4

    def test_vector_plus_prefetch(self):
        events = materialize_trace(self._annotated())
        kinds = [type(ev) for ev in events]
        assert Prefetch in kinds
        # Prefetch precedes the first load of each new block.
        assert kinds.index(Prefetch) < kinds.index(Load)

    def test_bytes_conserved_under_all_annotations(self):
        plain = trace_summary(materialize_trace(self._annotated(width=1, unroll=1, distance=1)))
        fancy = trace_summary(materialize_trace(self._annotated()))
        assert plain["load_bytes"] == fancy["load_bytes"]
        assert plain["store_bytes"] == fancy["store_bytes"]


class TestTraceConfig:
    def test_layout_base_respected(self):
        x = Array("x", (4,))
        prog = Program("p", [loop(i, 4, [stmt(reads=[x[i]], flops=1)])])
        encode_trace(prog, TraceConfig(layout_base=0x40_0000))
        assert x.base_addr == 0x40_0000

    def test_existing_layout_not_overwritten(self):
        x = Array("x", (4,))
        prog = Program("p", [loop(i, 4, [stmt(reads=[x[i]], flops=1)])])
        prog.layout(base_addr=0x1234_0000 & ~63)
        base = x.base_addr
        encode_trace(prog)
        assert x.base_addr == base
