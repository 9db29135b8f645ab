"""Interpreter vs reference interpreters, on random affine programs.

Two references:

- a direct textbook evaluation of the IR — no scalar replacement, no
  chunking, no annotations.  With all optimizations disabled, the real
  interpreter must produce the *exact* address sequence of the
  reference; with them enabled, it must still touch the same data;
- :func:`reference_trace`, the env-driven lowering the interpreter used
  before its innermost loops were lowered to precomputed affine plans:
  every access evaluates ``ref.addr(env)`` under the current loop
  variables, and ``annotate_ir`` marks come from the walk itself.  The
  real interpreter must emit the *exact* event list of it under every
  annotation (vector width, unroll, prefetch), with scalar replacement
  on or off and with IR marks on or off.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.affine import Var
from repro.workloads import TraceConfig, materialize_trace
from repro.workloads.interp import _split_refs
from repro.workloads.ir import Array, Loop, Program, Statement
from repro.workloads.trace import (
    IRMark,
    Load,
    Prefetch,
    Store,
    branch_event,
    compute_event,
)

I, J = Var("i"), Var("j")


def reference_addresses(program):
    """(kind, addr) stream from naive recursive evaluation."""
    out = []

    def run(node, env):
        if isinstance(node, Statement):
            for ref in node.reads:
                out.append(("L", ref.addr(env)))
            for ref in node.writes:
                out.append(("S", ref.addr(env)))
            return
        lo = node.lower.evaluate(env)
        hi = node.upper.evaluate(env)
        for v in range(lo, hi):
            env[node.var.name] = v
            for child in node.body:
                run(child, env)
        env.pop(node.var.name, None)

    for node in program.body:
        run(node, {})
    return out


def interpreter_addresses(program, config):
    out = []
    for ev in materialize_trace(program, config):
        if isinstance(ev, Load):
            for a in range(ev.addr, ev.addr + ev.size, 4):
                out.append(("L", a))
        elif isinstance(ev, Store):
            for a in range(ev.addr, ev.addr + ev.size, 4):
                out.append(("S", a))
    return out


def reference_trace(program, cfg):
    """The env-driven lowering: one ``ref.addr(env)`` per access."""
    out = []

    def emit_access(ref, node, env, v, chunk, factory):
        elem = ref.array.elem_bytes
        if chunk == 1:
            out.append(factory(ref.addr(env), elem))
            return
        stride = ref.stride_elements(node.var)
        if stride == 0:
            out.append(factory(ref.addr(env), elem))
            return
        if stride == 1:
            out.append(factory(ref.addr(env), chunk * elem))
            return
        saved = env[node.var.name]
        for lane in range(chunk):
            env[node.var.name] = v + lane
            out.append(factory(ref.addr(env), elem))
        env[node.var.name] = saved

    def run_innermost(node, env, label):
        lo = node.lower.evaluate(env)
        hi = node.upper.evaluate(env)
        if hi <= lo:
            return
        if cfg.annotate_ir:
            out.append(IRMark(label))
        preloads, poststores, per_stmt = _split_refs(node, cfg)
        env[node.var.name] = lo
        for ref in preloads:
            out.append(Load(ref.addr(env), ref.array.elem_bytes))
        width = max(1, node.vector_width)
        branch_every = max(1, node.unroll)
        last_prefetch_block = {}
        chunk_index = 0
        v = lo
        while v < hi:
            chunk = min(width, hi - v)
            env[node.var.name] = v
            for pf_index, (ref, distance) in enumerate(node.prefetch):
                saved = env[node.var.name]
                ahead = min(v + distance, hi - 1)
                for target in (v, ahead) if v == lo else (ahead,):
                    env[node.var.name] = target
                    addr = ref.addr(env)
                    block = addr // cfg.prefetch_block_bytes
                    if last_prefetch_block.get(pf_index) != block:
                        last_prefetch_block[pf_index] = block
                        out.append(Prefetch(addr))
                env[node.var.name] = saved
            for statement, reads, writes in per_stmt:
                for ref in reads:
                    emit_access(ref, node, env, v, chunk, Load)
                out.append(compute_event(statement.flops + statement.overhead_ops))
                for ref in writes:
                    emit_access(ref, node, env, v, chunk, Store)
            chunk_index += 1
            last = v + chunk >= hi
            if chunk_index % branch_every == 0 or last:
                out.append(branch_event(not last))
            v += chunk
        env[node.var.name] = lo
        for ref in poststores:
            out.append(Store(ref.addr(env), ref.array.elem_bytes))
        env.pop(node.var.name, None)

    def run(node, env, path):
        if isinstance(node, Statement):
            for ref in node.reads:
                out.append(Load(ref.addr(env), ref.array.elem_bytes))
            out.append(compute_event(node.flops + node.overhead_ops))
            for ref in node.writes:
                out.append(Store(ref.addr(env), ref.array.elem_bytes))
            return
        label = f"{path}.{node.var.name}" if path else node.var.name
        if node.is_innermost:
            run_innermost(node, env, label)
            return
        lo = node.lower.evaluate(env)
        hi = node.upper.evaluate(env)
        branch_every = max(1, node.unroll)
        for i, v in enumerate(range(lo, hi)):
            env[node.var.name] = v
            if cfg.annotate_ir:
                out.append(IRMark(label))
            for child in node.body:
                run(child, env, label)
            if (i + 1) % branch_every == 0 or v == hi - 1:
                out.append(branch_event(v != hi - 1))
        env.pop(node.var.name, None)

    for node in program.body:
        run(node, {}, "")
    return out


def event_keys(events):
    """Comparable ``(kind, *fields)`` tuples for an event list."""
    return [
        (type(ev).__name__,) + tuple(getattr(ev, slot) for slot in type(ev).__slots__)
        for ev in events
    ]


@st.composite
def programs(draw):
    """Random two-deep affine loop nests over a 16x16 array."""
    a = Array("A", (16, 16))
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))

    def subscript():
        ci = draw(st.integers(0, 2))
        cj = draw(st.integers(0, 2))
        const = draw(st.integers(0, 3))
        return ci * I + cj * J + const

    n_reads = draw(st.integers(1, 3))
    n_writes = draw(st.integers(0, 1))
    statement = Statement(
        reads=[a[subscript(), subscript()] for _ in range(n_reads)],
        writes=[a[subscript(), subscript()] for _ in range(n_writes)],
        flops=1,
    )
    inner = Loop(J, 0, m, [statement])
    outer = Loop(I, 0, n, [inner])
    prog = Program("rand", [outer])
    prog.layout(base_addr=0x1000)
    return prog


class TestAgainstReference:
    @given(programs())
    @settings(max_examples=60, deadline=None)
    def test_plain_lowering_matches_reference_exactly(self, prog):
        config = TraceConfig(scalar_replacement=False)
        assert interpreter_addresses(prog, config) == reference_addresses(prog)

    @given(programs())
    @settings(max_examples=60, deadline=None)
    def test_scalar_replacement_preserves_coverage(self, prog):
        config = TraceConfig(scalar_replacement=True)
        ref = reference_addresses(prog)
        opt = interpreter_addresses(prog, config)
        # Hoisting may drop repeats but never invents or loses data.
        assert set(opt) <= set(ref)
        assert {a for k, a in opt if k == "L"} == {a for k, a in ref if k == "L"}
        assert {a for k, a in opt if k == "S"} == {a for k, a in ref if k == "S"}
        assert len(opt) <= len(ref)

    @given(programs(), st.integers(2, 5))
    @settings(max_examples=60, deadline=None)
    def test_vectorization_preserves_data_coverage(self, prog, width):
        plain = interpreter_addresses(prog, TraceConfig(scalar_replacement=False))
        vec_prog = prog.clone()
        inner = vec_prog.loops()[-1]
        inner.vector_width = width
        vec = interpreter_addresses(vec_prog, TraceConfig(scalar_replacement=False))
        # Same data touched; SIMD never does *more* element accesses.
        assert set(vec) == set(plain)
        assert len(vec) <= len(plain)
        # Loop-varying references keep their exact access multiset (only
        # invariant refs collapse into one splat access per chunk).
        has_invariant = any(
            ref.stride_elements(inner.var) == 0
            for statement in inner.statements()
            for ref in statement.refs
        )
        if not has_invariant:
            assert sorted(vec) == sorted(plain)

    @given(programs(), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_unroll_is_invisible_to_data(self, prog, unroll):
        plain = interpreter_addresses(prog, TraceConfig())
        unrolled = prog.clone()
        for lp in unrolled.loops():
            lp.unroll = unroll
        assert interpreter_addresses(unrolled, TraceConfig()) == plain


@st.composite
def annotated_programs(draw):
    """Random nests with the transforms' annotations on the inner loop."""
    prog = draw(programs())
    outer, inner = prog.loops()
    inner.vector_width = draw(st.integers(1, 5))
    inner.unroll = draw(st.integers(1, 4))
    outer.unroll = draw(st.integers(1, 4))
    refs = list(inner.statements()[0].refs)
    inner.prefetch = draw(
        st.lists(st.tuples(st.sampled_from(refs), st.integers(1, 8)), max_size=2)
    )
    return prog


class TestAgainstEnvDrivenLowering:
    @given(annotated_programs(), st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_plan_lowering_emits_the_exact_event_list(self, prog, scalar_replacement, annotate_ir):
        config = TraceConfig(scalar_replacement=scalar_replacement, annotate_ir=annotate_ir)
        want = event_keys(reference_trace(prog, config))
        assert event_keys(materialize_trace(prog, config)) == want
