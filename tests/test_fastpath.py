"""The VWB software-prefetch kernel of ``repro.cpu.fastpath``.

``fast_prefetch`` inlines the common cases of ``VWBFrontend.prefetch``
(useless hints, hints dropped on a full file of in-flight promotions,
staged promotions of array-resident windows, committing the oldest
completed staged window first) and returns ``None`` with no state
touched for everything else.  Encoded replay, which uses the kernel,
must stay equal to generic replay, which never does: whole
``RunResult`` and full shadow end state.
"""

from dataclasses import replace

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

import repro.cpu.model as cpu_model
from repro.check import capture_system
from repro.check.audit import _point_material
from repro.cpu.system import System, SystemConfig
from repro.experiments.runner import resolve_config
from repro.transforms.pipeline import OptLevel
from repro.workloads.datasets import DatasetSize
from repro.workloads.encode import encode_events
from repro.workloads.trace import Compute, Load, Prefetch, Store

WINDOW = 128  # 1 Kbit per VWB line: two 64 B DL1 lines per window
N_WINDOWS = 16  # the windows a case touches: 2 KB, all fit the 4 KB DL1
ALIAS = 16  # windows w, w+16, w+32 share the 2-way DL1's sets


def _config(vwb_lines: int, banks: int) -> SystemConfig:
    """A VWB system over a small 2-way DL1 whose sets alias every 2 KB."""
    return SystemConfig(
        technology="stt-mram",
        frontend="vwb",
        vwb_bits=1024 * vwb_lines,
        vwb_lines=vwb_lines,
        dl1_capacity_bytes=4096,
        dl1_associativity=2,
        dl1_banks=banks,
    )


# A case is a list of blocks.  Besides single events, blocks make the
# kernel's rare states likely: "dirty" puts a stored-to window in the
# VWB, "evict" pushes a window's lines out of the 2-way DL1 with
# write-allocating stores to two aliasing windows, "spill" does both to
# one window (a dirty VWB line whose lines left the array), and "burst"
# issues back-to-back prefetches that fill the fill-buffer file while
# its oldest entry is still in flight.
_blocks = st.tuples(
    st.sampled_from(
        ("load", "store", "prefetch", "compute", "dirty", "evict", "spill", "burst")
    ),
    st.integers(0, N_WINDOWS - 1),
    st.integers(1, 8),
    st.integers(0, WINDOW - 8),
)
cases = st.tuples(
    st.sampled_from((2, 4)),
    st.sampled_from((1, 2)),
    st.lists(_blocks, min_size=1, max_size=30),
)


def _events(blocks):
    # Stores (VWB-non-allocate, DL1 write-allocate) make every window
    # array-resident first, so staged promotions are short array reads.
    # The long compute lets the NVM banks drain those writes.
    events = [Store(w * WINDOW + line, 8) for w in range(N_WINDOWS) for line in (0, 64)]
    events.append(Compute(2000))
    for kind, window, count, offset in blocks:
        addr = window * WINDOW + offset
        if kind == "load":
            events.append(Load(addr, 8))
        elif kind == "store":
            events.append(Store(addr, 8))
        elif kind == "prefetch":
            events.append(Prefetch(addr))
        elif kind == "compute":
            events.append(Compute(count))
        elif kind == "dirty":
            events += [Load(addr, 8), Store(addr, 8)]
        elif kind in ("evict", "spill"):
            if kind == "spill":
                events += [Load(addr, 8), Store(addr, 8)]
            for k in (1, 2):
                alias = window + k * ALIAS
                events += [Store(alias * WINDOW, 8), Store(alias * WINDOW + 64, 8)]
        else:
            events += [Prefetch((window + k) % N_WINDOWS * WINDOW) for k in range(count)]
    return events


def _replay_both(config, events):
    encoded, generic = System(config), System(config)
    return (
        encoded.run(encode_events(events)),
        generic.run(events),
        capture_system(encoded),
        capture_system(generic),
    )


def _outcomes(case):
    """Kernel outcomes of one case: which cases and bail-outs it reached."""
    vwb_lines, banks, ops = case
    seen = set()
    real = cpu_model.make_fast_ops

    def observed(frontend):
        fast_read, fast_write, fast_prefetch = real(frontend)
        backing = frontend.backing
        stats = frontend.stats

        def prefetch(addr, now):
            window = (addr // WINDOW) * WINDOW
            full = len(frontend._pending) >= frontend._fill_buffers
            useless = stats.prefetches_useless
            stall = fast_prefetch(addr, now)
            if stall is None:
                lines = (window, window + WINDOW // 2)
                resident = all(backing.contains(line) for line in lines)
                seen.add("dirty-victim-evicted" if resident else "array-miss")
            elif full and stats.prefetches_useless > useless:
                seen.add("in-flight-oldest")
            return stall

        return fast_read, fast_write, prefetch

    cpu_model.make_fast_ops = observed
    try:
        System(_config(vwb_lines, banks)).run(encode_events(_events(ops)))
    finally:
        cpu_model.make_fast_ops = real
    return seen


class TestPrefetchKernel:
    @given(cases)
    @settings(max_examples=150, deadline=None)
    def test_encoded_matches_generic(self, case):
        vwb_lines, banks, ops = case
        got, want, got_state, want_state = _replay_both(
            _config(vwb_lines, banks), _events(ops)
        )
        assert got == want
        assert got_state == want_state

    @pytest.mark.parametrize(
        "outcome", ("array-miss", "dirty-victim-evicted", "in-flight-oldest")
    )
    def test_strategy_reaches_every_bail_out(self, outcome):
        # The property above is only as strong as the cases it draws:
        # each kernel bail-out (and the dropped-hint case) must be
        # reachable from the same strategy.
        find(
            cases,
            lambda case: outcome in _outcomes(case),
            settings=settings(
                max_examples=2000,
                database=None,
                deadline=None,
                derandomize=True,
                phases=[Phase.generate],  # any example will do: no shrinking
            ),
        )

    @pytest.mark.parametrize("banks", (1, 2))
    def test_oldest_entry_completion_boundary(self, banks):
        # Fill the fill-buffer file, wait `gap` cycles, then prefetch
        # fresh windows: sweeping the gap in half cycles puts the oldest
        # entry's completion before, exactly at and after the hint, so
        # the kernel's drop-or-commit decision is checked at its edge.
        for gap in range(24):
            events = _events([("burst", 0, 6, 0)])
            events += [Prefetch(0)] * (gap % 2)  # useless hint: +0.5 cycle
            events += [Compute(gap // 2), Prefetch(6 * WINDOW), Prefetch(7 * WINDOW)]
            got, want, got_state, want_state = _replay_both(_config(2, banks), events)
            assert got == want, gap
            assert got_state == want_state, gap


VARIANTS = {
    "vwb-1024": {"vwb_bits": 1024},
    "vwb-2048": {"vwb_bits": 2048},
    "vwb-4096": {"vwb_bits": 4096},
    "banks-1": {"dl1_banks": 1},
}


class TestFullLevelGrid:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("kernel", ("gemm", "atax", "mvt"))
    def test_encoded_matches_generic(self, kernel, variant):
        config = replace(resolve_config("vwb"), **VARIANTS[variant])
        _, trace, regions = _point_material(
            kernel, config, OptLevel.FULL, DatasetSize.MINI
        )
        assert trace.pf_addrs, "FULL-level traces carry software prefetches"
        encoded, generic = System(config), System(config)
        got = encoded.run(trace, warm_regions=regions)
        want = generic.run(trace.decode(), warm_regions=regions)
        assert got == want
        assert capture_system(encoded) == capture_system(generic)
