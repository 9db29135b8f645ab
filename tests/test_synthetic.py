"""Synthetic workload generators and their system-level behaviour."""

import pytest

from repro.cpu.system import System, SystemConfig
from repro.errors import WorkloadError
from repro.workloads import synthetic
from repro.workloads.trace import Branch, Load, Store, trace_summary


class TestGenerators:
    def test_streaming_addresses_sequential(self):
        events = synthetic.streaming(bytes_total=256, rounds=1, compute_per_access=0)
        loads = [ev.addr for ev in events if isinstance(ev, Load)]
        assert loads == sorted(loads)
        assert len(loads) == 64

    def test_streaming_rounds_repeat(self):
        events = synthetic.streaming(bytes_total=128, rounds=3, compute_per_access=0)
        loads = [ev.addr for ev in events if isinstance(ev, Load)]
        assert loads[:32] == loads[32:64] == loads[64:]

    def test_strided_stride(self):
        events = synthetic.strided(stride_bytes=512, accesses=8, compute_per_access=0)
        loads = [ev.addr for ev in events if isinstance(ev, Load)]
        assert all(b - a == 512 for a, b in zip(loads, loads[1:]))

    def test_random_access_deterministic(self):
        a = synthetic.random_access(seed=7)
        b = synthetic.random_access(seed=7)
        assert [type(x) for x in a] == [type(x) for x in b]
        assert all(
            not isinstance(x, (Load, Store)) or x.addr == y.addr for x, y in zip(a, b)
        )

    def test_random_access_seed_matters(self):
        a = [ev.addr for ev in synthetic.random_access(seed=1) if isinstance(ev, Load)]
        b = [ev.addr for ev in synthetic.random_access(seed=2) if isinstance(ev, Load)]
        assert a != b

    def test_pointer_chase_covers_all_lines_each_round(self):
        events = synthetic.pointer_chase(working_set_bytes=1024, rounds=2)
        loads = [ev.addr for ev in events if isinstance(ev, Load)]
        round_size = 1024 // 64
        assert sorted(loads[:round_size]) == list(
            range(synthetic.BASE_ADDR, synthetic.BASE_ADDR + 1024, 64)
        )
        assert loads[:round_size] == loads[round_size:]

    def test_pointer_chase_is_scrambled(self):
        events = synthetic.pointer_chase(working_set_bytes=4096, rounds=1)
        loads = [ev.addr for ev in events if isinstance(ev, Load)]
        assert loads != sorted(loads)

    def test_hot_cold_mix(self):
        events = synthetic.hot_cold(hot_bytes=256, accesses=2000, hot_probability=0.9, seed=3)
        touched = [ev.addr for ev in events if isinstance(ev, (Load, Store))]
        hot = sum(1 for a in touched if a < synthetic.BASE_ADDR + 256)
        assert 0.8 < hot / len(touched) < 0.97

    def test_write_mix(self):
        events = synthetic.streaming(bytes_total=256, rounds=1, write_every=4)
        summary = trace_summary(events)
        assert summary["stores"] == summary["loads"] // 3

    def test_last_branch_not_taken(self):
        events = synthetic.streaming(bytes_total=64, rounds=1)
        branches = [ev for ev in events if isinstance(ev, Branch)]
        assert branches[-1].taken is False
        assert all(b.taken for b in branches[:-1])

    @pytest.mark.parametrize(
        "call",
        [
            lambda: synthetic.streaming(bytes_total=0),
            lambda: synthetic.strided(stride_bytes=0),
            lambda: synthetic.random_access(accesses=0),
            lambda: synthetic.pointer_chase(working_set_bytes=4),
            lambda: synthetic.hot_cold(hot_probability=1.5),
        ],
    )
    def test_validation(self, call):
        with pytest.raises(WorkloadError):
            call()


#: Access-pattern extremes the paper's affine kernels never reach.
PATTERNS = {
    "streaming": lambda: synthetic.streaming(bytes_total=32768, rounds=2),
    "strided_256B": lambda: synthetic.strided(stride_bytes=256, accesses=4096),
    "pointer_chase": lambda: synthetic.pointer_chase(working_set_bytes=16384, rounds=3),
    "hot_cold_90_10": lambda: synthetic.hot_cold(accesses=8192, seed=11),
    "random_256KB": lambda: synthetic.random_access(accesses=8192, seed=11),
}


def _penalties(pattern):
    """(drop-in, VWB) penalty in percent over SRAM on one pattern."""
    events = PATTERNS[pattern]()
    sram = System(SystemConfig(technology="sram")).run(events)
    dropin = System(SystemConfig(technology="stt-mram")).run(events)
    vwb = System(SystemConfig(technology="stt-mram", frontend="vwb")).run(events)
    return dropin.penalty_vs(sram), vwb.penalty_vs(sram)


class TestSystemBehaviour:
    def test_vwb_removes_most_of_the_streaming_penalty(self):
        dropin, vwb = _penalties("streaming")
        assert vwb < 0.6 * dropin

    @pytest.mark.parametrize(
        "pattern", ["strided_256B", "pointer_chase", "hot_cold_90_10", "random_256KB"]
    )
    def test_vwb_degradation_stays_bounded(self, pattern):
        """Without spatial locality (or with random-order reuse, which
        defeats the 2-line always-promote policy) the VWB cannot help,
        but a promotion costs one wide read, never a blow-up."""
        dropin, vwb = _penalties(pattern)
        assert vwb < dropin + 40.0

    def test_vwb_loves_streaming(self):
        events = synthetic.streaming(bytes_total=32768, rounds=2)
        dropin = System(SystemConfig(technology="stt-mram")).run(events)
        vwb = System(SystemConfig(technology="stt-mram", frontend="vwb")).run(events)
        assert vwb.cycles < 0.8 * dropin.cycles

    def test_vwb_neutral_on_pointer_chase(self):
        """No spatial locality: the VWB can't help, but must not hurt
        beyond the wide read's own cost."""
        events = synthetic.pointer_chase(working_set_bytes=16384, rounds=3)
        dropin = System(SystemConfig(technology="stt-mram")).run(events)
        vwb = System(SystemConfig(technology="stt-mram", frontend="vwb")).run(events)
        assert vwb.cycles < 1.3 * dropin.cycles

    def test_hot_set_cached_effectively(self):
        events = synthetic.hot_cold(hot_bytes=2048, accesses=4000, seed=5)
        result = System(SystemConfig(technology="stt-mram", frontend="vwb")).run(events)
        # The 2 KB hot set fits anywhere; most accesses must be cheap.
        assert result.load_latency_quantile(0.5) <= 4.0

    def test_reuse_profile_of_pointer_chase(self):
        from repro.workloads.reuse import profile_reuse

        events = synthetic.pointer_chase(working_set_bytes=8192, rounds=2)
        profile = profile_reuse(events)
        lines = 8192 // 64
        # Second round re-touches every line at distance exactly lines-1.
        assert profile.histogram[lines - 1] == lines
