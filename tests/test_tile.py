"""Strip-mining / tiling transformations."""

import pytest

from repro.errors import TransformError
from repro.transforms.tile import StripMine, TileNest, tiled_variables
from repro.workloads import build_kernel, materialize_trace
from repro.workloads.affine import Var
from repro.workloads.ir import Array, Loop, Program, loop, stmt
from repro.workloads.trace import Load, trace_summary

i, j = Var("i"), Var("j")


def stream_prog(n=16):
    x = Array("x", (n,))
    return Program("s", [loop(i, n, [stmt(reads=[x[i]], flops=1)])])


class TestStripMine:
    def test_splits_into_controller_and_strip(self):
        out = StripMine("i", 4).apply(stream_prog(16))
        loops = out.loops()
        assert len(loops) == 2
        assert loops[0].var.name == "i__tile"
        assert loops[1].var.name == "i"
        assert loops[0].trip_count({}) == 4

    def test_address_stream_preserved(self):
        prog = stream_prog(16)
        base = [ev.addr for ev in materialize_trace(prog) if isinstance(ev, Load)]
        out = StripMine("i", 4).apply(stream_prog(16))
        tiled = [ev.addr for ev in materialize_trace(out) if isinstance(ev, Load)]
        assert base == tiled

    def test_skips_indivisible_trip_counts(self):
        out = StripMine("i", 5).apply(stream_prog(16))
        assert len(out.loops()) == 1  # untouched

    def test_skips_affine_bounds(self):
        a = Array("A", (8, 8))
        inner = Loop(j, 0, i, [stmt(reads=[a[i, j]], flops=1)])
        prog = Program("t", [loop(i, 8, [inner])])
        out = StripMine("j", 2).apply(prog)
        assert tiled_variables(out) == []

    def test_skips_tile_larger_than_trip(self):
        out = StripMine("i", 32).apply(stream_prog(16))
        assert len(out.loops()) == 1

    def test_annotations_carried_to_strip(self):
        prog = stream_prog(16)
        lp = prog.loops()[0]
        lp.vector_width = 4
        lp.unroll = 2
        out = StripMine("i", 8).apply(prog)
        strip = out.loops()[1]
        assert strip.vector_width == 4
        assert strip.unroll == 2

    def test_pure(self):
        prog = stream_prog(16)
        StripMine("i", 4).apply(prog)
        assert len(prog.loops()) == 1

    def test_validation(self):
        with pytest.raises(TransformError):
            StripMine("i", 1)
        with pytest.raises(TransformError):
            StripMine("", 4)


class TestTileNest:
    def test_tiles_gemm_reduction(self):
        out = TileNest({"k": 8, "j": 8}).apply(build_kernel("gemm"))
        names = tiled_variables(out)
        assert "k__tile" in names and "j__tile" in names

    def test_gemm_data_stream_preserved(self):
        base = trace_summary(materialize_trace(build_kernel("gemm")))
        out = TileNest({"k": 8}).apply(build_kernel("gemm"))
        tiled = trace_summary(materialize_trace(out))
        assert tiled["load_bytes"] == base["load_bytes"]
        assert tiled["store_bytes"] == base["store_bytes"]

    def test_rejects_empty(self):
        with pytest.raises(TransformError):
            TileNest({})

    def test_tiling_improves_l2_locality_on_large_gemm(self):
        """Blocking the reduction keeps tiles DL1-resident: a tiled large
        gemm must produce fewer DL1 misses than the untiled one."""
        from repro.cpu.system import System, SystemConfig, warm_regions_of
        from repro.workloads.datasets import DatasetSize

        base_prog = build_kernel("gemm", DatasetSize.SMALL)  # 48^3
        tiled_prog = TileNest({"i": 12}).apply(build_kernel("gemm", DatasetSize.SMALL))
        system = System(SystemConfig(technology="stt-mram", frontend="vwb",
                                     dl1_capacity_bytes=8192))
        base_run = system.run(
            materialize_trace(base_prog), warm_regions=warm_regions_of(base_prog)
        )
        tiled_run = system.run(
            materialize_trace(tiled_prog), warm_regions=warm_regions_of(tiled_prog)
        )
        base_misses = base_run.dl1_stats["read_misses"]
        tiled_misses = tiled_run.dl1_stats["read_misses"]
        assert tiled_misses <= base_misses


class TestAwareModel:
    def test_fast_writes_alternate_deterministically(self):
        from repro.mem.cache import Cache, CacheConfig
        from repro.mem.mainmem import MainMemory
        from repro.mem.request import Access, AccessType

        cache = Cache(
            CacheConfig(
                name="aware",
                capacity_bytes=1024,
                associativity=2,
                line_bytes=64,
                read_hit_cycles=4,
                write_hit_cycles=2,
                fast_write_cycles=1,
                fast_write_fraction=0.5,
            ),
            MainMemory(latency_cycles=10.0, transfer_cycles=0.0),
        )
        cache.access(Access(0, 4, AccessType.READ), 0.0)
        latencies = [
            cache.access(Access(0, 4, AccessType.WRITE), 1000.0 + 100 * n)
            for n in range(4)
        ]
        assert sorted(set(latencies)) == [1.0, 2.0]
        assert latencies == [1.0, 2.0, 1.0, 2.0] or latencies == [2.0, 1.0, 2.0, 1.0]

    def test_fraction_one_always_fast(self):
        from repro.mem.cache import Cache, CacheConfig
        from repro.mem.mainmem import MainMemory
        from repro.mem.request import Access, AccessType

        cache = Cache(
            CacheConfig(
                name="aware",
                capacity_bytes=1024,
                associativity=2,
                line_bytes=64,
                read_hit_cycles=4,
                write_hit_cycles=2,
                fast_write_cycles=1,
                fast_write_fraction=1.0,
            ),
            MainMemory(latency_cycles=10.0, transfer_cycles=0.0),
        )
        cache.access(Access(0, 4, AccessType.READ), 0.0)
        for n in range(3):
            assert cache.access(Access(0, 4, AccessType.WRITE), 1000.0 + 100 * n) == 1.0

    def test_system_passthrough(self):
        from repro.cpu.system import SystemConfig

        config = SystemConfig(technology="stt-mram", dl1_fast_write_cycles=1)
        assert config.dl1_cache_config().fast_write_cycles == 1

    def test_validation(self):
        from repro.mem.cache import CacheConfig

        with pytest.raises(Exception):
            CacheConfig(
                name="x",
                capacity_bytes=1024,
                associativity=2,
                line_bytes=64,
                read_hit_cycles=1,
                write_hit_cycles=1,
                fast_write_fraction=1.5,
            )

    def test_aware_barely_moves_penalty(self):
        """The headline of the ablation, as a fast test."""
        from repro.experiments import ExperimentRunner
        from repro.experiments.ablations import run_aware_writes

        result = run_aware_writes(ExperimentRunner(kernels=["gemm"]))
        avg = result.averages()
        assert abs(avg["dropin"] - avg["dropin_aware"]) < 2.0
        assert avg["vwb"] < 0.6 * avg["dropin_aware"]
