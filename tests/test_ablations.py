"""Ablation experiment functions, on fast kernel subsets."""

import pytest

from repro.experiments import ExperimentRunner, ablations


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(kernels=["gemm", "trmm"])


class TestBankSweep:
    def test_more_banks_never_hurt_much(self, runner):
        result = ablations.run_bank_sweep(runner, banks=(1, 4, 8))
        avg = result.averages()
        assert avg["4_banks"] <= avg["1_banks"]
        assert avg["8_banks"] <= avg["4_banks"] + 0.5

    def test_series_per_bank_count(self, runner):
        result = ablations.run_bank_sweep(runner, banks=(2, 8))
        assert set(result.series) == {"2_banks", "8_banks"}


class TestPromotionWidth:
    def test_runs_and_stays_bounded(self, runner):
        result = ablations.run_promotion_width_sweep(runner, lines=(2, 4))
        for values in result.series.values():
            assert all(v < 30.0 for v in values)


class TestPrefetchDistance:
    def test_default_lookahead_competitive(self, runner):
        result = ablations.run_prefetch_distance_sweep(runner, ahead_bytes=(32, 128))
        avg = result.averages()
        assert avg["ahead_128B"] <= avg["ahead_32B"] + 1.0


class TestReplacementSweep:
    def test_all_policies_run(self, runner):
        result = ablations.run_replacement_sweep(runner, policies=("lru", "fifo", "random"))
        assert set(result.series) == {"lru", "fifo", "random"}
        for values in result.series.values():
            assert all(v < 60.0 for v in values)
        avg = result.averages()
        assert avg["lru"] <= min(avg["fifo"], avg["random"]) + 2.0


class TestDatasetSweep:
    def test_small_dataset_stays_tolerable(self):
        from repro.workloads.datasets import DatasetSize

        result = ablations.run_dataset_sweep(
            kernels=["gemm"], sizes=(DatasetSize.MINI, DatasetSize.SMALL)
        )
        assert result.averages()["small"] < 20.0


class TestLineSize:
    def test_narrow_sram_baseline_shrinks_penalty(self, runner):
        result = ablations.run_line_size_study(runner)
        avg = result.averages()
        assert avg["vs_256bit_sram"] < avg["vs_512bit_sram"]


class TestHybrid:
    def test_both_structures_beat_dropin(self, runner):
        result = ablations.run_hybrid_comparison(runner)
        avg = result.averages()
        assert avg["vwb"] < avg["dropin"]
        assert avg["hybrid_8kb"] < avg["dropin"]


class TestNVMICache:
    def test_positive_fetch_penalty(self):
        result = ablations.run_nvm_icache(kernels=["gemm"])
        assert all(v > 0.0 for v in result.series["nvm_il1"])


class TestInterchange:
    def test_noop_on_friendly_kernels(self):
        result = ablations.run_interchange_study(kernels=["gemm"])
        avg = result.averages()
        assert abs(avg["full"] - avg["full_plus_interchange"]) < 1.0


class TestDRAMStudy:
    def test_orderings_survive_model_swap(self):
        result = ablations.run_dram_model_study(kernels=["gemm"])
        avg = result.averages()
        assert avg["vwb_banked"] < avg["dropin_banked"]
        assert abs(avg["dropin_flat"] - avg["dropin_banked"]) < 3.0


class TestHWPrefetch:
    def test_sw_into_vwb_beats_hw_into_dropin(self, runner):
        result = ablations.run_hw_prefetch_comparison(runner)
        avg = result.averages()
        assert avg["dropin_hw_prefetch"] <= avg["dropin"] + 0.5
        assert avg["vwb_sw_prefetch"] < 0.4 * avg["dropin_hw_prefetch"]
