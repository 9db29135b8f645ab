"""Experiment runner and figure modules on a fast kernel subset."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import EXPERIMENTS, ExperimentRunner
from repro.experiments import energy, fig1, fig3, fig4, fig5, fig6, fig7, fig8, fig9, table1
from repro.experiments.report import FigureResult, render_figure
from repro.experiments.runner import CONFIGURATIONS, make_system
from repro.transforms.pipeline import OptLevel

#: Small subset keeps the experiment tests fast while covering both a
#: VWB-friendly kernel and a strided one.
FAST = ["gemm", "trmm"]


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(kernels=FAST)


class TestRunner:
    def test_configurations_complete(self):
        assert set(CONFIGURATIONS) == {"sram", "dropin", "vwb", "l0", "emshr", "hybrid"}

    def test_make_system_by_name(self):
        assert make_system("vwb").frontend.name == "vwb"

    def test_make_system_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            make_system("victim")

    def test_trace_cached(self, runner):
        assert runner.trace("gemm") is runner.trace("gemm")

    def test_traces_differ_by_level(self, runner):
        assert runner.trace("gemm") is not runner.trace("gemm", OptLevel.FULL)

    def test_result_cached_for_named_configs(self, runner):
        a = runner.run("sram", "gemm")
        b = runner.run("sram", "gemm")
        assert a is b

    def test_penalty_positive_for_dropin(self, runner):
        assert runner.penalty("dropin", "gemm") > 0

    def test_penalties_cover_all_kernels(self, runner):
        assert len(runner.penalties("dropin")) == len(FAST)


class TestFigureModules:
    def test_table1_contains_paper_values(self, runner):
        result = table1.run(runner)
        text = render_figure(result)
        for value in ("0.787ns", "3.37ns", "1.86ns", "146F^2", "42F^2", "28.35mW"):
            assert value in text, value

    def test_fig1_penalties_in_band(self, runner):
        result = fig1.run(runner)
        for value in result.series_for("dropin"):
            assert 35.0 < value < 75.0  # test_paper_claims' per-kernel band

    def test_fig3_vwb_reduces_average(self, runner):
        result = fig3.run(runner)
        avg = result.averages()
        assert avg["vwb"] < avg["dropin"]

    def test_fig4_read_dominates(self, runner):
        result = fig4.run(runner)
        avg = result.averages()
        assert avg["read_share"] > 80.0
        assert avg["write_share"] < 20.0
        for r, w in zip(result.series_for("read_share"), result.series_for("write_share")):
            assert r + w == pytest.approx(100.0) or (r == 0.0 and w == 0.0)

    def test_fig5_optimized_below_unoptimized_average(self, runner):
        # The paper's band is validate.py's fig5-final-penalty; here the
        # series are the three penalties, each against the SRAM baseline
        # running the same code.
        result = fig5.run(runner)
        assert result.labels == FAST
        assert result.series == {
            "dropin": runner.penalties("dropin", OptLevel.NONE),
            "vwb_no_opt": runner.penalties("vwb", OptLevel.NONE),
            "vwb_with_opt": runner.penalties("vwb", OptLevel.FULL),
        }
        avg = result.averages()
        assert avg["vwb_with_opt"] < avg["vwb_no_opt"]

    def test_fig6_shares_sum_to_100(self, runner):
        result = fig6.run(runner)
        for i in range(len(result.labels)):
            total = sum(result.series[k][i] for k in result.series)
            assert total == pytest.approx(100.0, abs=0.1) or total == 0.0

    def test_fig6_prefetching_largest(self, runner):
        result = fig6.run(runner)
        avg = result.averages()
        assert avg["prefetching"] >= max(avg["vectorization"], avg["others"])

    def test_fig7_series_are_penalties_per_vwb_size(self, runner):
        # The size trend is validate.py's fig7-size-trend, checked on a
        # wider subset by test_validate.py.  Here: one series per size,
        # and the default 2 Kbit VWB's series is its penalty against the
        # SRAM baseline running the same FULL code.
        result = fig7.run(runner)
        assert result.labels == FAST
        assert list(result.series) == ["vwb_1kbit", "vwb_2kbit", "vwb_4kbit"]
        assert result.series["vwb_2kbit"] == runner.penalties("vwb", OptLevel.FULL)

    def test_fig8_vwb_beats_rivals(self, runner):
        result = fig8.run(runner)
        avg = result.averages()
        assert avg["vwb"] < avg["l0"]
        assert avg["vwb"] < avg["emshr"]

    def test_fig9_series_are_gains_per_system(self, runner):
        # The gains claim is validate.py's fig9-gains.  Here: each series
        # is a system's cycle reduction (%) from NONE to FULL code.
        result = fig9.run(runner)
        assert result.labels == FAST
        assert list(result.series) == ["baseline_gain", "nvm_proposal_gain"]
        for config, key in (("sram", "baseline_gain"), ("vwb", "nvm_proposal_gain")):
            for kernel, gain in zip(FAST, result.series[key]):
                before = runner.run(config, kernel, OptLevel.NONE).cycles
                after = runner.run(config, kernel, OptLevel.FULL).cycles
                assert gain == (before - after) / before * 100.0

    def test_registry_has_all_paper_artefacts(self):
        for name in ("table1", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"):
            assert name in EXPERIMENTS


class TestEnergyAndEndurance:
    def test_nvm_dl1_uses_less_energy_over_the_suite(self):
        """The paper's energy argument is about the 12-kernel total (the
        NVM loses on trmm alone, so no smaller subset stands for it)."""
        result = energy.run(ExperimentRunner())
        assert sum(result.series_for("nvm_vwb_nj")) < sum(result.series_for("sram_nj"))

    def test_endurance_rules_out_reram_and_pram(self, runner):
        """Section II: STT-MRAM sustains L1 write traffic for years;
        ReRAM and PRAM wear out orders of magnitude sooner."""
        result = energy.run_endurance(runner)
        stt = result.series["STT-MRAM 32nm"]
        reram = result.series["ReRAM 32nm"]
        pram = result.series["PRAM 32nm"]
        assert all(v > 1.0 for v in stt)
        assert sum(stt) / len(stt) > 10.0
        assert all(r < s / 1000 for r, s in zip(reram, stt))
        assert all(p < r for p, r in zip(pram, reram))


class TestReportRendering:
    def test_render_includes_average_row(self):
        result = FigureResult(
            name="x",
            title="t",
            labels=["a", "b"],
            series={"s": [10.0, 20.0]},
        )
        text = render_figure(result)
        assert "AVERAGE" in text
        assert "15.0" in text

    def test_render_without_bars(self):
        result = FigureResult(name="x", title="t", labels=["a"], series={"s": [10.0]})
        assert "#" not in render_figure(result, bars=False)

    def test_series_for_unknown_raises(self):
        result = FigureResult(name="x", title="t", labels=["a"], series={"s": [1.0]})
        with pytest.raises(KeyError):
            result.series_for("nope")

    def test_notes_rendered(self):
        result = FigureResult(
            name="x", title="t", labels=["a"], series={"s": [1.0]}, notes=["hello"]
        )
        assert "note: hello" in render_figure(result)
