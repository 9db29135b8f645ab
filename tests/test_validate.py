"""The headline-claim validation harness (on a fast kernel subset)."""

import pytest

from repro.experiments import ExperimentRunner
from repro.experiments.validate import render_claims, run, validate


@pytest.fixture(scope="module")
def claims(claims_runner):
    return validate(claims_runner)


class TestValidate:
    def test_all_claims_have_details(self, claims):
        assert len(claims) >= 9
        assert all(c.detail for c in claims)
        assert all(c.statement for c in claims)

    def test_core_claims_pass_on_subset(self, claims):
        # fig3-not-enough (a >10% residue after the VWB alone) is a
        # full-suite claim; results/validate.txt pins it there.
        for claim in claims:
            if claim.name != "fig3-not-enough":
                assert claim.passed, f"{claim.name}: {claim.detail}"

    def test_render(self, claims):
        text = render_claims(claims)
        assert "PASS" in text
        assert "claims reproduced" in text

    def test_figure_adapter(self, claims_runner):
        result = run(claims_runner)
        assert result.name == "validate"
        assert set(result.series["passed"]) <= {0.0, 1.0}


class TestLatencySensitivityAblation:
    def test_write_scaling_flat_read_scaling_steep(self):
        from repro.experiments.ablations import run_latency_sensitivity

        runner = ExperimentRunner(kernels=["gemm", "atax"])
        result = run_latency_sensitivity(runner, factors=(1.0, 0.25))
        avg = result.averages()
        # Halving/quartering the write latency barely moves the penalty...
        assert abs(avg["write_x1"] - avg["write_x0.25"]) < 3.0
        # ...while quartering the read latency removes almost all of it.
        assert avg["read_x0.25"] < 0.2 * avg["read_x1"]
