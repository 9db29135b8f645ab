"""The automated paper-vs-measured summary."""

import math

import pytest

from repro.experiments.summary import SummaryRow, build_summary, render_summary, run


@pytest.fixture(scope="module")
def rows(claims_runner):
    return build_summary(claims_runner)


class TestSummary:
    def test_covers_the_headline_figures(self, rows):
        experiments = {r.experiment for r in rows}
        assert {"fig1", "fig4", "fig5", "fig7", "fig8", "fig9"} <= experiments

    def test_measured_values_plausible(self, rows):
        # The paper bands live in validate.py (checked by test_validate.py).
        assert rows
        assert all(math.isfinite(r.measured) for r in rows)

    def test_paper_values_present_where_stated(self, rows):
        stated = [r for r in rows if r.paper is not None]
        assert len(stated) >= 5

    def test_render(self, rows):
        text = render_summary(rows)
        assert "paper" in text and "measured" in text
        assert "n/a" in text
        assert "x" in text  # the ratio row's unit

    def test_figure_adapter(self, claims_runner):
        result = run(claims_runner)
        assert result.name == "summary"
        assert len(result.labels) == len(result.series["measured"])

    def test_row_dataclass(self):
        row = SummaryRow("figX", "q", 1.0, 2.0)
        assert row.unit == "%"
