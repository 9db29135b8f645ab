"""Shape checks of the headline results that ``repro validate`` does not make.

:mod:`repro.experiments.validate` holds the one copy of every paper band
(``tests/test_validate.py`` runs it on the same 4-kernel subset, and
``results/validate.txt`` pins it on the full suite).  The tests here add
the shapes it leaves out: a per-kernel drop-in band, the orderings of
the front-ends, and Figure 7's diminishing returns.  Band widths are
deliberately generous: they must catch regressions in the *shape* of the
results, not pin noise.
"""

from repro.transforms.pipeline import OptLevel


def _avg(values):
    return sum(values) / len(values)


class TestHeadlineClaims:
    def test_dropin_penalty_band(self, claims_runner):
        """Figure 1: drop-in penalty ~40-65% on every kernel."""
        penalties = claims_runner.penalties("dropin", OptLevel.NONE)
        assert all(35.0 < p < 75.0 for p in penalties)

    def test_penalty_ordering(self, claims_runner):
        """dropin > vwb-unopt > vwb-opt for the suite average."""
        dropin = _avg(claims_runner.penalties("dropin", OptLevel.NONE))
        vwb = _avg(claims_runner.penalties("vwb", OptLevel.NONE))
        opt = _avg(claims_runner.penalties("vwb", OptLevel.FULL))
        assert dropin > vwb > opt

    def test_vwb_beats_equal_capacity_rivals(self, claims_runner):
        """Figure 8: the VWB outperforms the L0 and EMSHR structures."""
        vwb = _avg(claims_runner.penalties("vwb", OptLevel.FULL))
        l0 = _avg(claims_runner.penalties("l0", OptLevel.FULL))
        emshr = _avg(claims_runner.penalties("emshr", OptLevel.FULL))
        assert vwb < l0 < emshr

    def test_vwb_size_sweet_spot(self, claims_runner):
        """Figure 7: the 1->2 Kbit step gains at least about as much as
        the 2->4 Kbit one — the paper's argument for stopping at 2 Kbit."""
        from repro.experiments import fig7

        avg = fig7.run(claims_runner).averages()
        gain_1_to_2 = avg["vwb_1kbit"] - avg["vwb_2kbit"]
        gain_2_to_4 = avg["vwb_2kbit"] - avg["vwb_4kbit"]
        assert gain_1_to_2 >= gain_2_to_4 - 0.5
