"""Repository-level consistency: registries, results and docs agree."""

import pathlib

import pytest

from repro.cli import PAPER_EXPERIMENTS
from repro.experiments import EXPERIMENTS
from repro.workloads import KERNELS, EXTRA_KERNELS

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestBenchCoverage:
    """The experiment registry, the CLI and the committed tables agree."""

    def test_results_files_match_the_registry(self):
        """Each ``results/<name>.txt`` is what ``repro <name>`` prints."""
        stems = {p.stem for p in (REPO / "results").glob("*.txt")}
        assert stems <= set(EXPERIMENTS), stems - set(EXPERIMENTS)
        assert set(PAPER_EXPERIMENTS) <= stems, set(PAPER_EXPERIMENTS) - stems

    def test_paper_experiments_subset_of_registry(self):
        assert set(PAPER_EXPERIMENTS) <= set(EXPERIMENTS)

    def test_registry_names_are_cli_safe(self):
        for name in EXPERIMENTS:
            assert " " not in name
            assert name == name.lower()


class TestDocsMentionExperiments:
    def test_readme_mentions_core_artefacts(self):
        readme = (REPO / "README.md").read_text()
        for token in ("fig5", "validate", "EXPERIMENTS.md", "DESIGN.md"):
            assert token in readme, token

    def test_experiments_md_covers_every_figure(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for fig in ("Figure 1", "Figure 3", "Figure 4", "Figure 5",
                    "Figure 6", "Figure 7", "Figure 8", "Figure 9", "Table I"):
            assert fig in text, fig

    def test_design_md_has_per_experiment_index(self):
        text = (REPO / "DESIGN.md").read_text()
        for fig in ("Fig. 1", "Fig. 5", "Fig. 8", "Table I"):
            assert fig in text, fig


class TestKernelRegistry:
    def test_paper_suite_has_twelve(self):
        assert len(KERNELS) == 12

    def test_no_overlap_with_extras(self):
        assert not set(KERNELS) & set(EXTRA_KERNELS)

    def test_kernel_modules_exist(self):
        package = REPO / "src" / "repro" / "workloads" / "polybench"
        modules = {p.stem for p in package.glob("*.py")} - {"__init__"}
        # Every registered kernel resolves to some module in the package
        # (names are normalised: '2mm' -> two_mm, 'jacobi-1d' -> jacobi1d).
        assert len(modules) >= len(KERNELS) + len(EXTRA_KERNELS)


class TestExamplesPresent:
    def test_at_least_five_examples(self):
        examples = list((REPO / "examples").glob("*.py"))
        assert len(examples) >= 5
        names = {p.name for p in examples}
        assert "quickstart.py" in names

    def test_examples_have_docstrings_and_main(self):
        for path in (REPO / "examples").glob("*.py"):
            text = path.read_text()
            assert text.lstrip().startswith(('"""', "#!")), path.name
            assert '__main__' in text, path.name
