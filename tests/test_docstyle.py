"""Docstring style gate for the exec, experiments and cpu packages.

The simulator core and the experiment engine ship "documented end to
end": every module and every public class/function in these packages
(:mod:`repro.exec` — resilience included — :mod:`repro.experiments`,
and :mod:`repro.cpu` with the encoded replay fast path) carries a
docstring, and parameter/attribute documentation uses NumPy style
(underlined ``Parameters``/``Returns``/``Raises``/``Attributes``
sections), not the Google ``Args:`` form.  CI additionally runs
``pydocstyle`` over the same packages; this test is the
dependency-free local equivalent.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
PACKAGES = ("exec", "experiments", "cpu")

#: Google-style section markers that must not appear in these packages.
GOOGLE_MARKERS = ("Args:", "Arguments:", "Keyword Args:", "Attributes:", "Returns:", "Raises:", "Yields:")

#: NumPy section headers whose underline we check when present.
NUMPY_SECTIONS = ("Parameters", "Returns", "Raises", "Yields", "Attributes", "Notes")


def gated_files():
    files = []
    for package in PACKAGES:
        files.extend(sorted((SRC / package).rglob("*.py")))
    assert files, f"no sources under {SRC}"
    return files


def public_defs(tree):
    """Public classes and functions, including methods of public classes."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                continue
            out.append(node)
            if isinstance(node, ast.ClassDef):
                out.extend(
                    item
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")
                )
    return out


@pytest.mark.parametrize("path", gated_files(), ids=lambda p: str(p.relative_to(SRC)))
def test_module_and_public_api_documented(path):
    tree = ast.parse(path.read_text())
    assert ast.get_docstring(tree), f"{path.name}: missing module docstring"
    undocumented = [n.name for n in public_defs(tree) if not ast.get_docstring(n)]
    assert not undocumented, f"{path.name}: undocumented public API: {undocumented}"


@pytest.mark.parametrize("path", gated_files(), ids=lambda p: str(p.relative_to(SRC)))
def test_numpy_style_not_google(path):
    tree = ast.parse(path.read_text())
    nodes = [tree] + [
        n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    for node in nodes:
        doc = ast.get_docstring(node)
        if not doc:
            continue
        where = f"{path.name}:{getattr(node, 'name', '<module>')}"
        for marker in GOOGLE_MARKERS:
            assert marker not in doc, f"{where}: Google-style {marker!r} section (use NumPy style)"
        lines = doc.splitlines()
        for i, line in enumerate(lines):
            if line.strip() in NUMPY_SECTIONS:
                assert i + 1 < len(lines) and set(lines[i + 1].strip()) == {"-"}, (
                    f"{where}: NumPy section {line.strip()!r} must be underlined with dashes"
                )
