"""Documentation-consistency checks.

A downstream user navigates by README/DESIGN/EXPERIMENTS; these tests keep
the documents honest against the code: every module DESIGN.md names must
import, every figure benchmark must exist, every example must at least
compile.
"""

import ast
import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _doc(name):
    return (ROOT / name).read_text()


class TestDesignDocument:
    def test_referenced_modules_import(self):
        text = _doc("DESIGN.md")
        mods = set(re.findall(r"`(repro\.[a-z_0-9.*]+)`", text))
        assert len(mods) >= 20
        for mod in sorted(mods):
            # entries like repro.thermo.species are importable modules;
            # wildcard entries (repro.heating.*) check the package
            target = mod[:-2] if mod.endswith(".*") else mod
            importlib.import_module(target)

    def test_experiment_index_covers_all_figures(self):
        text = _doc("DESIGN.md")
        for i in range(1, 10):
            assert f"fig{i}" in text

    def test_substitutions_section_exists(self):
        assert "Substitutions" in _doc("DESIGN.md")


class TestExperimentsDocument:
    def test_every_figure_section_present(self):
        text = _doc("EXPERIMENTS.md")
        for i in range(1, 10):
            assert f"Fig. {i}" in text

    def test_benchmarks_referenced_exist(self):
        text = _doc("EXPERIMENTS.md")
        benches = set(re.findall(r"benchmarks/(test_bench_\w+\.py)",
                                 text))
        assert len(benches) >= 10
        for b in benches:
            assert (ROOT / "benchmarks" / b).exists(), b


class TestReadme:
    def test_quickstart_code_block_runs(self):
        text = _doc("README.md")
        blocks = re.findall(r"```python\n(.*?)```", text, re.S)
        assert blocks
        # compile (not execute: the snippet runs a real shock solve) to
        # catch syntax/API drift at import level
        for block in blocks:
            ast.parse(block)

    def test_examples_listed_exist(self):
        text = _doc("README.md")
        for name in re.findall(r"examples/(\w+\.py)", text):
            assert (ROOT / "examples" / name).exists(), name


def _tree(name):
    """The ``src/repro/`` tree in a document: {package: [.py names]},
    with ``""`` for the top-level modules."""
    block = re.search(r"```\n(src/repro/\n.*?)```", _doc(name), re.S)
    tree, pkg = {}, ""
    for line in block.group(1).splitlines()[1:]:
        head = re.match(r"  (\S+)", line)
        if head:   # a package line or a top-level module line
            pkg = head.group(1)[:-1] if head.group(1).endswith("/") else ""
            tree.setdefault(pkg, [])
        tree[pkg] += re.findall(r"\b\w+\.py\b", line)
    return tree


class TestArchitectureTrees:
    @pytest.mark.parametrize("name", ["README.md", "DESIGN.md"])
    def test_tree_matches_src(self, name):
        src = ROOT / "src" / "repro"
        tree = _tree(name)
        packages = {p.name for p in src.iterdir()
                    if (p / "__init__.py").exists()}
        assert set(tree) - {""} == packages
        for pkg, modules in tree.items():
            for module in modules:
                assert (src / pkg / module).exists(), f"{pkg}/{module}"


class TestExamplesCompile:
    @pytest.mark.parametrize("path", sorted(
        (ROOT / "examples").glob("*.py")), ids=lambda p: p.name)
    def test_compiles(self, path):
        ast.parse(path.read_text())
