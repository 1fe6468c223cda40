"""CLI, baseline and self-check tests for ``repro.analysis perf``."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.baseline import DEFAULT_PERF_BASELINE_PATH
from repro.analysis.cli import DEFAULT_PERF_PATHS, main
from repro.analysis.hotpath import build_index

REPO_ROOT = Path(__file__).resolve().parents[2]

HOT_VIOLATION = """
import numpy as np


def solve(xq, x, Y):
    return np.stack([np.interp(xq, x, Y[:, j])
                     for j in range(Y.shape[1])], axis=-1)
"""

CLEAN = """
import numpy as np


def solve(xq, x, Y):
    return Y[np.searchsorted(x, xq)]
"""


@pytest.fixture
def hot_tree(tmp_path):
    """A mini package with a solver on a hot path."""
    d = tmp_path / "src" / "repro" / "solvers"
    d.mkdir(parents=True)
    (d / "example.py").write_text(textwrap.dedent(HOT_VIOLATION))
    return tmp_path / "src"


@pytest.fixture
def clean_tree(tmp_path):
    d = tmp_path / "src" / "repro" / "solvers"
    d.mkdir(parents=True)
    (d / "example.py").write_text(textwrap.dedent(CLEAN))
    return tmp_path / "src"


class TestExitCodes:
    def test_findings_exit_1(self, hot_tree, capsys):
        assert main(["perf", str(hot_tree)]) == 1
        assert "PERF002" in capsys.readouterr().out

    def test_clean_exit_0(self, clean_tree, capsys):
        assert main(["perf", str(clean_tree)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["perf", "--format", "nope"])
        assert exc.value.code == 2

    def test_no_command_exit_2(self):
        assert main([]) == 2


class TestJsonOutput:
    def test_doc_shape(self, hot_tree, capsys):
        main(["perf", "--json", str(hot_tree)])
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "perflint"
        assert doc["counts"]["total"] == len(doc["worklist"]) >= 1
        entry = doc["worklist"][0]
        assert entry["rank"] == 1
        assert entry["rule"].startswith("PERF")
        for field in ("score", "function", "hot_via", "trip_estimate",
                      "multiplicity", "key", "new"):
            assert field in entry

    def test_ranks_descend_by_score(self, hot_tree, capsys):
        main(["perf", "--json", str(hot_tree)])
        doc = json.loads(capsys.readouterr().out)
        scores = [e["score"] for e in doc["worklist"]]
        assert scores == sorted(scores, reverse=True)

    def test_worklist_file(self, hot_tree, tmp_path, capsys):
        out = tmp_path / "perf-worklist.json"
        main(["perf", "--json", "--worklist", str(out), str(hot_tree)])
        on_disk = json.loads(out.read_text())
        assert on_disk == json.loads(capsys.readouterr().out)

    def test_select_restricts_rules(self, hot_tree, capsys):
        # no PERF001 pattern in the fixture: selecting it comes up clean
        assert main(["perf", "--select", "PERF001", str(hot_tree)]) == 0
        capsys.readouterr()
        assert main(["perf", "--select", "PERF002", "--json",
                     str(hot_tree)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert {e["rule"] for e in doc["worklist"]} == {"PERF002"}


class TestBaseline:
    def test_round_trip(self, hot_tree, tmp_path, capsys):
        bl = tmp_path / "perf-baseline.json"
        assert main(["perf", "--write-baseline", str(bl),
                     str(hot_tree)]) == 0
        # everything grandfathered: diff is clean
        assert main(["perf", "--baseline", str(bl),
                     str(hot_tree)]) == 0
        out = capsys.readouterr().out
        assert "0 new" in out

    def test_new_finding_fails(self, hot_tree, tmp_path, capsys):
        bl = tmp_path / "perf-baseline.json"
        main(["perf", "--write-baseline", str(bl), str(hot_tree)])
        extra = (Path(str(hot_tree)) / "repro" / "solvers"
                 / "another.py")
        extra.write_text(textwrap.dedent(HOT_VIOLATION))
        assert main(["perf", "--baseline", str(bl),
                     str(hot_tree)]) == 1
        doc_out = capsys.readouterr().out
        assert "NEW" in doc_out

    def test_stale_entries_reported(self, hot_tree, tmp_path, capsys):
        bl = tmp_path / "perf-baseline.json"
        main(["perf", "--write-baseline", str(bl), str(hot_tree)])
        target = Path(str(hot_tree)) / "repro" / "solvers" / "example.py"
        target.write_text(textwrap.dedent(CLEAN))
        assert main(["perf", "--baseline", str(bl),
                     str(hot_tree)]) == 0
        assert "stale" in capsys.readouterr().out

    def test_default_baseline_name(self):
        assert DEFAULT_PERF_BASELINE_PATH == ".perflint-baseline.json"


class TestSelfCheck:
    """The repo itself must match its checked-in perf state."""

    def test_src_matches_perf_baseline(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["perf", "--baseline", "--format", "json"]) == 0

    def test_worklist_names_real_hot_loops(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        main(["perf", "--json"])
        doc = json.loads(capsys.readouterr().out)
        paths = [e["path"] for e in doc["worklist"]]
        assert any("thermo/equilibrium.py" in p for p in paths)
        assert any("solvers/shock_relaxation.py" in p for p in paths)
        # vsl's own PERF002 was vectorized away, and so was the shock
        # loop whose findings it led to: it must survive as a hot-path
        # *via* (its solve chain makes downstream scopes hot)
        idx = build_index(DEFAULT_PERF_PATHS)
        assert any("solvers/vsl.py" not in path
                   and any("solvers/vsl.py" in v for v in hot.via)
                   for (path, _), hot in idx.info.items())

    def test_vectorized_sites_no_longer_fire(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        main(["perf", "--json", "src/repro/solvers"])
        doc = json.loads(capsys.readouterr().out)
        perf002 = [e for e in doc["worklist"] if e["rule"] == "PERF002"]
        assert not any("vsl.py" in e["path"] for e in perf002)
        assert not any("shock_relaxation.py" in e["path"]
                       and e["line"] < 100 for e in perf002)

    def test_benchmarks_catlint_clean(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "benchmarks", "--baseline"]) == 0

    def test_default_lint_paths_include_benchmarks(self, monkeypatch,
                                                   capsys):
        from repro.analysis.cli import DEFAULT_LINT_PATHS
        assert "benchmarks" in DEFAULT_LINT_PATHS
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "--baseline"]) == 0
