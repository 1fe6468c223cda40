"""CLI behaviour: exit codes, JSON reports, self-check."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.cli import DEFAULT_LINT_PATHS, main

REPO_ROOT = Path(__file__).resolve().parents[2]

BAD_SOURCE = textwrap.dedent("""
    import numpy as np

    def f(x):
        return np.log(x)
""")

CLEAN_SOURCE = textwrap.dedent("""
    import numpy as np

    def f(x):
        return np.log(np.maximum(x, 1e-300))
""")


@pytest.fixture()
def bad_file(tmp_path):
    # path must look like library code (guarded-math rules skip tests)
    d = tmp_path / "src" / "repro" / "demo"
    d.mkdir(parents=True)
    p = d / "seeded.py"
    p.write_text(BAD_SOURCE)
    return p


class TestLintCommand:
    def test_seeded_violation_fails_with_json_finding(self, bad_file,
                                                      capsys):
        rc = main(["lint", str(bad_file), "--format", "json"])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "catlint"
        (finding,) = [f for f in doc["findings"] if f["rule"] == "CAT001"]
        assert finding["path"] == str(bad_file)
        assert finding["line"] == 5
        assert "np.log" in finding["source_line"]

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        p = tmp_path / "clean.py"
        p.write_text(CLEAN_SOURCE)
        assert main(["lint", str(p)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_min_severity_filters(self, tmp_path, capsys):
        p = tmp_path / "src" / "repro" / "m.py"
        p.parent.mkdir(parents=True)
        p.write_text(BAD_SOURCE)  # CAT001 is a warning
        assert main(["lint", str(p), "--min-severity", "error"]) == 0

    def test_select_runs_only_named_rules(self, bad_file, capsys):
        assert main(["lint", str(bad_file), "--select", "CAT015"]) == 0
        assert main(["lint", str(bad_file), "--select", "CAT001"]) == 1

    @pytest.mark.parametrize("codes, named", [
        ("NOPE999", "NOPE999"),   # no such rule
        ("UNIT001", "UNIT001"),   # the units checker's code, not lint's
        ("PERF001", "PERF001"),   # no such rule family
        (",", "no rule code"),
    ])
    def test_select_rejects_codes_lint_cannot_emit(self, bad_file, codes,
                                                   named, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", str(bad_file), "--select", codes])
        assert exc.value.code == 2
        assert named in capsys.readouterr().err


class TestUnitsCommand:
    def test_violation_fails(self, tmp_path, capsys):
        p = tmp_path / "u.py"
        p.write_text(textwrap.dedent('''
            def f(h, e0):
                """Mix-up.

                Parameters
                ----------
                h:
                    Enthalpy [J/kg].
                e0:
                    Formation energy [J/mol].
                """
                return h + e0
        '''))
        rc = main(["units", str(p), "--format", "json"])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["findings"][0]["rule"] == "UNIT001"

    def test_clean_exits_zero(self, tmp_path):
        p = tmp_path / "u.py"
        p.write_text(CLEAN_SOURCE)
        assert main(["units", str(p)]) == 0


class TestSelfCheck:
    """The repo's own tree is the permanent integration fixture."""

    @pytest.mark.parametrize("tree", ["src/repro", "tests", "benchmarks"])
    def test_tree_is_catlint_clean(self, tree, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", tree]) == 0

    def test_default_lint_paths_cover_every_tree(self):
        assert DEFAULT_LINT_PATHS == ["src", "tests", "benchmarks"]

    def test_src_tree_units_clean(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["units", "src/repro"]) == 0


class TestEntryPoint:
    def test_python_dash_m_invocation(self, bad_file):
        env = dict(os.environ,
                   PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "lint",
             str(bad_file), "--format", "json"],
            capture_output=True, text=True, env=env, cwd=str(REPO_ROOT))
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["counts"]["total"] >= 1

    def test_list_rules_catalogs_ten_plus(self, capsys):
        assert main(["list-rules"]) == 0
        out = capsys.readouterr().out
        rule_lines = [ln for ln in out.splitlines()
                      if ln.startswith(("CAT", "UNIT"))]
        assert len(rule_lines) >= 10
        assert not [ln for ln in out.splitlines() if ln.startswith("PERF")]

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2
        # lint has no baseline: any finding fails, and the flag is unknown
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--baseline"])
        assert exc.value.code == 2
        assert "--baseline" in capsys.readouterr().err
