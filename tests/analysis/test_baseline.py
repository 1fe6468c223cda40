"""Baseline round-trip and regression diffing."""

import json

import pytest

from repro.analysis.baseline import (
    diff_against_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.findings import Finding


def mk(rule="CAT010", path="src/repro/x.py", line=10,
       source_line="return x == 0.5", message="float equality"):
    return Finding(rule=rule, severity="error", path=path, line=line,
                   col=4, message=message, source_line=source_line)


class TestKeying:
    def test_key_ignores_line_number(self):
        # unrelated edits above a grandfathered finding must not revive it
        assert mk(line=10).key() == mk(line=99).key()

    def test_key_distinguishes_rule_path_and_text(self):
        base = mk()
        assert base.key() != mk(rule="CAT001").key()
        assert base.key() != mk(path="src/repro/y.py").key()
        assert base.key() != mk(source_line="return x == 1.5").key()


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        p = tmp_path / "baseline.json"
        findings = [mk(), mk(rule="CAT001", source_line="np.log(x)")]
        write_baseline(findings, str(p))
        counts = load_baseline(str(p))
        assert sum(counts.values()) == 2
        assert counts[mk().key()] == 1

    def test_missing_file_is_empty_baseline(self, tmp_path):
        assert load_baseline(str(tmp_path / "nope.json")) == {}

    def test_multiplicity_preserved(self, tmp_path):
        p = tmp_path / "baseline.json"
        write_baseline([mk(line=10), mk(line=20)], str(p))
        assert load_baseline(str(p))[mk().key()] == 2

    @pytest.mark.parametrize("doc", [
        {},
        {"entries": 5},
        {"entries": [{"rule": "CAT001"}]},
        [1],
    ], ids=["no-entries", "entries-not-list", "entry-without-key",
            "not-an-object"])
    def test_malformed_document_rejected(self, tmp_path, doc):
        p = tmp_path / "baseline.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="not a catlint baseline"):
            load_baseline(str(p))


class TestDiff:
    def test_baselined_finding_is_not_new(self, tmp_path):
        p = tmp_path / "b.json"
        write_baseline([mk()], str(p))
        new, stale = diff_against_baseline([mk(line=42)],
                                           load_baseline(str(p)))
        assert new == [] and stale == 0

    def test_fresh_finding_is_new(self, tmp_path):
        p = tmp_path / "b.json"
        write_baseline([mk()], str(p))
        fresh = mk(rule="CAT012", source_line="except:")
        new, stale = diff_against_baseline([mk(), fresh],
                                           load_baseline(str(p)))
        assert new == [fresh] and stale == 0

    def test_multiplicity_beyond_baseline_is_new(self, tmp_path):
        # one occurrence accepted, a second identical line is a regression
        p = tmp_path / "b.json"
        write_baseline([mk(line=10)], str(p))
        new, _ = diff_against_baseline([mk(line=10), mk(line=50)],
                                       load_baseline(str(p)))
        assert len(new) == 1

    def test_stale_entries_counted(self, tmp_path):
        p = tmp_path / "b.json"
        write_baseline([mk(), mk(rule="CAT001", source_line="np.log(x)")],
                       str(p))
        new, stale = diff_against_baseline([], load_baseline(str(p)))
        assert new == [] and stale == 2

    def test_empty_baseline_everything_new(self):
        new, stale = diff_against_baseline([mk()], load_baseline("/nope"))
        assert len(new) == 1 and stale == 0
