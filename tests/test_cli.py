"""The documented ``python -m repro`` invocations parse.

Every ``$ python -m repro ...`` line in README.md and every
``python -m repro ...`` command in the CI workflow goes through the
CLI's own argparse parser, without running, so a flag that is renamed or
dropped fails here before a reader or a CI job trips over it.  The
``python -m repro.analysis ...`` commands of both files go through the
static-analysis CLI's parser the same way.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.__main__ import _COMMANDS, _build_parser, main
from repro.analysis import cli as analysis_cli

ROOT = Path(__file__).resolve().parents[1]

JOB_ACTIONS = ("submit", "status", "watch", "result", "cancel", "gc",
               "ledger")


def _invocations(path: Path, marker: str) -> list[list[str]]:
    """The argv after ``python -m repro`` of each command in ``path``:
    ``\\`` continuations joined (with README's ``>`` prompt), ``#``
    comments dropped, and cut at the first shell operator (``&``, ``|``,
    ``>``)."""
    text = re.sub(r"\\\n(?:>(?=\s))?", " ", path.read_text())
    found = []
    for line in text.splitlines():
        if marker in line:
            words = shlex.split(line.split(marker, 1)[1], comments=True)
            ops = [i for i, w in enumerate(words)
                   if re.match(r"\d*[&|>]", w)]
            found.append(words[:ops[0]] if ops else words)
    return found


README = _invocations(ROOT / "README.md", "$ python -m repro ")
CI = _invocations(ROOT / ".github" / "workflows" / "ci.yml",
                  "python -m repro ")
ANALYSIS = [argv for path in (ROOT / "README.md",
                              ROOT / ".github" / "workflows" / "ci.yml")
            for argv in _invocations(path, "python -m repro.analysis ")]


def test_both_sources_document_commands():
    assert README and CI and ANALYSIS


@pytest.mark.parametrize("argv", README + CI, ids=" ".join)
def test_documented_invocation_parses(argv):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"does not parse: python -m repro {shlex.join(argv)}")
    assert args.command in _COMMANDS


@pytest.mark.parametrize("argv", ANALYSIS, ids=" ".join)
def test_documented_analysis_invocation_parses(argv):
    try:
        args = analysis_cli._build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail("does not parse: python -m repro.analysis "
                    f"{shlex.join(argv)}")
    assert args.command is not None


@pytest.mark.parametrize(
    "argv", [[c] for c in _COMMANDS] + [["jobs", a] for a in JOB_ACTIONS],
    ids=" ".join)
def test_every_command_answers_help(argv, capsys):
    assert main([*argv, "--help"]) == 0
    assert capsys.readouterr().out.startswith(
        f"usage: python -m repro {' '.join(argv)}")
