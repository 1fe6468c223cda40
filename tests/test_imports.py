"""Every ``repro`` module imports first, in a fresh interpreter.

The tier-1 suite imports modules in whatever order its files happen to,
so an import cycle can hide behind an earlier import. Importing each
module alone in its own interpreter exposes it (kinetics →
``numerics.safety`` → ``numerics/__init__`` → ``numerics.implicit`` →
kinetics was one).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(
    ".".join(p.relative_to(SRC).with_suffix("").parts).removesuffix(
        ".__init__")
    for p in (SRC / "repro").rglob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_imports_in_a_fresh_interpreter(module):
    proc = subprocess.run([sys.executable, "-c", f"import {module}"],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
