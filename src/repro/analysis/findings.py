"""Finding and severity types shared by catlint and the units checker."""

from __future__ import annotations

import dataclasses


class Severity:
    """Ordered severity levels.

    ``error`` findings are correctness hazards (swallowed crash faults,
    float equality on state); ``warning`` findings are numerical-safety
    smells (missing dtype, unguarded log); ``info`` findings are
    conventions (pragma without a reason).
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    _ORDER = {ERROR: 2, WARNING: 1, INFO: 0}

    @classmethod
    def rank(cls, severity: str) -> int:
        return cls._ORDER.get(severity, -1)


@dataclasses.dataclass(frozen=True)
class Finding:
    """One diagnostic emitted by a rule.

    ``line``/``col`` are 1-based line and 0-based column, matching the
    ``ast`` module.  ``source_line`` is the text of the offending line.
    """

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    source_line: str = ""

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "source_line": self.source_line,
        }

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col + 1}: "
                f"{self.rule} [{self.severity}] {self.message}")
