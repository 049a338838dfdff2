"""Structured findings of :mod:`repro.analysis`.

The lint pass reports problems as :class:`Diagnostic` records rather
than raising or printing, so callers — tests, CI, ``python -m
repro.analysis check`` — can filter, count, and format them uniformly.
A diagnostic carries whichever location fields make sense for its
origin: ``path``/``line`` for source findings, ``rank``/``peer``/``slot``
for findings about a communication structure.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Diagnostic severities, in increasing order of seriousness.
SEVERITIES = ("note", "warning", "error")


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding.

    ``rule`` is a stable machine-readable identifier (e.g. ``R006``,
    ``lint/syntax-error``); ``message`` is the human explanation.
    Optional location fields:

    * ``path``/``line`` — source-code findings from the lint pass;
    * ``rank``/``peer``/``slot`` — communication-structure findings.
    """

    rule: str
    severity: str
    message: str
    rank: int | None = None
    peer: int | None = None
    slot: int | None = None
    path: str | None = None
    line: int | None = None

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    @property
    def location(self) -> str:
        """Compact origin string, e.g. ``rank 3 -> 5`` or ``foo.py:12``."""
        if self.path is not None:
            return f"{self.path}:{self.line}" if self.line is not None else self.path
        parts = []
        if self.rank is not None:
            parts.append(f"rank {self.rank}")
        if self.peer is not None:
            parts.append(f"-> {self.peer}")
        if self.slot is not None:
            parts.append(f"slot {self.slot}")
        return " ".join(parts)

    def __str__(self) -> str:
        loc = self.location
        prefix = f"{loc}: " if loc else ""
        return f"{prefix}{self.severity}: {self.message} [{self.rule}]"


def errors(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    """The subset of ``diagnostics`` with error severity."""
    return [d for d in diagnostics if d.severity == "error"]


def format_report(diagnostics: list[Diagnostic]) -> str:
    """Multi-line human report, errors first, stable within severity."""
    order = {sev: i for i, sev in enumerate(SEVERITIES)}
    ranked = sorted(
        diagnostics, key=lambda d: (-order[d.severity], d.rule, d.location)
    )
    lines = [str(d) for d in ranked]
    nerr = len(errors(diagnostics))
    nwarn = sum(1 for d in diagnostics if d.severity == "warning")
    lines.append(f"{nerr} error(s), {nwarn} warning(s)")
    return "\n".join(lines)
