"""The repo's static checks: house lint rules over the source tree.

:mod:`~repro.analysis.lint` encodes the invariants no generic linter
knows (virtual time, vectorised solver loops, dtype-explicit kernel
allocations, one scatter spelling, a free event loop in the service,
exchange windows closed on the success path), reported as
:class:`Diagnostic` records.  ``python -m repro.analysis check`` runs
them over the shipped package with one exit code.

Correctness of the exchange itself is not checked here.  Ghost reads
and writes inside an overlap window trap under
:class:`~repro.runtime.sanitizer.GhostSanitizer`; a double ``finish``,
a receive that cannot match or a divergent collective raise at run
time; and exchange plans are checked on their one producer,
:func:`~repro.comm.build_halos`, by the tier-1 property tests.  DESIGN.md
keeps the planted-bug matrix that says which of those catches what.
"""

from .diagnostics import Diagnostic, errors, format_report
from .lint import RULES, lint_file, lint_paths, lint_source

__all__ = [
    "Diagnostic",
    "errors",
    "format_report",
    "RULES",
    "lint_source",
    "lint_file",
    "lint_paths",
]
