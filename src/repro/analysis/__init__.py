"""Communication-correctness and code-quality analyzers.

Four tools, one diagnostic vocabulary (:class:`Diagnostic`):

* :mod:`~repro.analysis.plancheck` — statically verify the pairwise
  consistency and schedule liveness of ``build_halos`` exchange plans;
* :mod:`~repro.analysis.tracecheck` — vector-clock happens-before
  analysis over an opt-in SimMPI event trace: deadlocks, tag mismatches,
  divergent collectives, and shared-buffer races, explained in full
  where the runtime's ``DeadlockError`` names only the stuck rank;
* :mod:`~repro.analysis.ghostcheck` — AST dataflow analysis of the
  overlapped-exchange window: proves kernels never touch protected
  ghost rows between ``start_copy`` and ``finish`` and that every
  window closes exactly once (the static twin of the runtime
  :class:`~repro.runtime.sanitizer.GhostSanitizer`);
* :mod:`~repro.analysis.lint` — repo-specific AST rules (wall-clock in
  virtual-time modules, silent broad excepts, Python-level mesh loops,
  dtype-implicit kernel allocations, dropped/cleanup-path exchange
  closes), runnable as ``python -m repro.analysis``.

``python -m repro.analysis check`` runs the whole static battery
(lint + ghostcheck + a plancheck self-check) with one exit code.
"""

from .diagnostics import Diagnostic, errors, format_report
from .ghostcheck import GHOST_RULES, check_file, check_paths, check_source
from .lint import RULES, lint_file, lint_paths, lint_source
from .plancheck import (
    check_ownership,
    check_pairwise,
    check_plans,
    check_schedule,
)
from .tracecheck import (
    check_collectives,
    check_matching,
    check_races,
    check_trace,
    check_world,
    concurrent,
    happens_before,
    vector_clocks,
)

__all__ = [
    "Diagnostic",
    "errors",
    "format_report",
    "check_plans",
    "check_ownership",
    "check_pairwise",
    "check_schedule",
    "check_trace",
    "check_world",
    "check_matching",
    "check_collectives",
    "check_races",
    "vector_clocks",
    "happens_before",
    "concurrent",
    "RULES",
    "lint_source",
    "lint_file",
    "lint_paths",
    "GHOST_RULES",
    "check_source",
    "check_file",
    "check_paths",
]
