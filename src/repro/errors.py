"""One rooted error taxonomy for the whole reproduction.

The paper's aero-database machinery runs thousands of unattended cases
across Columbia nodes, where individual node and fabric failures are
expected, not exceptional.  Unattended operation demands a *uniform*
error surface: a campaign driver must be able to say ``except
ReproError`` and know it caught every failure this package can raise on
purpose, and to tell a retryable fault (:class:`SolverDivergence`) from
a campaign-fatal one (:class:`CampaignAborted`) by type alone — not by
parsing message strings out of an ad-hoc mix of ``RuntimeError``
subclasses.

Design rules:

* **Single root.**  Every deliberate raise in ``repro.database`` and
  ``repro.comm`` is a :class:`ReproError`.
* **Backwards compatible.**  Each class also inherits the builtin it
  replaced (``ValueError`` for bad arguments, ``RuntimeError`` for
  execution failures), so pre-taxonomy ``except ValueError`` /
  ``except RuntimeError`` call sites keep working unchanged.
* **Carry structure, not just strings.**  Errors keep their load-bearing
  attributes (case ``key``, ``attempts``, failing ``rank``, the partial
  :class:`~repro.database.runtime.FillReport` of an aborted campaign) so
  drivers can resume, degrade or report without re-parsing messages.

The import paths are this module and :mod:`repro.api`.

This module deliberately imports nothing from the rest of the package
(stdlib only) so every subsystem — ``comm`` at the bottom of the import
graph included — can use it without cycles.
"""

from __future__ import annotations


class ReproError(Exception):
    """Root of the taxonomy: every deliberate repro failure is one."""


class ConfigurationError(ReproError, ValueError):
    """Invalid arguments or configuration (replaces bare ``ValueError``)."""


class CaseExecutionError(ReproError, RuntimeError):
    """A case exhausted its retry budget (or was cancelled)."""

    def __init__(self, key: str, attempts: int, cause: str):
        super().__init__(
            f"case {key} failed after {attempts} attempt(s): {cause}"
        )
        self.key = key
        self.attempts = attempts
        self.cause = cause


class CaseTimeout(ReproError, RuntimeError):
    """One attempt outlived its timeout budget (retryable)."""


class CampaignAborted(ReproError, RuntimeError):
    """A fill campaign died mid-run (e.g. a worker crash).

    Carries the partial :class:`~repro.database.runtime.FillReport`
    (``report``) so drivers can account for the completed work and
    resume from the campaign's checkpoint journal.
    """

    def __init__(self, reason: str, report=None):
        super().__init__(f"campaign aborted: {reason}")
        self.reason = reason
        self.report = report


class CheckpointCorrupt(ReproError, RuntimeError):
    """A journal-backed artifact (campaign checkpoint or result store)
    is unreadable beyond the recoverable truncated-final-line case."""

    def __init__(self, path, lineno: int, detail: str):
        super().__init__(f"{path}:{lineno}: {detail}")
        self.path = path
        self.lineno = lineno
        self.detail = detail


class WorkerCrash(ReproError, RuntimeError):
    """A fill worker died mid-case (chaos-injected node failure).

    Unlike a retryable case failure, a worker crash kills the campaign:
    the runtime aborts with :class:`CampaignAborted` and the journal is
    the only way back.
    """


class SolverDivergence(ReproError, RuntimeError):
    """A solve diverged transiently (retryable; chaos-injectable)."""


class ExchangeLifecycleError(ReproError, RuntimeError):
    """A pending overlapped exchange was misused — most commonly
    ``finish()`` called twice.

    A second ``finish()`` used to be silently ignored; it now raises
    because a double finish is always a driver bug (two code paths each
    believing they own the window), and the silent variant would mask
    the matching *missing* finish elsewhere.
    """


class GhostRaceError(ReproError, RuntimeError):
    """A kernel touched ghost state during an open overlap window.

    Raised by the :class:`~repro.runtime.sanitizer.GhostSanitizer` when,
    between ``start_copy`` and the matching ``finish()``, a kernel reads
    ghost rows (gather/fancy indexing into the poisoned region), writes
    the protected array, or lets the NaN canary leak into owned state.
    Under SimMPI such an access is silently benign — ranks run
    sequentially — but it becomes real data corruption on any backend
    where the exchange is genuinely concurrent.

    ``partition`` names the offending partition; ``span`` carries the
    innermost open telemetry span (the kernel phase) when the global
    tracer is enabled, so the race is attributed to the code that did
    the read, not the exchange that detected it.
    """

    def __init__(self, detail: str, *, partition: int | None = None,
                 span: str | None = None):
        msg = f"ghost race: {detail}"
        if partition is not None:
            msg += f" [partition {partition}]"
        if span is not None:
            msg += f" (in telemetry span '{span}')"
        super().__init__(msg)
        self.detail = detail
        self.partition = partition
        self.span = span


class DeadlockError(ReproError, RuntimeError):
    """A SimMPI rank blocked forever on a receive that cannot match."""


class RankFailure(ReproError, RuntimeError):
    """An SPMD rank raised; the world run is torn down.

    ``rank`` identifies the first failing rank; the original exception
    is chained as ``__cause__``.
    """

    def __init__(self, rank: int, cause: BaseException):
        super().__init__(f"rank {rank} failed: {cause!r}")
        self.rank = rank


class RuntimeClosed(ReproError, RuntimeError):
    """An operation was submitted to a closed :class:`FillRuntime`."""


class ServiceOverloaded(ReproError, RuntimeError):
    """The query service shed load instead of queueing without bound.

    Raised by the :class:`~repro.service.DatabaseService` admission
    controller when a solve-tier query arrives with the bounded waiting
    queue already full.  Carries the ``tenant`` that was shed and the
    queue depth at the moment of refusal so clients can back off
    proportionally rather than re-parse the message.
    """

    def __init__(self, tenant: str, reason: str, *, queued: int = 0):
        super().__init__(
            f"service overloaded for tenant {tenant!r}: {reason}"
        )
        self.tenant = tenant
        self.reason = reason
        self.queued = queued


__all__ = [
    "ReproError",
    "ConfigurationError",
    "CaseExecutionError",
    "CaseTimeout",
    "CampaignAborted",
    "CheckpointCorrupt",
    "WorkerCrash",
    "SolverDivergence",
    "ExchangeLifecycleError",
    "GhostRaceError",
    "DeadlockError",
    "RankFailure",
    "RuntimeClosed",
    "ServiceOverloaded",
]
