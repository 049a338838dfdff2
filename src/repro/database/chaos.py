"""Deterministic fault injection for fill campaigns (chaos testing).

The paper's database fills run thousands of unattended cases across
Columbia nodes where node and fabric failures are routine; a runtime
that claims to survive them must be *testable* against them.
:class:`ChaosPolicy` injects the four failure modes a long campaign
actually meets:

* **worker crash** — a node dies mid-case.  The runtime treats it as
  campaign-fatal (the in-process analogue of SIGKILL): the fill aborts
  with :class:`~repro.errors.CampaignAborted` and only the checkpoint
  journal brings it back.
* **case hang** — a case wedges past its timeout budget; the runtime's
  cooperative timeout discards and retries the attempt.
* **solver divergence** — a transient
  :class:`~repro.errors.SolverDivergence`; bounded retry absorbs it.
* **truncated journal write** — the process dies mid-append, leaving a
  half-written final line for the loader to tolerate.

Determinism is the design center: every decision is a pure function of
``(seed, site, key, attempt)`` via sha-256, **not** of a shared RNG
stream, so the faults a campaign sees do not depend on worker thread
scheduling.  Re-running the same campaign with the same seed injects
the same faults; resuming with a different seed (or ``chaos=None``)
draws a fresh fault pattern, which is how the chaos benchmark drives a
crashed campaign to completion.

The default is a no-op: ``FillRuntime(chaos=None)`` skips every hook,
and a :class:`ChaosPolicy` with all rates zero injects nothing.  What a
drawn fault does inside an attempt is :meth:`ChaosPolicy.strike`'s job;
the runtime only draws, journals and calls it.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

from ..errors import ConfigurationError, SolverDivergence, WorkerCrash

#: Fault kinds an attempt can draw, in priority order (first match wins).
ATTEMPT_FAULTS = ("crash", "hang", "diverge")


def _draw(seed: int, site: str, key: str, attempt: int) -> float:
    """Uniform [0, 1) value, a pure function of the decision identity."""
    payload = f"{seed}:{site}:{key}:{attempt}".encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class ChaosPolicy:
    """Seedable, scheduling-independent fault injector.

    Parameters
    ----------
    seed:
        Root of every decision; campaigns re-run with the same seed see
        the same faults at the same (case, attempt) coordinates.
    crash_rate:
        Probability a case attempt kills its worker (campaign-fatal:
        the runtime aborts and must be resumed from its journal).
    hang_rate:
        Probability an attempt wedges past the runtime's per-attempt
        timeout (requires ``timeout_seconds`` to be set to matter).
    divergence_rate:
        Probability an attempt raises a transient
        :class:`~repro.errors.SolverDivergence` (retryable).
    truncate_rate:
        Probability the journal append recording a case's completion is
        torn mid-write.  The journal is dead from that point on (the
        simulated process went down with it); the loader must tolerate
        the truncated final line and the case re-runs on resume.
    """

    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    divergence_rate: float = 0.0
    truncate_rate: float = 0.0

    def __post_init__(self):
        for name in ("crash_rate", "hang_rate", "divergence_rate",
                     "truncate_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {rate}"
                )

    def attempt_fault(self, key: str, attempt: int) -> str | None:
        """The fault (if any) injected into one case attempt.

        Draws are independent per fault kind and resolved in
        :data:`ATTEMPT_FAULTS` priority order, so raising one rate never
        *removes* faults of another kind.
        """
        if _draw(self.seed, "crash", key, attempt) < self.crash_rate:
            return "crash"
        if _draw(self.seed, "hang", key, attempt) < self.hang_rate:
            return "hang"
        if _draw(self.seed, "diverge", key, attempt) < self.divergence_rate:
            return "diverge"
        return None

    def strike(self, fault: str | None, key: str, attempt: int,
               timeout_seconds: float | None) -> None:
        """Act out one :meth:`attempt_fault` draw inside the attempt:
        ``"crash"`` raises the campaign-fatal ``WorkerCrash``, ``"hang"``
        sleeps past the cooperative timeout (:meth:`hang_seconds`), and
        ``"diverge"`` raises a transient ``SolverDivergence``."""
        if fault == "crash":
            raise WorkerCrash(
                f"chaos: worker crashed running case {key} "
                f"(attempt {attempt})"
            )
        if fault == "hang":
            time.sleep(self.hang_seconds(timeout_seconds))
        if fault == "diverge":
            raise SolverDivergence(
                f"chaos: transient divergence in case {key} "
                f"(attempt {attempt})"
            )

    def solver_fault(self, key: str) -> bool:
        """Sticky per-key divergence drawn at the *solver* site.

        Unlike :meth:`attempt_fault`'s transient ``"diverge"`` (a fresh
        draw per attempt, absorbed by bounded retry), this draw ignores
        the attempt number: an affected case diverges on *every* retry,
        which is exactly what drives the runtime's graceful-degradation
        ladder onto the fallback fidelity.
        """
        return _draw(self.seed, "solver", key, 0) < self.divergence_rate

    def truncate_journal(self, key: str) -> bool:
        """Whether the journal append for this case's result is torn."""
        return _draw(self.seed, "truncate", key, 0) < self.truncate_rate

    @staticmethod
    def hang_seconds(timeout_seconds: float | None) -> float:
        """How long an injected hang sleeps: past the cooperative timeout
        budget without stalling the suite (a small constant when no
        timeout is armed — then the hang shows up only as a slow case).
        """
        if timeout_seconds is None:
            return 0.01
        return 1.5 * timeout_seconds

    def expected_faults(self, keys, attempt: int = 1) -> dict:
        """Fault kinds this policy *will* inject at the given attempt,
        per case key — chaos tests use it to pick seeds that actually
        exercise a path instead of hoping a rate fires."""
        faults: dict = {}
        for key in keys:
            fault = self.attempt_fault(key, attempt)
            if fault is not None:
                faults[key] = fault
        return faults
