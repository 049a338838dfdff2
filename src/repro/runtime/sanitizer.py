"""GhostSanitizer: runtime race detection for the overlap window.

The overlapped exchange (``start_copy`` → compute interior →
``finish``, paper fig. 7) carries an unchecked obligation: between the
two calls a kernel must neither read the protected arrays' ghost rows
nor write the arrays at all.  Under SimMPI a violation is silently
benign — ranks are stepped one at a time and ghost rows are only written
by ``finish``, so stale ghost values happen to be the *pre-exchange*
values and parity still holds — but it becomes
real data corruption on any backend where the exchange is genuinely
concurrent.  This module makes the violation loud *today*, under the
simulator, with two complementary mechanisms armed per window:

* **NaN canary.**  Ghost rows of every protected array are poisoned
  with NaN the moment the sends are posted.  Whole-array pointwise
  work (``conservative_to_primitive(q)`` and friends) is legal during
  the window — the NaN stays confined to the ghost rows of derived
  arrays, which a correct interior-only evaluation never gathers — but
  any computation that *consumes* a poisoned row turns NaN, which the
  parity gates and residual-history checks catch deterministically.
* **Guard views.**  The caller's state dict entries are swapped for
  :class:`GuardedArray` views that trap the accesses the canary cannot:
  row-selecting reads that touch the ghost region (integer, fancy and
  boolean indexing — the gather idiom of every stencil kernel) and all
  writes, raising :class:`~repro.errors.GhostRaceError` attributed to
  the innermost open telemetry span (the kernel phase, when tracing is
  enabled).  The underlying buffer is additionally marked
  ``writeable=False`` so even code holding a pre-swap reference cannot
  scribble on an in-flight exchange.  A guard knows its ghost rows as
  a row *mask*, so the protection survives stacking: a kernel that
  joins the partitions it was handed into one array
  (``np.concatenate``, how NSU3D runs each pass once per rank) gets a
  guarded copy whose mask is the members' masks end to end, and a
  gather from it that reaches any member's ghost range traps and names
  that member's partition.

Basic slices (``q[:, 0]``, ``q[: nowned]``), pointwise ufuncs and
NumPy-function dispatch all pass through untrapped and return *plain*
``ndarray`` results, so a race-free kernel runs bit-identically with
the sanitizer armed — the false-positive rate on the shipped solvers is
the acceptance bar, proven by the runtime parity matrix and
``benchmarks/bench_ghost_sanitizer.py``.

Arming is wired through the exchanger surface: setting
``exchanger.sanitize = True`` (or ``DistributedSolveDriver(...,
sanitize=True)``) wraps every ``start_copy`` result in a
:class:`SanitizedPendingGroup` whose ``finish`` verifies the canary,
restores the raw arrays and only then completes the exchange.
"""

from __future__ import annotations

import numpy as np

from ..errors import ExchangeLifecycleError, GhostRaceError
from ..telemetry.spans import get_tracer

__all__ = ["GuardedArray", "GhostSanitizer", "SanitizedPendingGroup"]


def _current_span() -> str | None:
    """Innermost open telemetry span name, for race attribution."""
    tracer = get_tracer()
    return tracer.current_span() if tracer.enabled else None


class GuardedArray(np.ndarray):
    """A read-trapping view over a protected array.

    Instances are created by :class:`GhostSanitizer` via
    ``raw.view(GuardedArray)`` plus three instance attributes:
    ``_ghost`` (a row mask: which rows are ghosts), ``_partition`` (the
    partition id — or one id per row) and ``_active``.  A partition's
    own array is the one-range case (every row from its first ghost
    on); ``np.concatenate`` of guards taken inside a window — a kernel
    stacking the partitions it was handed — is guarded too, with the
    members' masks end to end, so a gather from the stacked copy traps
    like one from a member and names the partition whose ghost row it
    reached.  A ``GuardedArray`` lacking those attributes (e.g. produced
    by ``.copy()`` or template construction) is inert and behaves
    exactly like ``ndarray``.

    Trapped while active:

    * ``__getitem__`` with a first-axis selector that reaches a ghost
      row: integers (negative ones counted from the end), integer fancy
      indexes with any entry on a ghost row, boolean masks selecting
      any ghost row.
    * ``__setitem__`` — any write during the window.
    * ufunc ``out=`` targets and in-place ufunc methods (``np.add.at``).

    Everything else — basic slices, ``...``, pointwise ufuncs, NumPy
    function dispatch — passes through and returns plain ``ndarray``
    objects so guards never propagate into derived state.
    """

    def _trap(self, detail: str, row: int | None = None):
        partition = getattr(self, "_partition", None)
        if np.ndim(partition):
            partition = int(partition[0 if row is None else row])
        raise GhostRaceError(detail, partition=partition,
                             span=_current_span())

    def _selected_ghost_row(self, idx) -> int | None:
        """A ghost row the first-axis selector of ``idx`` reaches."""
        sel = idx[0] if isinstance(idx, tuple) else idx
        if sel is None or sel is Ellipsis or isinstance(sel, slice):
            return None
        ghost = self._ghost
        arr = np.asarray(sel)
        if arr.dtype == bool:
            rows = arr.reshape(len(arr), -1).any(axis=1) if arr.ndim > 1 \
                else arr
            if rows.shape != ghost.shape:
                return None
            hits = np.flatnonzero(rows & ghost)
        elif np.issubdtype(arr.dtype, np.integer):
            rows = arr.ravel() % max(len(ghost), 1)
            hits = rows[ghost[rows]]
        else:
            return None
        return int(hits[0]) if len(hits) else None

    def __getitem__(self, idx):
        if getattr(self, "_active", False):
            row = self._selected_ghost_row(idx)
            if row is not None:
                self._trap(
                    "ghost rows read (gather into the poisoned region) "
                    "during an open overlap window", row,
                )
        return self.view(np.ndarray)[idx]

    def __setitem__(self, idx, value):
        if getattr(self, "_active", False):
            self._trap(
                "write to a protected array during an open overlap window"
            )
        self.view(np.ndarray)[idx] = value

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        out = kwargs.get("out")
        if out is not None:
            for target in out:
                if getattr(target, "_active", False):
                    target._trap(
                        f"ufunc '{ufunc.__name__}' wrote (out=) into a "
                        f"protected array during an open overlap window"
                    )
            kwargs["out"] = tuple(
                t.view(np.ndarray) if isinstance(t, GuardedArray) else t
                for t in out
            )
        if method == "at" and inputs and getattr(inputs[0], "_active", False):
            inputs[0]._trap(
                f"in-place ufunc '{ufunc.__name__}.at' on a protected "
                f"array during an open overlap window"
            )
        stripped = tuple(
            x.view(np.ndarray) if isinstance(x, GuardedArray) else x
            for x in inputs
        )
        return getattr(ufunc, method)(*stripped, **kwargs)

    def __array_function__(self, func, types, args, kwargs):
        def strip(obj):
            if isinstance(obj, GuardedArray):
                return obj.view(np.ndarray)
            if isinstance(obj, tuple):
                return tuple(strip(v) for v in obj)
            if isinstance(obj, list):
                return [strip(v) for v in obj]
            if isinstance(obj, dict):
                return {k: strip(v) for k, v in obj.items()}
            return obj

        out = func(*strip(args), **strip(kwargs or {}))
        if func is np.concatenate and len(args) == 1 and not kwargs:
            out = _guard_stacked(args[0], out)
        return out


def _guard_stacked(members, out: np.ndarray) -> np.ndarray:
    """``out = np.concatenate(members)`` (rows end to end), guarded by
    the members' ghost masks end to end if any member is an active
    guard: the copy holds their poisoned rows."""
    if not any(getattr(m, "_active", False) for m in members):
        return out
    armed = [
        (m._ghost, m._partition) if getattr(m, "_active", False)
        else (np.zeros(len(m), dtype=bool), -1)
        for m in members
    ]
    guard = out.view(GuardedArray)
    guard._ghost = np.concatenate([ghost for ghost, _pid in armed])
    guard._partition = np.concatenate(
        [np.broadcast_to(pid, len(ghost)) for ghost, pid in armed]
    )
    guard._active = True
    return guard


class SanitizedPendingGroup:
    """A pending overlap window with sanitizer instrumentation armed.

    Wraps the backend's :class:`~repro.runtime.backends.PendingGroup`;
    ``finish`` verifies the NaN canary survived, disarms the guards,
    restores the raw arrays into the caller's state dict and only then
    completes the underlying exchange (which needs the buffers
    writeable again to land the ghost values).
    """

    def __init__(self, inner, arrays: dict, guarded: list):
        self.inner = inner
        self._arrays = arrays
        #: list of (pid, raw, guard, ghost_start, poisoned)
        self._guarded = guarded
        self.done = False

    def finish(self) -> None:
        if self.done:
            raise ExchangeLifecycleError(
                "SanitizedPendingGroup.finish called twice; each overlap "
                "window must be closed exactly once"
            )
        self.done = True
        for pid, raw, guard, ghost_start, poisoned in self._guarded:
            guard._active = False
            raw.flags.writeable = True
            guard.flags.writeable = True
            if poisoned and not np.isnan(raw[ghost_start:]).all():
                raise GhostRaceError(
                    "NaN canary overwritten: ghost rows were written "
                    "during an open overlap window",
                    partition=pid,
                    span=_current_span(),
                )
            self._arrays[pid] = raw
        self._guarded = []
        self.inner.finish()


class GhostSanitizer:
    """Arms canaries and guard views around one overlap window."""

    def __init__(self, plans: dict):
        self.plans = plans

    def guard(self, arrays: dict, inner) -> SanitizedPendingGroup:
        """Poison + guard every protected array; returns the wrapper.

        Must be called *after* the sends are posted (``start_copy``
        already copied the owned rows out), and mutates ``arrays`` in
        place so the kernel's subsequent reads go through the guards.
        """
        guarded = []
        for pid in sorted(arrays):
            raw = arrays[pid]
            plan = self.plans[pid]
            if not plan.ghost_slots:
                continue
            ghost_start = min(
                int(slots.min()) for slots in plan.ghost_slots.values()
            )
            poisoned = bool(np.issubdtype(raw.dtype, np.floating))
            if poisoned:
                raw[ghost_start:] = np.nan
            raw.flags.writeable = False
            guard = raw.view(GuardedArray)
            guard._ghost = np.arange(len(raw)) >= ghost_start
            guard._partition = pid
            guard._active = True
            arrays[pid] = guard
            guarded.append((pid, raw, guard, ghost_start, poisoned))
        return SanitizedPendingGroup(inner, arrays, guarded)
