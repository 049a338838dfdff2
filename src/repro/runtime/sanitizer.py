"""GhostSanitizer: runtime race detection for the overlap window.

The overlapped exchange (``start_copy`` → compute interior →
``finish``, paper fig. 7) carries an unchecked obligation: between the
two calls a kernel must neither read the protected array's ghost rows
nor write the array at all, and nothing else may be posted on the
exchanger.  Under SimMPI a violation is silently benign — ranks are
stepped one at a time and ghost rows are only written by ``finish``, so
stale ghost values happen to be the *pre-exchange* values and parity
still holds — but it becomes real data corruption on any backend where
the exchange is genuinely concurrent.  This module makes the violation
loud *today*, under the simulator, with three checks armed per window:

* **NaN canary.**  The ghost rows of the protected array are poisoned
  with NaN the moment the sends are posted.  Whole-array pointwise
  work (``conservative_to_primitive(q)`` and friends) is legal during
  the window — the NaN stays confined to the ghost rows of derived
  arrays, which a correct interior-only evaluation never gathers — but
  any computation that *consumes* a poisoned row turns NaN, which the
  parity gates and residual-history checks catch deterministically;
  ``finish`` checks every partition's canary and names the first one
  overwritten.
* **Guard view.**  Inside the window a kernel reads the state through
  the pending (``pending.q``), which is then a :class:`GuardedArray`
  view of the level's stacked array.  It traps the accesses the canary
  cannot: row-selecting reads that touch a ghost row (integer, fancy
  and boolean indexing — the gather idiom of every stencil kernel) and
  all writes, raising :class:`~repro.errors.GhostRaceError` attributed
  to the innermost open telemetry span (the kernel phase, when tracing
  is enabled).  The guard knows the ghost rows as the stack's row mask
  (:attr:`~repro.runtime.domain.RowStack.ghost`) and each row's
  partition, so a gather that reaches a ghost row names the partition
  it belongs to.  The underlying buffer is additionally marked
  ``writeable=False`` so code holding the raw array cannot scribble on
  an in-flight exchange.
* **One window at a time.**  An exchange posted on the exchanger while
  the window is open — an add on the protected array, a second window,
  anything a dropped window leaves behind — raises
  :class:`~repro.errors.GhostRaceError` (:meth:`SanitizedPending.refuse`),
  the discipline the process backend's shared blocks demand anyway.

Basic slices (``q[:, 0]``, ``q[: nowned]``), pointwise ufuncs and
NumPy-function dispatch all pass through untrapped and return *plain*
``ndarray`` results, so a race-free kernel runs bit-identically with
the sanitizer armed — the false-positive rate on the shipped solvers is
the acceptance bar, proven by the runtime parity matrix and
``benchmarks/bench_ghost_sanitizer.py``.

Arming is wired through the exchanger surface: setting
``exchanger.sanitize = True`` (or ``RuntimeConfig(sanitize=True)``)
wraps every real ``start_copy`` window in a :class:`SanitizedPending`
whose ``finish`` verifies the canary, disarms the guard and only then
completes the exchange.
"""

from __future__ import annotations

import numpy as np

from ..errors import ExchangeLifecycleError, GhostRaceError
from ..telemetry.spans import get_tracer

__all__ = ["GuardedArray", "GhostSanitizer", "SanitizedPending"]


def _current_span() -> str | None:
    """Innermost open telemetry span name, for race attribution."""
    tracer = get_tracer()
    return tracer.current_span() if tracer.enabled else None


class GuardedArray(np.ndarray):
    """A read-trapping view over a protected array.

    Instances are created by :class:`GhostSanitizer` via
    ``raw.view(GuardedArray)`` plus three instance attributes:
    ``_ghost`` (a row mask: which rows are ghosts), ``_partition`` (each
    row's partition id) and ``_active``.  A ``GuardedArray`` lacking
    those attributes (e.g. produced by ``.copy()`` or template
    construction) is inert and behaves exactly like ``ndarray``.

    Trapped while active:

    * ``__getitem__`` with a first-axis selector that reaches a ghost
      row: integers (negative ones counted from the end), integer fancy
      indexes with any entry on a ghost row, boolean masks selecting
      any ghost row.
    * ``__setitem__`` — any write during the window.
    * ufunc ``out=`` targets and in-place ufunc methods (``np.add.at``).

    A trap names the partition of the row it reached when the selector
    picks rows.  Everything else — basic slices, ``...``, pointwise
    ufuncs, NumPy function dispatch — passes through and returns plain
    ``ndarray`` objects so guards never propagate into derived state.
    """

    def _trap(self, detail: str, row: int | None = None):
        partition = None if row is None else int(self._partition[row])
        raise GhostRaceError(detail, partition=partition,
                             span=_current_span())

    def _selected_row(self, idx, ghost_only: bool = True) -> int | None:
        """The first (ghost) row the first-axis selector of ``idx``
        picks; slices and ``...`` pick none."""
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
            hits = np.flatnonzero(rows & ghost if ghost_only else rows)
        elif np.issubdtype(arr.dtype, np.integer):
            rows = arr.ravel() % max(len(ghost), 1)
            hits = rows[ghost[rows]] if ghost_only else rows
        else:
            return None
        return int(hits[0]) if len(hits) else None

    def __getitem__(self, idx):
        if getattr(self, "_active", False):
            row = self._selected_row(idx)
            if row is not None:
                self._trap(
                    "ghost rows read (gather into the poisoned region) "
                    "during an open overlap window", row,
                )
        return self.view(np.ndarray)[idx]

    def __setitem__(self, idx, value):
        if getattr(self, "_active", False):
            self._trap(
                "write to a protected array during an open overlap window",
                self._selected_row(idx, ghost_only=False),
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
            kwargs["out"] = _strip(out)
        if method == "at" and inputs and getattr(inputs[0], "_active", False):
            inputs[0]._trap(
                f"in-place ufunc '{ufunc.__name__}.at' on a protected "
                f"array during an open overlap window"
            )
        return getattr(ufunc, method)(*_strip(inputs), **kwargs)

    def __array_function__(self, func, types, args, kwargs):
        return func(*_strip(args), **_strip(kwargs or {}))


def _strip(obj):
    """``obj`` with every :class:`GuardedArray` in it as a plain
    ``ndarray`` view."""
    if isinstance(obj, GuardedArray):
        return obj.view(np.ndarray)
    if isinstance(obj, tuple):
        return tuple(_strip(v) for v in obj)
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items()}
    return obj


class SanitizedPending:
    """A pending overlap window with sanitizer instrumentation armed.

    Wraps the backend's pending; ``q`` is the guard the kernels read the
    state through until ``finish``, which verifies every partition's
    NaN canary, disarms the guard, makes the buffer writeable again and
    only then completes the underlying exchange (which lands the ghost
    rows).
    """

    def __init__(self, inner, rows, guard: GuardedArray, poisoned: bool):
        self.inner, self.rows, self.q = inner, rows, guard
        self._poisoned = poisoned
        self.done = False

    def refuse(self, tag: int) -> None:
        """Raise for an exchange with ``tag`` posted while this window
        is open, naming the first partition whose ghost rows are in
        flight."""
        ghost = np.flatnonzero(self.rows.ghost)
        raise GhostRaceError(
            f"exchange with tag {tag} posted during the open overlap "
            f"window of tag {self.inner.tag}",
            partition=int(self.q._partition[ghost[0]]) if len(ghost)
            else None,
            span=_current_span(),
        )

    def finish(self) -> None:
        if self.done:
            raise ExchangeLifecycleError(
                "SanitizedPending.finish called twice; each overlap "
                "window must be closed exactly once"
            )
        self.done = True
        raw, guard = self.inner.q, self.q
        guard._active = False
        raw.flags.writeable = True
        guard.flags.writeable = True
        if self._poisoned:
            for pid, span in self.rows.spans.items():
                ghosts = raw[self.rows.owned_spans[pid].stop:span.stop]
                if not np.isnan(ghosts).all():
                    raise GhostRaceError(
                        "NaN canary overwritten: ghost rows were written "
                        "during an open overlap window",
                        partition=pid,
                        span=_current_span(),
                    )
        self.inner.finish()


class GhostSanitizer:
    """Arms the canary and the guard view around one overlap window
    over the rows of ``rows`` (a
    :class:`~repro.runtime.domain.RowStack`)."""

    def __init__(self, rows):
        self.rows = rows

    def guard(self, inner) -> SanitizedPending:
        """Poison and guard the array ``inner`` was posted on
        (``inner.q``); returns the wrapper.  Must be called *after* the
        sends are posted (the owned rows are already gathered)."""
        rows, raw = self.rows, inner.q
        poisoned = bool(np.issubdtype(raw.dtype, np.floating))
        if poisoned:
            raw[rows.ghost] = np.nan
        raw.flags.writeable = False
        guard = raw.view(GuardedArray)
        guard._ghost = rows.ghost
        guard._partition = np.repeat(list(rows.spans), rows.sizes)
        guard._active = True
        return SanitizedPending(inner, rows, guard, poisoned)
