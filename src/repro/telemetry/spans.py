"""Virtual-clock tracing spans — the paper's measurement discipline, unified.

The paper's evidence is per-phase measurement: pfmon-differenced FLOP
rates, multigrid cycle-time breakdowns, NUMAlink-vs-InfiniBand
communication splits (§V).  Our instrumentation existed but was siloed
(:class:`~repro.machine.counters.PerfCounters` totals, ``SimMPI`` trace
events, ``FillRuntime`` fill events); this module supplies the shared
substrate they all project onto: nested, attribute-carrying **spans** on
a **virtual clock**, tagged with rank/thread identity.

Design rules:

* **Near-zero overhead when disabled.**  ``span(...)`` on a disabled
  tracer is one global load, one attribute test and a shared no-op
  context manager — cheap enough to leave in solver kernels
  permanently (the acceptance bar: < 2% on the kernel benchmarks).
* **Virtual time, never wall time, in instrumented code.**  A tracer
  reads timestamps from a caller-supplied clock: a SimMPI rank binds
  ``comm.clock``, a fill campaign binds the runtime's epoch clock.
  Without a clock the tracer ticks an internal strictly-increasing
  event counter, so ordering is always well defined.  The only wall
  clock lives here, in :class:`EpochClock` — the telemetry package is
  deliberately outside the R006 lint segments.
* **Thread identity is track identity.**  Every span lands on a
  ``(rank, thread)`` track; :meth:`Tracer.bind` pins both (plus the
  clock) thread-locally, which is how SimMPI rank threads and fill
  worker slots each get their own timeline row.
* **One thread, many ranks.**  A ``sim``/``hybrid`` distributed solve
  steps every rank of its world on the calling thread.  ``comm.*``
  spans still land on their own rank's track and virtual clock — the
  lockstep exchanger records one per rank and exchange with that
  rank's stamps (:meth:`Tracer.record`) — but a solver span
  (``*.parallel_cycle``, ``nsu3d.residual``, ...) is opened once for
  the whole group and lands on the lowest driven rank's track, on that
  rank's clock.
  Per-rank kernel attribution needs spans with both stamps (wall and
  virtual) and is not done here.

The module-level :func:`span` / :func:`instant` / :func:`traced` route
through one process-global tracer (:func:`get_tracer` /
:func:`set_tracer`) so instrumentation sites need no plumbing.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace


@dataclass
class Span:
    """One closed span: a named interval on a (rank, thread) track."""

    sid: int
    parent: int | None
    name: str
    cat: str
    t0: float
    t1: float
    rank: int = 0
    thread: int = 0
    args: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class _NullSpan:
    """Shared no-op context manager returned by disabled tracers."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **args) -> None:
        """No-op attribute attachment (mirrors :class:`_LiveSpan.set`)."""


NULL_SPAN = _NullSpan()


class EpochClock:
    """Seconds since construction — a campaign's private time base.

    This is the single blessed wall-clock reader for runtimes that need
    real elapsed time (the fill runtime's worker timeline).  Hot-path
    packages must not read the wall clock directly (lint R006);
    they take a clock like this one by injection.
    """

    __slots__ = ("_epoch",)

    def __init__(self):
        self._epoch = time.monotonic()

    def __call__(self) -> float:
        return time.monotonic() - self._epoch


class _LiveSpan:
    """Context manager recording one span on ``__exit__``."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_t0", "_sid", "_parent")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args

    def set(self, **args) -> None:
        """Attach attributes to the span while it is open."""
        self._args.update(args)

    def __enter__(self):
        tracer = self._tracer
        stack = tracer._stack()
        self._parent = stack[-1] if stack else None
        with tracer._lock:
            self._sid = tracer._next_sid
            tracer._next_sid += 1
        stack.append(self._sid)
        tracer._open_names().append(self._name)
        self._t0 = tracer.now()
        return self

    def __exit__(self, *exc):
        tracer = self._tracer
        t1 = tracer.now()
        tracer._stack().pop()
        tracer._open_names().pop()
        rank, thread = tracer.track()
        with tracer._lock:
            tracer.spans.append(
                Span(
                    sid=self._sid,
                    parent=self._parent,
                    name=self._name,
                    cat=self._cat,
                    t0=self._t0,
                    t1=t1,
                    rank=rank,
                    thread=thread,
                    args=self._args,
                )
            )
        return False


class Tracer:
    """Produces nested spans and instants on a virtual clock.

    Parameters
    ----------
    enabled:
        Off by default — a disabled tracer records nothing and costs a
        boolean test per instrumentation site.
    clock:
        Callable returning the current virtual time.  ``None`` uses an
        internal strictly-increasing tick counter (one tick per
        timestamp query), so traces are ordered even with no time
        source.  Threads may override it via :meth:`bind`.
    """

    def __init__(self, enabled: bool = False, clock=None):
        self.enabled = enabled
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_sid = 0
        self._ticks = 0.0
        self.spans: list[Span] = []
        self.instants: list[Span] = []

    # -- clocks and tracks ---------------------------------------------------

    def now(self) -> float:
        """Current virtual time from the bound, then default, clock."""
        clock = getattr(self._local, "clock", None) or self._clock
        if clock is not None:
            return float(clock())
        with self._lock:
            self._ticks += 1.0
            return self._ticks

    def track(self) -> tuple[int, int]:
        """This thread's (rank, thread) track identity."""
        local = self._local
        return getattr(local, "rank", 0), getattr(local, "thread", 0)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open_names(self) -> list:
        names = getattr(self._local, "open_names", None)
        if names is None:
            names = self._local.open_names = []
        return names

    def current_span(self) -> str | None:
        """Name of this thread's innermost open span, or ``None``."""
        names = self._open_names()
        return names[-1] if names else None

    @contextmanager
    def bind(self, rank: int | None = None, thread: int | None = None,
             clock=None):
        """Thread-locally pin track identity and/or clock.

        A SimMPI rank function binds ``rank=comm.rank`` and
        ``clock=lambda: comm.clock`` so its spans carry rank identity
        and virtual-time stamps; a fill worker binds ``thread=slot``
        and the runtime's epoch clock.
        """
        local = self._local
        saved = {
            name: getattr(local, name, None)
            for name in ("rank", "thread", "clock")
        }
        if rank is not None:
            local.rank = rank
        if thread is not None:
            local.thread = thread
        if clock is not None:
            local.clock = clock
        try:
            yield self
        finally:
            for name, value in saved.items():
                if value is None:
                    if hasattr(local, name):
                        delattr(local, name)
                else:
                    setattr(local, name, value)

    # -- recording -----------------------------------------------------------

    def span(self, name: str, cat: str = "phase", **args):
        """Open a span; use as ``with tracer.span("nsu3d.residual"): ...``."""
        if not self.enabled:
            return NULL_SPAN
        return _LiveSpan(self, name, cat, args)

    def record(self, name: str, t0: float, t1: float, *, rank: int,
               cat: str = "phase", **args) -> None:
        """Record a closed span with explicit stamps on ``rank``'s track,
        under this thread's innermost open span — for a caller that steps
        several ranks' clocks itself (the lockstep halo exchange)."""
        if not self.enabled:
            return
        stack = self._stack()
        with self._lock:
            sid = self._next_sid
            self._next_sid += 1
            self.spans.append(Span(
                sid=sid, parent=stack[-1] if stack else None, name=name,
                cat=cat, t0=t0, t1=t1, rank=rank, thread=self.track()[1],
                args=args,
            ))

    def instant(self, name: str, cat: str = "mark", **args) -> None:
        """Record a zero-duration point event on this thread's track."""
        if not self.enabled:
            return
        t = self.now()
        rank, thread = self.track()
        stack = self._stack()
        with self._lock:
            sid = self._next_sid
            self._next_sid += 1
            self.instants.append(
                Span(
                    sid=sid,
                    parent=stack[-1] if stack else None,
                    name=name,
                    cat=cat,
                    t0=t,
                    t1=t,
                    rank=rank,
                    thread=thread,
                    args=args,
                )
            )

    # -- inspection ----------------------------------------------------------

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()
            self.instants.clear()
            self._next_sid = 0
            self._ticks = 0.0

    def finished(self) -> list[Span]:
        """All closed spans, ordered by start time."""
        with self._lock:
            return sorted(self.spans, key=lambda s: (s.t0, s.sid))

    def absorb(self, spans: list, instants: list = ()) -> None:
        """Merge spans recorded by another tracer (another process).

        Worker processes trace on private tracers and ship the closed
        spans home; absorbing re-ids them from this tracer's sid
        sequence (preserving parent links) so merged timelines stay
        collision-free.  Rank/thread/clock stamps are kept as recorded.
        """
        mapping: dict = {}
        with self._lock:
            for s in (*spans, *instants):
                mapping[s.sid] = self._next_sid
                self._next_sid += 1
            for s in spans:
                self.spans.append(replace(
                    s, sid=mapping[s.sid], parent=mapping.get(s.parent),
                ))
            for s in instants:
                self.instants.append(replace(
                    s, sid=mapping[s.sid], parent=mapping.get(s.parent),
                ))


#: The process-global tracer the module-level helpers route through.
_TRACER = Tracer()


def get_tracer() -> Tracer:
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-global tracer; returns it."""
    global _TRACER
    _TRACER = tracer
    return tracer


def span(name: str, cat: str = "phase", **args):
    """Span on the global tracer — the one-liner instrumentation sites use.

    When the global tracer is disabled this is one global load, one
    attribute test and a shared no-op context manager.
    """
    tracer = _TRACER
    if not tracer.enabled:
        return NULL_SPAN
    return tracer.span(name, cat, **args)


def traced(name: str | None = None, cat: str = "phase"):
    """Decorator spanning each call on whatever tracer is global then."""

    def decorate(fn):
        label = name if name is not None else fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = _TRACER
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with tracer.span(label, cat=cat):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


@contextmanager
def capture(clock=None):
    """Enable a fresh tracer globally for the duration; yields it.

    The previous global tracer is restored on exit, so tests and
    examples can trace without mutating process state.
    """
    previous = _TRACER
    tracer = set_tracer(Tracer(enabled=True, clock=clock))
    try:
        yield tracer
    finally:
        set_tracer(previous)
