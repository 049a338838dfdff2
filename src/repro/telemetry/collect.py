"""Adapters: one per-rank timeline model fed by every instrumentation stream.

The repo has three pre-existing measurement streams —
:class:`~repro.machine.counters.PerfCounters` region totals,
``SimMPI(trace=True)`` :class:`~repro.comm.simmpi.TraceEvent` logs, and
:class:`~repro.database.runtime.FillRuntime` :class:`FillEvent` streams
— plus the tracer spans of :mod:`repro.telemetry.spans`.  This module
normalizes all four into one :class:`Timeline` of
:class:`TimelineEvent` rows, each on a named ``(pid, tid)`` track, so a
single database fill can be viewed from the scheduler down to the
kernels on a shared virtual clock.

Offsets are the alignment mechanism: a SimMPI world's clocks start at
zero, so merging a per-case world into a campaign timeline passes the
case's start time as ``offset``.  The adapters deliberately duck-type
their inputs (attribute access only) so this package imports nothing
from ``repro.comm``/``repro.machine``/``repro.database`` and stays
dependency-free at the bottom of the import graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TimelineEvent:
    """One row of the unified timeline.

    ``kind`` is ``"span"`` (an interval), ``"instant"`` (a point) or
    ``"counter"`` (a sampled value set).  ``pid``/``tid`` are *labels*
    (process/track group and track); the Perfetto exporter maps them to
    integer ids and emits naming metadata.
    """

    kind: str
    name: str
    cat: str
    t0: float
    t1: float
    pid: str = "sim"
    tid: str = "main"
    args: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Timeline:
    """An ordered collection of timeline events across tracks."""

    def __init__(self, events: list | None = None):
        self.events: list[TimelineEvent] = list(events) if events else []

    def add(self, kind: str, name: str, cat: str, t0: float,
            t1: float | None = None, pid: str = "sim", tid: str = "main",
            args: dict | None = None) -> TimelineEvent:
        event = TimelineEvent(
            kind=kind, name=name, cat=cat, t0=float(t0),
            t1=float(t0 if t1 is None else t1), pid=pid, tid=tid,
            args=dict(args or {}),
        )
        self.events.append(event)
        return event

    # -- views ---------------------------------------------------------------

    def spans(self) -> list[TimelineEvent]:
        return [e for e in self.events if e.kind == "span"]

    def instants(self) -> list[TimelineEvent]:
        return [e for e in self.events if e.kind == "instant"]

    def counters(self) -> list[TimelineEvent]:
        return [e for e in self.events if e.kind == "counter"]

    def tracks(self) -> list[tuple[str, str]]:
        """Distinct (pid, tid) pairs in first-seen order."""
        seen: list[tuple[str, str]] = []
        for e in self.events:
            key = (e.pid, e.tid)
            if key not in seen:
                seen.append(key)
        return seen

    def sorted(self) -> list[TimelineEvent]:
        return sorted(self.events, key=lambda e: (e.t0, e.t1, e.pid, e.tid))

    def t_range(self) -> tuple[float, float]:
        if not self.events:
            return 0.0, 0.0
        return (
            min(e.t0 for e in self.events),
            max(e.t1 for e in self.events),
        )

    def makespan(self) -> float:
        t0, t1 = self.t_range()
        return t1 - t0

    def phase_totals(self) -> dict:
        """Per-span-name aggregates: {name: {calls, seconds, cat}}.

        The input of :func:`repro.perf.report.phase_table` — the
        per-phase breakdown ``python -m repro.telemetry report`` prints.
        """
        totals: dict = {}
        for e in self.spans():
            row = totals.setdefault(
                e.name, {"calls": 0, "seconds": 0.0, "cat": e.cat}
            )
            row["calls"] += 1
            row["seconds"] += e.dur
        return totals


# -- adapters ----------------------------------------------------------------


def add_spans(timeline: Timeline, spans, pid: str = "sim",
              offset: float = 0.0) -> Timeline:
    """Ingest tracer :class:`~repro.telemetry.spans.Span` records.

    Each span lands on track ``rank{r}/slot{t}`` of ``pid``, preserving
    the tracer's (rank, thread) identity; ``offset`` shifts the span
    clock onto the target timeline's time base.
    """
    for s in spans:
        timeline.add(
            kind="span", name=s.name, cat=s.cat,
            t0=s.t0 + offset, t1=s.t1 + offset,
            pid=pid, tid=f"rank{s.rank}/slot{s.thread}",
            args=dict(s.args, sid=s.sid, parent=s.parent),
        )
    return timeline


def add_instants(timeline: Timeline, instants, pid: str = "sim",
                 offset: float = 0.0) -> Timeline:
    for s in instants:
        timeline.add(
            kind="instant", name=s.name, cat=s.cat, t0=s.t0 + offset,
            pid=pid, tid=f"rank{s.rank}/slot{s.thread}", args=dict(s.args),
        )
    return timeline


def add_tracer(timeline: Timeline, tracer, pid: str = "sim",
               offset: float = 0.0) -> Timeline:
    """Everything a :class:`~repro.telemetry.spans.Tracer` recorded."""
    add_spans(timeline, tracer.spans, pid=pid, offset=offset)
    add_instants(timeline, tracer.instants, pid=pid, offset=offset)
    return timeline


def _compute_duration(detail: str) -> float:
    """Parse the ``"{seconds:.3e}s"`` detail of a SimMPI compute event."""
    try:
        return float(detail.rstrip("s"))
    except ValueError:
        return 0.0


def add_simmpi_trace(timeline: Timeline, trace, pid: str = "mpi",
                     offset: float = 0.0) -> Timeline:
    """Ingest a ``SimMPI(trace=True)`` structured event log.

    ``compute`` events become spans (their duration is recorded in the
    event detail; the clock stamp is the interval end); sends, receives
    and collectives become instants on the issuing rank's track, carrying
    peer/tag/byte attributes.
    """
    for ev in trace:
        tid = f"rank{ev.rank}"
        if ev.op == "compute":
            dur = _compute_duration(ev.detail)
            timeline.add(
                kind="span", name="compute", cat="compute",
                t0=ev.clock + offset - dur, t1=ev.clock + offset,
                pid=pid, tid=tid, args={"seq": ev.seq},
            )
            continue
        args = {"op": ev.op, "seq": ev.seq}
        if ev.peer is not None:
            args["peer"] = ev.peer
        if ev.tag is not None:
            args["tag"] = ev.tag
        if ev.nbytes:
            args["nbytes"] = ev.nbytes
        if ev.detail:
            args["detail"] = ev.detail
        if ev.matched is not None:
            args["matched"] = ev.matched
        timeline.add(
            kind="instant", name=ev.op, cat="comm",
            t0=ev.clock + offset, pid=pid, tid=tid, args=args,
        )
    return timeline


def add_perf_counters(timeline: Timeline, counters, pid: str = "counters",
                      at: float = 0.0, rank: int | None = None) -> Timeline:
    """Ingest :class:`~repro.machine.counters.PerfCounters` region totals.

    Counters carry no timestamps — they are pfmon-style accumulators —
    so each region becomes one counter sample at ``at`` (typically the
    end of the run or phase being summarized), carrying flops, bytes and
    call counts.  The metrics exporter sums these for the achieved-rate
    and roofline numbers.
    """
    tid = "flops" if rank is None else f"rank{rank}/flops"
    for name, region in counters.regions.items():
        timeline.add(
            kind="counter", name=name, cat="perf", t0=at, pid=pid, tid=tid,
            args={
                "flops": float(region.flops),
                "bytes": float(region.bytes_moved),
                "calls": int(region.calls),
            },
        )
    return timeline


#: Fill-event kinds that open a scheduler span / close it ("crash" is a
#: chaos-injected worker death — terminal for the case and the campaign).
_FILL_OPEN = {"submit"}
_FILL_CLOSE = {"done", "failed", "cancelled", "crash"}


def _fill_time(ev) -> float:
    """An event's monotonic virtual timestamp (``vt``; older streams
    recorded only the raw clock ``t``)."""
    return getattr(ev, "vt", None) or ev.t


def add_fill_events(timeline: Timeline, events, pid: str = "fill") -> Timeline:
    """Replay a :class:`FillEvent` stream into scheduler-level tracks.

    ``submit -> done|failed|cancelled|crash`` pairs become spans on the
    ``scheduler`` track (one per case key); per-attempt ``start`` /
    ``retry_start`` events become spans on the worker-slot track they
    ran on; everything else (cache hits, geometry builds, retries,
    chaos injections, campaign aborts, resume restores) becomes an
    instant.  Replay is deterministic because
    events carry strictly monotonic virtual timestamps
    (:attr:`FillEvent.vt`).
    """
    open_cases: dict = {}
    open_attempts: dict = {}
    for ev in sorted(events, key=_fill_time):
        t = _fill_time(ev)
        label = ev.key[:8] if ev.key else ev.kind
        if ev.kind in _FILL_OPEN:
            open_cases[ev.key] = t
        elif ev.kind in _FILL_CLOSE and ev.key in open_cases:
            timeline.add(
                kind="span", name=f"case {label}", cat="scheduler",
                t0=open_cases.pop(ev.key), t1=t, pid=pid, tid="scheduler",
                args=dict(ev.info, outcome=ev.kind, key=ev.key),
            )
        if ev.kind in ("start", "retry_start"):
            open_attempts[ev.key] = (t, ev.info.get("slot", 0), ev.info)
        elif ev.kind in ("done", "retry", "failed", "cancelled", "crash"):
            if ev.key in open_attempts:
                t0, slot, info = open_attempts.pop(ev.key)
                timeline.add(
                    kind="span", name=f"attempt {label}", cat="fill",
                    t0=t0, t1=t, pid=pid, tid=f"slot{slot}",
                    args=dict(info, outcome=ev.kind, key=ev.key),
                )
        if ev.kind not in _FILL_OPEN:
            timeline.add(
                kind="instant", name=ev.kind, cat="scheduler", t0=t,
                pid=pid, tid="scheduler", args=dict(ev.info, key=ev.key),
            )
    # cases still open (cancelled mid-flight without a terminal event)
    for key, t0 in open_cases.items():
        timeline.add(
            kind="instant", name="unresolved", cat="scheduler", t0=t0,
            pid=pid, tid="scheduler", args={"key": key},
        )
    return timeline


def merged_fill_timeline(events, tracer=None, worlds=(), counters=None,
                         counters_at: float | None = None) -> Timeline:
    """One timeline for a whole fill campaign, scheduler down to kernels.

    ``events`` is the campaign's :class:`FillEvent` stream; ``tracer``
    the tracer the runtime's workers recorded solver-phase spans on
    (already on the runtime clock via the worker binding); ``worlds``
    an iterable of ``(label, trace, offset)`` triples merging per-case
    SimMPI traces at their case start times; ``counters`` optional
    :class:`PerfCounters` totals stamped at ``counters_at`` (defaults
    to the end of the timeline).
    """
    timeline = Timeline()
    add_fill_events(timeline, events, pid="fill")
    if tracer is not None:
        add_tracer(timeline, tracer, pid="workers")
    for label, trace, offset in worlds:
        add_simmpi_trace(timeline, trace, pid=f"mpi/{label}", offset=offset)
    if counters is not None:
        at = counters_at if counters_at is not None else timeline.t_range()[1]
        add_perf_counters(timeline, counters, at=at)
    return timeline
