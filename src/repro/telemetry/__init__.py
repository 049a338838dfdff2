"""Unified telemetry: spans, per-rank timelines, Perfetto export.

One subsystem joins the repo's three measurement streams —
:class:`~repro.machine.counters.PerfCounters` totals, ``SimMPI``
trace events, and ``FillRuntime`` fill events — on a shared virtual
clock:

* :mod:`repro.telemetry.spans` — the :class:`Tracer` and the
  module-level :func:`span` / :func:`traced` helpers instrumentation
  sites call (near-zero cost when disabled).
* :mod:`repro.telemetry.collect` — the :class:`Timeline` model and
  adapters ingesting every stream into named per-rank tracks.
* :mod:`repro.telemetry.export` — Perfetto/Chrome ``trace_event``
  JSON plus the flat metrics dict (flops, bytes, comm/compute split,
  roofline fraction).
* ``python -m repro.telemetry report <trace>`` — per-phase table in
  the style of :mod:`repro.perf.report`; ``... selfcheck`` runs the
  end-to-end smoke used by tier-1.
"""

from .collect import (
    Timeline,
    TimelineEvent,
    add_fill_events,
    add_instants,
    add_perf_counters,
    add_simmpi_trace,
    add_spans,
    add_tracer,
    merged_fill_timeline,
)
from .export import (
    chrome_trace,
    load_trace,
    metrics,
    write_metrics,
    write_trace,
)
from .spans import (
    NULL_SPAN,
    EpochClock,
    Span,
    Tracer,
    capture,
    get_tracer,
    set_tracer,
    span,
    traced,
)
from .stats import LatencyHistogram

__all__ = [
    "NULL_SPAN",
    "EpochClock",
    "LatencyHistogram",
    "Span",
    "Timeline",
    "TimelineEvent",
    "Tracer",
    "add_fill_events",
    "add_instants",
    "add_perf_counters",
    "add_simmpi_trace",
    "add_spans",
    "add_tracer",
    "capture",
    "chrome_trace",
    "get_tracer",
    "load_trace",
    "merged_fill_timeline",
    "metrics",
    "set_tracer",
    "span",
    "traced",
    "write_metrics",
    "write_trace",
]
