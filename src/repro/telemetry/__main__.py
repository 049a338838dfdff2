"""CLI: ``python -m repro.telemetry {report,selfcheck}``.

``report <trace.json>`` renders the per-phase breakdown of a trace
written by :func:`repro.telemetry.write_trace` as a
:mod:`repro.perf.report`-style table plus the flat metrics dict.

``selfcheck`` is the end-to-end smoke wired into tier-1: it runs a
small :class:`~repro.database.runtime.FillRuntime` fill of eight toy
cases — each case recording solver-phase spans and running a traced
two-rank SimMPI ping-pong — merges everything onto the runtime's
virtual clock, exports the Perfetto JSON, loads it back, and verifies
the acceptance shape (scheduler spans, per-case attempt spans, solver
phase spans, and comm events on one shared clock).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import threading
from pathlib import Path


def report(trace_path, echo=print) -> int:
    """Print the per-phase table and metrics of one exported trace."""
    from ..perf.report import phase_table
    from .export import load_trace, metrics

    path = Path(trace_path)
    if not path.exists():
        echo(f"no such trace: {path}")
        return 1
    timeline = load_trace(path)
    table = phase_table(
        timeline.phase_totals(),
        makespan=timeline.makespan(),
        title=f"per-phase breakdown: {path.name}",
    )
    echo(table if table else f"(no spans in {path.name})")
    echo("")
    for name, value in sorted(metrics(timeline).items()):
        cell = f"{value:g}" if isinstance(value, float) else str(value)
        echo(f"  {name:<20} {cell}")
    return 0


def selfcheck(out_path=None, echo=print) -> int:
    """Fill -> merge -> export -> reload -> verify; 0 when all checks pass."""
    from ..comm.simmpi import SimMPI
    from ..database.runtime import FillRuntime
    from ..solvers.interface import CaseResult, CaseSpec
    from .collect import merged_fill_timeline
    from .export import load_trace, metrics, write_trace
    from .spans import capture, get_tracer, span

    events: list = []
    worlds: list = []
    lock = threading.Lock()

    def pingpong(world):
        zero, one = world.lockstep()
        for comm in (zero, one):
            comm.compute(flops=5.0e5)
        zero.send(b"\0" * 256, 1, tag=7)
        one.recv(0, tag=7)
        one.send(b"\0" * 256, 0, tag=8)
        zero.recv(1, tag=8)
        world.allreduce([0, 0])

    def runner(spec: CaseSpec, shared) -> CaseResult:
        # stand-in solver phases: the real runners get these spans from
        # the instrumented kernels; the selfcheck only needs the shape
        with span("solver.residual", cat="solver"):
            pass
        with span("solver.mg_cycle", cat="solver", cycles=2):
            pass
        offset = get_tracer().now()  # case start on the runtime clock
        world = SimMPI(2, trace=True)
        pingpong(world)
        with lock:
            worlds.append((spec.key[:8], world.trace, offset))
        return CaseResult(spec=spec, coefficients={"cl": 0.1, "cd": 0.01})

    with capture() as tracer:
        with FillRuntime(
            runner, cpus_per_case=128, max_attempts=1,
            on_event=events.append, durable=False,
        ) as runtime:
            handles = [
                runtime.submit(
                    CaseSpec(wind={"mach": 0.3 + 0.05 * i, "alpha": float(i)})
                )
                for i in range(8)
            ]
            for handle in handles:
                handle.outcome()
        timeline = merged_fill_timeline(events, tracer=tracer, worlds=worlds)

    # without --out the round trip goes through a file nobody keeps
    with tempfile.TemporaryDirectory(prefix="repro-telemetry-") as tmp:
        path = write_trace(
            timeline, out_path or Path(tmp) / "selfcheck-trace.json")
        loaded = load_trace(path)
    where = path if out_path else "not kept (pass --out to keep it)"

    scheduler_spans = [e for e in loaded.spans() if e.cat == "scheduler"]
    attempt_spans = [e for e in loaded.spans() if e.cat == "fill"]
    solver_spans = [e for e in loaded.spans() if e.cat == "solver"]
    comm_events = [e for e in loaded.events if e.cat == "comm"]
    window = (
        min((e.t0 for e in scheduler_spans), default=0.0) - 1e-6,
        max((e.t1 for e in scheduler_spans), default=0.0) + 0.5,
    )
    vals = metrics(loaded)
    checks = [
        ("trace roundtrips through Perfetto JSON",
         len(loaded.events) == len(timeline.events)),
        ("scheduler spans for >= 8 cases", len(scheduler_spans) >= 8),
        ("per-case attempt spans", len(attempt_spans) >= 8),
        ("solver phase spans", len(solver_spans) >= 16),
        ("comm events from per-case SimMPI worlds", len(comm_events) >= 16),
        ("comm events inside the campaign window (shared clock)",
         all(window[0] <= e.t0 <= window[1] for e in comm_events)),
        ("metrics see the comm stream", vals["comm_events"] >= 16),
        ("metrics see a positive makespan", vals["makespan_seconds"] > 0.0),
    ]
    ok = True
    for label, passed in checks:
        echo(f"  [{'ok' if passed else 'FAIL'}] {label}")
        ok = ok and passed
    echo(f"trace: {where}")
    echo("telemetry selfcheck: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="telemetry trace reporting and self-checking",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_report = sub.add_parser(
        "report", help="per-phase table + metrics for an exported trace"
    )
    p_report.add_argument("trace", help="trace JSON written by write_trace()")
    p_self = sub.add_parser(
        "selfcheck", help="end-to-end fill -> trace -> export smoke (tier-1)"
    )
    p_self.add_argument(
        "--out", default=None, help="where to write the selfcheck trace JSON"
    )
    args = parser.parse_args(argv)
    if args.command == "report":
        return report(args.trace)
    return selfcheck(args.out)


if __name__ == "__main__":
    sys.exit(main())
