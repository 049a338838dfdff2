"""Tests for the unified telemetry subsystem.

Covers the tracer (disabled no-op path, nesting, track binding, thread
safety), the timeline model and its stream adapters, the Perfetto
export/reload roundtrip, the flat metrics dict (including the roofline
comparison), the monotonic virtual timestamps on the fill-event stream,
and the end-to-end acceptance shape: an 8-case fill producing one
Perfetto-loadable trace with scheduler, solver and comm events on a
shared virtual clock.
"""

import json
import threading

import pytest

from repro.comm.simmpi import SimMPI
from repro.database.runtime import FillRuntime
from repro.machine.counters import PerfCounters
from repro.machine.cpu import CPU_ITANIUM2_1600
from repro.solvers.interface import CaseResult, CaseSpec
from repro.telemetry import (
    NULL_SPAN,
    EpochClock,
    Timeline,
    Tracer,
    add_fill_events,
    add_perf_counters,
    add_simmpi_trace,
    add_tracer,
    capture,
    chrome_trace,
    get_tracer,
    load_trace,
    merged_fill_timeline,
    metrics,
    set_tracer,
    span,
    traced,
    write_metrics,
    write_trace,
)


class TestDisabledTracer:
    def test_global_tracer_disabled_by_default(self):
        assert not get_tracer().enabled

    def test_span_returns_shared_null_span(self):
        assert span("anything") is NULL_SPAN
        assert span("other", cat="solver", level=3) is NULL_SPAN

    def test_null_span_is_noop_context_manager(self):
        with span("x") as s:
            s.set(cycles=4)  # attribute attachment is a no-op
        assert get_tracer().finished() == []

    def test_traced_function_passes_through(self):
        calls = []

        @traced("probe")
        def fn(a, b=1):
            calls.append((a, b))
            return a + b

        assert fn(2, b=3) == 5
        assert calls == [(2, 3)]
        assert get_tracer().finished() == []


class TestLiveTracer:
    def test_nested_spans_record_parent_and_attrs(self):
        with capture() as tracer:
            with tracer.span("outer", cat="solver") as outer:
                outer.set(cycles=2)
                with tracer.span("inner"):
                    pass
        by_name = {s.name: s for s in tracer.spans}
        assert set(by_name) == {"outer", "inner"}
        assert by_name["inner"].parent == by_name["outer"].sid
        assert by_name["outer"].parent is None
        assert by_name["outer"].args == {"cycles": 2}
        assert by_name["outer"].cat == "solver"

    def test_tick_clock_orders_spans_without_a_time_source(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        a, b = tracer.finished()
        assert a.t1 > a.t0
        assert b.t0 > a.t1

    def test_custom_clock_is_read_for_timestamps(self):
        clock_value = [10.0]
        tracer = Tracer(enabled=True, clock=lambda: clock_value[0])
        with tracer.span("phase"):
            clock_value[0] = 12.5
        (s,) = tracer.finished()
        assert s.t0 == 10.0 and s.t1 == 12.5 and s.dur == 2.5

    def test_bind_sets_and_restores_track_identity(self):
        tracer = Tracer(enabled=True)
        assert tracer.track() == (0, 0)
        with tracer.bind(rank=3, thread=1, clock=lambda: 7.0):
            assert tracer.track() == (3, 1)
            assert tracer.now() == 7.0
            with tracer.span("inner"):
                pass
        assert tracer.track() == (0, 0)
        (s,) = tracer.finished()
        assert (s.rank, s.thread) == (3, 1)
        assert s.t0 == 7.0

    def test_span_recorded_when_body_raises(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        assert [s.name for s in tracer.finished()] == ["doomed"]

    def test_instant_records_point_event(self):
        tracer = Tracer(enabled=True)
        tracer.instant("mark", cat="comm", nbytes=64)
        (i,) = tracer.instants
        assert i.t0 == i.t1
        assert i.args == {"nbytes": 64}

    def test_capture_restores_previous_global_tracer(self):
        before = get_tracer()
        with capture() as tracer:
            assert get_tracer() is tracer
            assert tracer.enabled
        assert get_tracer() is before

    def test_set_tracer_installs_and_returns(self):
        before = get_tracer()
        try:
            t = Tracer(enabled=True)
            assert set_tracer(t) is t
            assert get_tracer() is t
        finally:
            set_tracer(before)

    def test_concurrent_threads_record_all_spans_with_unique_sids(self):
        tracer = Tracer(enabled=True)

        def work(slot):
            with tracer.bind(thread=slot):
                for _ in range(50):
                    with tracer.span("w"):
                        pass

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = tracer.finished()
        assert len(spans) == 200
        assert len({s.sid for s in spans}) == 200
        assert {s.thread for s in spans} == {0, 1, 2, 3}

    def test_clear_resets_state(self):
        tracer = Tracer(enabled=True)
        with tracer.span("x"):
            pass
        tracer.clear()
        assert tracer.finished() == []
        assert tracer.instants == []

    def test_epoch_clock_advances_from_zero(self):
        clock = EpochClock()
        t0 = clock()
        t1 = clock()
        assert 0.0 <= t0 <= t1


class TestTimelineModel:
    def test_empty_timeline(self):
        tl = Timeline()
        assert tl.t_range() == (0.0, 0.0)
        assert tl.makespan() == 0.0
        assert tl.tracks() == []
        assert tl.phase_totals() == {}

    def test_phase_totals_aggregate_calls_and_seconds(self):
        tl = Timeline()
        tl.add("span", "residual", "solver", 0.0, 1.0)
        tl.add("span", "residual", "solver", 2.0, 2.5)
        tl.add("span", "smooth", "solver", 1.0, 2.0)
        tl.add("instant", "send", "comm", 0.5)
        totals = tl.phase_totals()
        assert totals["residual"] == {
            "calls": 2, "seconds": 1.5, "cat": "solver",
        }
        assert totals["smooth"]["calls"] == 1
        assert "send" not in totals  # instants are not phases

    def test_tracks_first_seen_order_and_t_range(self):
        tl = Timeline()
        tl.add("span", "a", "x", 1.0, 4.0, pid="fill", tid="scheduler")
        tl.add("span", "b", "x", 0.5, 2.0, pid="workers", tid="rank0/slot1")
        assert tl.tracks() == [
            ("fill", "scheduler"), ("workers", "rank0/slot1"),
        ]
        assert tl.t_range() == (0.5, 4.0)
        assert tl.makespan() == 3.5


class TestAdapters:
    def test_add_tracer_applies_offset_and_track_labels(self):
        tracer = Tracer(enabled=True, clock=lambda: 1.0)
        with tracer.bind(rank=2, thread=3):
            with tracer.span("phase", cat="solver"):
                pass
        tl = add_tracer(Timeline(), tracer, pid="workers", offset=10.0)
        (e,) = tl.spans()
        assert e.t0 == 11.0
        assert (e.pid, e.tid) == ("workers", "rank2/slot3")

    def test_add_simmpi_trace_maps_compute_and_messages(self):
        def pingpong(comm):
            comm.compute(seconds=0.25)
            if comm.rank == 0:
                comm.send(b"\0" * 128, 1, tag=5)
            else:
                comm.recv(0, tag=5)

        world = SimMPI(2, trace=True)
        world.run(pingpong)
        tl = add_simmpi_trace(Timeline(), world.trace, offset=100.0)
        computes = [e for e in tl.spans() if e.cat == "compute"]
        assert len(computes) == 2
        assert computes[0].dur == pytest.approx(0.25, rel=1e-3)
        assert all(e.t0 >= 100.0 for e in tl.events)
        comm_events = [e for e in tl.instants() if e.cat == "comm"]
        assert {e.name for e in comm_events} >= {"send", "recv"}
        sends = [e for e in comm_events if e.name == "send"]
        assert sends[0].args["nbytes"] >= 128
        assert sends[0].tid == "rank0"

    def test_add_perf_counters_emits_counter_samples(self):
        counters = PerfCounters()
        with counters.region("residual"):
            counters.add_flops(1.0e6)
            counters.add_bytes(4.0e6)
        tl = add_perf_counters(Timeline(), counters, at=3.0)
        rows = {e.name: e for e in tl.counters()}
        assert rows["residual"].t0 == 3.0
        assert rows["residual"].args["flops"] == 1.0e6
        assert rows["residual"].args["bytes"] == 4.0e6
        assert rows["residual"].args["calls"] == 1

    def test_counters_region_opens_telemetry_span(self):
        counters = PerfCounters()
        with capture() as tracer:
            with counters.region("mg_cycle"):
                pass
        assert [s.name for s in tracer.finished()] == ["mg_cycle"]
        assert tracer.finished()[0].cat == "perf"


def run_fill(ncases=8, runner=None):
    """A small fill campaign; returns (its events in seq order,
    outcomes)."""

    def default_runner(spec, shared):
        with span("solver.residual", cat="solver"):
            pass
        return CaseResult(spec=spec, coefficients={"cl": 1.0})

    seen = []
    runtime = FillRuntime(
        runner or default_runner, cpus_per_case=128, max_attempts=1,
        on_event=seen.append, durable=False,
    )
    with runtime:
        handles = [
            runtime.submit(CaseSpec(wind={"mach": 0.3 + 0.01 * i}))
            for i in range(ncases)
        ]
        outcomes = [h.outcome() for h in handles]
    return sorted(seen, key=lambda e: e.seq), outcomes


class TestFillEventStream:
    def test_vt_strictly_monotonic_across_workers(self):
        events, outcomes = run_fill(ncases=8)
        assert len(events) > 16
        vts = [e.vt for e in events]
        assert all(b > a for a, b in zip(vts, vts[1:]))
        # vt never runs behind the raw clock stamp
        assert all(e.vt >= e.t for e in events)

    def test_add_fill_events_builds_scheduler_and_slot_spans(self):
        events, outcomes = run_fill(ncases=4)
        tl = add_fill_events(Timeline(), events)
        scheduler = [e for e in tl.spans() if e.tid == "scheduler"]
        assert len(scheduler) == 4
        assert all(e.cat == "scheduler" for e in scheduler)
        assert all(e.args["outcome"] == "done" for e in scheduler)
        attempts = [e for e in tl.spans() if e.cat == "fill"]
        assert len(attempts) == 4
        assert all(e.tid.startswith("slot") for e in attempts)
        # attempts nest inside their scheduler span
        by_key = {e.args["key"]: e for e in scheduler}
        for a in attempts:
            s = by_key[a.args["key"]]
            assert s.t0 <= a.t0 <= a.t1 <= s.t1


class TestExport:
    def _timeline(self):
        tl = Timeline()
        tl.add("span", "residual", "solver", 0.0, 1.5,
               pid="workers", tid="rank0/slot0", args={"level": 1})
        tl.add("instant", "send", "comm", 0.5,
               pid="mpi", tid="rank0", args={"nbytes": 256})
        tl.add("counter", "mg", "perf", 1.5,
               pid="counters", tid="flops",
               args={"flops": 2.0e9, "bytes": 1.0e8, "calls": 3})
        return tl

    def test_chrome_trace_structure(self):
        doc = chrome_trace(self._timeline())
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        names = {
            e["pid"]: e["args"]["name"] for e in meta
            if e["name"] == "process_name"
        }
        assert set(names.values()) == {"workers", "mpi", "counters"}
        (x,) = [e for e in events if e["ph"] == "X"]
        assert x["ts"] == 0.0 and x["dur"] == pytest.approx(1.5e6)
        (i,) = [e for e in events if e["ph"] == "i"]
        assert i["s"] == "t" and i["ts"] == pytest.approx(0.5e6)
        (c,) = [e for e in events if e["ph"] == "C"]
        assert c["args"] == {"flops": 2.0e9, "bytes": 1.0e8, "calls": 3}

    def test_write_load_roundtrip(self, tmp_path):
        tl = self._timeline()
        path = write_trace(tl, tmp_path / "trace.json")
        loaded = load_trace(path)
        assert len(loaded.events) == len(tl.events)
        for orig, back in zip(tl.sorted(), loaded.sorted()):
            assert back.kind == orig.kind
            assert back.name == orig.name
            assert back.cat == orig.cat
            assert (back.pid, back.tid) == (orig.pid, orig.tid)
            assert back.t0 == pytest.approx(orig.t0)
            assert back.t1 == pytest.approx(orig.t1)

    def test_metrics_totals_and_splits(self):
        tl = self._timeline()
        tl.add("span", "exchange", "comm", 1.0, 1.5, pid="mpi", tid="rank0")
        tl.add("span", "compute", "compute", 0.0, 1.0,
               pid="mpi", tid="rank0")
        vals = metrics(tl)
        assert vals["total_flops"] == 2.0e9
        assert vals["total_bytes"] == 1.0e8
        assert vals["comm_bytes"] == 256
        assert vals["comm_seconds"] == pytest.approx(0.5)
        assert vals["compute_seconds"] == pytest.approx(1.0)
        assert vals["comm_fraction"] == pytest.approx(0.5 / 1.5)
        assert vals["achieved_gflops"] == pytest.approx(2.0 / 1.5)

    def test_metrics_roofline_against_paper_cpu(self):
        tl = self._timeline()
        vals = metrics(tl, cpu=CPU_ITANIUM2_1600, ncpus=4)
        peak = CPU_ITANIUM2_1600.peak_flops * 4
        assert vals["peak_gflops"] == pytest.approx(peak / 1e9)
        assert vals["roofline_fraction"] == pytest.approx(
            (2.0e9 / 1.5) / peak
        )

    def test_metrics_empty_timeline(self):
        vals = metrics(Timeline())
        assert vals["events"] == 0
        assert vals["makespan_seconds"] == 0.0
        assert "comm_fraction" not in vals
        assert "achieved_gflops" not in vals

    def test_write_metrics(self, tmp_path):
        path = write_metrics({"a": 1.5}, tmp_path / "metrics.json")
        assert json.loads(path.read_text()) == {"a": 1.5}


class TestAcceptance:
    """The ISSUE acceptance: one >= 8-case fill, one Perfetto-loadable
    trace, scheduler + solver + comm events on a shared virtual clock."""

    def test_fill_campaign_exports_single_unified_trace(self, tmp_path):
        worlds = []
        lock = threading.Lock()

        def runner(spec, shared):
            with span("solver.residual", cat="solver"):
                pass
            offset = get_tracer().now()
            world = SimMPI(2, trace=True)

            def pingpong(comm):
                comm.compute(flops=1.0e5)
                if comm.rank == 0:
                    comm.send(b"\0" * 64, 1, tag=3)
                else:
                    comm.recv(0, tag=3)

            world.run(pingpong)
            with lock:
                worlds.append((spec.key[:8], world.trace, offset))
            return CaseResult(spec=spec, coefficients={"cl": 1.0})

        with capture() as tracer:
            events, outcomes = run_fill(ncases=8, runner=runner)
            timeline = merged_fill_timeline(
                events, tracer=tracer, worlds=worlds
            )
        assert all(o.state == "done" for o in outcomes)

        path = write_trace(timeline, tmp_path / "campaign.json")
        doc = json.loads(path.read_text())  # Perfetto-loadable JSON
        assert {e["ph"] for e in doc["traceEvents"]} >= {"M", "X", "i"}

        loaded = load_trace(path)
        scheduler = [e for e in loaded.spans() if e.cat == "scheduler"]
        solver = [e for e in loaded.spans() if e.cat == "solver"]
        comm_events = [e for e in loaded.events if e.cat == "comm"]
        assert len(scheduler) >= 8
        assert len(solver) >= 8
        assert len(comm_events) >= 8
        # shared clock: comm events land inside the campaign window
        lo = min(e.t0 for e in scheduler) - 1e-6
        hi = max(e.t1 for e in scheduler) + 0.5
        assert all(lo <= e.t0 <= hi for e in comm_events)
