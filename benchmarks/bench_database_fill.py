"""Database-fill campaign through the executing runtime (paper §IV).

The acceptance benchmark for the unified case-submission API: a
24-case SSLV-style fill runs through :class:`repro.api.FillRuntime`
on the one worker thread its in-interpreter runner is worth (of eight
node slots), with one injected transient failure that succeeds on
retry, coefficients bit-identical to a serial loop over the same cases
and a wall clock within 1.15x of that loop.  Re-running the identical
fill is >= 90% cache hits; both runs' event-stream summaries land in
``benchmarks/results/database_fill.txt`` side by side.
"""

import statistics
import threading
import time

from conftest import RESULTS_DIR, run_once, save_result

from repro.telemetry import capture, merged_fill_timeline, metrics, write_trace

from repro.api import (
    Axis,
    CampaignAborted,
    CampaignCheckpoint,
    Cart3DCaseRunner,
    CaseSpec,
    ChaosPolicy,
    FillRuntime,
    ParameterSpace,
    ResultStore,
    StudyDefinition,
    build_job_tree,
    fill_summary_table,
    wing_body,
)


def fill_study():
    """2 configurations x 12 wind cases = 24 cases, 12 per mesh."""
    return StudyDefinition(
        config_space=ParameterSpace(axes=(Axis("aileron", (0.0, 5.0)),)),
        wind_space=ParameterSpace(
            axes=(
                Axis("mach", (0.4, 0.5, 0.6)),
                Axis("alpha", (0.0, 1.0, 2.0, 3.0)),
            )
        ),
    )


class FlakyOnce:
    """Wrap a runner; the first execution of one chosen case raises."""

    def __init__(self, runner, fail_key):
        self.runner = runner
        self.prepare = runner.prepare
        self.solver_name = runner.solver_name
        self.settings = runner.settings
        self.max_inflight = runner.max_inflight
        self.fail_key = fail_key
        self._lock = threading.Lock()
        self.failed_once = False

    def __call__(self, spec, shared=None):
        with self._lock:
            if spec.key == self.fail_key and not self.failed_once:
                self.failed_once = True
                raise OSError("injected transient node failure")
        return self.runner(spec, shared)


#: fresh (fill, serial loop) pairs the 1.15x wall gate compares
PAIRS = 3


def serial_loop(runner, tree) -> dict:
    """The loop the fill tier replaces: every case of ``tree`` in
    order, one shared hierarchy per geometry; results by case key."""
    results = {}
    for geo in tree:
        shared = runner.prepare(geo)
        for job in geo.flow_jobs:
            spec = CaseSpec.from_flow_job(job, **runner.settings())
            results[spec.key] = runner(spec, shared)
    return results


def paired_walls(runner, tree) -> tuple:
    """Median walls ``(fill, serial loop)`` over :data:`PAIRS` fresh
    pairs, each side timed the same way (around the whole call) and
    their order alternating, so neither side always runs first on a
    cold or a warm interpreter."""

    def fill():
        with FillRuntime(runner, nnodes=1, cpus_per_case=64,
                         backoff_seconds=0.0, durable=False) as rt:
            rt.run_tree(tree)

    def loop():
        serial_loop(runner, tree)

    walls: tuple = ([], [])
    for i in range(PAIRS):
        for k in (0, 1) if i % 2 else (1, 0):
            t0 = time.perf_counter()
            (fill, loop)[k]()
            walls[k].append(time.perf_counter() - t0)
    return tuple(statistics.median(w) for w in walls)


def test_fill_campaign_through_runtime(benchmark):
    study = fill_study()
    tree = build_job_tree(study)
    runner = Cart3DCaseRunner(
        wing_body(), dim=2, base_level=4, max_level=5, mg_levels=2, cycles=8
    )
    fail_key = CaseSpec.from_flow_job(
        tree[0].flow_jobs[3], **runner.settings()
    ).key
    flaky = FlakyOnce(runner, fail_key)

    def run():
        with capture() as tracer, FillRuntime(
            flaky,
            nnodes=1,
            cpus_per_case=64,
            backoff_seconds=0.0,
            durable=False,  # in-session sweep; the chaos bench is durable
        ) as rt:
            first = rt.run_tree(tree)
            second = rt.run_tree(tree)
        timeline = merged_fill_timeline(
            first.events + second.events, tracer=tracer
        )
        return first, second, timeline

    first, second, timeline = run_once(benchmark, run)

    # 24 cases on the runner's one thread, never more than the slots
    assert first.cases == study.ncases == 24
    assert first.executed == 24
    assert first.max_concurrent <= first.workers <= first.slots
    assert first.meshes_built == 2

    # the injected failure was retried and the campaign still succeeded
    assert flaky.failed_once
    assert first.retries == 1
    assert first.failures == 0
    retried = [o for o in first.outcomes if o.spec.key == fail_key]
    assert retried[0].attempts == 2 and retried[0].state == "done"

    # re-running the identical fill is >= 90% cache hits
    assert second.cache_hits >= 0.9 * second.cases
    assert second.executed == 0 and second.failures == 0
    assert any(e.kind == "cache_hit" for e in second.events)

    # amortized-hierarchy runtime results == serial loop over the cases
    serial = serial_loop(runner, tree)
    # the fill tier costs no more than 1.15x the loop it replaces
    fill_seconds, serial_seconds = paired_walls(runner, tree)
    assert fill_seconds <= 1.15 * serial_seconds
    mismatches = sum(
        1
        for out in first.outcomes
        if out.result.coefficients != serial[out.spec.key].coefficients
    )
    assert mismatches == 0

    # export the campaign timeline (Perfetto-loadable) next to the table
    trace_path = RESULTS_DIR / "database_fill_trace.json"
    RESULTS_DIR.mkdir(exist_ok=True)
    write_trace(timeline, trace_path)
    scheduler_spans = [
        s for s in timeline.spans() if s.tid == "scheduler"
    ]
    assert len(scheduler_spans) >= 24

    save_result(
        "database_fill",
        fill_summary_table(
            {"fill": first.summary(), "re-fill": second.summary()},
            title=(
                "24-case aero-database fill through FillRuntime "
                "(one injected transient failure; identical re-fill):"
            ),
        )
        + f"\n  serial-vs-runtime coefficient mismatches: {mismatches}/24"
        f"\n  wall: fill {first.wall_seconds:.2f}s, "
        f"re-fill {second.wall_seconds:.3f}s"
        f"\n  paired medians ({PAIRS} pairs, alternating order): "
        f"fill {fill_seconds:.2f}s, serial loop {serial_seconds:.2f}s"
        f"\n  telemetry: {trace_path.name} "
        f"({len(scheduler_spans)} scheduler spans)",
        data={
            "fill": first.summary(),
            "re_fill": second.summary(),
            "mismatches": mismatches,
            "paired_fill_seconds": round(fill_seconds, 3),
            "serial_loop_seconds": round(serial_seconds, 3),
            "trace": trace_path.name,
            "timeline_metrics": metrics(timeline),
        },
    )


class KeyLog:
    """Wrap a runner; record every case key that actually executes."""

    def __init__(self, runner):
        self.runner = runner
        self.prepare = runner.prepare
        self.solver_name = runner.solver_name
        self.settings = runner.settings
        self.max_inflight = runner.max_inflight
        self.calls: list = []
        self._lock = threading.Lock()

    def __call__(self, spec, shared=None):
        with self._lock:
            self.calls.append(spec.key)
        return self.runner(spec, shared)


def test_fill_campaign_survives_chaos(benchmark, tmp_path):
    """Durability acceptance (paper's node-failure reality at Columbia
    scale): the same 24-case fill with a 10% per-attempt worker-crash
    rate keeps getting killed; every kill resumes from the journal, no
    completed case ever recomputes, and the final database is
    coefficient-identical to an uninterrupted fill."""
    study = fill_study()
    tree = build_job_tree(study)
    runner = KeyLog(Cart3DCaseRunner(
        wing_body(), dim=2, base_level=4, max_level=5, mg_levels=2, cycles=8
    ))
    journal = tmp_path / "campaign.jsonl"
    store_path = tmp_path / "results.jsonl"

    def run():
        segments = []
        final = None
        for segment in range(1, 16):
            # a different chaos seed per segment: the "repaired node"
            # does not deterministically re-crash on the same case
            chaos = ChaosPolicy(seed=segment, crash_rate=0.10)
            with FillRuntime(
                runner, nnodes=1, cpus_per_case=64,
                store=ResultStore(store_path), chaos=chaos,
                checkpoint=CampaignCheckpoint(journal, chaos=chaos),
            ) as rt:
                try:
                    if segment == 1:
                        final = rt.run_tree(tree)
                    else:
                        final = rt.resume(checkpoint=journal)
                    segments.append(("completed", final))
                    break
                except CampaignAborted as exc:
                    segments.append(("crashed", exc.report))
                    final = None
        return segments, final

    segments, final = run_once(benchmark, run)

    # the chaotic campaign really was interrupted, and still completed
    crashes = [s for s in segments if s[0] == "crashed"]
    assert crashes, "10% crash rate never fired across 24 cases"
    assert final is not None, "campaign never completed within 15 resumes"
    assert final.ok()
    assert final.cases == 24

    # zero recomputation: across every segment each case executed at
    # most once, and all 24 executed somewhere
    assert len(runner.calls) == len(set(runner.calls)) == 24

    # identical database to an uninterrupted, chaos-free fill
    with FillRuntime(
        runner.runner, nnodes=1, cpus_per_case=64, durable=False
    ) as rt:
        reference = rt.run_tree(tree)
    def db_map(report):
        return {
            tuple(sorted(o.spec.params.items())): o.result.coefficients
            for o in report.outcomes if o.result is not None
        }

    chaotic_db, clean_db = db_map(final), db_map(reference)
    assert chaotic_db == clean_db

    ledger = {
        f"segment {i + 1} ({state})": report.summary()
        for i, (state, report) in enumerate(segments)
    }
    save_result(
        "database_fill_chaos",
        fill_summary_table(
            ledger,
            title=(
                "24-case fill under 10% worker-crash chaos: every kill "
                "resumes from the journal (zero recomputation):"
            ),
        )
        + f"\n  segments: {len(segments)} "
        f"({len(crashes)} crashed, 1 completed)"
        f"\n  cases executed exactly once: {len(set(runner.calls))}/24"
        f"\n  chaotic-vs-clean coefficient mismatches: "
        f"{sum(1 for k in clean_db if chaotic_db[k] != clean_db[k])}/24",
        data={
            "segments": [
                {"state": state, **report.summary()}
                for state, report in segments
            ],
            "executed_exactly_once": len(set(runner.calls)),
            "restored_total": sum(
                report.restored for _, report in segments
            ),
            "crash_rate": 0.10,
        },
    )
