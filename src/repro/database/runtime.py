"""Executing fill runtime: the paper's §IV job control, actually run.

``schedule_fill`` answers the *planning* question (how long does a fill
occupy N Columbia boxes); this module answers the *execution* one.  A
:class:`FillRuntime` consumes the same :func:`build_job_tree` hierarchy
and really runs the cases on ``min(slots, runner.max_inflight)`` threads
(``slots``: :func:`repro.machine.topology.node_slots`, "running as many
cases simultaneously as memory permits"; threads that step solvers in
one interpreter only trade its lock).  It layers on what a real campaign
needs and the paper's job scripts provided operationally:

* **geometry amortization** — each geometry instance is prepared
  (surface, mesh, multigrid hierarchy) exactly once, lazily, shared by
  every wind case under it ("this approach amortizes the cost of
  preparing the surface and meshing each instance of the geometry over
  the hundreds or thousands of runs");
* **content-keyed caching/dedup** — results land in a
  :class:`~repro.database.resultstore.ResultStore` keyed by
  :attr:`CaseSpec.key`; re-submitting an identical case is a cache hit,
  whether in the same session or from a persisted store;
* **bounded retry with backoff and per-attempt timeouts** — transient
  failures re-run up to ``max_attempts`` times; the timeout is
  cooperative (an attempt that outlives its budget is discarded and
  retried — the runtime cannot preempt a running solve, only refuse its
  result, as a node-level job killer would);
* **cancellation** — :meth:`FillRuntime.cancel` stops queued jobs and
  aborts remaining retries at the next attempt boundary;
* **a structured event stream** — every submit/start/retry/done/failed/
  cache-hit is a :class:`FillEvent`; :func:`repro.perf.report.fill_summary_table`
  renders the per-run summaries side by side;
* **plan cross-checking** — the retained planner's
  :class:`~repro.database.scheduler.SchedulePlan` is compared against the
  realized packing (:func:`cross_check_plan`): job counts, slot sizing
  and the concurrency high-water mark must agree;
* **durability** — with a :class:`~repro.database.checkpoint.
  CampaignCheckpoint` attached, every event (and every completed case's
  result) is journaled; a campaign killed mid-run — including by a
  :class:`~repro.database.chaos.ChaosPolicy`-injected worker crash —
  resumes via :meth:`FillRuntime.resume` with zero recomputation of
  completed cases and a coefficient-identical database;
* **a graceful-degradation ladder** — when a case exhausts its retry
  budget on the primary (high-fidelity) runner and a ``fallback`` runner
  is configured, the case re-runs at the lower fidelity and its record
  is marked *degraded* rather than failing the campaign.

Errors raised here live in the rooted :mod:`repro.errors` taxonomy.

Lint rule R005 bans direct ``Cart3DSolver``/``NSU3DSolver`` construction
inside this package: the bundled :class:`Cart3DCaseRunner` builds its
solvers through the :mod:`repro.api` facade.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import heapq
import threading
import time
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from .. import errors
from ..machine.topology import node_slots
from ..runtime import RuntimeConfig
from ..solvers.interface import CaseResult, CaseSpec, case_result
from ..telemetry.spans import EpochClock, get_tracer
from ..telemetry.spans import span as _span
from .checkpoint import CampaignCheckpoint, CheckpointState
from .resultstore import ResultStore
from .scheduler import SchedulePlan
from .store import AeroDatabase


@dataclass(frozen=True)
class FillEvent:
    """One entry of the structured progress stream.

    ``t`` is the raw runtime-clock stamp; ``vt`` is the strictly
    monotonic virtual timestamp the :class:`EventLog` assigns under its
    lock, so a stream is replayable into the telemetry timeline model
    (:func:`repro.telemetry.add_fill_events`) with a total order even
    when two workers emit within the clock's resolution.
    """

    seq: int
    t: float  # seconds since the runtime's epoch
    kind: str  # submit|cache_hit|geometry|start|retry|done|failed|cancelled|
    #            cancel|cross_check|chaos|crash|abort|fallback|resume
    key: str  # case content key ("" for runtime-level events)
    info: dict = field(default_factory=dict)
    vt: float = 0.0  # strictly monotonic virtual timestamp


class EventLog:
    """Thread-safe, monotonically sequenced event stream."""

    def __init__(self, clock, on_event=None):
        self._lock = threading.Lock()
        self._events: list[FillEvent] = []
        self._clock = clock
        self._on_event = on_event
        self._vt = 0.0

    def emit(self, kind: str, key: str = "", **info) -> FillEvent:
        with self._lock:
            t = self._clock()
            self._vt = max(t, self._vt + 1e-9)
            event = FillEvent(
                seq=len(self._events), t=t, kind=kind,
                key=key, info=info, vt=self._vt,
            )
            self._events.append(event)
        if self._on_event is not None:
            self._on_event(event)  # outside the lock: callbacks may re-emit
        return event

    @property
    def next_seq(self) -> int:
        with self._lock:
            return len(self._events)

    def since(self, seq: int) -> list[FillEvent]:
        with self._lock:
            return self._events[seq:]

    def all(self) -> list[FillEvent]:
        return self.since(0)


@dataclass
class JobOutcome:
    """Terminal state of one submitted case."""

    spec: CaseSpec
    state: str  # "done" | "cached" | "failed" | "cancelled" | "crashed"
    result: CaseResult | None = None
    attempts: int = 0
    slot: int | None = None
    start: float = 0.0
    end: float = 0.0
    error: str | None = None
    degraded: bool = False  # completed on the fallback fidelity


class CaseHandle:
    """Future-like handle returned by :meth:`FillRuntime.submit`.

    ``hit`` is True when the submission was satisfied without a new
    execution (session dedup or persistent-store hit).

    Blocking accessors take an optional ``timeout`` (seconds); the
    awaitable bridge (:meth:`wait`, or ``await handle``) parks an
    asyncio caller without blocking the event loop — this is how the
    :class:`~repro.service.DatabaseService` front end rides the fill
    runtime's thread pool.  A timeout never cancels the underlying
    attempt (the runtime cannot preempt a running solve); it only stops
    waiting, so a later wait on the same handle can still succeed.
    """

    def __init__(self, spec: CaseSpec, hit: bool = False):
        self.spec = spec
        self.key = spec.key
        self.hit = hit
        self._future: Future | None = None
        self._outcome: JobOutcome | None = None

    def _resolve(self, outcome: JobOutcome) -> None:
        self._outcome = outcome

    def outcome(self, timeout: float | None = None) -> JobOutcome:
        """Block until the case reaches a terminal state.

        With ``timeout``, raise :class:`~repro.errors.CaseTimeout` if it
        has not resolved within that many seconds (the case keeps
        running; only this wait gives up).
        """
        if self._outcome is None:
            assert self._future is not None
            try:
                self._outcome = self._future.result(timeout)
            except concurrent.futures.TimeoutError:
                raise errors.CaseTimeout(
                    f"case {self.key} still unresolved after "
                    f"{timeout}s wait"
                ) from None
        return self._outcome

    def result(self, timeout: float | None = None) -> CaseResult:
        """Block for the :class:`CaseResult`; raise on failure."""
        out = self.outcome(timeout)
        if out.result is None:
            raise errors.CaseExecutionError(
                self.key, out.attempts, out.error or out.state
            )
        return out.result

    async def wait(self, timeout: float | None = None) -> JobOutcome:
        """Awaitable twin of :meth:`outcome` for asyncio callers.

        Bridges the worker-pool future onto the running event loop
        (``asyncio.wrap_future``) so awaiting never hard-blocks the
        loop; the bridge is shielded so a timeout abandons only this
        wait — it cannot cancel a queued or running case out from under
        other waiters coalesced on the same handle.
        """
        if self._outcome is None:
            assert self._future is not None
            bridged = asyncio.wrap_future(self._future)
            # an abandoned bridge (timeout below) must not log
            # "exception was never retrieved" when the case later fails
            bridged.add_done_callback(
                lambda f: None if f.cancelled() else f.exception()
            )
            try:
                self._outcome = await asyncio.wait_for(
                    asyncio.shield(bridged), timeout
                )
            except (asyncio.TimeoutError, TimeoutError):
                raise errors.CaseTimeout(
                    f"case {self.key} still unresolved after "
                    f"{timeout}s wait"
                ) from None
        return self._outcome

    def __await__(self):
        return self.wait().__await__()

    def done(self) -> bool:
        return self._outcome is not None or (
            self._future is not None and self._future.done()
        )


class SharedGeometry:
    """Lazy once-per-instance geometry preparation (paper amortization).

    The first wind case of an instance builds the surface/mesh under a
    lock; every other case of that instance reuses the product.
    """

    def __init__(self, geo_job, builder, on_built=None):
        self.geo_job = geo_job
        self._builder = builder
        self._on_built = on_built
        self._lock = threading.Lock()
        self._built = False
        self._value = None

    @property
    def built(self) -> bool:
        return self._built

    def __call__(self):
        with self._lock:
            if not self._built:
                with _span("fill.geometry", cat="fill"):
                    self._value = self._builder(self.geo_job)
                self._built = True
                if self._on_built is not None:
                    self._on_built(self)
        return self._value


@dataclass
class FillReport:
    """Aggregated outcome of one :meth:`FillRuntime.run_tree` campaign."""

    outcomes: list
    events: list
    slots: int
    workers: int = 0  # threads that ran the slots (<= slots)
    cases: int = 0
    executed: int = 0
    cache_hits: int = 0
    retries: int = 0
    failures: int = 0
    cancelled: int = 0
    crashed: int = 0
    degraded: int = 0
    restored: int = 0
    meshes_built: int = 0
    max_concurrent: int = 0
    wall_seconds: float = 0.0
    plan_issues: list | None = None

    def ok(self) -> bool:
        return (
            self.failures == 0
            and self.cancelled == 0
            and self.crashed == 0
            and not self.plan_issues
        )

    def database(self, db: AeroDatabase | None = None) -> AeroDatabase:
        """Insert every successful result into an :class:`AeroDatabase`."""
        db = db if db is not None else AeroDatabase()
        for out in self.outcomes:
            if out.result is not None:
                db.insert(out.result.to_record())
        return db

    def summary(self) -> dict:
        """Counters in render order — rows of the fill summary table."""
        return {
            "cases": self.cases,
            "executed": self.executed,
            "cache hits": self.cache_hits,
            "retries": self.retries,
            "failures": self.failures,
            "cancelled": self.cancelled,
            "crashed": self.crashed,
            "degraded": self.degraded,
            "restored": self.restored,
            "meshes built": self.meshes_built,
            "slots": self.slots,
            "worker threads": self.workers,
            "max concurrent": self.max_concurrent,
            "wall seconds": round(self.wall_seconds, 3),
        }


def _max_overlap(intervals) -> int:
    """Concurrency high-water mark of (start, end) intervals."""
    events = []
    for start, end in intervals:
        events.append((start, 1))
        events.append((end, -1))
    live = peak = 0
    # ends sort before starts at equal timestamps: back-to-back reuse of a
    # slot is sequential, not concurrent
    for _, delta in sorted(events, key=lambda e: (e[0], e[1])):
        live += delta
        peak = max(peak, live)
    return peak


def cross_check_plan(plan: SchedulePlan, report: FillReport) -> list[str]:
    """Compare the planner's packing against the runtime's realized one."""
    issues = []
    if len(plan.assignments) != report.cases:
        issues.append(
            f"planner packed {len(plan.assignments)} flow jobs but the "
            f"runtime saw {report.cases} submissions"
        )
    if report.slots != plan.concurrent_cases:
        issues.append(
            f"runtime sized {report.slots} worker slots but the plan "
            f"assumed {plan.concurrent_cases} concurrent cases"
        )
    if report.max_concurrent > plan.concurrent_cases:
        issues.append(
            f"realized concurrency {report.max_concurrent} exceeded the "
            f"planned slot capacity {plan.concurrent_cases}"
        )
    return issues


class FillRuntime:
    """Bounded-concurrency executor for database-fill case submissions.

    Parameters
    ----------
    runner:
        ``runner(spec, shared) -> CaseResult`` — executes one case.
        ``shared`` is the (lazily built) per-geometry product, or None
        for direct submissions.  ``runner.max_inflight``, if present,
        caps the worker threads; further cases wait in the pool's queue.
    nnodes, cpus_per_case:
        Slot sizing via the machine model: ``(512 // cpus_per_case) *
        nnodes`` concurrent cases, exactly the planner's arithmetic.
    store:
        :class:`ResultStore` for caching/dedup (fresh in-memory store by
        default; pass a path-backed one for persistence).
    durable:
        The durability contract.  Constructing a runtime without a
        ``store`` silently produced an ephemeral campaign; that bypass
        of the blessed path now warns.  Pass ``durable=False`` as the
        documented escape hatch ("I know this campaign evaporates with
        the process"), or ``durable=True`` to *require* persistence — a
        path-backed store or a checkpoint journal — and fail fast
        otherwise.
    max_attempts, backoff_seconds:
        Bounded retry: attempt ``n`` failures sleep
        ``backoff_seconds * n`` before re-running, up to ``max_attempts``.
    timeout_seconds:
        Cooperative per-attempt budget (see module docstring).
    on_event:
        Optional callback invoked with every :class:`FillEvent`.
    tracer:
        :class:`~repro.telemetry.Tracer` the worker threads bind (slot
        identity + the runtime clock) so every case attempt is a span
        and instrumented solver code lands on the campaign timeline.
        Defaults to the process-global tracer — a no-op when disabled.
    chaos:
        Optional :class:`~repro.database.chaos.ChaosPolicy` injecting
        deterministic faults into case attempts (None = no-op).
    fallback:
        Optional lower-fidelity runner (same ``runner(spec, shared)``
        signature) forming the graceful-degradation ladder: a case that
        exhausts its retry budget on the primary runner re-runs here
        (with ``shared=None`` — the fallback fidelity builds its own
        view of the geometry) and its result is marked ``degraded``.
    fallback_attempts:
        Retry budget of the fallback rung (default 1).
    checkpoint:
        Optional :class:`~repro.database.checkpoint.CampaignCheckpoint`;
        every event (and completed-case result) streams into its
        journal, making the campaign resumable via :meth:`resume`.
    """

    def __init__(
        self,
        runner,
        *,
        nnodes: int = 1,
        cpus_per_case: int = 32,
        store: ResultStore | None = None,
        durable: bool | None = None,
        max_attempts: int = 3,
        backoff_seconds: float = 0.01,
        timeout_seconds: float | None = None,
        on_event=None,
        tracer=None,
        chaos=None,
        fallback=None,
        fallback_attempts: int = 1,
        checkpoint: CampaignCheckpoint | None = None,
    ):
        if max_attempts < 1:
            raise errors.ConfigurationError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        if fallback_attempts < 1:
            raise errors.ConfigurationError(
                f"fallback_attempts must be >= 1, got {fallback_attempts}"
            )
        if store is None:
            if durable:
                raise errors.ConfigurationError(
                    "durable=True requires a path-backed ResultStore "
                    "(pass store=ResultStore(path))"
                )
            if durable is None:
                warnings.warn(
                    "FillRuntime constructed without a ResultStore: results "
                    "are ephemeral and the campaign cannot be resumed. Pass "
                    "a path-backed ResultStore (the blessed path), or "
                    "durable=False to acknowledge an ephemeral campaign.",
                    RuntimeWarning,
                    stacklevel=2,
                )
            store = ResultStore()
        elif durable and store.path is None and checkpoint is None:
            raise errors.ConfigurationError(
                "durable=True requires a path-backed ResultStore or a "
                "CampaignCheckpoint journal; this store is in-memory only"
            )
        self.runner = runner
        self.nnodes = nnodes
        self.cpus_per_case = cpus_per_case
        self.slots = node_slots(cpus_per_case, nnodes)
        self.store = store
        self.durable = bool(
            store.path is not None or checkpoint is not None
        )
        self.max_attempts = max_attempts
        self.backoff_seconds = backoff_seconds
        self.timeout_seconds = timeout_seconds
        self.tracer = tracer if tracer is not None else get_tracer()
        self.chaos = chaos
        self.fallback = fallback
        self.fallback_attempts = fallback_attempts
        self.checkpoint = checkpoint
        self._user_on_event = on_event
        self._clock = EpochClock()
        self.events = EventLog(self._now, self._dispatch_event)
        cap = getattr(runner, "max_inflight", None)
        self.workers = min(self.slots, cap or self.slots)
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="fill"
        )
        # RLock: on_event callbacks fired from submit() may legally
        # re-enter the runtime (e.g. cancel or chase with a new submit)
        self._lock = threading.RLock()
        self._handles: dict[str, CaseHandle] = {}
        self._free_slots = list(range(self.slots))
        heapq.heapify(self._free_slots)
        self._cancelled = threading.Event()
        self._aborted = threading.Event()
        self._abort_reason: str | None = None
        self._geometry_builds = 0
        self.closed = False

    # -- lifecycle -----------------------------------------------------------

    def _now(self) -> float:
        return self._clock()

    def _dispatch_event(self, event: FillEvent) -> None:
        """Fan one event out: journal first (durability), then the user
        callback — a crash after journaling loses nothing."""
        if self.checkpoint is not None:
            result = None
            if event.kind == "done":
                result = self.store.get(event.key)
            self.checkpoint.record(event, result=result)
        if self._user_on_event is not None:
            self._user_on_event(event)

    def cancel(self) -> None:
        """Stop queued cases and abort remaining retries."""
        if not self._cancelled.is_set():
            self._cancelled.set()
            self.events.emit("cancel")

    def close(self) -> None:
        self.closed = True
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "FillRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission ----------------------------------------------------------

    def submit(self, spec: CaseSpec, shared=None) -> CaseHandle:
        """Submit one case; identical re-submissions are cache hits."""
        if self.closed:
            raise errors.RuntimeClosed("runtime is closed")
        with self._lock:
            primary = self._handles.get(spec.key)
            if primary is not None:
                self.events.emit("cache_hit", spec.key, source="session")
                twin = CaseHandle(spec, hit=True)
                twin._future = primary._future
                twin._outcome = primary._outcome
                return twin
            cached = self.store.get(spec.key)
            if cached is not None:
                handle = CaseHandle(spec, hit=True)
                now = self._now()
                handle._resolve(
                    JobOutcome(
                        spec=spec, state="cached", result=cached,
                        attempts=0, start=now, end=now,
                    )
                )
                self._handles[spec.key] = handle
                self.events.emit("cache_hit", spec.key, source="store")
                return handle
            handle = CaseHandle(spec)
            self._handles[spec.key] = handle
            self.events.emit("submit", spec.key)
            handle._future = self._pool.submit(self._run_job, spec, shared)
        return handle

    def run_case(self, spec: CaseSpec, shared=None) -> CaseResult:
        """Submit one case and block for its result (raises on failure)."""
        return self.submit(spec, shared=shared).result()

    def run_tree(
        self,
        tree,
        *,
        prepare=None,
        solver: str | None = None,
        settings: dict | None = None,
        plan: SchedulePlan | None = None,
    ) -> FillReport:
        """Execute a :func:`build_job_tree` hierarchy end to end.

        ``prepare(geo_job)`` builds the per-instance shared geometry
        (defaults to the runner's ``prepare`` attribute when present);
        ``settings`` are stamped onto every :class:`CaseSpec` so the
        cache key covers solver configuration.  When ``plan`` is given,
        the realized packing is cross-checked against it and any
        discrepancies recorded as a ``cross_check`` event and in
        :attr:`FillReport.plan_issues`.
        """
        prepare = prepare if prepare is not None else getattr(
            self.runner, "prepare", None
        )
        if solver is None:
            solver = getattr(self.runner, "solver_name", "cart3d")
        if settings is None:
            settings_fn = getattr(self.runner, "settings", None)
            settings = settings_fn() if settings_fn is not None else {}
        seq0 = self.events.next_seq
        builds0 = self._geometry_builds
        t0 = self._now()
        jobs = []
        for geo_job in tree:
            shared = None
            if prepare is not None:
                shared = SharedGeometry(geo_job, prepare, self._on_geometry)
            for flow_job in geo_job.flow_jobs:
                spec = CaseSpec.from_flow_job(
                    flow_job, solver=solver, **settings
                )
                jobs.append((spec, shared))
        if self.checkpoint is not None:
            # manifest first: a campaign that dies on its very first
            # case still leaves a journal that can rebuild the job tree
            self.checkpoint.write_manifest(
                self._campaign_manifest(
                    [spec for spec, _ in jobs], solver, settings, plan
                )
            )
        handles = [self.submit(spec, shared=shared) for spec, shared in jobs]
        outcomes = [h.outcome() for h in handles]
        events = self.events.since(seq0)
        # executions belonging to *this* campaign: cache hits resolve to
        # outcomes of earlier runs and must not count again
        ran = [
            o for h, o in zip(handles, outcomes)
            if not h.hit and o.attempts > 0
        ]
        report = FillReport(
            outcomes=outcomes,
            events=events,
            slots=self.slots,
            workers=self.workers,
            cases=len(handles),
            executed=len({id(o) for o in ran}),
            cache_hits=sum(1 for h in handles if h.hit),
            retries=sum(1 for e in events if e.kind == "retry"),
            failures=sum(1 for o in outcomes if o.state == "failed"),
            cancelled=sum(1 for o in outcomes if o.state == "cancelled"),
            crashed=sum(1 for o in outcomes if o.state == "crashed"),
            degraded=sum(1 for o in outcomes if o.degraded),
            meshes_built=self._geometry_builds - builds0,
            max_concurrent=_max_overlap(
                {id(o): (o.start, o.end) for o in ran}.values()
            ),
            wall_seconds=self._now() - t0,
        )
        if plan is not None:
            report.plan_issues = cross_check_plan(plan, report)
            self.events.emit(
                "cross_check",
                issues=list(report.plan_issues),
                planned_slots=plan.concurrent_cases,
                realized_max_concurrent=report.max_concurrent,
            )
            report.events = self.events.since(seq0)
        if self._aborted.is_set():
            reason = self._abort_reason or "worker crash"
            self.events.emit("abort", reason=reason)
            report.events = self.events.since(seq0)
            raise errors.CampaignAborted(reason, report=report)
        return report

    def _campaign_manifest(self, specs, solver, settings, plan) -> dict:
        """Enough journal to rebuild the campaign in a fresh process."""
        describe = getattr(self.runner, "describe", None)
        return {
            "solver": solver,
            "settings": dict(settings),
            "nnodes": self.nnodes,
            "cpus_per_case": self.cpus_per_case,
            "worker_threads": self.workers,
            "store": str(self.store.path) if self.store.path else None,
            "runner": describe() if describe is not None else None,
            "plan": plan.to_json() if plan is not None else None,
            "cases": [
                {"config": spec.config_params, "wind": spec.wind_params}
                for spec in specs
            ],
        }

    def resume(
        self,
        tree=None,
        *,
        plan: SchedulePlan | None = None,
        checkpoint=None,
    ) -> FillReport:
        """Continue a journaled campaign with zero recomputation.

        Loads the checkpoint (``checkpoint`` may be a
        :class:`~repro.database.checkpoint.CampaignCheckpoint`, a
        decoded :class:`~repro.database.checkpoint.CheckpointState`, or
        a journal path; defaults to this runtime's own checkpoint),
        restores every completed case's result into the store — so its
        re-submission is a cache hit — and re-runs the campaign's job
        tree (rebuilt from the journal manifest when ``tree`` is None).
        Only interrupted cases execute; the resulting database is
        coefficient-identical to an uninterrupted run.
        """
        source = checkpoint if checkpoint is not None else self.checkpoint
        if source is None:
            raise errors.ConfigurationError(
                "resume needs a checkpoint journal (pass checkpoint= "
                "here or to the runtime constructor)"
            )
        if isinstance(source, CheckpointState):
            state = source
        elif isinstance(source, CampaignCheckpoint):
            state = CampaignCheckpoint.load(source.path)
        else:
            state = CampaignCheckpoint.load(source)
        completed = state.completed
        with self.tracer.span(
            "fill.restore", cat="checkpoint",
            path=str(state.path), completed=len(completed),
        ):
            restored = 0
            for key in completed:
                if self.store.get(key) is None:
                    self.store.put(state.results[key])
                    restored += 1
        self.events.emit(
            "resume",
            path=str(state.path), restored=restored,
            completed=len(completed), interrupted=len(state.interrupted),
        )
        solver = settings = None
        if state.manifest is not None:
            solver = state.manifest.get("solver")
            settings = state.manifest.get("settings")
            if tree is None:
                tree = state.job_tree()
        elif tree is None:
            raise errors.ConfigurationError(
                f"journal {state.path} has no manifest; pass the job "
                f"tree explicitly to resume"
            )
        try:
            report = self.run_tree(
                tree, plan=plan, solver=solver, settings=settings
            )
        except errors.CampaignAborted as exc:
            if exc.report is not None:
                exc.report.restored = restored
            raise
        report.restored = restored
        return report

    # -- telemetry -----------------------------------------------------------

    def timeline(self, worlds=(), counters=None):
        """The campaign as one merged telemetry timeline.

        Replays the runtime's :class:`FillEvent` stream (scheduler and
        per-slot attempt tracks), everything the bound tracer recorded
        (per-case solver phase spans on the runtime clock), optional
        per-case SimMPI worlds (``(label, trace, offset)`` triples with
        ``offset`` the case start on the runtime clock) and optional
        :class:`~repro.machine.counters.PerfCounters` totals.  Feed the
        result to :func:`repro.telemetry.write_trace` for Perfetto.
        """
        from ..telemetry.collect import merged_fill_timeline

        return merged_fill_timeline(
            self.events.all(),
            tracer=self.tracer if self.tracer.enabled else None,
            worlds=worlds,
            counters=counters,
        )

    # -- execution -----------------------------------------------------------

    def _on_geometry(self, shared: SharedGeometry) -> None:
        with self._lock:
            self._geometry_builds += 1
        self.events.emit(
            "geometry",
            key=CaseSpec(config=shared.geo_job.config_params).geometry_key,
            config=shared.geo_job.config_params,
        )

    def _acquire_slot(self) -> int:
        with self._lock:
            if not self._free_slots:
                raise errors.ReproError("worker started with no free slot")
            return heapq.heappop(self._free_slots)

    def _release_slot(self, slot: int) -> None:
        with self._lock:
            heapq.heappush(self._free_slots, slot)

    def _run_job(self, spec: CaseSpec, shared) -> JobOutcome:
        slot = self._acquire_slot()
        start = self._now()
        # workers carry slot identity and the runtime clock, so spans
        # opened anywhere below (including inside instrumented solver
        # code) land on this campaign's timeline
        with self.tracer.bind(thread=slot, clock=self._now):
            return self._run_attempts(spec, shared, slot, start)

    def _run_attempts(self, spec: CaseSpec, shared, slot: int,
                      start: float) -> JobOutcome:
        try:
            attempts = 0
            try:
                while True:
                    if self._cancelled.is_set():
                        self.events.emit("cancelled", spec.key)
                        return JobOutcome(
                            spec=spec, state="cancelled", attempts=attempts,
                            slot=slot, start=start, end=self._now(),
                            error="fill cancelled",
                        )
                    attempts += 1
                    fault = None
                    if self.chaos is not None:
                        fault = self.chaos.attempt_fault(spec.key, attempts)
                        if fault is not None:
                            self.events.emit(
                                "chaos", spec.key,
                                fault=fault, attempt=attempts,
                            )
                    self.events.emit(
                        "start" if attempts == 1 else "retry_start",
                        spec.key, attempt=attempts, slot=slot,
                    )
                    t_attempt = self._now()
                    try:
                        with self.tracer.span(
                            "fill.case", cat="fill",
                            key=spec.key, attempt=attempts, slot=slot,
                        ):
                            if fault == "crash":
                                raise errors.WorkerCrash(
                                    f"chaos: worker crashed running case "
                                    f"{spec.key} (attempt {attempts})"
                                )
                            if fault == "hang":
                                time.sleep(
                                    self.chaos.hang_seconds(
                                        self.timeout_seconds
                                    )
                                )
                            if fault == "diverge":
                                raise errors.SolverDivergence(
                                    f"chaos: transient divergence in case "
                                    f"{spec.key} (attempt {attempts})"
                                )
                            # SharedGeometry (and friends) are callables
                            # that build lazily; direct submissions may
                            # pass the prepared product itself
                            value = shared() if callable(shared) else shared
                            result = self.runner(spec, value)
                        elapsed = self._now() - t_attempt
                        if (
                            self.timeout_seconds is not None
                            and elapsed > self.timeout_seconds
                        ):
                            raise errors.CaseTimeout(
                                f"attempt took {elapsed:.3f}s > timeout "
                                f"{self.timeout_seconds:.3f}s"
                            )
                    except errors.WorkerCrash:
                        raise  # campaign-fatal: never retried
                    except Exception as exc:
                        if attempts >= self.max_attempts or self._cancelled.is_set():
                            raise errors.CaseExecutionError(
                                spec.key, attempts, repr(exc)
                            ) from exc
                        self.events.emit(
                            "retry", spec.key, attempt=attempts,
                            error=repr(exc),
                        )
                        time.sleep(self.backoff_seconds * attempts)
                        continue
                    self.store.put(result)
                    end = self._now()
                    self.events.emit(
                        "done", spec.key, attempts=attempts,
                        seconds=round(end - t_attempt, 6),
                    )
                    return JobOutcome(
                        spec=spec, state="done", result=result,
                        attempts=attempts, slot=slot, start=start, end=end,
                    )
            except errors.WorkerCrash as exc:
                # a dead node takes the campaign with it: cancel queued
                # work, record the crash, and let run_tree abort — only
                # the checkpoint journal brings the campaign back
                with self._lock:
                    self._abort_reason = str(exc)
                self._aborted.set()
                self.cancel()
                self.events.emit(
                    "crash", spec.key, attempt=attempts, error=str(exc)
                )
                return JobOutcome(
                    spec=spec, state="crashed", attempts=attempts,
                    slot=slot, start=start, end=self._now(), error=str(exc),
                )
            except errors.CaseExecutionError as exc:
                if self.fallback is not None and not self._cancelled.is_set():
                    outcome = self._run_fallback(spec, slot, start, exc)
                    if outcome is not None:
                        return outcome
                self.events.emit(
                    "failed", spec.key, attempts=exc.attempts, error=exc.cause
                )
                return JobOutcome(
                    spec=spec, state="failed", attempts=exc.attempts,
                    slot=slot, start=start, end=self._now(), error=str(exc),
                )
        finally:
            self._release_slot(slot)

    def _run_fallback(self, spec: CaseSpec, slot: int, start: float,
                      primary: errors.CaseExecutionError):
        """The degradation ladder's lower rung: re-run an exhausted case
        on the fallback runner and mark its result degraded.

        Returns the (degraded) done outcome, or None when the fallback
        also failed — the case then surfaces as a plain failure carrying
        the *primary* runner's error.
        """
        self.events.emit(
            "fallback", spec.key,
            attempts=primary.attempts, error=primary.cause,
            fidelity=getattr(self.fallback, "solver_name", "fallback"),
        )
        for attempt in range(1, self.fallback_attempts + 1):
            if self._cancelled.is_set():
                return None
            t_attempt = self._now()
            try:
                with self.tracer.span(
                    "fill.fallback", cat="fill",
                    key=spec.key, attempt=attempt, slot=slot,
                ):
                    # shared=None: the fallback fidelity prepares its own
                    # view of the geometry (the primary's mesh is not its)
                    result = self.fallback(spec, None)
            except Exception as exc:  # noqa - fallback failures downgrade to events
                self.events.emit(
                    "retry", spec.key,
                    attempt=primary.attempts + attempt, error=repr(exc),
                    rung="fallback",
                )
                continue
            result = replace(result, degraded=True)
            self.store.put(result)
            end = self._now()
            self.events.emit(
                "done", spec.key,
                attempts=primary.attempts + attempt,
                seconds=round(end - t_attempt, 6), degraded=True,
            )
            return JobOutcome(
                spec=spec, state="done", result=result,
                attempts=primary.attempts + attempt, slot=slot,
                start=start, end=end, degraded=True,
            )
        return None


class Cart3DCaseRunner:
    """The default runner: real Cart3D solves through the facade.

    ``prepare`` owns what does not depend on the wind — deflected solid,
    mesh, multigrid hierarchy — built once per instance, shared read-only;
    ``__call__`` pays freestream, state and cycles through
    :func:`repro.api.make_cart3d_solver` (lint rule R005).  ``max_inflight``
    is the cases worth running at once: 1 while they are stepped in this
    interpreter, uncapped on ``backend="process"`` (the slot thread only
    waits on pipes).  :class:`FillRuntime` sizes its pool from it, so there
    is no lock here and a queued case has not started.

    A ``config=RuntimeConfig(...)`` with more than one rank runs each
    case through the unified distributed runtime instead
    (:func:`repro.api.make_parallel_cart3d` driven by the config, so
    ``backend="process"`` cases execute on real worker processes).
    """

    solver_name = "cart3d"

    def __init__(
        self,
        geometry,
        *,
        dim: int = 2,
        base_level: int = 4,
        max_level: int = 5,
        mg_levels: int = 3,
        cycles: int = 25,
        tol_orders: float = 4.0,
        converged_orders: float = 2.0,
        geometry_name: str | None = None,
        chaos=None,
        config=None,
    ):
        self.geometry = geometry
        self.dim = dim
        self.base_level = base_level
        self.max_level = max_level
        self.mg_levels = mg_levels
        self.cycles = cycles
        self.tol_orders = tol_orders
        self.converged_orders = converged_orders
        self.geometry_name = geometry_name
        self.chaos = chaos
        self.config = config or RuntimeConfig()
        if self.config.backend != "sim" and self.config.nranks is None:
            raise errors.ConfigurationError(
                "Cart3DCaseRunner sizes the decomposition from the "
                "config; give RuntimeConfig an explicit nranks for "
                f"backend={self.config.backend!r}"
            )
        # historical attributes (cache keys, manifests, callers)
        self.nranks = self.config.nranks if self.config.nranks else 1
        self.overlap = self.config.overlap
        self.backend = self.config.backend
        self.max_inflight = None if self.backend == "process" else 1
        self._deflectable = {c.name for c in geometry.components}

    def describe(self) -> dict:
        """Manifest entry: how to rebuild this runner in a fresh process
        (the resume CLI uses it to reconstruct the campaign)."""
        return {
            "type": "cart3d",
            "geometry": self.geometry_name,
            "tol_orders": self.tol_orders,
            "converged_orders": self.converged_orders,
            **self.settings(),
        }

    def settings(self) -> dict:
        """Solver knobs that belong in the cache key."""
        settings = {
            "dim": self.dim,
            "base_level": self.base_level,
            "max_level": self.max_level,
            "mg_levels": self.mg_levels,
            "cycles": self.cycles,
        }
        # serial runners keep their historical cache keys; the
        # decomposition only enters the key when it is actually used
        if self.nranks != 1:
            settings["nranks"] = self.nranks
            settings["overlap"] = self.overlap
        if self.backend != "sim":
            settings["backend"] = self.backend
        return settings

    def configure(self, config_params: dict):
        """The deflected geometry instance for one config-space point."""
        deflections = {
            k: v for k, v in config_params.items() if k in self._deflectable
        }
        return self.geometry.with_deflections(**deflections)

    def prepare(self, geo_job):
        """``(solid, mesh, (levels, transfers))`` of one instance."""
        from ..mesh.cartesian import adapt_to_geometry
        from ..solvers.cart3d.levels import build_levels, freeze

        solid = self.configure(geo_job.config_params)
        mesh, _ = adapt_to_geometry(
            solid, dim=self.dim, base_level=self.base_level,
            max_level=self.max_level,
        )
        hierarchy = build_levels(solid, mesh=mesh, mg_levels=self.mg_levels)
        freeze(hierarchy)
        return solid, mesh, hierarchy

    def __call__(self, spec: CaseSpec, shared=None) -> CaseResult:
        from .. import api

        if self.chaos is not None and self.chaos.solver_fault(spec.key):
            # sticky per-key divergence (independent of attempt): the
            # retry budget exhausts and the degradation ladder engages
            raise errors.SolverDivergence(
                f"chaos: solver diverged on case {spec.key}"
            )
        solid, mesh, hierarchy = shared if shared is not None else (
            self.configure(spec.config_params), None, None
        )
        wind = spec.wind_params
        solver = api.make_cart3d_solver(
            solid,
            mesh=mesh,
            dim=self.dim,
            base_level=self.base_level,
            max_level=self.max_level,
            mg_levels=self.mg_levels,
            mach=wind.get("mach", 0.5),
            alpha_deg=wind.get("alpha", 0.0),
            beta_deg=wind.get("beta", 0.0),
            hierarchy=hierarchy,
        )
        if self.nranks == 1 and self.backend == "sim":
            solver.solve(ncycles=self.cycles, tol_orders=self.tol_orders)
        else:
            par = api.make_parallel_cart3d(
                solver, self.nranks, config=self.config
            )
            try:
                q_global, residuals = par.solve(
                    self.cycles, cfl=solver.cfl
                )
            finally:
                par.close()
            solver.q = q_global
            solver.history.residuals.extend(residuals)
            # forces come from the final state; per-cycle force traces
            # are a serial-path feature
            solver.history.forces.append(solver.forces())
        return case_result(solver, spec, self.converged_orders)
