"""Executing fill runtime: the paper's §IV job control, actually run.

A :class:`FillRuntime` consumes a :func:`build_job_tree` hierarchy and
really runs the cases on ``min(slots, runner.max_inflight)`` threads
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
  :attr:`CaseSpec.key`; re-submitting an identical case while it is in
  flight shares its execution, and once it has finished the store is
  the only record of it: a re-submission is a store hit, in the same
  session or from a persisted store, while a failed case runs again;
* **bounded retry with backoff and per-attempt timeouts** — transient
  failures re-run up to ``max_attempts`` times; the timeout is
  cooperative (an attempt that outlives its budget is discarded and
  retried — the runtime cannot preempt a running solve, only refuse its
  result, as a node-level job killer would);
* **cancellation** — :meth:`FillRuntime.cancel` stops queued jobs and
  aborts remaining retries at the next attempt boundary;
* **a structured event stream** — every submit/start/retry/done/failed/
  cache-hit is a :class:`~repro.database.checkpoint.FillEvent`, kept
  only by the journal, the ``FillReport`` of the ``run_tree`` campaign
  that emitted it and the ``on_event`` subscriber;
  :func:`repro.perf.report.fill_summary_table` renders the per-run
  summaries side by side;
* **durability** — with a :class:`~repro.database.checkpoint.
  CampaignCheckpoint` attached, every event (and every completed case's
  result) is journaled, in ``seq`` order; a campaign killed mid-run — including by a
  :class:`~repro.database.chaos.ChaosPolicy`-injected worker crash —
  resumes via :meth:`FillRuntime.resume` with zero recomputation of
  completed cases and a coefficient-identical database;
* **a graceful-degradation ladder** — when a case exhausts its retry
  budget on the primary (high-fidelity) runner and a ``fallback`` runner
  is configured, the case re-runs once at the lower fidelity and its
  record is marked *degraded* rather than failing the campaign.

What a caller holds (:class:`~repro.database.handles.CaseHandle`,
``JobOutcome``, ``FillReport``) lives in :mod:`repro.database.handles`,
the journal format in :mod:`repro.database.checkpoint`, the default
runner in :mod:`repro.database.runner`.  Errors raised here live in the
rooted :mod:`repro.errors` taxonomy.
"""

from __future__ import annotations

import heapq
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from .. import errors
from ..machine.topology import node_slots
from ..solvers.interface import CaseResult, CaseSpec
from ..telemetry.spans import EpochClock, get_tracer
from ..telemetry.spans import span as _span
from .checkpoint import (
    CampaignCheckpoint,
    CheckpointState,
    EventLog,
    FillEvent,
    campaign_manifest,
)
from .handles import CaseHandle, FillReport, JobOutcome
from .resultstore import ResultStore


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

    def __call__(self):
        with self._lock:
            if not self._built:
                with _span("fill.geometry", cat="fill"):
                    self._value = self._builder(self.geo_job)
                self._built = True
                if self._on_built is not None:
                    self._on_built(self)
        return self._value


class FillRuntime:
    """Bounded-concurrency executor for database-fill case submissions.

    The worker threads bind the tracer that is global when the runtime
    is built (``get_tracer()``: the one :func:`repro.telemetry.capture`
    installs, else a disabled no-op) to slot identity and the runtime
    clock, so every case attempt is a span on the campaign timeline.

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
        The durability contract.  Without a ``store`` the runtime warns
        (an ephemeral campaign); ``durable=False`` is the documented
        escape hatch ("I know this campaign evaporates with the
        process"), and ``durable=True`` *requires* persistence — a
        path-backed store or a checkpoint journal — failing fast
        otherwise.
    max_attempts, backoff_seconds:
        Bounded retry: attempt ``n`` failures sleep
        ``backoff_seconds * n`` before re-running, up to ``max_attempts``.
    timeout_seconds:
        Cooperative per-attempt budget (see module docstring).
    on_event:
        Optional callback invoked with every
        :class:`~repro.database.checkpoint.FillEvent`: the one live
        view of the stream (the runtime keeps no event history).
    chaos:
        Optional :class:`~repro.database.chaos.ChaosPolicy` injecting
        deterministic faults into case attempts (None = no-op).
    fallback:
        Optional lower-fidelity runner (same ``runner(spec, shared)``
        signature) forming the graceful-degradation ladder: a case that
        exhausts its retry budget on the primary runner re-runs here
        once (with ``shared=None`` — the fallback fidelity builds its
        own view of the geometry) and its result is marked ``degraded``.
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
        chaos=None,
        fallback=None,
        checkpoint: CampaignCheckpoint | None = None,
    ):
        if max_attempts < 1:
            raise errors.ConfigurationError(
                f"max_attempts must be >= 1, got {max_attempts}"
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
        self.tracer = get_tracer()
        self.chaos = chaos
        self.fallback = fallback
        self.checkpoint = checkpoint
        self._user_on_event = on_event
        self._clock = EpochClock()
        self.events = EventLog(self._now, self._dispatch_event,
                               journal=self._journal_event)
        cap = getattr(runner, "max_inflight", None)
        self.workers = min(self.slots, cap or self.slots)
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="fill"
        )
        # RLock: on_event callbacks fired from submit() may legally
        # re-enter the runtime (e.g. cancel or chase with a new submit)
        self._lock = threading.RLock()
        # in-flight cases only: a finished case's record is the store
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

    def _journal_event(self, event: FillEvent) -> None:
        """Journal one event (a completion with its result) under the
        event log's ``seq`` lock, before any subscriber sees it — a
        crash after journaling loses nothing."""
        if self.checkpoint is not None:
            done = event.kind == "done"
            self.checkpoint.record(
                event, result=self.store.get(event.key) if done else None
            )

    def _dispatch_event(self, event: FillEvent) -> None:
        """The live subscriber, outside the ``seq`` lock."""
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
        """Submit one case.  A twin of an in-flight case shares its
        execution and a stored case is a store hit (both ``hit``); any
        other case — a failed one included — runs."""
        if self.closed:
            raise errors.RuntimeClosed("runtime is closed")
        with self._lock:
            primary = self._handles.get(spec.key)
            if primary is not None:
                self.events.emit("cache_hit", spec.key, source="session")
                twin = CaseHandle(spec, hit=True)
                twin._future = primary._future
                return twin
            cached = self.store.get(spec.key)
            if cached is not None:
                hit = self.events.emit("cache_hit", spec.key, source="store")
                handle = CaseHandle(spec, hit=True)
                handle._outcome = JobOutcome(
                    spec=spec, state="cached", result=cached,
                    attempts=0, start=hit.t, end=hit.t,
                )
                return handle
            handle = CaseHandle(spec)
            self.events.emit("submit", spec.key)
            # the job's finally pops the handle under this same lock, so
            # a racing submit sees the handle or the stored result
            handle._future = self._pool.submit(self._run_job, spec, shared)
            self._handles[spec.key] = handle
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
    ) -> FillReport:
        """Execute a :func:`build_job_tree` hierarchy end to end.

        ``prepare(geo_job)`` builds the per-instance shared geometry
        (defaults to the runner's ``prepare`` attribute when present);
        ``settings`` are stamped onto every :class:`CaseSpec` so the
        cache key covers solver configuration.
        """
        prepare = prepare if prepare is not None else getattr(
            self.runner, "prepare", None
        )
        if solver is None:
            solver = getattr(self.runner, "solver_name", "cart3d")
        if settings is None:
            settings_fn = getattr(self.runner, "settings", None)
            settings = settings_fn() if settings_fn is not None else {}
        builds0 = self._geometry_builds
        t0 = self._now()
        # the report's events are this campaign's own: collected until
        # the block exits, after the abort event of a crashed campaign
        with self.events.collect() as events:
            jobs = []
            for geo_job in tree:
                shared = None
                if prepare is not None:
                    shared = SharedGeometry(
                        geo_job, prepare, self._on_geometry
                    )
                for flow_job in geo_job.flow_jobs:
                    spec = CaseSpec.from_flow_job(
                        flow_job, solver=solver, **settings
                    )
                    jobs.append((spec, shared))
            journal = self.checkpoint
            if journal is not None and not journal.has_manifest:
                # manifest first: a campaign that dies on its very first
                # case still leaves a journal that can rebuild the job tree
                journal.write_manifest(campaign_manifest(
                    self, [spec for spec, _ in jobs], solver, settings
                ))
            handles = [
                self.submit(spec, shared=shared) for spec, shared in jobs
            ]
            for handle in handles:
                handle.outcome()
            report = FillReport.tally(
                handles, events,
                slots=self.slots, workers=self.workers,
                meshes_built=self._geometry_builds - builds0,
                wall_seconds=self._now() - t0,
            )
            if self._aborted.is_set():
                reason = self._abort_reason or "worker crash"
                self.events.emit("abort", reason=reason)
                raise errors.CampaignAborted(reason, report=report)
        return report

    def resume(self, tree=None, *, checkpoint=None) -> FillReport:
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
        state = source if isinstance(source, CheckpointState) else (
            CampaignCheckpoint.load(getattr(source, "path", source))
        )
        with self.tracer.span(
            "fill.restore", cat="checkpoint",
            path=str(state.path), completed=len(state.completed),
        ):
            restored = state.restore(self.store)
        self.events.emit(
            "resume",
            path=str(state.path), restored=restored,
            completed=len(state.completed),
            interrupted=len(state.interrupted),
        )
        tree, solver, settings = state.campaign(tree)
        try:
            report = self.run_tree(tree, solver=solver, settings=settings)
        except errors.CampaignAborted as exc:
            if exc.report is not None:
                exc.report.restored = restored
            raise
        report.restored = restored
        return report

    # -- execution -----------------------------------------------------------

    def _on_geometry(self, shared: SharedGeometry) -> None:
        with self._lock:
            self._geometry_builds += 1
        self.events.emit(
            "geometry",
            key=CaseSpec(config=shared.geo_job.config_params).geometry_key,
            config=shared.geo_job.config_params,
        )

    def _run_job(self, spec: CaseSpec, shared) -> JobOutcome:
        with self._lock:  # workers <= slots: one is always free
            slot = heapq.heappop(self._free_slots)
        start = self._now()
        try:
            # workers carry slot identity and the runtime clock, so spans
            # opened anywhere below (including inside instrumented solver
            # code) land on this campaign's timeline
            with self.tracer.bind(thread=slot, clock=self._now):
                return self._run_attempts(spec, shared, slot, start)
        finally:
            # after store.put: from here on a submit of this key is a
            # store hit (or, had the case failed, a fresh run)
            with self._lock:
                self._handles.pop(spec.key, None)
                heapq.heappush(self._free_slots, slot)

    def _run_attempts(self, spec: CaseSpec, shared, slot: int,
                      start: float) -> JobOutcome:
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
                            "chaos", spec.key, fault=fault, attempt=attempts,
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
                        if fault is not None:
                            self.chaos.strike(
                                fault, spec.key, attempts,
                                self.timeout_seconds,
                            )
                        # SharedGeometry (and friends) are callables that
                        # build lazily; direct submissions may pass the
                        # prepared product itself
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
                        "retry", spec.key, attempt=attempts, error=repr(exc),
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
            # a dead node takes the campaign with it: cancel queued work,
            # record the crash, and let run_tree abort — only the
            # checkpoint journal brings the campaign back
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

    def _run_fallback(self, spec: CaseSpec, slot: int, start: float,
                      primary: errors.CaseExecutionError):
        """The degradation ladder's lower rung: re-run an exhausted case
        once on the fallback runner and mark its result degraded.

        Returns the (degraded) done outcome, or None when the fallback
        also failed — the case then surfaces as a plain failure carrying
        the *primary* runner's error.
        """
        self.events.emit(
            "fallback", spec.key,
            attempts=primary.attempts, error=primary.cause,
            fidelity=getattr(self.fallback, "solver_name", "fallback"),
        )
        attempts = primary.attempts + 1
        t_attempt = self._now()
        try:
            with self.tracer.span(
                "fill.fallback", cat="fill",
                key=spec.key, attempt=1, slot=slot,
            ):
                # shared=None: the fallback fidelity prepares its own
                # view of the geometry (the primary's mesh is not its)
                result = self.fallback(spec, None)
        except Exception as exc:  # noqa - fallback failures downgrade to events
            self.events.emit(
                "retry", spec.key,
                attempt=attempts, error=repr(exc), rung="fallback",
            )
            return None
        result = replace(result, degraded=True)
        self.store.put(result)
        end = self._now()
        self.events.emit(
            "done", spec.key, attempts=attempts,
            seconds=round(end - t_attempt, 6), degraded=True,
        )
        return JobOutcome(
            spec=spec, state="done", result=result, attempts=attempts,
            slot=slot, start=start, end=end, degraded=True,
        )
