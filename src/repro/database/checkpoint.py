"""Journal-backed campaign checkpoints: kill a fill, resume it, lose nothing.

The paper's database fills occupy Columbia nodes for days; related
strong-scaling campaigns (Junqueira-Junior et al., arXiv:2003.08746)
hinge on restartability.  A :class:`CampaignCheckpoint` makes our
:class:`~repro.database.runtime.FillRuntime` campaigns durable the same
way: every :class:`FillEvent` the runtime's :class:`EventLog` emits
is appended to a JSON-lines *journal*, completed cases carry their full
:class:`~repro.solvers.interface.CaseResult` payload, and a one-line
*manifest* records the campaign itself (every case spec, the solver
settings, the slot sizing, and — when the runner can describe itself —
enough to rebuild it).  A killed process therefore leaves a journal from
which :meth:`FillRuntime.resume` (or ``python -m repro.database resume
<journal>``) reconstructs the campaign: completed cases are restored
into the result store and re-submit as cache hits (zero recomputation,
coefficient-identical database), in-flight and cancelled cases re-queue.

Failure tolerance of the journal itself mirrors the
:class:`~repro.database.resultstore.ResultStore` contract: a truncated
*final* line (crash mid-append) is ignored with one warning — that
case simply re-runs — while corruption anywhere else raises
:class:`~repro.errors.CheckpointCorrupt`, because silently skipping
interior records would fabricate a different campaign.

The journal is append-only and single-writer; :meth:`CampaignCheckpoint.
record` is serialized by a lock because fill workers emit concurrently.
This module is the journal format's only writer and only reader: the
event record, the manifest (:func:`campaign_manifest`) and the service's
``"query"`` payload (:func:`query_info`) are built here and decoded by
:class:`CheckpointState`.
"""

from __future__ import annotations

import json
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import CheckpointCorrupt, ConfigurationError
from ..solvers.interface import CaseResult, CaseSpec
from ..telemetry.spans import span as _span
from .jobs import FlowJob, GeometryJob

#: Journal format version (bumped on incompatible record changes).
JOURNAL_VERSION = 1

#: Event kinds that end a case's life in the journal.
TERMINAL_KINDS = ("done", "failed", "cancelled", "crash")


@dataclass(frozen=True)
class FillEvent:
    """One entry of the structured progress stream.

    ``t`` is the raw runtime-clock stamp; ``vt`` is the strictly
    monotonic virtual timestamp the :class:`EventLog` assigns under its
    lock, so a stream is replayable into the telemetry timeline model
    (:func:`repro.telemetry.add_fill_events`) with a total order even
    when two workers emit within the clock's resolution.  ``vt`` orders
    one session's stream only: a resumed session's clock restarts.
    """

    seq: int
    t: float  # seconds since the runtime's epoch
    kind: str  # submit|cache_hit|geometry|start|retry|done|failed|cancelled|
    #            cancel|chaos|crash|abort|fallback|resume|query
    key: str  # case content key ("" for runtime-level events)
    info: dict = field(default_factory=dict)
    vt: float = 0.0  # strictly monotonic virtual timestamp


class EventLog:
    """Thread-safe, monotonically sequenced event stream.

    It stamps each event (``seq``, ``vt``) and passes it on; it keeps
    none.  An event lives in the journal (via ``on_event``), in the list
    of every :meth:`collect` open when it was emitted, or in the
    caller's own subscriber — a long-running session does not grow with
    its stream.
    """

    def __init__(self, clock, on_event=None):
        self._lock = threading.Lock()
        self._clock = clock
        self._on_event = on_event
        self._seq = 0
        self._vt = 0.0
        self._collectors: dict[int, list[FillEvent]] = {}

    def emit(self, kind: str, key: str = "", **info) -> FillEvent:
        with self._lock:
            t = self._clock()
            self._vt = max(t, self._vt + 1e-9)
            event = FillEvent(
                seq=self._seq, t=t, kind=kind,
                key=key, info=info, vt=self._vt,
            )
            self._seq += 1
            # under the lock that assigns seq: every collected list is
            # complete and in seq order
            for events in self._collectors.values():
                events.append(event)
        if self._on_event is not None:
            self._on_event(event)  # outside the lock: callbacks may re-emit
        return event

    @contextmanager
    def collect(self):
        """Yield a list that receives every event emitted until the
        block exits (one campaign's events, in ``seq`` order)."""
        events: list[FillEvent] = []
        with self._lock:
            self._collectors[id(events)] = events
        try:
            yield events
        finally:
            with self._lock:
                del self._collectors[id(events)]


def campaign_manifest(runtime, specs, solver: str, settings: dict) -> dict:
    """Enough journal to rebuild ``runtime``'s campaign of ``specs`` in a
    fresh process: the cases, their solver identity, the slot sizing,
    the result-store path and the runner's own ``describe()``."""
    describe = getattr(runtime.runner, "describe", None)
    return {
        "solver": solver,
        "settings": dict(settings),
        "nnodes": runtime.nnodes,
        "cpus_per_case": runtime.cpus_per_case,
        "worker_threads": runtime.workers,
        "store": str(runtime.store.path) if runtime.store.path else None,
        "runner": describe() if describe is not None else None,
        "cases": [
            {"config": spec.config_params, "wind": spec.wind_params}
            for spec in specs
        ],
    }


def query_info(spec: CaseSpec) -> dict:
    """Payload of a service ``"query"`` event: the full spec, so the
    journal alone rebuilds an accepted query (:meth:`CheckpointState.
    queries`)."""
    return {
        "solver": spec.solver,
        "config": spec.config_params,
        "wind": spec.wind_params,
        "settings": dict(spec.settings),
    }


class CampaignCheckpoint:
    """Append-only journal of one fill campaign.

    Pass one to ``FillRuntime(checkpoint=...)``; the runtime writes the
    manifest when a campaign starts and streams every event (plus each
    completed case's result) through :meth:`record`.  Load the other end
    with :meth:`load`.

    Parameters
    ----------
    path:
        The journal file.  Appending to an existing journal continues
        the same campaign — exactly what a resume does.
    chaos:
        Optional :class:`~repro.database.chaos.ChaosPolicy`; when its
        ``truncate_rate`` fires for a result append, the line is torn
        mid-write and the journal goes silent from then on (the
        simulated process died holding the file).
    """

    def __init__(self, path: str | Path, chaos=None):
        self.path = Path(path)
        self.chaos = chaos
        self._lock = threading.Lock()
        self._dead = False
        self._has_manifest = self.path.exists() and any(
            line.startswith('{"record": "manifest"')
            for line in self.path.read_text().splitlines()
        )

    @property
    def has_manifest(self) -> bool:
        return self._has_manifest

    def _append(self, record: dict, truncate: bool = False) -> None:
        line = json.dumps(record, default=str)
        if truncate:
            # torn write: half the payload, no newline, journal dead
            line = line[: max(1, len(line) // 2)]
            self._dead = True
            with self.path.open("a") as fh:
                fh.write(line)
            return
        with self.path.open("a") as fh:
            fh.write(line + "\n")

    def write_manifest(self, campaign: dict) -> bool:
        """Record the campaign identity (first writer wins; a resume
        appending to an existing journal keeps the original manifest)."""
        with self._lock:
            if self._has_manifest or self._dead:
                return False
            self._append({"record": "manifest", "version": JOURNAL_VERSION,
                          "campaign": campaign})
            self._has_manifest = True
            return True

    def record(self, event: FillEvent,
               result: CaseResult | None = None) -> None:
        """Append one fill event (and, for completions, its result)."""
        with self._lock:
            if self._dead:
                return
            self._append({
                "record": "event", "seq": event.seq, "t": event.t,
                "vt": event.vt, "kind": event.kind, "key": event.key,
                "info": dict(event.info),
            })
            if result is not None:
                torn = (
                    self.chaos is not None
                    and self.chaos.truncate_journal(event.key)
                )
                self._append({"record": "result", "key": result.spec.key,
                              "result": result.to_json()}, truncate=torn)

    @staticmethod
    def load(path: str | Path) -> "CheckpointState":
        """Parse a journal into a :class:`CheckpointState` snapshot."""
        path = Path(path)
        if not path.exists():
            raise ConfigurationError(f"no such checkpoint journal: {path}")
        manifest: dict | None = None
        events: list[dict] = []
        results: dict[str, CaseResult] = {}
        with _span("checkpoint.load", cat="checkpoint", path=str(path)):
            lines = path.read_text().splitlines()
            for lineno, line in enumerate(lines, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    if lineno == len(lines):
                        warnings.warn(
                            f"ignoring truncated final journal line in "
                            f"{path} (crash mid-write); the affected case "
                            f"will re-run on resume",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                        continue
                    raise CheckpointCorrupt(
                        path, lineno, f"unparseable journal line: {exc.msg}"
                    ) from exc
                kind = record.get("record")
                if kind == "manifest":
                    if manifest is None:  # first manifest wins
                        manifest = record.get("campaign", {})
                elif kind == "event":
                    events.append(record)
                elif kind == "result":
                    result = CaseResult.from_json(record["result"])
                    results[record["key"]] = result
                # unknown record kinds are tolerated (forward compat)
        return CheckpointState(
            path=path, manifest=manifest, events=events, results=results
        )


class CheckpointState:
    """Decoded snapshot of a campaign journal.

    Classifies every case key the journal mentions by its *last* known
    state; the sets drive resume: ``completed`` cases restore straight
    into the result store (:meth:`restore`), everything else re-queues.
    """

    def __init__(self, path: Path, manifest: dict | None,
                 events: list[dict], results: dict[str, CaseResult]):
        self.path = path
        self.manifest = manifest
        self.events = events
        self.results = results
        last: dict[str, str] = {}
        # journal (append) order, not vt: every session's clock restarts
        # near 0, so a resumed session's events would sort before the
        # stale ones of the session it resumed; per key, append order
        # is causal
        for ev in events:
            # geometry events carry the geometry-instance key, not a
            # case key: they must not register as in-flight cases; a
            # cache hit changes no case's state
            if ev["key"] and ev["kind"] not in ("geometry", "cache_hit"):
                last[ev["key"]] = ev["kind"]
        self._last = last

    @property
    def completed(self) -> set:
        """Cases finished *and* whose result survived the journal (a
        ``done`` whose result append was torn must re-run)."""
        return {
            k for k, kind in self._last.items()
            if kind == "done" and k in self.results
        }

    @property
    def failed(self) -> set:
        return {k for k, kind in self._last.items() if kind == "failed"}

    @property
    def in_flight(self) -> set:
        """Cases the journal saw start (or retry) without a terminal
        event — killed mid-solve; they re-queue on resume."""
        terminal = set(TERMINAL_KINDS)
        return {
            k for k, kind in self._last.items()
            if kind not in terminal and k not in self.completed
        }

    @property
    def interrupted(self) -> set:
        """Everything that must re-run: in-flight, crashed, cancelled,
        failed, and completions with torn results."""
        return {k for k in self._last if k not in self.completed}

    def restore(self, store) -> int:
        """Put every completed case's journaled result into ``store``
        (skipping those it already holds); returns how many it put."""
        restored = 0
        for key in self.completed:
            if store.get(key) is None:
                store.put(self.results[key])
                restored += 1
        return restored

    def queries(self) -> dict[str, CaseSpec]:
        """Every service query the journal accepted, by case key, rebuilt
        from its ``"query"`` event (:func:`query_info`)."""
        accepted: dict[str, CaseSpec] = {}
        for event in self.events:
            if event.get("kind") == "query":
                info = event.get("info", {})
                spec = CaseSpec(
                    config=info.get("config", {}),
                    wind=info.get("wind", {}),
                    solver=info.get("solver", "cart3d"),
                    settings=info.get("settings", {}),
                )
                accepted[spec.key] = spec
        return accepted

    def campaign(self, tree=None) -> tuple:
        """``(tree, solver, settings)`` to re-run: the manifest's, with
        ``tree`` (when given) in place of its job tree.  Without a
        manifest ``tree`` is required and the runtime's defaults apply."""
        if self.manifest is None:
            if tree is None:
                raise ConfigurationError(
                    f"journal {self.path} has no manifest; pass the job "
                    f"tree explicitly to resume"
                )
            return tree, None, None
        return (
            tree if tree is not None else self.job_tree(),
            self.manifest.get("solver"),
            self.manifest.get("settings"),
        )

    def rerun(self) -> dict:
        """What the resume CLI rebuilds a campaign from: the runner's
        ``describe()`` entry (``"runner"``, None when it could not
        describe itself), the result-store path (``"store"``) and the
        slot sizing (``"nnodes"``, ``"cpus_per_case"``)."""
        manifest = self.manifest or {}
        return {
            "runner": manifest.get("runner"),
            "store": manifest.get("store"),
            "nnodes": manifest.get("nnodes", 1),
            "cpus_per_case": manifest.get("cpus_per_case", 32),
        }

    def _cases(self) -> list:
        if self.manifest is None:
            raise CheckpointCorrupt(
                self.path, 0, "journal has no campaign manifest"
            )
        return self.manifest.get("cases", [])

    def case_specs(self) -> list[CaseSpec]:
        """Every case of the campaign, rebuilt from the manifest."""
        cases = self._cases()
        solver = self.manifest.get("solver", "cart3d")
        settings = self.manifest.get("settings", {})
        return [
            CaseSpec(
                config=case["config"], wind=case["wind"],
                solver=solver, settings=settings,
            )
            for case in cases
        ]

    def job_tree(self) -> list[GeometryJob]:
        """The campaign's :func:`build_job_tree`-shaped hierarchy,
        rebuilt from the manifest (geometry instances top, wind below).
        """
        tree: list[GeometryJob] = []
        by_config: dict[tuple, GeometryJob] = {}
        for case in self._cases():
            config = dict(case["config"])
            key = tuple(sorted(config.items()))
            geo = by_config.get(key)
            if geo is None:
                geo = GeometryJob(config_params=config)
                by_config[key] = geo
                tree.append(geo)
            geo.flow_jobs.append(
                FlowJob(config_params=config, wind_params=dict(case["wind"]))
            )
        return tree

    def summary(self) -> dict:
        """Counters for the resume CLI's status table."""
        cases = len(self.manifest.get("cases", [])) if self.manifest else 0
        return {
            "cases": cases,
            "completed": len(self.completed),
            "failed": len(self.failed),
            "in flight": len(self.in_flight),
            "events": len(self.events),
            "results": len(self.results),
        }
