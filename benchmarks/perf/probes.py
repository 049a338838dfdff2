"""Benchmark-owned probes: spans, the ``ProbeEngine`` proxy, layer timers.

Every layer is measured from outside — nothing here edits ``src/repro``.
The traced run attaches these probes to public attach points
(``solver.engine``, the distributed kernels adapter's ``engine``, the
level-0 exchange plans) and times direct calls into each layer's public
functions.  A probe whose attach point has moved reports ``None`` (JSON
``null``) with a warning and the run carries on: later PRs may reshape a
layer without being able to edit this directory.

Wall attribution never comes from ``repro.api.capture()`` on the
``sim``/``hybrid`` backends: the driver binds the tracer to
``comm.clock``, which is *virtual* time there (README, finding 1).
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
import warnings
from contextlib import contextmanager

#: the hot primitives of the ``repro.kernels`` engine contract
PRIMITIVES = (
    "scatter_add", "euler_jacobian", "edge_jacobians", "block_solve",
    "block_factor", "thomas", "rk_update",
)


def median(values) -> float:
    return float(statistics.median(values))


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))


def timed(fn, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def per_call(fn, calls: int, repeats: int = 5) -> float:
    """Median over ``repeats`` of the mean wall of ``calls`` calls."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls)
    return median(samples)


class SpeedProbe:
    """How fast this machine is right now: the wall of a fixed ~10 ms
    piece of work, timed just before and just after every sample.

    The container is a few cores of a shared host whose speed moves by
    10-40% for minutes at a time, CPU time moving with wall (README,
    "Speed scaling").  Every end-to-end timing is therefore scaled to a
    reference speed: ``wall * REF_S / (mean of the two probe walls
    around it)``.  The work is plain numpy and Python of the kinds the
    stack spends its time in (scatter by ``bincount``, small block
    solves, short element-wise chains, interpreter dispatch, one
    streaming pass); it is independent of ``--seed`` and calls nothing
    from ``repro``, so no change to the program can move it.
    """

    #: wall of one probe on this container while the host is quiet; at
    #: that speed a scaled time equals the raw one
    REF_S = 0.0100
    #: a probe older than this no longer describes "just before"
    FRESH_S = 0.05
    #: a call this long gets the median of three probes after it, not
    #: one: few such calls fit a run, so each scale has to be quieter
    LONG_S = 1.0

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._index = rng.integers(0, 3000, 20000)
        self._weights = rng.random((20000, 6))
        self._blocks = rng.random((3000, 6, 6)) + 6.0 * np.eye(6)
        self._rhs = rng.random((3000, 6, 1))
        self._state = rng.random((3000, 6))
        self._stream = rng.random(1_000_000)
        self.walls: list = []
        self.raw_s = self.scaled_s = 0.0
        self._last = (0.0, -1.0)         # (probe wall, when)
        self._point(3)                   # warms caches and allocator

    def sample(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        for col in range(6):
            np.bincount(self._index, weights=self._weights[:, col],
                        minlength=3000)
        self._blocks @ np.linalg.solve(self._blocks, self._rhs)
        a = self._state
        for _ in range(100):
            a = np.sqrt(a * a + 0.5) - 0.1 * self._state
        s = 0.0
        for i in range(30000):
            s += (i % 7) * 0.5
        (self._stream * 1.0001 + 0.5).sum()
        wall = time.perf_counter() - t0
        self.walls.append(wall)
        return wall

    def _point(self, samples: int) -> float:
        """The probe wall now: the median of ``samples`` fresh ones."""
        wall = median(self.sample() for _ in range(samples))
        self._last = (wall, time.perf_counter())
        return wall

    def around(self, fn, *args, **kwargs):
        """``(raw seconds, scale, result)`` of one call, ``scale`` being
        ``REF_S`` over the mean probe wall before and after it."""
        before, when = self._last
        if time.perf_counter() - when > self.FRESH_S:
            before = self._point(3)
        dt, out = timed(fn, *args, **kwargs)
        after = self._point(3 if dt >= self.LONG_S else 1)
        scale = self.REF_S / (0.5 * (before + after))
        self.raw_s += dt
        self.scaled_s += dt * scale
        return dt, scale, out

    def timed(self, fn, *args, **kwargs):
        """``(scaled seconds, result)`` of one call."""
        dt, scale, out = self.around(fn, *args, **kwargs)
        return dt * scale, out


def guarded(name: str, fn, *args, **kwargs):
    """Run one probe; a missing attach point yields ``None`` + a warning.

    Only the exceptions a moved/renamed attach point raises are caught —
    a probe that is *wrong* should still fail loudly.
    """
    try:
        return fn(*args, **kwargs)
    except (AttributeError, ImportError, KeyError, TypeError) as exc:
        warnings.warn(
            f"probe {name}: attach point missing ({exc!r}); reporting null",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


class Recorder:
    """In-memory span store: name, start, end, parent, workload id.

    Spans stay in memory and are written once by :meth:`write`.  Safe to
    record from the SimMPI rank threads: ids come from one atomic
    counter, the open-span stack is per thread.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: dict[int, list] = {}
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        sid = next(self._ids)
        record = [name, time.perf_counter(), None,
                  stack[-1] if stack else None, attrs]
        self.spans[sid] = record
        stack.append(sid)
        try:
            yield record
        finally:
            stack.pop()
            record[2] = time.perf_counter()

    def leaf(self, name: str, t0: float, t1: float, **attrs) -> None:
        """Record an already-timed childless span (the hot-path form)."""
        stack = self._stack()
        self.spans[next(self._ids)] = [
            name, t0, t1, stack[-1] if stack else None, attrs,
        ]

    def totals(self, prefix: str = "") -> dict:
        """``{name: (total seconds, calls)}`` of spans under ``prefix``."""
        out: dict[str, list] = {}
        for name, t0, t1, _parent, _attrs in self.spans.values():
            if t1 is None or not name.startswith(prefix):
                continue
            row = out.setdefault(name, [0.0, 0])
            row[0] += t1 - t0
            row[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def attr_total(self, prefix: str, key: str) -> float:
        return float(sum(
            attrs.get(key, 0) for name, _t0, _t1, _p, attrs
            in self.spans.values() if name.startswith(prefix)
        ))

    def self_times(self) -> dict:
        """``{span id: duration - time covered by child spans}``."""
        child = dict.fromkeys(self.spans, 0.0)
        for _name, t0, t1, parent, _attrs in self.spans.values():
            if parent is not None and t1 is not None:
                child[parent] += t1 - t0
        return {
            sid: (rec[2] - rec[1]) - child[sid]
            for sid, rec in self.spans.items() if rec[2] is not None
        }

    def write(self, path) -> None:
        self_time = self.self_times()
        rows = [
            {"id": sid, "name": rec[0], "start": rec[1], "end": rec[2],
             "parent": rec[3], "workload": self.workload,
             "self_s": self_time.get(sid), **rec[4]}
            for sid, rec in sorted(self.spans.items())
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"workload": self.workload,
                                    "spans": rows}))


def _nbytes(obj) -> int:
    """Bytes of every ndarray reachable through tuples/lists (computed
    from array sizes, not measured traffic)."""
    size = getattr(obj, "nbytes", None)
    if size is not None:
        return int(size)
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(item) for item in obj)
    return 0


class _ProbeFactor:
    """A frozen block factor whose solves bill to ``kernels.block_factor``."""

    def __init__(self, inner, rec: Recorder, clock):
        self._inner = inner
        self._rec = rec
        self._clock = clock

    def solve(self, rhs):
        t0 = self._clock()
        out = self._inner.solve(rhs)
        self._rec.leaf("kernels.block_factor", t0, self._clock(),
                       nbytes=_nbytes(rhs) + _nbytes(out))
        return out

    def __getattr__(self, name):
        return getattr(self._inner, name)


class ProbeEngine:
    """Delegating proxy over a resolved kernel engine.

    Records one span per primitive call with the byte sizes of its
    array arguments and results.  Anything that is not one of the seven
    primitives passes straight through to the wrapped engine.

    ``clock`` times the calls.  Under the ``sim`` backend the ranks are
    threads of one process that hand the interpreter lock back and
    forth, so a wall-clock span there also covers the time other ranks
    ran; pass ``time.thread_time`` and the spans are this thread's CPU
    seconds, which add up across ranks.
    """

    def __init__(self, inner, rec: Recorder, clock=time.perf_counter):
        self._inner = inner
        self._rec = rec
        self._clock = clock
        for prim in PRIMITIVES:
            fn = getattr(inner, prim, None)
            if fn is None:
                warnings.warn(
                    f"probe kernels.{prim}: engine "
                    f"{type(inner).__name__} has no such primitive",
                    RuntimeWarning, stacklevel=2,
                )
                continue
            setattr(self, prim, self._wrap(prim, fn))

    def _wrap(self, prim: str, fn):
        rec, clock = self._rec, self._clock
        label = f"kernels.{prim}"
        factor = prim == "block_factor"

        def call(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            t1 = clock()
            rec.leaf(label, t0, t1, nbytes=_nbytes(args) + _nbytes(out))
            return _ProbeFactor(out, rec, clock) if factor else out

        return call

    def __getattr__(self, name):
        return getattr(self._inner, name)


def kernel_rows(rec: Recorder, ncycles: int, cycle_s: float,
                flops_per_cycle: float | None) -> dict:
    """Per-cycle kernel split of ``ncycles`` probed cycles."""
    totals = rec.totals("kernels.")
    rows: dict = {}
    total = 0.0
    for prim in PRIMITIVES:
        seconds, calls = totals.get(f"kernels.{prim}", (0.0, 0))
        rows[f"kernels.{prim}_s"] = seconds / ncycles
        rows[f"kernels.{prim}_calls"] = calls / ncycles
        total += seconds / ncycles
    nbytes = rec.attr_total("kernels.", "nbytes") / ncycles
    rows["kernels.total_s"] = total
    rows["kernels.share"] = total / cycle_s
    rows["kernels.bytes_per_cycle_computed"] = nbytes
    rows["kernels.flops_per_cycle"] = flops_per_cycle
    if flops_per_cycle is not None:
        rows["kernels.flops_per_byte_computed"] = (
            flops_per_cycle / nbytes if nbytes else 0.0
        )
        rows["kernels.gflops"] = flops_per_cycle / cycle_s / 1.0e9
    else:
        rows["kernels.flops_per_byte_computed"] = None
        rows["kernels.gflops"] = None
    rows["solvers.self_s"] = cycle_s - total
    return rows


# -- telemetry ---------------------------------------------------------------

def telemetry_span_rows(api) -> dict:
    """Cost of one ``repro.api.span`` with the tracer off and on."""
    def one_span():
        with api.span("perf.probe"):
            pass

    disabled = per_call(one_span, 20000)
    with api.capture():
        enabled = per_call(one_span, 5000)
    return {
        "telemetry.span_disabled_ns": disabled * 1.0e9,
        "telemetry.span_enabled_ns": enabled * 1.0e9,
    }


# -- solvers: the paper's per-level split, by direct public calls ------------

def nsu3d_level_rows(solver) -> dict:
    """One public ``smooth``/``residual``/restrict call per level."""
    import numpy as np

    from repro.kernels import use_engine
    from repro.solvers import nsu3d

    rows = {}
    with use_engine(solver.engine):
        states = []
        for level, ctx in enumerate(solver.contexts):
            q = nsu3d.apply_wall_bc(
                ctx, np.tile(solver.qinf, (ctx.npoints, 1))
            )
            states.append(q)
            rows[f"solvers.smooth_l{level}_s"] = per_call(
                lambda ctx=ctx, q=q: nsu3d.smooth(
                    ctx, q, solver.qinf, cfl=solver.cfl, nsteps=1,
                    order2=solver.order2, turbulence=solver.turbulence,
                ), 1, repeats=3,
            )
        fine = solver.contexts[0]
        rows["solvers.residual_l0_s"] = per_call(
            lambda: nsu3d.residual(
                fine, states[0], solver.qinf, order2=solver.order2,
                turbulence=solver.turbulence,
            ), 1, repeats=3,
        )
        if solver.maps:
            r = nsu3d.residual(fine, states[0], solver.qinf,
                               turbulence=solver.turbulence)
            cluster, coarse = solver.maps[0], solver.contexts[1]
            rows["solvers.transfer_s"] = per_call(
                lambda: (
                    nsu3d.restrict_solution(states[0], cluster,
                                            fine.volumes, coarse.volumes),
                    nsu3d.restrict_residual(r, cluster, coarse.npoints),
                ), 1, repeats=3,
            )
    return rows


def cart3d_level_rows(solver) -> dict:
    """One public ``rk_smooth``/``residual``/restrict call per level."""
    import numpy as np

    from repro.kernels import use_engine
    from repro.solvers import cart3d

    rows = {}
    with use_engine(solver.engine):
        states = []
        for level, lvl in enumerate(solver.levels):
            q = np.tile(solver.qinf, (lvl.nflow, 1))
            states.append(q)
            rows[f"solvers.smooth_l{level}_s"] = per_call(
                lambda lvl=lvl, q=q: cart3d.rk_smooth(
                    lvl, q, solver.qinf, cfl=solver.cfl, flux=solver.flux,
                ), 1, repeats=3,
            )
        fine = solver.levels[0]
        rows["solvers.residual_l0_s"] = per_call(
            lambda: cart3d.residual(fine, states[0], solver.qinf,
                                    flux=solver.flux), 1, repeats=3,
        )
        if solver.transfers:
            transfer = solver.transfers[0]
            r = cart3d.residual(fine, states[0], solver.qinf,
                                flux=solver.flux)
            rows["solvers.transfer_s"] = per_call(
                lambda: (
                    transfer.restrict_solution(
                        states[0], fine.vol, solver.levels[1].vol
                    ),
                    transfer.restrict_residual(r),
                ), 1, repeats=3,
            )
    return rows


# -- mesh --------------------------------------------------------------------

def cart3d_mesh_rows(api, solid, *, dim: int, base_level: int,
                     max_level: int, mg_levels: int) -> dict:
    """Octree build, SFC sort and single-pass coarsening, timed apart."""
    from repro.mesh.cartesian import sfc_coarsen

    build_s, (mesh, _report) = timed(
        api.adapt_to_geometry, solid, dim=dim, base_level=base_level,
        max_level=max_level,
    )
    sort_s, _ = timed(mesh.sfc_order)
    coarsen_s = 0.0
    level = mesh
    for _ in range(mg_levels - 1):
        dt, (level, _parent) = timed(sfc_coarsen, level)
        coarsen_s += dt
    return {
        "mesh.build_s": build_s,
        "mesh.sfc_sort_s": sort_s,
        "mesh.coarsen_s": coarsen_s,
        "mesh.cells": mesh.ncells,
    }


# -- partition ---------------------------------------------------------------

def partition_quality_rows(nvert: int, edges, part, nparts: int) -> dict:
    from repro.partition import Graph
    from repro.partition.quality import edge_cut, imbalance

    graph = Graph.from_edges(nvert, edges)
    return {
        "partition.edge_cut_frac": float(edge_cut(graph, part))
        / max(len(edges), 1),
        "partition.imbalance": float(imbalance(graph, part, nparts)),
    }


# -- comm: direct ExchangePlan calls on the workload's own level-0 plans -----

def exchange_rows(api, par, nvar: int, calls: int = 60) -> dict:
    """Wall of one full 4-rank exchange, per exchange flavour.

    Runs inside a ``SimMPI.run`` with one rank per partition, on the
    decomposition's own level-0 plans; the wall is the whole world's
    (ranks are threads of this process), divided by the call count.
    """
    import numpy as np

    domains = par.hierarchy.levels[0].domains
    nparts = len(domains)

    def run(op: str) -> float:
        def body(comm):
            dom = domains[comm.rank]
            x = api.make_exchanger(
                "plan", comm, plans={comm.rank: dom.halo.plan}
            )
            arrays = {comm.rank: np.zeros((dom.nlocal, nvar))}
            comm.barrier()
            for _ in range(calls):
                if op == "copy":
                    x.copy(arrays)
                elif op == "add":
                    x.add(arrays)
                else:
                    x.start_copy(arrays).finish()

        world = api.SimMPI(nparts)
        dt, _ = timed(world.run, body)
        messages.append(world.total_stats().messages_sent / calls)
        return dt / calls * 1.0e6

    messages: list = []
    return {
        "comm.exchange_copy_us": run("copy"),
        "comm.exchange_add_us": run("add"),
        "comm.start_finish_us": run("start_finish"),
        # not a metric: lets the caller turn messages into exchanges
        "messages_per_exchange": messages[0],
    }


# -- database ----------------------------------------------------------------

def _synthetic_results(api, n: int):
    """``n`` distinct results on a wind grid (one neighbour group)."""
    side = int(n ** 0.5) + 1
    out = []
    for i in range(n):
        mach = 0.3 + 0.5 * (i % side) / side
        alpha = 10.0 * (i // side) / side
        spec = api.CaseSpec(wind={"mach": mach, "alpha": alpha},
                            solver="synthetic")
        out.append(api.CaseResult(
            spec=spec, coefficients={"cl": alpha * 0.1, "cd": 0.01 + mach},
            residual_history=(1.0, 1.0e-6),
        ))
    return out


def store_rows(api, workdir, n: int = 1000) -> dict:
    """put/get/nearest on a path-backed ``n``-result store."""
    results = _synthetic_results(api, n)
    store = api.ResultStore(workdir / "probe_store.jsonl")
    put_s, _ = timed(lambda: [store.put(r) for r in results])
    keys = [r.spec.key for r in results]
    get_s, _ = timed(lambda: [store.get(k) for k in keys])
    probes = results[:: max(n // 20, 1)]
    nearest_s, _ = timed(
        lambda: [store.nearest(r.spec, k=6) for r in probes]
    )
    return {
        "database.store_put_us": put_s / n * 1.0e6,
        "database.store_get_us": get_s / n * 1.0e6,
        "database.store_nearest_us": nearest_s / len(probes) * 1.0e6,
    }


def journal_rows(api, workdir, n: int = 200) -> dict:
    """Append + reload cost of the checkpoint journal."""
    path = workdir / "probe_journal.jsonl"
    journal = api.CampaignCheckpoint(path)
    results = _synthetic_results(api, n)
    events = [
        api.FillEvent(seq=i, t=float(i), kind="done", key=r.spec.key,
                      vt=float(i))
        for i, r in enumerate(results)
    ]
    record_s, _ = timed(
        lambda: [journal.record(e, r) for e, r in zip(events, results)]
    )
    load_s, _state = timed(api.CampaignCheckpoint.load, path)
    return {
        "database.journal_record_us": record_s / n * 1.0e6,
        "database.journal_bytes_per_case": path.stat().st_size / n,
        "database.journal_load_ms": load_s * 1.0e3,
    }


def dispatch_rows(api, tree, workdir) -> dict:
    """24 cases through ``FillRuntime`` with a runner that costs nothing:
    what is left is submit + schedule + put + journal per case."""
    def free_runner(spec, shared=None):
        return api.CaseResult(spec=spec, coefficients={"cl": 0.0},
                              residual_history=(1.0, 1.0e-6))

    samples = []
    ncases = sum(len(geo.flow_jobs) for geo in tree)
    for rep in range(5):
        store = api.ResultStore(workdir / f"probe_dispatch_{rep}.jsonl")
        journal = api.CampaignCheckpoint(
            workdir / f"probe_dispatch_{rep}.journal"
        )
        with api.FillRuntime(free_runner, nnodes=1, cpus_per_case=256,
                             store=store, checkpoint=journal) as rt:
            dt, report = timed(rt.run_tree, tree, solver="synthetic",
                               settings={})
        if report.executed != ncases:
            raise RuntimeError(f"dispatch probe ran {report.executed} of "
                               f"{ncases} cases")
        samples.append(dt / ncases)
    return {"database.dispatch_ms_per_case": median(samples) * 1.0e3}


# -- service -----------------------------------------------------------------

def service_direct_rows(api, store, spec) -> dict:
    """Direct calls into the surrogate and the admission controller."""
    import asyncio

    from repro.service import interpolate

    neighbors = store.nearest(spec, k=6)
    interp = per_call(
        lambda: interpolate(spec.wind_params, neighbors, "linear"), 200
    )

    async def acquire_release(n: int) -> float:
        ctl = api.AdmissionController(2, max_queue=8)
        t0 = time.perf_counter()
        for _ in range(n):
            await ctl.acquire("perf")
            ctl.release("perf")
        return (time.perf_counter() - t0) / n

    acquire = median(asyncio.run(acquire_release(2000)) for _ in range(5))
    return {
        "service.interpolate_us": interp * 1.0e6,
        "service.admission_acquire_us": acquire * 1.0e6,
    }
