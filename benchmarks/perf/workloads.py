"""The seven named workloads of the perf harness.

Everything here reaches the system through ``repro.api`` only — the
factories plus ``run_cycle()`` / ``solve()`` / ``run_tree()`` /
``query()`` — so a later PR that reshapes a layer behind the facade
cannot break an end-to-end number.  Layer internals are touched only by
the traced run, through :mod:`probes`, each probe guarded.

A workload has five parts:

``build(seed)``
    everything before the first timed sample (the harness times it:
    ``setup_s``); all inputs derive from the seed.
``measure(state, seconds, speed, part, last, quick)``
    the untraced timed phase plus the correctness gates, on one built
    instance; returns its samples, each timed through ``speed`` (a
    :class:`probes.SpeedProbe`) and so scaled to the reference machine
    speed.  Failures are *counted*, never raised.  ``quick`` (the smoke
    run) waives the minimum-work rules, not the gates.
``summarise(parts)``
    pools the samples of the ``PARTS`` measured instances into one
    :class:`Outcome`.  The harness builds every workload three times to
    time set-up; measuring on each instance instead of only the last
    averages out what differs from instance to instance (array
    placement, worker placement) at no extra cost.
``trace(state, seconds, rec, seed, quick)``
    the traced re-run: per-layer rows from benchmark-owned probes.
``roles``
    which of the workload's own metrics fills each universal
    end-to-end slot of ``BENCHMARK.json`` (see README, "Reading the
    end-to-end metrics").
"""

from __future__ import annotations

import asyncio
import copy
import math
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import probes
from probes import guarded, median, quantile, timed
from repro import api

#: scratch space for stores and journals — inside the checkout
WORKDIR = Path(__file__).resolve().parent / ".work"

#: distributed q must match a fresh serial run after the same cycles
PARITY_TOL = 1.0e-10


@dataclass
class Outcome:
    """What one untraced measurement produced."""

    values: dict
    attempted: int
    failed: int
    samples: dict = field(default_factory=dict)


def _flow_point(seed: int) -> dict:
    """Seeded flow condition: small enough a jitter that the cycle count
    to tolerance does not move (checked over seeds 0-5), large enough
    that no two seeds see the same input."""
    rng = random.Random(seed)
    return {
        "mach": 0.5 + rng.uniform(-0.01, 0.01),
        "alpha_deg": rng.uniform(0.0, 0.5),
    }


# -- solver families ---------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """One solver's factories and the constants its workloads share."""

    name: str
    tol_orders: float      # reached by ~two thirds of a 12-s serial run
    dist_cfl: float        # constant CFL of solve(k) and its references
    level_rows: object     # per-level probe for the traced run
    mesh_params: dict


class _NSU3D(Family):
    def mesh(self):
        return api.bump_channel(*self.mesh_params["shape"])

    def serial(self, seed: int, **kwargs):
        return api.make_nsu3d_solver(
            self.mesh(), mg_levels=3, turbulence=True,
            **_flow_point(seed), **kwargs,
        )

    def reference(self, seed: int):
        # solve(k, cfl=c) runs at constant CFL from the initial state; a
        # serial solver pinned to the same constant CFL is its reference
        return self.serial(seed, cfl=self.dist_cfl, cfl_start=self.dist_cfl)

    def parallel(self, solver, nparts, seed, config):
        return api.make_parallel_nsu3d(solver, nparts, seed=seed,
                                       config=config)

    def mesh_rows(self, solver) -> dict:
        build_s, _mesh = timed(self.mesh)
        return {"mesh.build_s": build_s, "mesh.cells": solver.size}

    def partition_rows(self, solver, par, nparts, seed) -> dict:
        ctx = solver.contexts[0]
        part_s, _ = timed(api.MetisLinePartitioner(
            ctx.npoints, ctx.edges, lines=ctx.lines, seed=seed,
        ).partition, nparts)
        return {
            "partition.partition_s": part_s,
            **probes.partition_quality_rows(ctx.npoints, ctx.edges,
                                            par.part, nparts),
        }


class _Cart3D(Family):
    def solid(self):
        return api.Sphere(center=[0.5, 0.5, 0.5], radius=0.2)

    def serial(self, seed: int, **kwargs):
        return api.make_cart3d_solver(
            self.solid(), **self.mesh_params, **_flow_point(seed), **kwargs,
        )

    def reference(self, seed: int):
        return self.serial(seed, cfl=self.dist_cfl)

    def parallel(self, solver, nparts, seed, config):
        # SFC-segment partitioning is deterministic: no seed to pass
        return api.make_parallel_cart3d(solver, nparts, config=config)

    def mesh_rows(self, solver) -> dict:
        return probes.cart3d_mesh_rows(api, self.solid(), **self.mesh_params)

    def partition_rows(self, solver, par, nparts, seed) -> dict:
        level = solver.levels[0]
        part_s, part = timed(
            api.SFCPartitioner.from_level(level).partition, nparts
        )
        counts = np.bincount(part, minlength=nparts)
        return {
            "partition.partition_s": part_s,
            "partition.edge_cut_frac": float(np.mean(
                part[level.face_left] != part[level.face_right]
            )),
            "partition.imbalance": float(counts.max() / counts.mean() - 1.0),
        }


NSU3D = _NSU3D(
    name="nsu3d", tol_orders=1.5, dist_cfl=8.0,
    level_rows=probes.nsu3d_level_rows,
    mesh_params={"shape": (20, 8, 14)},
)
CART3D = _Cart3D(
    name="cart3d", tol_orders=2.5, dist_cfl=2.0,
    level_rows=probes.cart3d_level_rows,
    mesh_params={"dim": 3, "base_level": 3, "max_level": 6, "mg_levels": 3},
)


# -- serial solve workloads --------------------------------------------------

class SerialSolve:
    """``run_cycle()`` on one solver until the time is up *and* the
    tolerance is reached; never reaching it is one failed op."""

    #: give up on the tolerance after this many cycles
    MAX_CYCLES = 60
    PARTS = 3

    roles = {
        "op_ms": ("cycle_s", 1.0e3),
        "op_tail_ms": ("cycle_p75_s", 1.0e3),
        "job_s": ("time_to_tol_s", 1.0),
        "overhead_ratio": ("control_ratio", 1.0),
    }

    def __init__(self, name: str, family: Family, why: str):
        self.name, self.family, self.why = name, family, why

    def build(self, seed: int):
        return self.family.serial(seed)

    def close(self, solver) -> None:
        pass

    def _cycles(self, solver, seconds: float, run=None, need_tol=True,
                clock=timed):
        """Yield ``(index, wall, residual)`` per cycle under the stop rule;
        ``run(i)`` does cycle ``i`` (default: a bare ``run_cycle()``)."""
        if run is None:
            def run(_i):
                return solver.run_cycle()
        tol = self.family.tol_orders
        t_end = time.perf_counter() + seconds
        for i in range(self.MAX_CYCLES):
            dt, r = clock(run, i)
            yield i, dt, r
            if time.perf_counter() >= t_end and i >= 2 and not (
                    need_tol and solver.history.cycles_to(tol) is None):
                return

    def _to_tol(self, solver) -> int | None:
        """Cycles run when the residual first sat ``tol_orders`` below
        its first value (``cycles_to`` indexes from the first cycle)."""
        index = solver.history.cycles_to(self.family.tol_orders)
        return None if index is None else index + 1

    def measure(self, solver, seconds: float, speed, *, part=0, last=True,
                quick=False) -> dict:
        walls, failed = [], 0
        # only the last instance has to run on until the tolerance
        need_tol = last and not quick
        for _i, dt, r in self._cycles(solver, seconds, need_tol=need_tol,
                                      clock=speed.timed):
            walls.append(dt)
            failed += not math.isfinite(r)
        to_tol = self._to_tol(solver)
        if to_tol is None:
            # gave up (a failed op) or, in the smoke run, never asked
            failed += need_tol
            to_tol = len(walls)
        return {"walls": walls, "failed": failed, "to_tol": to_tol}

    def summarise(self, parts: list) -> Outcome:
        walls = [w for p in parts for w in p["walls"]]
        failed = sum(p["failed"] for p in parts)
        cycle_s = median(walls)
        to_tol = parts[-1]["to_tol"]
        return Outcome(
            values={
                "cycle_s": cycle_s,
                "cycle_p75_s": quantile(walls, 0.75),
                "time_to_tol_s": to_tol * cycle_s,
                # control row of the ratio metric: the same solver on
                # both sides, so this reads 1.0 +- the ratio's own noise
                "control_ratio": median(walls[0::2]) / median(walls[1::2]),
            },
            attempted=len(walls) + 1,   # the cycles + reaching tolerance
            failed=failed,
            samples={"cycles": len(walls), "cycles_to_tol": to_tol},
        )

    def trace(self, solver, seconds: float, rec, seed: int,
              quick=False) -> dict:
        plain = solver.engine
        probe = probes.ProbeEngine(plain, rec)
        modes = ("probe", "plain", "capture")
        walls = {mode: [] for mode in modes}

        def run(i: int) -> float:
            mode = modes[i % len(modes)]
            solver.engine = probe if mode == "probe" else plain
            if mode == "probe":
                with rec.span("solvers.cycle", cycle=i):
                    return solver.run_cycle()
            if mode == "capture":
                with api.capture():
                    return solver.run_cycle()
            return solver.run_cycle()

        for i, dt, _r in self._cycles(solver, seconds, run, not quick):
            walls[modes[i % len(modes)]].append(dt)
        solver.engine = plain

        probed, untraced = median(walls["probe"]), median(walls["plain"])
        flops = guarded("kernels.flops_per_cycle", lambda: (
            solver.counters.total_flops / len(solver.history.residuals)
        ))
        rows = probes.kernel_rows(rec, len(walls["probe"]), probed, flops)
        rows.update({
            "solvers.cycle_p75_s": quantile(walls["probe"], 0.75),
            # 0 = the run ended before the tolerance (smoke runs only)
            "solvers.cycles_to_tol": self._to_tol(solver) or 0,
            "telemetry.probe_overhead_frac": probed / untraced - 1.0,
            "telemetry.capture_overhead_frac":
                median(walls["capture"]) / untraced - 1.0,
        })
        for name, fn in (
            ("solvers.level", lambda: self.family.level_rows(solver)),
            ("mesh", lambda: self.family.mesh_rows(solver)),
            ("telemetry.span", lambda: probes.telemetry_span_rows(api)),
        ):
            rows.update(guarded(name, fn) or {})
        return rows


# -- distributed solve workloads ---------------------------------------------

class DistSolve:
    """``solve(K)`` on the decomposed solver, interleaved with fresh
    serial K-cycle references in the same process; the reference doubles
    as the parity gate (recipe of ``tests/test_runtime_parity.py``)."""

    K = 2             # cycles per solve() call
    PARTS = 3

    roles = {
        "op_ms": ("cycle_s", 1.0e3),
        "op_tail_ms": ("cycle_p75_s", 1.0e3),
        "job_s": ("solve_call_s", 1.0),
        "overhead_ratio": ("dist_over_serial", 1.0),
    }

    def __init__(self, name: str, family: Family, why: str, *,
                 nparts: int, backend: str, overlap: bool = False):
        self.name, self.family, self.why = name, family, why
        self.backend, self.overlap = backend, overlap
        if backend == "process":
            # real concurrency needs real cores: never more ranks than CPUs
            nparts = min(nparts, os.cpu_count() or 1)
        self.nparts = nparts

    def config(self):
        return api.RuntimeConfig(backend=self.backend, overlap=self.overlap)

    def build(self, seed: int):
        reference = self.family.reference(seed)
        par = self.family.parallel(reference, self.nparts, seed,
                                   self.config())
        if self.backend == "process":
            # the pool spawns lazily inside the first solve; that is
            # set-up, not a sample
            par.solve(1, cfl=self.family.dist_cfl)
        return reference, par

    def close(self, state) -> None:
        state[1].close()

    def _dist(self, par, clock=timed):
        dt, (q, history) = clock(par.solve, self.K, cfl=self.family.dist_cfl)
        return dt, q, history

    def _serial(self, reference, clock=timed):
        fresh = copy.deepcopy(reference)   # never cycled: a fresh start

        def cycles():
            for _ in range(self.K):
                fresh.run_cycle()
        return clock(cycles)[0], fresh

    def measure(self, state, seconds: float, speed, *, part=0, last=True,
                quick=False) -> dict:
        reference, par = state
        dist, serial, failed = [], [], 0
        t0 = time.perf_counter()
        pair_s = 0.0
        # another pair starts only if at least half of it fits
        while (not dist
               or time.perf_counter() - t0 + 0.5 * pair_s <= seconds):
            t_pair = time.perf_counter()
            if (part + len(dist)) % 2:  # alternate which side runs first
                ds, fresh = self._serial(reference, speed.timed)
                dd, q, history = self._dist(par, speed.timed)
            else:
                dd, q, history = self._dist(par, speed.timed)
                ds, fresh = self._serial(reference, speed.timed)
            pair_s = time.perf_counter() - t_pair
            dist.append(dd)
            serial.append(ds)
            ok = (np.isfinite(history).all()
                  and float(np.abs(q - fresh.q).max()) <= PARITY_TOL)
            failed += 0 if ok else self.K
        return {"dist": dist, "serial": serial, "failed": failed}

    def summarise(self, parts: list) -> Outcome:
        dist = [d for p in parts for d in p["dist"]]
        serial = [d for p in parts for d in p["serial"]]
        failed = sum(p["failed"] for p in parts)
        cycle_s = median(dist) / self.K
        return Outcome(
            values={
                "cycle_s": cycle_s,
                "cycle_p75_s": quantile(dist, 0.75) / self.K,
                "solve_call_s": median(dist),
                "serial_cycle_s": median(serial) / self.K,
                "dist_over_serial": median(dist) / median(serial),
            },
            attempted=len(dist) * self.K,
            failed=failed,
            samples={"solves": len(dist), "cycles_per_solve": self.K,
                     "nranks": self.nparts,
                     "cpu_count": os.cpu_count() or 1},
        )

    # the traced run ----------------------------------------------------------

    def trace(self, state, seconds: float, rec, seed: int,
              quick=False) -> dict:
        reference, par = state
        cfl = self.family.dist_cfl
        sim = self.backend == "sim"
        # ProbeEngine is not shipped to process workers: that backend
        # reports runtime-level rows only
        adapter = guarded("kernels.engine", lambda: par.kernels) if sim \
            else None
        plain_engine = getattr(adapter, "engine", None)
        walls = {"serial": [], "plain": [], "one": [], "probed": []}
        world = fresh = None
        t0 = time.perf_counter()
        round_s = 0.0
        while (not walls["plain"]
               or time.perf_counter() - t0 + 0.5 * round_s <= seconds):
            t_round = time.perf_counter()
            serial_wall, fresh = self._serial(reference)
            walls["serial"].append(serial_wall / self.K)
            walls["plain"].append(self._dist(par)[0] / self.K)
            walls["one"].append(timed(par.solve, 1, cfl=cfl)[0])
            if sim:
                world = api.SimMPI(self.nparts)
                if plain_engine is not None:
                    # rank threads interleave: bill CPU, not wall
                    adapter.engine = probes.ProbeEngine(
                        plain_engine, rec, clock=time.thread_time,
                    )
                try:
                    with rec.span("runtime.solve", cycles=self.K):
                        dt, _ = timed(par.run, world, self.K, cfl=cfl)
                finally:
                    if plain_engine is not None:
                        adapter.engine = plain_engine
                walls["probed"].append(dt / self.K)
            round_s = time.perf_counter() - t_round
            if quick:
                break
        serial_s, plain_s = median(walls["serial"]), median(walls["plain"])
        rows = {
            "runtime.cpu_count": os.cpu_count() or 1,
            "runtime.nranks": self.nparts,
            # solve(1) = a + b, solve(K) = a + K b  ->  the fixed cost a
            "runtime.solve_fixed_s": (
                (self.K * median(walls["one"]) - self.K * plain_s)
                / (self.K - 1)
            ),
        }
        build_s, spare = timed(self.family.parallel, reference, self.nparts,
                               seed, self.config())
        rows["runtime.hierarchy_build_s"] = build_s
        try:
            if self.backend == "process":
                spawn_s, _ = timed(spare.solve, 1, cfl=cfl)
                rows["runtime.pool_spawn_s"] = spawn_s - median(walls["one"])
        finally:
            spare.close()
        rows.update(guarded(
            "partition", self.family.partition_rows, reference, par,
            self.nparts, seed,
        ) or {})
        if not sim:
            # ideal = serial / nranks; what is left is the stack's cost
            rows["runtime.overhead_s"] = plain_s - serial_s / self.nparts
            return rows

        probed_s = median(walls["probed"])
        if plain_engine is not None:
            # identical kernel work: the serial reference's counter
            # stands for the distributed cycle's FLOPs
            flops = guarded("kernels.flops_per_cycle",
                            lambda: fresh.counters.total_flops / self.K)
            rows.update(probes.kernel_rows(
                rec, self.K * len(walls["probed"]), probed_s, flops,
            ))
        stats = world.total_stats()
        rows.update({
            "telemetry.probe_overhead_frac": probed_s / plain_s - 1.0,
            "comm.messages_per_cycle": stats.messages_sent / self.K,
            "comm.bytes_per_cycle": stats.bytes_sent / self.K,
            # the simulated Columbia ledger: virtual seconds, exact
            "comm.virtual_cycle_s": world.max_clock() / self.K,
        })
        exchange = guarded("comm.exchange", probes.exchange_rows, api, par,
                           len(par.qinf))
        if exchange is not None:
            per_exchange = exchange.pop("messages_per_exchange")
            rows.update(exchange)
            count = rows["comm.messages_per_cycle"] / per_exchange
            each_us = exchange[
                "comm.start_finish_us" if self.overlap
                else "comm.exchange_copy_us"
            ]
            comm_s = count * each_us * 1.0e-6
            rows.update({
                "comm.exchanges_per_cycle": count,
                # estimated: exchanges x the direct-call wall of one
                "comm.share": comm_s / plain_s,
                "runtime.overhead_s": plain_s - serial_s - comm_s,
            })
        # informational one-shot solves of the same decomposition run
        # the other ways: two partitions per rank, and the other
        # exchange mode (is overlap faster than blocking, or not?)
        rows["comm.hybrid_cycle_s"] = guarded(
            "comm.hybrid", self._other_cycle, reference, seed,
            api.RuntimeConfig(backend="hybrid", nranks=self.nparts // 2,
                              overlap=self.overlap),
        )
        rows["comm.other_mode_cycle_s"] = guarded(
            "comm.other_mode", self._other_cycle, reference, seed,
            api.RuntimeConfig(backend="sim", overlap=not self.overlap),
        )
        return rows

    def _other_cycle(self, reference, seed: int, config) -> float:
        """Wall per cycle of one ``solve(K)`` under another config."""
        other = self.family.parallel(reference, self.nparts, seed, config)
        try:
            return timed(other.solve, self.K,
                         cfl=self.family.dist_cfl)[0] / self.K
        finally:
            other.close()


# -- fill24 ------------------------------------------------------------------

class Fill24:
    """2 configurations x 12 wind cases through ``FillRuntime`` with a
    durable store and a checkpoint journal: cold fills, then re-fills."""

    REFILLS = 200
    #: re-fills per speed-probe pair: one takes ~1 ms, a probe ~10 ms
    BATCH = 10
    GATE_CASES = 6
    #: every cold fill already gets a fresh runtime, store and journal
    PARTS = 1
    RUNNER = {"dim": 2, "base_level": 4, "max_level": 5, "mg_levels": 2,
              "cycles": 8}

    roles = {
        "op_ms": ("refill_ms", 1.0),
        "op_tail_ms": ("refill_p75_ms", 1.0),
        "job_s": ("fill_s", 1.0),
        "overhead_ratio": ("fill_over_direct", 1.0),
    }

    name = "fill24"
    why = ("database schedules, solver works: cold 24-case fill writes "
           "put+journal, 200 re-fills read get; kernels idle on re-fill")

    def build(self, seed: int):
        rng = random.Random(seed)
        dm, da = rng.uniform(0.0, 0.01), rng.uniform(0.0, 0.2)
        study = api.StudyDefinition(
            config_space=api.ParameterSpace(
                axes=(api.Axis("aileron", (0.0, 5.0)),)
            ),
            wind_space=api.ParameterSpace(axes=(
                api.Axis("mach", tuple(m + dm for m in (0.4, 0.5, 0.6))),
                api.Axis("alpha", tuple(a + da for a in (0., 1., 2., 3.))),
            )),
        )
        WORKDIR.mkdir(exist_ok=True)
        return {
            "rng": rng,
            "tree": api.build_job_tree(study),
            "runner": api.Cart3DCaseRunner(api.wing_body(), **self.RUNNER),
            "dir": Path(tempfile.mkdtemp(dir=WORKDIR)),
            "fills": 0,
        }

    def close(self, state) -> None:
        shutil.rmtree(state["dir"], ignore_errors=True)

    def _runtime(self, state):
        """A fresh runtime over a fresh path-backed store and journal."""
        state["fills"] += 1
        stem = state["dir"] / f"fill{state['fills']}"
        return api.FillRuntime(
            state["runner"], nnodes=1,
            cpus_per_case=256,    # 512 // 256 = 2 slots
            store=api.ResultStore(stem.with_suffix(".jsonl")),
            checkpoint=api.CampaignCheckpoint(stem.with_suffix(".journal")),
        )

    @staticmethod
    def _refills(rt, tree, count: int) -> tuple[list, int]:
        """``count`` identical re-fills: their walls and their hits."""
        walls, hits = [], 0
        for _ in range(count):
            dt, again = timed(rt.run_tree, tree)
            walls.append(dt)
            hits += again.cache_hits
        return walls, hits

    def measure(self, state, seconds: float, speed, *, part=0, last=True,
                quick=False) -> Outcome:
        tree, runner = state["tree"], state["runner"]
        ncases = sum(geo.ncases for geo in tree)
        cold, refill = [], []
        attempted = failed = 0
        t0 = time.perf_counter()
        rt = None
        # another cold fill starts only if at least half of it fits
        while not cold or time.perf_counter() - t0 + 0.5 * cold[-1] <= seconds:
            if rt is not None:
                rt.close()
            rt = self._runtime(state)
            dt, report = speed.timed(rt.run_tree, tree)
            cold.append(dt)
            attempted += ncases
            failed += ncases - sum(
                1 for o in report.outcomes if o.state == "done"
            )
        with rt:
            for _ in range(1 if quick else self.REFILLS // self.BATCH):
                _dt, scale, (walls, hits) = speed.around(
                    self._refills, rt, tree, self.BATCH,
                )
                refill.extend(w * scale for w in walls)
                attempted += ncases * len(walls)
                failed += ncases * len(walls) - hits    # gate: 24/24 hits
            # gate: sampled stored cases bit-equal to direct runner calls
            direct_case, direct_prep = [], []
            jobs = [(geo, job) for geo in tree for job in geo.flow_jobs]
            shared = {}
            for geo, job in state["rng"].sample(jobs, self.GATE_CASES):
                if id(geo) not in shared:
                    dt, shared[id(geo)] = speed.timed(runner.prepare, geo)
                    direct_prep.append(dt)
                spec = api.CaseSpec.from_flow_job(job, **runner.settings())
                dt, direct = speed.timed(runner, spec, shared[id(geo)])
                direct_case.append(dt)
                stored = rt.store.get(spec.key)
                attempted += 1
                failed += (stored is None
                           or stored.coefficients != direct.coefficients)
        fill_s = median(cold)
        serial_loop_s = (ncases * median(direct_case)
                         + len(tree) * median(direct_prep))
        return Outcome(
            values={
                "fill_s": fill_s,
                "fill_cases_per_s": ncases / fill_s,
                "refill_ms": median(refill) * 1.0e3,
                "refill_p75_ms": quantile(refill, 0.75) * 1.0e3,
                "fill_over_direct": fill_s / serial_loop_s,
            },
            attempted=attempted, failed=failed,
            samples={"cold_fills": len(cold), "refills": len(refill),
                     "cases": ncases, "slots": rt.slots},
        )

    def summarise(self, parts: list) -> Outcome:
        return parts[-1]

    def trace(self, state, seconds: float, rec, seed: int,
              quick=False) -> dict:
        tree, runner = state["tree"], state["runner"]
        rows = {}
        with self._runtime(state) as rt:
            with rec.span("database.cold_fill"):
                report = rt.run_tree(tree)
            with rec.span("database.refill"):
                rt.run_tree(tree)
        rows.update({
            "database.meshes_built": report.meshes_built,
            "database.retries": report.retries,
            "database.max_concurrent": report.max_concurrent,
            "database.cache_hits": report.cache_hits,
        })
        geo = tree[0]
        with rec.span("database.prepare"):
            prepare_s, shared = timed(runner.prepare, geo)
        walls = []
        for job in geo.flow_jobs[:3]:
            spec = api.CaseSpec.from_flow_job(job, **runner.settings())
            with rec.span("database.case_solve", key=spec.key):
                walls.append(timed(runner, spec, shared)[0])
        rows.update({
            "database.prepare_s": prepare_s,
            "database.case_solve_s": median(walls),
            "mesh.build_s": prepare_s,
            "mesh.cells": guarded("mesh.cells", lambda: shared[1].ncells),
        })
        for name, fn in (
            ("database.store", lambda: probes.store_rows(api, state["dir"])),
            ("database.journal",
             lambda: probes.journal_rows(api, state["dir"])),
            ("database.dispatch",
             lambda: probes.dispatch_rows(api, tree, state["dir"])),
        ):
            rows.update(guarded(name, fn) or {})
        return rows


# -- service_mix -------------------------------------------------------------

class SyntheticRunner:
    """Analytic runner (the surface ``python -m repro.service`` serves):
    smooth coefficients, a fixed delay standing for one real solve."""

    solver_name = "synthetic"

    def __init__(self, delay: float):
        self.delay = delay

    def settings(self) -> dict:
        return {}

    @staticmethod
    def coefficients(mach: float, alpha: float) -> dict:
        cl = 2.0 * math.pi * math.radians(alpha) * (1.0 + 0.25 * mach * mach)
        return {"cl": cl, "cd": 0.006 + 0.05 * cl * cl + 0.01 * mach ** 4,
                "cm": -0.25 * cl + 0.02 * mach}

    def __call__(self, spec, shared=None):
        time.sleep(self.delay)
        wind = spec.wind_params
        return api.CaseResult(
            spec=spec,
            coefficients=self.coefficients(wind["mach"], wind["alpha"]),
            residual_history=(1.0, 1.0e-6),
        )


class ServiceMix:
    """Closed loop, two clients over ``DatabaseService`` on a ~70%
    prefilled 9x9 wind grid; each client yields to the loop between
    requests as a network hop would (README, finding 2)."""

    CLIENTS = 2
    DELAY = 0.01
    PARTS = 3
    #: the load runs in slices of this length, a speed probe between them
    SLICE_S = 0.5
    #: exact hits / off-grid surrogate targets / true misses
    MIX = (0.40, 0.595, 0.005)
    MACHS = [round(0.30 + 0.05 * i, 2) for i in range(9)]
    ALPHAS = [float(a) for a in range(9)]

    roles = {
        "op_ms": ("query_p50_ms", 1.0),
        "op_tail_ms": ("query_p99_ms", 1.0),
        "job_s": ("kilo_query_s", 1.0),
        "overhead_ratio": ("exact_over_lookup", 1.0),
    }

    #: the leave-one-out estimate is not a strict bound (README,
    #: finding 4): answers may miss it by up to this factor
    ESTIMATE_SLACK = 3.0

    name = "service_mix"
    why = ("service + resultstore only: exact, surrogate and miss tiers "
           "under a closed loop; no solver runs, so kernel PRs stay flat")

    def build(self, seed: int):
        rng = random.Random(seed)
        runner = SyntheticRunner(self.DELAY)
        store = api.ResultStore()
        filled = []
        for mach in self.MACHS:
            for alpha in self.ALPHAS:
                if rng.random() >= 0.7:
                    continue
                spec = api.CaseSpec(wind={"mach": mach, "alpha": alpha},
                                    solver=runner.solver_name)
                store.put(api.CaseResult(
                    spec=spec, coefficients=runner.coefficients(mach, alpha),
                ))
                filled.append((mach, alpha))
        runtime = api.FillRuntime(runner, nnodes=1, cpus_per_case=256,
                                  store=store, durable=False)
        return {
            "rng": rng, "runtime": runtime, "filled": filled,
            "popular": rng.sample(filled, 12),
            "service": api.DatabaseService(runtime),
            "misses": 0,
        }

    def close(self, state) -> None:
        state["runtime"].close()

    def _next_query(self, state):
        """One seeded draw from the mix: ``(kind, PointQuery)``."""
        rng = state["rng"]
        u = rng.random()
        if u < self.MIX[0]:
            mach, alpha = rng.choice(state["popular"])
            return "exact", api.PointQuery(mach=mach, alpha=alpha)
        if u < self.MIX[0] + self.MIX[1]:
            # alpha never lands on a grid line, so never on a stored point
            return "surrogate", api.PointQuery(
                mach=round(rng.uniform(self.MACHS[1], self.MACHS[-2]), 3),
                alpha=rng.randrange(1, 7) + round(rng.uniform(.05, .95), 3),
            )
        # a configuration instance the database has never seen: its own
        # neighbour group, so nothing to interpolate from — a true miss
        state["misses"] += 1
        mach, alpha = rng.choice(state["filled"])
        return "solve", api.PointQuery(
            mach=mach, alpha=alpha, config={"flap": float(state["misses"])},
        )

    def _check(self, kind: str, query, response) -> bool:
        truth = SyntheticRunner.coefficients(query.mach, query.alpha)
        if response.source != kind:
            return False
        if kind == "surrogate":
            return all(
                abs(response.coefficients[k] - truth[k])
                <= self.ESTIMATE_SLACK * response.error_estimate + 1.0e-12
                for k in truth
            )
        return all(response.coefficients[k] == truth[k] for k in truth)

    async def _client(self, state, t_end: float, log: list) -> None:
        service = state["service"]
        while time.perf_counter() < t_end:
            kind, query = self._next_query(state)
            t0 = time.perf_counter()
            try:
                response = await service.query(query)
            except api.ReproError:
                log.append((kind, t0, None, False))
            else:
                log.append((kind, t0, time.perf_counter() - t0,
                            self._check(kind, query, response)))
            await asyncio.sleep(0)

    def _load(self, state, seconds: float) -> tuple[list, float]:
        async def main():
            t0 = time.perf_counter()
            log: list = []
            await asyncio.gather(*(
                self._client(state, t0 + seconds, log)
                for _ in range(self.CLIENTS)
            ))
            return log, time.perf_counter() - t0
        return asyncio.run(main())

    def measure(self, state, seconds: float, speed, *, part=0, last=True,
                quick=False) -> dict:
        log, lookups, wall, missing = [], [], 0.0, 0

        def lookup():
            _dt, scale, (walls, none) = speed.around(self._lookups, state)
            lookups.extend(w * scale for w in walls)
            return none

        missing += lookup()
        t_end = time.perf_counter() + seconds
        while wall == 0.0 or time.perf_counter() < t_end:
            _dt, scale, (entries, dt) = speed.around(
                self._load, state,
                min(self.SLICE_S, max(t_end - time.perf_counter(), 0.05)),
            )
            wall += dt * scale
            log.extend(
                (kind, t0, None if lat is None else lat * scale, ok)
                for kind, t0, lat, ok in entries
            )
        missing += lookup()
        return {"log": log, "wall": wall, "lookups": lookups,
                "missing": missing}

    def _lookups(self, state, batches: int = 100) -> tuple[list, int]:
        """The bare work behind an exact answer — derive the content key,
        look it up — on the same store with no service in between.
        Returns per-lookup walls (one per batch over the popular
        points) and how many lookups found nothing."""
        service, store = state["service"], state["runtime"].store
        walls, missing = [], 0
        for _ in range(batches):
            t0 = time.perf_counter()
            for mach, alpha in state["popular"]:
                query = api.PointQuery(mach=mach, alpha=alpha)
                missing += store.get(
                    query.spec(service.solver, service.settings).key
                ) is None
            walls.append((time.perf_counter() - t0) / len(state["popular"]))
        return walls, missing

    def summarise(self, parts: list) -> Outcome:
        log = [entry for p in parts for entry in p["log"]]
        lookups = [dt for p in parts for dt in p["lookups"]]
        wall = sum(p["wall"] for p in parts)
        answered = [dt for _k, _t0, dt, _ok in log if dt is not None]
        solves = [dt for k, _t0, dt, _ok in log
                  if k == "solve" and dt is not None]
        exact = [dt for k, _t0, dt, _ok in log
                 if k == "exact" and dt is not None]
        failed = (sum(1 for *_rest, ok in log if not ok)
                  + sum(p["missing"] for p in parts))
        qps = len(answered) / wall
        return Outcome(
            values={
                "queries_per_s": qps,
                "kilo_query_s": 1.0e3 / qps,
                "query_p50_ms": median(answered) * 1.0e3,
                "query_p99_ms": quantile(answered, 0.99) * 1.0e3,
                "miss_p50_ms": median(solves) * 1.0e3,
                "miss_over_solve": median(solves) / self.DELAY,
                "exact_p50_ms": median(exact) * 1.0e3,
                "exact_over_lookup": median(exact) / median(lookups),
            },
            attempted=len(log) + len(lookups) * 12, failed=failed,
            samples={"queries": len(log), "misses": len(solves),
                     "clients": self.CLIENTS},
        )

    def trace(self, state, seconds: float, rec, seed: int,
              quick=False) -> dict:
        with rec.span("service.load", clients=self.CLIENTS):
            log, _wall = self._load(state, seconds / 3)
        tiers = {"exact": [], "surrogate": [], "solve": []}
        for kind, t0, dt, _ok in log:
            if dt is not None:
                tiers[kind].append(dt)
                rec.leaf(f"service.{kind}", t0, t0 + dt)
        counters = state["service"].counters
        rows = {
            "service.exact_p50_us": median(tiers["exact"]) * 1.0e6,
            "service.surrogate_p50_us": median(tiers["surrogate"]) * 1.0e6,
            "service.surrogate_p99_us":
                quantile(tiers["surrogate"], 0.99) * 1.0e6,
            "service.solve_overhead_ms":
                (median(tiers["solve"]) - self.DELAY) * 1.0e3,
            "service.hit_rate": counters.hit_rate,
        }
        for name in ("exact", "surrogate", "coalesced", "solved", "shed",
                     "failed"):
            rows[f"service.{name}"] = getattr(counters, name)
        store = state["runtime"].store
        spec = api.PointQuery(mach=0.512, alpha=3.3).spec("synthetic")
        rows.update(guarded("service.direct", probes.service_direct_rows,
                            api, store, spec) or {})
        key = spec.key
        rows["database.store_get_us"] = probes.per_call(
            lambda: store.get(key), 2000) * 1.0e6
        rows["database.store_nearest_us"] = probes.per_call(
            lambda: store.nearest(spec, k=6), 200) * 1.0e6
        return rows


WORKLOADS = {w.name: w for w in (
    SerialSolve(
        "nsu3d_serial", NSU3D,
        "plain single-threaded baseline, implicit path: block solves, "
        "Thomas and Jacobians do the work; comm/runtime/database idle",
    ),
    SerialSolve(
        "cart3d_serial", CART3D,
        "explicit RK path: scatter + rk_update, no block solves; octree, "
        "cut cells and SFC dominate set-up, so work moved there shows",
    ),
    DistSolve(
        "nsu3d_dist4", NSU3D,
        "same kernel work on 4 sim partitions, blocking exchange: all "
        "above 1.0x serial is comm + runtime + per-partition dispatch",
        nparts=4, backend="sim",
    ),
    DistSolve(
        "cart3d_dist4_overlap", CART3D,
        "same comm layer the other way (start_copy/finish, not blocking "
        "exchange_copy): a blocking gain that taxes the posted path shows",
        nparts=4, backend="sim", overlap=True,
    ),
    DistSolve(
        "nsu3d_proc2", NSU3D,
        "process backend, nranks=min(2,cpu_count): real concurrency over "
        "shared-memory slabs; the only row where scaling is observable",
        nparts=2, backend="process",
    ),
    Fill24(),
    ServiceMix(),
)}
