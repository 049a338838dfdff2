"""The one distributed cycle loop for both solvers (tentpole piece 4).

:class:`DistributedSolveDriver` is the object a decomposed solve is —
``make_parallel_*`` return it directly.  It owns backend selection
(pure MPI when ranks == partitions, hybrid master-thread when ranks <
partitions, real spawned workers under ``backend="process"``),
per-rank state initialization, the cycle loop with telemetry spans,
the distributed FAS adapter over
:func:`repro.runtime.multigrid.fas_cycle`, residual-history collection
and the final owned-row gather.

Solver physics enters through a *kernels* object (duck-typed; see
:class:`SolverKernels`) whose methods all operate on per-partition
dicts, so one partition per rank (pure MPI), many partitions per
process (hybrid) and one spawned worker per partition (process) all
run the same code: :func:`run_rank_cycles` is the shared, picklable
per-rank body — SimMPI rank threads call it through a closure, process
workers import it by name after spawn.
"""

from __future__ import annotations

import numpy as np

from ..comm.hybrid import HybridProcess, partition_owners
from ..comm.simmpi import SimMPI
from ..errors import ConfigurationError
from ..telemetry.spans import get_tracer, span as _span
from .backends import make_exchanger
from .config import RuntimeConfig
from .multigrid import fas_cycle


class SolverKernels:
    """Protocol for the solver-specific half of a distributed solve.

    State is always a ``{pid: (nlocal, nvar) array}`` dict; ``X`` an
    Exchanger (:mod:`repro.runtime.backends`); ``doms`` a ``{pid:
    DistributedDomain}`` dict.  Required attributes: ``name``,
    ``coarse_cfl_fraction``.  Kernels may also expose a ``layout``
    (:class:`~repro.solvers.gas.VariableLayout`): when present, the
    runtime derives every state width from it — shared-slab carving,
    exchange block sizes — instead of assuming a fixed variable count.
    Required methods:

    ``init_state(dom)``, ``volumes(dom)``,
    ``fix_restricted_state(dom, q)``, ``mask_forcing(dom, f)``,
    ``smooth(X, doms, qs, *, forcing, cfl, nsteps, overlap)``,
    ``defect(X, doms, qs, forcing)`` (completed residual minus forcing,
    ghost rows zeroed), ``apply_correction(comm, X, doms, qs, dqs)``,
    ``residual_norm(comm, X, doms, qs)``.

    Kernels objects must be picklable (plain config state only): the
    process backend ships them to spawned workers.
    """


class _DistributedOps:
    """Distributed :class:`~repro.runtime.multigrid.LevelOps` adapter.

    Implements the generic transfer algebra — volume-weighted state
    restriction, defect restriction, injection prolongation along the
    first-fine-member agglomerate maps — with exchange-adds completing
    the owner sums and exchange-copies refreshing coarse ghosts, while
    deferring every physics decision (BC fixup, forcing masks,
    correction guarding) to the kernels.
    """

    #: tags for the transfer-operator exchanges (solver smoothers use
    #: their historical tags; these are runtime-owned)
    TAG_RESTRICT_ADD = 31
    TAG_RESTRICT_COPY = 32
    TAG_FORCING_ADD = 33

    def __init__(self, comm, exchangers, doms, cluster_local, kernels,
                 overlap):
        self.comm = comm
        self.X = exchangers
        self.doms = doms
        self.cluster_local = cluster_local
        self.kernels = kernels
        self.overlap = overlap
        self.name = kernels.name
        self.coarse_cfl_fraction = kernels.coarse_cfl_fraction
        self.nlevels = len(doms)

    def clone(self, qs):
        return {p: a.copy() for p, a in qs.items()}

    def smooth(self, level, qs, forcing, cfl, nsteps):
        return self.kernels.smooth(
            self.X[level], self.doms[level], qs, forcing=forcing, cfl=cfl,
            nsteps=nsteps, overlap=self.overlap,
        )

    def defect(self, level, qs, forcing):
        return self.kernels.defect(self.X[level], self.doms[level], qs,
                                   forcing)

    def _restrict_sum(self, level, values, tag):
        """Owner-complete sum of per-fine-row ``values`` over
        agglomerates: local accumulate, then exchange-add (ghost coarse
        rows ship to their owners and zero)."""
        doms_c = self.doms[level + 1]
        cl = self.cluster_local[level]
        acc = {}
        for p, dom in self.doms[level].items():
            nvar = values[p].shape[1]
            a = np.zeros((doms_c[p].nlocal, nvar), dtype=np.float64)
            np.add.at(a, cl[p], values[p][: dom.nowned])
            acc[p] = a
        self.X[level + 1].add(acc, tag=tag)
        return acc

    def restrict_state(self, level, qs):
        kern = self.kernels
        doms_f, doms_c = self.doms[level], self.doms[level + 1]
        weighted = {
            p: qs[p][: dom.nowned]
            * kern.volumes(dom)[: dom.nowned, None]
            for p, dom in doms_f.items()
        }
        # _restrict_sum slices to nowned again; already-owned-only is fine
        acc = self._restrict_sum(level, weighted, self.TAG_RESTRICT_ADD)
        out = {}
        for p, dom in doms_c.items():
            qc = acc[p] / kern.volumes(dom)[:, None]
            out[p] = kern.fix_restricted_state(dom, qc)
        # coarse ghosts must carry the restricted state before R_c runs
        self.X[level + 1].copy(out, tag=self.TAG_RESTRICT_COPY)
        return out

    def coarse_forcing(self, level, q_c0, defect):
        kern = self.kernels
        doms_c = self.doms[level + 1]
        restricted = self._restrict_sum(level, defect, self.TAG_FORCING_ADD)
        rc = kern.defect(self.X[level + 1], doms_c, q_c0, None)
        return {
            p: kern.mask_forcing(dom, rc[p] - restricted[p])
            for p, dom in doms_c.items()
        }

    def apply_correction(self, level, qs, q_c, q_c0):
        # smoothers return ghost-fresh states and q_c0 was copy-refreshed
        # after restriction, so the coarse correction is already valid on
        # ghost agglomerates — no extra exchange needed here
        cl = self.cluster_local[level]
        dqs = {}
        for p, dom in self.doms[level].items():
            dqc = q_c[p] - q_c0[p]
            d = np.zeros_like(qs[p])
            d[: dom.nowned] = dqc[cl[p]]
            dqs[p] = d
        return self.kernels.apply_correction(
            self.comm, self.X[level], self.doms[level], qs, dqs
        )


def run_rank_cycles(comm, exchangers, doms, cluster_local, kernels, *,
                    ncycles: int, cfl: float, cycle: str = "W",
                    nu1: int = 1, nu2: int = 1,
                    coarse_cfl: float | None = None,
                    overlap: bool = False):
    """One rank's whole solve: init state, iterate cycles, slice owned.

    This is the picklable body shared by every backend — SimMPI rank
    threads (sim/hybrid) call it from the driver's closure, spawned
    process workers import it by name.  ``doms``/``cluster_local`` are
    per-level ``{pid: ...}`` dicts restricted to this rank's
    partitions; returns ``(owned, history)`` where ``owned`` is a list
    of ``(owned_global_ids, owned_rows)`` pairs.
    """
    pids = tuple(sorted(doms[0]))
    qs = {p: kernels.init_state(doms[0][p]) for p in pids}
    history = []
    # each rank pins its identity and clock (virtual under SimMPI, wall
    # in a worker), so spans (here and in comm.*) land on per-rank tracks
    with get_tracer().bind(rank=comm.rank, clock=lambda: comm.clock):
        for _ in range(ncycles):
            with _span(f"{kernels.name}.parallel_cycle", cat="solver"):
                ops = _DistributedOps(
                    comm, exchangers, doms, cluster_local, kernels,
                    overlap,
                )
                qs = fas_cycle(
                    ops, qs, cycle=cycle, nu1=nu1, nu2=nu2,
                    cfl=cfl, coarse_cfl=coarse_cfl,
                )
                history.append(kernels.residual_norm(
                    comm, exchangers[0], doms[0], qs
                ))
    owned = [
        (doms[0][p].halo.owned_global, qs[p][: doms[0][p].nowned])
        for p in pids
    ]
    return owned, history


class DistributedSolveDriver:
    """Run a domain hierarchy + kernels under a selected backend.

    This is the object ``make_parallel_*`` return: one lifecycle —
    :meth:`solve`, :meth:`run`, :meth:`close` (or the context manager)
    — for both solvers.  How the solve executes is stated once, in a
    :class:`~repro.runtime.config.RuntimeConfig`:

    * ``sim``/``hybrid`` solves run on a :class:`SimMPI` world —
      :meth:`solve` builds it, or pass your own to :meth:`run` when you
      want to read its virtual clocks, message ledger or trace
      afterwards;
    * ``process`` solves run on a pool of spawned workers
      (:class:`~repro.runtime.process.ProcessPool`) launched lazily on
      first use and reused for the driver's lifetime — call
      :meth:`close` (or use the driver as a context manager) to tear
      the workers down.

    ``overlap=True`` switches the smoothers' per-stage ghost refresh to
    the posted-send / compute-interior / finish-boundary pattern (paper
    fig. 7); ``charge_compute=True`` additionally bills calibrated
    kernel FLOPs to each rank's virtual clock so SimMPI makespans
    expose the overlap benefit (rejected under ``process``, whose
    clock is real).

    ``sanitize=True`` arms the
    :class:`~repro.runtime.sanitizer.GhostSanitizer` on every
    exchanger: during each overlap window ghost slots carry a NaN
    canary and the state arrays are swapped for read-trapping guard
    views, so any kernel that touches ghost state before the matching
    ``finish()`` raises :class:`~repro.errors.GhostRaceError` instead
    of silently computing on stale data.

    Every outer cycle is one full multigrid cycle; a one-level
    hierarchy just smooths ``nu1 + nu2`` steps, matching the serial
    solvers' ``run_cycle`` at ``mg_levels=1``.
    """

    def __init__(self, hierarchy, kernels, qinf, *,
                 config: RuntimeConfig | None = None):
        config = (config or RuntimeConfig()).resolve(hierarchy.nparts)
        self.hierarchy = hierarchy
        self.kernels = kernels
        self.qinf = np.asarray(qinf, dtype=np.float64)
        self.config = config
        self.backend = config.backend
        self.nranks = config.nranks
        self.worker_timeout = config.worker_timeout
        self.overlap = config.overlap
        self.charge_compute = config.charge_compute
        self.sanitize = config.sanitize
        self._pool = None

    @property
    def part(self) -> np.ndarray:
        """The fine-level partition vector the hierarchy was built on."""
        return self.hierarchy.levels[0].part

    @property
    def nparts(self) -> int:
        return self.hierarchy.nparts

    @property
    def nlevels(self) -> int:
        return self.hierarchy.nlevels

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Tear down the worker pool (no-op for thread backends; safe
        to call twice)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def __enter__(self) -> "DistributedSolveDriver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _ensure_pool(self):
        """The live worker pool, spawning one on first use.  Workers
        capture ``overlap``/``sanitize`` at spawn."""
        if self._pool is None or self._pool.closed:
            from .process import ProcessPool

            layout = getattr(self.kernels, "layout", None)
            self._pool = ProcessPool(
                self.hierarchy, self.kernels,
                nvar=layout.nvar if layout is not None else len(self.qinf),
                overlap=self.overlap,
                sanitize=self.sanitize,
                timeout=self.worker_timeout,
            )
        return self._pool

    # -- solves --------------------------------------------------------------

    def solve(self, ncycles: int, *, cfl: float, cycle: str = "W",
              nu1: int = 1, nu2: int = 1,
              coarse_cfl: float | None = None):
        """Config-driven entry point: builds the right world for the
        selected backend; returns (global q, history)."""
        if self.backend == "process":
            return self._run_process(
                ncycles, cfl=cfl, cycle=cycle, nu1=nu1, nu2=nu2,
                coarse_cfl=coarse_cfl,
            )
        return self.run(
            SimMPI(self.nranks), ncycles, cfl=cfl, cycle=cycle, nu1=nu1,
            nu2=nu2, coarse_cfl=coarse_cfl,
        )

    def run(self, world, ncycles: int, *, cfl: float, cycle: str = "W",
            nu1: int = 1, nu2: int = 1, coarse_cfl: float | None = None):
        """Iterate ``ncycles`` full cycles on a caller-supplied SimMPI
        ``world``; returns (global q, history)."""
        if self.backend == "process":
            raise ConfigurationError(
                "the process backend owns its worker world; call "
                "solve() instead of run(world, ...)"
            )
        hierarchy, kernels = self.hierarchy, self.kernels
        overlap, charging = self.overlap, self.charge_compute
        sanitize = self.sanitize
        nparts, nlevels = self.nparts, self.nlevels
        if world.nranks == nparts:
            proc_of = {p: p for p in range(nparts)}
            hybrid = False
        elif world.nranks < nparts:
            proc_of = partition_owners(nparts, world.nranks)
            hybrid = True
        else:
            raise ConfigurationError(
                f"{world.nranks} ranks for {nparts} partitions — the "
                "driver needs at least one partition per rank"
            )

        def body(comm):
            pids = tuple(sorted(
                p for p in range(nparts) if proc_of[p] == comm.rank
            ))
            doms = [
                {p: hierarchy.levels[lev].domains[p] for p in pids}
                for lev in range(nlevels)
            ]
            if hybrid:
                exchangers = [
                    make_exchanger("hybrid", comm, process=HybridProcess(
                        rank=comm.rank,
                        part_ids=pids,
                        plans={
                            p: hierarchy.levels[lev].domains[p].halo.plan
                            for p in range(nparts)
                        },
                        proc_of=proc_of,
                    ))
                    for lev in range(nlevels)
                ]
            else:
                exchangers = [
                    make_exchanger("plan", comm, plans={
                        p: doms[lev][p].halo.plan for p in pids
                    })
                    for lev in range(nlevels)
                ]
            for x in exchangers:
                x.charging = charging
                x.sanitize = sanitize
            cluster_local = [
                {p: hierarchy.cluster_local[lev][p] for p in pids}
                for lev in range(nlevels - 1)
            ]
            return run_rank_cycles(
                comm, exchangers, doms, cluster_local, kernels,
                ncycles=ncycles, cfl=cfl, cycle=cycle, nu1=nu1, nu2=nu2,
                coarse_cfl=coarse_cfl, overlap=overlap,
            )

        results = world.run(body)
        q_global = np.empty(
            (hierarchy.levels[0].nglobal, len(self.qinf)), dtype=np.float64
        )
        for owned, _history in results:
            for gids, q_owned in owned:
                q_global[gids] = q_owned
        return q_global, results[0][1]

    def _run_process(self, ncycles: int, *, cfl: float, cycle: str,
                     nu1: int, nu2: int, coarse_cfl: float | None):
        """Run one solve on the (lazily spawned, reused) worker pool."""
        pool = self._ensure_pool()
        q_global, history = pool.run(
            ncycles=ncycles, cfl=cfl, cycle=cycle, nu1=nu1, nu2=nu2,
            coarse_cfl=coarse_cfl,
        )
        return q_global, history
