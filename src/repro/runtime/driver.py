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
:class:`SolverKernels`) whose methods all take and return one level's
stacked state — one ``(nrows, nvar)`` array over the level's
:class:`~repro.runtime.domain.RowStack` — so every partition of a
lockstep world at once (pure MPI and hybrid alike) and one spawned
worker per partition (process) all run the same code:
:func:`run_rank_cycles` is the shared, picklable body.  A
``sim``/``hybrid`` solve calls it **once, on the calling thread, over
the partitions of every rank** of the SimMPI world — the
kernels' only blocking points sit inside the exchanger and
``allreduce``, and :class:`~repro.runtime.backends.LockstepExchanger`
(one gather over the stacked rows, every rank's ledger charged) /
:class:`~repro.runtime.backends.LockstepComm` serve those for every
rank at once, so no rank needs a thread of its own; process
workers import it by name after spawn and run it over their partition.
"""

from __future__ import annotations

import numpy as np

from ..comm.simmpi import SimMPI
from ..errors import ConfigurationError, RankFailure
from ..kernels import incidence
from ..telemetry.spans import get_tracer, span as _span
from .backends import LockstepComm
from .config import RuntimeConfig
from .domain import level_cache, row_stack
from .multigrid import fas_cycle


class SolverKernels:
    """Protocol for the solver-specific half of a distributed solve.

    ``doms`` is a level's ``{pid: DistributedDomain}`` dict, ``X`` its
    Exchanger (:mod:`repro.runtime.backends`), and state ``q`` one
    C-contiguous ``(nrows, nvar)`` array: the partitions' rows end to
    end in ``doms`` order (:func:`~repro.runtime.domain.row_stack`).
    Required attributes: ``name``, ``coarse_cfl_fraction``.  Kernels
    may also expose a ``layout``
    (:class:`~repro.solvers.gas.VariableLayout`): when present, the
    runtime derives every state width from it — shared-slab carving,
    exchange block sizes — instead of assuming a fixed variable count.
    Required methods:

    ``init_state(doms)``, ``volumes(doms)``,
    ``fix_restricted_state(doms, q)``, ``mask_forcing(doms, f)``,
    ``smooth(X, doms, q, *, forcing, cfl, overlap)`` (one step),
    ``defect(X, doms, q, forcing)`` (completed residual minus forcing,
    ghost rows zeroed), ``apply_correction(comm, X, doms, q, dq)``,
    ``residual_norm(comm, X, doms, q)``.

    ``doms`` may span several ranks, so kernels never fold across
    partitions themselves: they hand ``comm.allreduce`` and
    ``X.charge`` one contribution per partition (``{pid: ...}``) and
    the comm folds them per rank in pid order, then across ranks.

    Kernels objects must be picklable (plain config state only): the
    process backend ships them to spawned workers.
    """


class _DistributedOps:
    """Distributed :class:`~repro.runtime.multigrid.LevelOps` adapter.

    Implements the generic transfer algebra — volume-weighted state
    restriction, defect restriction, injection prolongation along the
    first-fine-member agglomerate maps — on the levels' stacked states,
    with exchange-adds completing the owner sums and exchange-copies
    refreshing coarse ghosts, while deferring every physics decision
    (BC fixup, forcing masks, correction guarding) to the kernels.
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

    def clone(self, q):
        return q.copy()

    def smooth(self, level, q, forcing, cfl):
        return self.kernels.smooth(
            self.X[level], self.doms[level], q, forcing=forcing, cfl=cfl,
            overlap=self.overlap,
        )

    def defect(self, level, q, forcing):
        return self.kernels.defect(self.X[level], self.doms[level], q,
                                   forcing)

    def _cluster(self, level) -> np.ndarray:
        """Per owned row of the fine stack, in order, the coarse-stack
        row of its agglomerate; built once per level."""
        def build():
            cl = self.cluster_local[level]
            coarse = self.doms[level + 1]
            return np.concatenate([
                cl[p] + start
                for p, start in zip(coarse, row_stack(coarse).starts)
            ])

        return level_cache(self.doms[level], "cluster", build)

    def _restrict_sum(self, level, owned, tag):
        """Owner-complete sum over agglomerates of ``owned`` (one value
        per owned fine row, in stack order): one scatter into the coarse
        stack, then exchange-add (ghost coarse rows ship to their owners
        and zero)."""
        def restriction():
            # offsets keep partitions apart, and a row adds its fine
            # rows in position order: the per-partition sums, bit for bit
            nrows = len(row_stack(self.doms[level + 1]).ghost)
            return incidence(nrows, (self._cluster(level), 1.0))

        op = level_cache(self.doms[level], "restrict", restriction)
        acc = np.zeros((op.nrows,) + owned.shape[1:], dtype=np.float64)
        self.kernels.engine.scatter_add(acc, op, owned)
        self.X[level + 1].add(acc, tag=tag)
        return acc

    def restrict_state(self, level, q):
        kern = self.kernels
        doms_f, doms_c = self.doms[level], self.doms[level + 1]
        own = row_stack(doms_f).owned
        acc = self._restrict_sum(
            level, q[own] * kern.volumes(doms_f)[own, None],
            self.TAG_RESTRICT_ADD,
        )
        out = kern.fix_restricted_state(
            doms_c, acc / kern.volumes(doms_c)[:, None]
        )
        # coarse ghosts must carry the restricted state before R_c runs
        self.X[level + 1].copy(out, tag=self.TAG_RESTRICT_COPY)
        return out

    def coarse_forcing(self, level, q_c0, defect):
        kern = self.kernels
        doms_c = self.doms[level + 1]
        restricted = self._restrict_sum(
            level, defect[row_stack(self.doms[level]).owned],
            self.TAG_FORCING_ADD,
        )
        rc = kern.defect(self.X[level + 1], doms_c, q_c0, None)
        return kern.mask_forcing(doms_c, rc - restricted)

    def apply_correction(self, level, q, q_c, q_c0):
        # smoothers return ghost-fresh states and q_c0 was copy-refreshed
        # after restriction, so the coarse correction is already valid on
        # ghost agglomerates — no extra exchange needed here
        doms = self.doms[level]
        dq = np.zeros_like(q)
        dq[row_stack(doms).owned] = (q_c - q_c0)[self._cluster(level)]
        return self.kernels.apply_correction(
            self.comm, self.X[level], doms, q, dq
        )


def run_rank_cycles(comm, exchangers, doms, cluster_local, kernels, *,
                    ncycles: int, cfl: float, cycle: str = "W",
                    overlap: bool = False):
    """A whole solve over the partitions in ``doms``: init state,
    iterate cycles, slice owned.

    This is the picklable body shared by every backend.  A
    ``sim``/``hybrid`` driver calls it once over every partition of the
    world, with a lockstep ``comm``/``exchangers`` pair that steps all
    ranks; a spawned process worker imports it by name and runs it over
    its own partition.  ``doms``/``cluster_local`` are per-level ``{pid:
    ...}`` dicts; returns ``(owned, history)`` where ``owned`` is a list
    of ``(owned_global_ids, owned_rows)`` pairs.
    """
    q = kernels.init_state(doms[0])
    history = []
    # solver spans land on ``comm``'s track and clock: a worker's own
    # (wall), or the lowest rank's (virtual) when one call drives every
    # rank; comm.* spans are re-bound per rank by the exchangers
    with get_tracer().bind(rank=comm.rank, clock=lambda: comm.clock):
        for _ in range(ncycles):
            with _span(f"{kernels.name}.parallel_cycle", cat="solver"):
                ops = _DistributedOps(
                    comm, exchangers, doms, cluster_local, kernels,
                    overlap,
                )
                q = fas_cycle(ops, q, cycle=cycle, cfl=cfl)
                history.append(kernels.residual_norm(
                    comm, exchangers[0], doms[0], q
                ))
    spans = row_stack(doms[0]).owned_spans
    owned = [
        (dom.halo.owned_global, q[spans[p]]) for p, dom in doms[0].items()
    ]
    return owned, history


class DistributedSolveDriver:
    """Run a domain hierarchy + kernels under a selected backend.

    This is the object ``make_parallel_*`` return: one lifecycle —
    :meth:`solve`, :meth:`run`, :meth:`close` (or the context manager)
    — for both solvers.  How the solve executes is stated once, in a
    :class:`~repro.runtime.config.RuntimeConfig`:

    * ``sim``/``hybrid`` solves run on a :class:`SimMPI` world, every
      rank stepped in lockstep on the calling thread (no rank threads)
      — :meth:`solve` builds the world, or pass your own to :meth:`run`
      when you want to read its virtual clocks, message ledger or trace
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
    exchanger: during each overlap window ghost rows carry a NaN
    canary and the pending's ``q`` is a read-trapping guard view, so
    any kernel that touches ghost state before the matching
    ``finish()`` raises :class:`~repro.errors.GhostRaceError` instead
    of silently computing on stale data.

    Every outer cycle is one full multigrid cycle; a one-level
    hierarchy just smooths two steps (one pre, one post), matching the
    serial solvers' ``run_cycle`` at ``mg_levels=1``.
    """

    def __init__(self, hierarchy, kernels, qinf, *,
                 config: RuntimeConfig | None = None):
        config = (config or RuntimeConfig()).resolve(hierarchy.nparts)
        self.hierarchy = hierarchy
        self.kernels = kernels
        self.qinf = np.asarray(qinf, dtype=np.float64)
        self.config = config
        self._pool = None

    @property
    def part(self) -> np.ndarray:
        """The fine-level partition vector the hierarchy was built on."""
        return self.hierarchy.levels[0].part

    @property
    def nparts(self) -> int:
        return self.hierarchy.nparts

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Tear down the worker pool (no-op for the in-process
        backends; safe to call twice)."""
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
                overlap=self.config.overlap,
                sanitize=self.config.sanitize,
                timeout=self.config.worker_timeout,
            )
        return self._pool

    # -- solves --------------------------------------------------------------

    def solve(self, ncycles: int, *, cfl: float, cycle: str = "W"):
        """Config-driven entry point: builds the right world for the
        selected backend; returns (global q, history)."""
        if self.config.backend == "process":
            return self._ensure_pool().run(
                ncycles=ncycles, cfl=cfl, cycle=cycle,
            )
        return self.run(
            SimMPI(self.config.nranks), ncycles, cfl=cfl, cycle=cycle,
        )

    def run(self, world, ncycles: int, *, cfl: float, cycle: str = "W"):
        """Iterate ``ncycles`` full cycles on a caller-supplied SimMPI
        ``world``; returns (global q, history).  Any failure inside the
        cycles surfaces as :class:`~repro.errors.RankFailure` with the
        original as ``__cause__``; the world is reusable afterwards."""
        if self.config.backend == "process":
            raise ConfigurationError(
                "the process backend owns its worker world; call "
                "solve() instead of run(world, ...)"
            )
        comm = LockstepComm(world, self.nparts)
        levels = self.hierarchy.levels
        doms = [dict(enumerate(level.domains)) for level in levels]
        exchangers = [comm.exchanger(level) for level in doms]
        for x in exchangers:
            x.charging = self.config.charge_compute
            x.sanitize = self.config.sanitize
        try:
            owned, history = run_rank_cycles(
                comm, exchangers, doms,
                self.hierarchy.cluster_local, self.kernels,
                ncycles=ncycles, cfl=cfl, cycle=cycle,
                overlap=self.config.overlap,
            )
        except Exception as exc:
            # one execution stands for every rank; blame the lowest
            raise RankFailure(comm.rank, exc) from exc
        q_global = np.empty(
            (levels[0].nglobal, len(self.qinf)), dtype=np.float64
        )
        for gids, q_owned in owned:
            q_global[gids] = q_owned
        return q_global, history
