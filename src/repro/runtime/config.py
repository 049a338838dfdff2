"""Unified backend selection for the distributed runtime (PR 7).

One frozen :class:`RuntimeConfig` is the only way to say how a
distributed solve executes: ``make_parallel_*``,
:class:`~repro.runtime.driver.DistributedSolveDriver` and
``Cart3DCaseRunner`` all take it as ``config=``.  The ``backend``
selector names the execution model explicitly:

* ``"sim"`` — in-process :class:`~repro.comm.simmpi.SimMPI` world, one
  simulated rank per partition (virtual clocks, deterministic).
* ``"hybrid"`` — SimMPI world with fewer ranks than partitions; each
  rank serves several partitions under the paper's master-thread model
  (fig. 7b).  Requires an explicit ``nranks < nparts``.
* ``"process"`` — spawned ``multiprocessing`` worker pool, one OS
  process per partition with shared-memory halo exchange: the only
  backend whose parallelism is real wall-clock concurrency.

``sim`` and ``hybrid`` solves run on the calling thread: the driver
steps every rank of the world in lockstep, so neither starts a thread.

The kernel engine is not an execution choice: there is one
(:mod:`repro.kernels`), and every backend runs it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import ConfigurationError

#: The blessed backend names, in documentation order.
BACKENDS = ("sim", "hybrid", "process")


@dataclass(frozen=True)
class RuntimeConfig:
    """How a distributed solve executes — backend, rank count, exchange
    mode and safety rails, in one immutable value.

    ``nranks=None`` defaults to one rank per partition when the config
    is :meth:`resolve`-d against a concrete partition count.  The
    ``hybrid`` backend needs an explicit ``nranks`` smaller than the
    partition count; the ``process`` backend pins one worker per
    partition.

    ``charge_compute`` bills calibrated kernel FLOPs to SimMPI's
    virtual clocks and is meaningless (and rejected) under the
    ``process`` backend, whose clock is real.
    """

    backend: str = "sim"
    nranks: int | None = None
    overlap: bool = False
    sanitize: bool = False
    charge_compute: bool = False
    #: longest one wait may last — a worker's for one neighbour's
    #: sequence word, the master's for one reply — before the silent
    #: peer is declared dead (``WorkerCrash``); process backend only
    worker_timeout: float = 120.0

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; choose one of "
                f"{BACKENDS}"
            )
        if self.nranks is not None and self.nranks < 1:
            raise ConfigurationError("nranks must be >= 1")
        if self.backend == "process" and self.charge_compute:
            raise ConfigurationError(
                "charge_compute bills virtual SimMPI clocks; the process "
                "backend runs on the real clock — drop charge_compute or "
                "use backend='sim'"
            )
        if self.worker_timeout <= 0:
            raise ConfigurationError("worker_timeout must be positive")

    def resolve(self, nparts: int) -> "RuntimeConfig":
        """Validate against a concrete partition count and default
        ``nranks`` (one rank per partition for sim/process)."""
        nranks = self.nranks
        if self.backend == "hybrid":
            if nranks is None:
                raise ConfigurationError(
                    "the hybrid backend serves several partitions per "
                    "rank; pass an explicit nranks < nparts"
                )
            if nranks >= nparts:
                raise ConfigurationError(
                    f"hybrid needs fewer ranks than partitions "
                    f"(got nranks={nranks}, nparts={nparts}); use "
                    "backend='sim' for one partition per rank"
                )
        elif self.backend == "process":
            if nranks is None:
                nranks = nparts
            if nranks != nparts:
                raise ConfigurationError(
                    f"the process backend runs one worker per partition "
                    f"(got nranks={nranks}, nparts={nparts})"
                )
        else:  # sim
            if nranks is None:
                nranks = nparts
            if nranks != nparts:
                raise ConfigurationError(
                    f"backend='sim' runs one rank per partition (got "
                    f"nranks={nranks}, nparts={nparts}); use "
                    "backend='hybrid' for several partitions per rank"
                )
        return replace(self, nranks=nranks)

