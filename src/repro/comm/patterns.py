"""Communication-pattern utilities and the Random Ring benchmark.

Reference [4] of the paper (Biswas et al.) characterized Columbia's
fabrics with, among others, a *Random Ring* benchmark — every rank sends
to a randomly chosen successor around a ring — and observed severe
InfiniBand latency/bandwidth degradation for this irregular pattern.  The
paper speculates that exactly this effect is what hurts the multigrid
*inter-grid* transfers on InfiniBand (section VI, discussion of fig. 19).

This module reimplements that benchmark on SimMPI — one lockstep run in
which every rank posts its receive and its send, then every rank waits
— plus helpers for reasoning about communication graphs (the paper
quotes a maximum degree of 18 for intra-level exchanges vs 19 for
inter-grid transfers).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .simmpi import SimMPI


def graph_degrees(adjacency: np.ndarray) -> np.ndarray:
    """Per-rank neighbor counts of a 0/1 rank-adjacency matrix."""
    adjacency = np.asarray(adjacency)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise ConfigurationError("adjacency must be square")
    return adjacency.sum(axis=1)


def max_degree(adjacency: np.ndarray) -> int:
    return int(graph_degrees(adjacency).max(initial=0))


def natural_ring_time(world: SimMPI, nbytes: int) -> float:
    """Virtual time for one ring exchange with rank i -> i+1 (regular)."""
    return _ring_time(world, np.roll(np.arange(world.nranks), -1), nbytes,
                      irregular=False)


def random_ring_time(world: SimMPI, nbytes: int, seed: int = 0) -> float:
    """Virtual time for one *random* ring exchange (irregular pattern).

    Each rank sends ``nbytes`` to its successor on a random cyclic
    permutation — maximizing the chance of cross-box traffic and fabric
    contention, like the benchmark in reference [4].
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(world.nranks)
    succ = np.empty(world.nranks, dtype=np.int64)
    succ[perm] = perm[np.roll(np.arange(world.nranks), -1)]
    return _ring_time(world, succ, nbytes, irregular=True)


def _ring_time(world: SimMPI, succ: np.ndarray, nbytes: int,
               irregular: bool) -> float:
    pred = np.empty_like(succ)
    pred[succ] = np.arange(len(succ))

    payload = np.zeros(max(1, nbytes // 8))
    reqs = []
    for comm in world.lockstep():
        reqs.append(comm.irecv(int(pred[comm.rank]), tag=7))
        comm.isend(payload, int(succ[comm.rank]), tag=7, irregular=irregular)
    for req in reqs:
        req.wait()
    return world.max_clock()


def random_ring_slowdown(world_factory, nbytes: int = 65536, seed: int = 0):
    """Ratio random-ring / natural-ring time for a fresh world per run.

    ``world_factory`` builds the SimMPI world each ring runs on.  On
    InfiniBand-spanning placements this ratio is large; on NUMAlink it
    stays modest — the fabric asymmetry behind fig. 16(b).
    """
    natural = natural_ring_time(world_factory(), nbytes)
    random_ = random_ring_time(world_factory(), nbytes, seed=seed)
    return random_ / natural
