"""Solver-agnostic distributed domains (tentpole piece 2).

A :class:`DistributedDomain` owns what both solvers' rank-local
domains share: the :class:`~repro.comm.exchange.LocalHalo` lifecycle —
local numbering with owned vertices first, the owned/ghost split, the
matched exchange plan — plus an opaque solver payload carrying the
rank-local physics (a ``FlowContext``, a local Cart3D level, ...),
reached as ``dom.ctx``.

:func:`build_domain_hierarchy` stacks domains for multigrid: coarse
partitions are *derived* from the fine partition (a coarse agglomerate
lives where its first fine member lives), and the halo ghost sets are
widened so every coarse agglomerate referenced by an owned fine point is
locally resident — the invariant the distributed transfer operators in
:mod:`repro.runtime.driver` rely on.

:class:`RowStack` lays a level's partitions end to end.  The distributed
state of a level is one C-contiguous ``(nrows, nvar)`` array over those
rows — every partition of a lockstep world in pid order, or a process
worker's one — and every kernel hook, transfer operator and exchanger
takes and returns that array.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Callable

import numpy as np

from ..comm.exchange import build_halos
from ..errors import ConfigurationError


class DistributedDomain:
    """One rank's share of one level: halo + solver payload.

    ``halo`` carries the local numbering and exchange plan; ``ctx`` is
    the solver-specific payload in that numbering.
    """

    def __init__(self, halo, ctx: Any):
        self.halo = halo
        self.ctx = ctx
        #: scratch space for derived structures (interior/ghost splits
        #: for overlapped exchange, frozen operators, ...)
        self.cache: dict = {}

    @property
    def nowned(self) -> int:
        return self.halo.nowned

    @property
    def nlocal(self) -> int:
        return self.halo.nlocal


def level_cache(doms: dict, key: str, build: Callable[[], Any]) -> Any:
    """``build()`` once per level: kept on the first domain's
    :attr:`~DistributedDomain.cache` — a level's domains live and die
    together — under the partition ids the structure spans."""
    cache = next(iter(doms.values())).cache
    slot = key, tuple(doms)
    if slot not in cache:
        cache[slot] = build()
    return cache[slot]


class RowStack:
    """The rows of the partitions in ``doms`` — every one of a lockstep
    world, a process worker's one — end to end, so a pass runs each
    serial kernel once on all of them (paper section III).  A level's
    distributed state is one ``(nrows, nvar)`` array over these rows.
    ``spans`` / ``owned_spans`` are each partition's rows / owned rows,
    ``owned`` all owned rows, ``ghost`` masks the others.  Solvers
    subclass it to stack their payload (:meth:`concat`)."""

    def __init__(self, doms: dict):
        sizes = [dom.nlocal for dom in doms.values()]
        self.sizes = tuple(sizes)
        self.starts = [end - n for end, n in zip(accumulate(sizes), sizes)]
        self.spans = {p: slice(s, s + n)
                      for p, s, n in zip(doms, self.starts, sizes)}
        self.owned_spans = {p: slice(s, s + dom.nowned)
                            for (p, dom), s in zip(doms.items(), self.starts)}
        self.ghost = np.ones(sum(sizes), dtype=bool)
        for span in self.owned_spans.values():
            self.ghost[span] = False
        self.owned = np.flatnonzero(~self.ghost)

    def concat(self, parts: list, name: str, *, ids: bool = False
               ) -> np.ndarray:
        """Field ``name`` of every partition's entry of ``parts`` end to
        end; ``ids`` marks row indices, shifted to the stack's rows."""
        return np.concatenate([
            getattr(part, name) + start if ids else getattr(part, name)
            for part, start in zip(parts, self.starts)
        ])


def row_stack(doms: dict) -> RowStack:
    """The level's :class:`RowStack`, built once per level."""
    return level_cache(doms, "rows", lambda: RowStack(doms))


@dataclass
class LevelSpec:
    """Global description of one level, ready to be decomposed.

    ``payload(halo, part)`` builds the rank-local solver payload for one
    halo — the only solver-specific step of domain construction.
    """

    nvert: int
    edges: np.ndarray
    payload: Callable[[Any, np.ndarray], Any]


@dataclass
class DomainSet:
    """All ranks' domains for one level, plus the partition vector."""

    domains: list
    part: np.ndarray
    nglobal: int

    @property
    def nparts(self) -> int:
        return len(self.domains)


def build_domain_set(
    spec: LevelSpec,
    part: np.ndarray,
    extra_ghosts: list | None = None,
) -> DomainSet:
    """Decompose one level along ``part`` into per-rank domains."""
    part = np.asarray(part, dtype=np.int64)
    halos = build_halos(spec.nvert, spec.edges, part,
                        extra_ghosts=extra_ghosts)
    domains = [DistributedDomain(h, spec.payload(h, part)) for h in halos]
    return DomainSet(domains=domains, part=part, nglobal=spec.nvert)


def derive_coarse_partition(
    cluster: np.ndarray, fine_part: np.ndarray, ncoarse: int
) -> np.ndarray:
    """Coarse partition induced by a fine one: an agglomerate is owned
    by the rank owning its lowest-global-id fine member (the same
    deterministic rule that assigns cross edges in ``build_halos``)."""
    cluster = np.asarray(cluster, dtype=np.int64)
    fine_part = np.asarray(fine_part, dtype=np.int64)
    coarse = np.full(ncoarse, -1, dtype=np.int64)
    # reversed assignment: the lowest fine member writes last and wins
    order = np.arange(len(cluster) - 1, -1, -1)
    coarse[cluster[order]] = fine_part[order]
    if (coarse < 0).any():
        raise ConfigurationError("cluster map leaves empty agglomerates")
    return coarse


@dataclass
class DomainHierarchy:
    """A multigrid stack of :class:`DomainSet` levels.

    ``cluster_local[l][p]`` maps rank ``p``'s *owned* fine rows on level
    ``l`` to the local slot of their coarse agglomerate on level
    ``l + 1`` (owned or ghost there — the widened halos guarantee
    residency).
    """

    levels: list
    cluster_local: list

    @property
    def nlevels(self) -> int:
        return len(self.levels)

    @property
    def nparts(self) -> int:
        return self.levels[0].nparts


def build_domain_hierarchy(
    specs: list,
    clusters: list,
    part: np.ndarray,
) -> DomainHierarchy:
    """Decompose a whole multigrid hierarchy from one fine partition.

    ``specs`` holds one :class:`LevelSpec` per level (fine first);
    ``clusters[l]`` maps level-``l`` global ids to level-``l+1`` global
    agglomerates (``len(specs) == len(clusters) + 1``).
    """
    if len(specs) != len(clusters) + 1:
        raise ConfigurationError("need one cluster map per level gap")
    part = np.asarray(part, dtype=np.int64)
    nparts = int(part.max()) + 1 if len(part) else 0

    parts = [part]
    for l, cluster in enumerate(clusters):
        parts.append(
            derive_coarse_partition(cluster, parts[l], specs[l + 1].nvert)
        )

    levels = []
    for l, spec in enumerate(specs):
        extra = None
        if l > 0:
            # every coarse agglomerate referenced by an owned fine point
            # must be resident for the transfer operators
            cluster = np.asarray(clusters[l - 1], dtype=np.int64)
            extra = [
                np.unique(cluster[np.flatnonzero(parts[l - 1] == p)])
                for p in range(nparts)
            ]
        levels.append(build_domain_set(spec, parts[l], extra_ghosts=extra))

    cluster_local = []
    for l, cluster in enumerate(clusters):
        cluster = np.asarray(cluster, dtype=np.int64)
        per_rank = {}
        for p in range(nparts):
            hf = levels[l].domains[p].halo
            hc = levels[l + 1].domains[p].halo
            g2l = np.full(specs[l + 1].nvert, -1, dtype=np.int64)
            g2l[hc.local_to_global()] = np.arange(hc.nlocal)
            local = g2l[cluster[hf.owned_global]]
            if (local < 0).any():
                raise ConfigurationError(
                    "coarse agglomerate of an owned fine point is not "
                    "locally resident — halo widening failed"
                )
            per_rank[p] = local
        cluster_local.append(per_rank)

    return DomainHierarchy(levels=levels, cluster_local=cluster_local)
