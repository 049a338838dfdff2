"""Ghost-vertex halo exchange (paper section III, figure 6a).

NSU3D assigns every partition-straddling mesh edge to exactly one of the
two processors; that processor constructs a *ghost vertex* mirroring the
off-processor endpoint.  A residual evaluation then needs two exchanges:

* ``exchange_add`` — flux contributions accumulated at ghost vertices are
  shipped to the physical owner and **added** there (completing the
  residual), and
* ``exchange_copy`` — freshly updated owner values are shipped back and
  **copied** into the ghosts.

Messages between a rank pair are packed into a single buffer per
direction ("fewer larger messages" to amortize latency, exactly the
paper's strategy); receives are posted before sends.

:func:`build_halos` performs the preprocessing: given the global graph
and a partition vector it derives, for every rank, the local numbering
(owned vertices first, ghosts appended), the locally assigned edges, and
a matched :class:`ExchangePlan` whose buffer orderings agree pairwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError, ExchangeLifecycleError
from ..telemetry.spans import span as _span


@dataclass
class ExchangePlan:
    """One rank's halo communication schedule.

    ``ghost_slots[q]`` is an int64 index array of local slots holding
    ghosts of vertices owned by rank ``q``; ``owned_slots[q]`` is an
    int64 index array of local owned slots that rank ``q`` mirrors as
    ghosts.  The orderings are constructed identically on both sides
    (ascending global id), so buffers need no index metadata.
    :func:`repro.analysis.plancheck.check_plans` verifies these
    invariants statically.
    """

    rank: int
    ghost_slots: dict[int, np.ndarray] = field(default_factory=dict)
    owned_slots: dict[int, np.ndarray] = field(default_factory=dict)
    #: (slot-dict keys the list was derived from, the list)
    _neighbors: tuple | None = field(default=None, init=False, repr=False,
                                     compare=False)

    @property
    def neighbors(self) -> list[int]:
        """Sorted ranks this rank exchanges with, in either direction —
        the union of ``ghost_slots`` and ``owned_slots`` keys.  Sorted
        once per plan, not once per access (an exchange asks five
        times); slot dicts that gain or lose a rank re-derive it."""
        keys = (*self.ghost_slots, *self.owned_slots)
        cached = self._neighbors
        if cached is None or cached[0] != keys:
            cached = self._neighbors = (keys, sorted(set(keys)))
        return cached[1]

    def degree(self) -> int:
        """Number of distinct communication partners, counting a rank
        once even when traffic flows both ways (paper: max fine-grid
        degree observed was 18)."""
        return len(self.neighbors)

    def halo_bytes(self, itemsize: int = 8, nvar: int = 1) -> float:
        """Bytes this rank ships per exchange_copy."""
        return sum(len(v) for v in self.owned_slots.values()) * itemsize * nvar

    # -- the two exchange operations -------------------------------------------
    #
    # Each is one post half (receives, then sends) and one finish half
    # (wait, unpack, drain); the blocking forms run them back to back.

    def exchange_copy(self, comm, arr: np.ndarray, tag: int = 0,
                      irregular: bool = False) -> None:
        """Owner values -> ghost copies.  ``arr`` is (nlocal,) or (nlocal, k)."""
        with _span("comm.exchange_copy", cat="comm", tag=tag,
                   neighbors=self.degree()):
            self._post(comm, arr, tag, irregular, add=False)._land()

    def start_copy(self, comm, arr: np.ndarray, tag: int = 0,
                   irregular: bool = False) -> "PendingExchange":
        """Post an owner->ghost exchange without waiting (paper fig. 7).

        Receives and sends are posted immediately; ghost slots are only
        written when :meth:`PendingExchange.finish` is called, so the
        caller may compute on interior data while messages are in
        transit.  ``arr`` must stay alive (and its ghost rows untouched)
        until ``finish`` runs.
        """
        with _span("comm.exchange_copy_start", cat="comm", tag=tag,
                   neighbors=self.degree()):
            return self._post(comm, arr, tag, irregular, add=False)

    def exchange_add(self, comm, arr: np.ndarray, tag: int = 1,
                     irregular: bool = False) -> None:
        """Ghost accumulations -> owner (added); ghosts are then zeroed."""
        with _span("comm.exchange_add", cat="comm", tag=tag,
                   neighbors=self.degree()):
            self._post(comm, arr, tag, irregular, add=True)._land()

    def start_add(self, comm, arr: np.ndarray, tag: int = 1,
                  irregular: bool = False) -> "PendingExchange":
        """Post a ghost->owner accumulation without waiting: ghost rows
        are shipped and zeroed now, owners are added to in ``finish``."""
        with _span("comm.exchange_add", cat="comm", tag=tag,
                   neighbors=self.degree()):
            return self._post(comm, arr, tag, irregular, add=True)

    def _post(self, comm, arr, tag, irregular, add) -> "PendingExchange":
        """Post half.  Every neighbour pair trades exactly one message
        per direction — an empty placeholder where the plan ships
        nothing that way — so both sides can post and drain blindly."""
        send, recv = (
            (self.ghost_slots, self.owned_slots) if add
            else (self.owned_slots, self.ghost_slots)
        )
        reqs = [(q, comm.irecv(q, tag)) for q in self.neighbors if q in recv]
        for q in self.neighbors:
            if q in send:
                comm.isend(np.ascontiguousarray(arr[send[q]]), q, tag,
                           irregular=irregular)
                if add:
                    arr[send[q]] = 0.0
            else:
                comm.isend(np.empty((0,) + arr.shape[1:], dtype=arr.dtype),
                           q, tag, irregular=irregular)
        return PendingExchange(plan=self, comm=comm, arr=arr, tag=tag,
                               reqs=reqs, add=add)


@dataclass
class PendingExchange:
    """An in-flight exchange started by :meth:`ExchangePlan.start_copy`
    (or :meth:`~ExchangePlan.start_add`, with ``add`` set).

    ``finish`` waits for the posted receives, writes the ghost slots
    (adds into the owned slots) and drains placeholder messages; it must
    be called **exactly once** — a second call raises
    :class:`~repro.errors.ExchangeLifecycleError`, because a double
    finish always means two code paths each believe they own the overlap
    window.  This is the paper's overlapped-communication pattern: post
    sends, compute the interior, finish the boundary.
    """

    plan: ExchangePlan
    comm: object
    arr: np.ndarray
    tag: int
    reqs: list
    add: bool = False
    done: bool = False

    def finish(self) -> np.ndarray:
        if self.done:
            raise ExchangeLifecycleError(
                f"PendingExchange.finish called twice (rank "
                f"{self.plan.rank}, tag {self.tag}); each overlap window "
                f"must be closed exactly once"
            )
        self.done = True
        name = "comm.exchange_add" if self.add else "comm.exchange_copy_finish"
        with _span(name, cat="comm", tag=self.tag,
                   neighbors=self.plan.degree()):
            self._land()
        return self.arr

    def _land(self) -> None:
        """Finish half: unpack what the posted receives bring, then
        drain the placeholders of one-sided neighbours."""
        plan, arr = self.plan, self.arr
        recv = plan.owned_slots if self.add else plan.ghost_slots
        for q, req in self.reqs:
            if self.add:
                # a neighbour mirrors each owned slot at most once
                # (plancheck: unique ownership + pairwise agreement), so
                # no repeats to accumulate over — a plain indexed add is
                # exact
                arr[recv[q]] += req.wait()
            else:
                arr[recv[q]] = req.wait()
        for q in plan.neighbors:
            if q not in recv:
                self.comm.recv(q, self.tag)


@dataclass
class LocalHalo:
    """A rank's view of a partitioned graph.

    Local numbering: owned vertices occupy ``0..nowned-1`` (ascending
    global id), ghosts follow.  ``edges`` hold the locally assigned edges
    in local numbering; ``edge_gids`` map them to global edge rows.
    """

    rank: int
    owned_global: np.ndarray
    ghost_global: np.ndarray
    edges: np.ndarray
    edge_gids: np.ndarray
    plan: ExchangePlan

    @property
    def nowned(self) -> int:
        return len(self.owned_global)

    @property
    def nlocal(self) -> int:
        return len(self.owned_global) + len(self.ghost_global)

    def local_to_global(self) -> np.ndarray:
        return np.concatenate([self.owned_global, self.ghost_global])

    def globalize(self, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (global ids, owned rows of ``arr``) for gather/compare."""
        return self.owned_global, arr[: self.nowned]


def build_halos(nvert: int, edges: np.ndarray, part: np.ndarray,
                extra_ghosts: list | None = None) -> list:
    """Partition a graph into per-rank :class:`LocalHalo` views.

    Every edge straddling two partitions is assigned to the rank owning
    its lower-global-id endpoint (a deterministic stand-in for NSU3D's
    assignment); the other endpoint becomes a ghost there.

    ``extra_ghosts``, when given, lists per rank additional global vertex
    ids that must be resident locally even without an incident cross
    edge — multigrid transfer operators need the coarse agglomerate of
    every owned fine point, which this guarantees.  Off-rank entries join
    the ghost set (and the pairwise exchange plans); owned entries are
    ignored.
    """
    edges = np.asarray(edges, dtype=np.int64)
    part = np.asarray(part, dtype=np.int64)
    if len(part) != nvert:
        raise ConfigurationError("part must have one entry per vertex")
    nparts = int(part.max()) + 1 if nvert else 0
    if extra_ghosts is not None and len(extra_ghosts) != nparts:
        raise ConfigurationError(
            "extra_ghosts must list one id array per rank"
        )

    pu, pv = part[edges[:, 0]], part[edges[:, 1]]
    # owner of each edge: rank of the lower-global-id endpoint
    lower_is_u = edges[:, 0] < edges[:, 1]
    edge_owner = np.where(pu == pv, pu, np.where(lower_is_u, pu, pv))

    halos = []
    ghost_sets: list = []
    for p in range(nparts):
        owned = np.flatnonzero(part == p)
        mask = edge_owner == p
        my_edges = edges[mask]
        my_gids = np.flatnonzero(mask)
        endpoint_parts = part[my_edges]
        ghosts = np.unique(my_edges[endpoint_parts != p])
        if extra_ghosts is not None:
            req = np.asarray(extra_ghosts[p], dtype=np.int64)
            req = req[part[req] != p]
            ghosts = np.unique(np.concatenate([ghosts, req]))
        ghost_sets.append(ghosts)

        l2g = np.concatenate([owned, ghosts])
        g2l = np.full(nvert, -1, dtype=np.int64)
        g2l[l2g] = np.arange(len(l2g))
        local_edges = g2l[my_edges]

        plan = ExchangePlan(rank=p)
        for q in np.unique(part[ghosts]):
            sel = ghosts[part[ghosts] == q]
            plan.ghost_slots[int(q)] = g2l[sel]
        halos.append(
            LocalHalo(
                rank=p,
                owned_global=owned,
                ghost_global=ghosts,
                edges=local_edges,
                edge_gids=my_gids,
                plan=plan,
            )
        )

    # second pass: owner-side mirror lists, ordered like the ghost side
    for p in range(nparts):
        for q in range(nparts):
            if q == p:
                continue
            ghosts_on_q = ghost_sets[q]
            mine_on_q = ghosts_on_q[part[ghosts_on_q] == p]
            if len(mine_on_q):
                g2l_owned = np.searchsorted(halos[p].owned_global, mine_on_q)
                halos[p].plan.owned_slots[int(q)] = g2l_owned

    return halos


def communication_graph(halos: list) -> np.ndarray:
    """Rank-adjacency matrix (1 where two ranks exchange anything)."""
    n = len(halos)
    out = np.zeros((n, n), dtype=np.int64)
    for h in halos:
        for q in h.plan.neighbors:
            out[h.rank, q] = 1
            out[q, h.rank] = 1
    return out
