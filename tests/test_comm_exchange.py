"""Tests for halo construction and ghost exchanges."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import SimMPI, build_halos, communication_graph, max_degree
from repro.comm.exchange import ExchangePlan
from tests.message_exchange import MessageExchanger


def grid_graph(nx, ny):
    """nx x ny structured grid as (nvert, edges)."""
    def vid(i, j):
        return i * ny + j

    edges = []
    for i in range(nx):
        for j in range(ny):
            if i + 1 < nx:
                edges.append((vid(i, j), vid(i + 1, j)))
            if j + 1 < ny:
                edges.append((vid(i, j), vid(i, j + 1)))
    return nx * ny, np.array(edges, dtype=np.int64)


def strip_partition(nvert, nparts):
    return (np.arange(nvert) * nparts) // nvert


class TestBuildHalos:
    def test_every_vertex_owned_once(self):
        nvert, edges = grid_graph(6, 6)
        part = strip_partition(nvert, 3)
        halos = build_halos(nvert, edges, part)
        owned = np.concatenate([h.owned_global for h in halos])
        assert sorted(owned) == list(range(nvert))

    def test_every_edge_assigned_once(self):
        nvert, edges = grid_graph(6, 6)
        part = strip_partition(nvert, 3)
        halos = build_halos(nvert, edges, part)
        gids = np.concatenate([h.edge_gids for h in halos])
        assert sorted(gids) == list(range(len(edges)))

    def test_ghosts_are_cross_partition_neighbors(self):
        nvert, edges = grid_graph(4, 4)
        part = strip_partition(nvert, 2)
        halos = build_halos(nvert, edges, part)
        for h in halos:
            for g in h.ghost_global:
                assert part[g] != h.rank

    def test_plan_orderings_match_pairwise(self):
        """owner_slots on p for q and ghost_slots on q for p must
        reference the same global vertices in the same order."""
        nvert, edges = grid_graph(8, 8)
        part = strip_partition(nvert, 4)
        halos = build_halos(nvert, edges, part)
        for p in range(4):
            for q in range(4):
                plan_p = halos[p].plan
                plan_q = halos[q].plan
                if q in plan_p.owned_slots:
                    send_gids = halos[p].owned_global[plan_p.owned_slots[q]]
                    l2g_q = halos[q].local_to_global()
                    recv_gids = l2g_q[plan_q.ghost_slots[p]]
                    assert np.array_equal(send_gids, recv_gids)

    def test_local_edges_reference_valid_slots(self):
        nvert, edges = grid_graph(5, 7)
        part = strip_partition(nvert, 3)
        for h in build_halos(nvert, edges, part):
            assert h.edges.min(initial=0) >= 0
            if len(h.edges):
                assert h.edges.max() < h.nlocal

    def test_part_length_checked(self):
        nvert, edges = grid_graph(3, 3)
        with pytest.raises(ValueError):
            build_halos(nvert, edges, np.zeros(4, dtype=np.int64))


class TestPlanNeighbors:
    """``neighbors`` is sorted once per plan, not once per access — and
    plans are filled in after construction (``build_halos``, hand-built
    test plans), so it must follow the slot dicts."""

    def test_sorted_once_while_the_slots_stand(self):
        nvert, edges = grid_graph(6, 6)
        plan = build_halos(nvert, edges, strip_partition(nvert, 3))[1].plan
        assert plan.neighbors == [0, 2]
        assert plan.neighbors is plan.neighbors
        assert plan.degree() == 2

    def test_slot_changes_after_the_first_access_are_followed(self):
        plan = ExchangePlan(rank=1)
        assert plan.neighbors == [] and plan.degree() == 0
        plan.ghost_slots[3] = np.array([4])
        assert plan.neighbors == [3]
        plan.owned_slots[0] = np.array([0])
        plan.owned_slots[3] = np.array([1])
        assert plan.neighbors == [0, 3] and plan.degree() == 2
        # same number of entries, another rank
        del plan.ghost_slots[3], plan.owned_slots[3]
        plan.ghost_slots[2] = np.array([4])
        assert plan.neighbors == [0, 2]
        plan.ghost_slots.clear()
        assert plan.neighbors == [0]


def exchanger(halos):
    """The message-path exchange of ``halos``, one SimMPI rank per
    partition, on a fresh lockstep world."""
    return MessageExchanger(SimMPI(len(halos)),
                            {h.rank: h.plan for h in halos})


class TestExchanges:
    def run_world(self, nvert, edges, part, mode):
        """Run a halo exchange; return each partition's array and its
        local-to-global map."""
        halos = build_halos(nvert, edges, part)
        arrays = {}
        for h in halos:
            arrays[h.rank] = arr = np.zeros(h.nlocal)
            if mode == "copy":
                arr[: h.nowned] = h.owned_global.astype(float) + 1.0
            else:
                # add: every local slot (owned + ghost) carries one
                # unit; after the add owners hold their full global
                # degree count
                arr[:] = 1.0
        X = exchanger(halos)
        if mode == "copy":
            X.copy(arrays)  # ghosts must now hold their owners' values
        else:
            X.add(arrays)  # only ghost slots contribute remotely
        return [(arrays[h.rank], h.local_to_global()) for h in halos], halos

    def test_exchange_copy_fills_ghosts(self):
        nvert, edges = grid_graph(6, 6)
        part = strip_partition(nvert, 3)
        results, halos = self.run_world(nvert, edges, part, "copy")
        for (arr, l2g), h in zip(results, halos):
            expected = l2g.astype(float) + 1.0
            assert np.allclose(arr, expected)

    def test_exchange_add_accumulates_to_owner(self):
        nvert, edges = grid_graph(6, 6)
        part = strip_partition(nvert, 3)
        results, halos = self.run_world(nvert, edges, part, "add")
        # each vertex should end with 1 (its own) + (number of ranks
        # holding it as a ghost)
        ghost_count = np.zeros(nvert)
        for h in halos:
            for g in h.ghost_global:
                ghost_count[g] += 1
        for (arr, l2g), h in zip(results, halos):
            for slot in range(h.nowned):
                g = l2g[slot]
                assert arr[slot] == pytest.approx(1.0 + ghost_count[g])
            # ghost slots were zeroed after sending
            assert np.all(arr[h.nowned :] == 0.0)

    def test_exchange_multicolumn(self):
        """Exchanges must handle (n, k) state arrays, not just vectors."""
        nvert, edges = grid_graph(5, 5)
        part = strip_partition(nvert, 2)
        halos = build_halos(nvert, edges, part)
        scale = np.array([1.0, 2.0, 3.0])
        arrays = {}
        for h in halos:
            arrays[h.rank] = np.zeros((h.nlocal, 3))
            arrays[h.rank][: h.nowned] = h.owned_global[:, None] * scale
        exchanger(halos).copy(arrays)
        for h in halos:
            assert np.allclose(arrays[h.rank],
                               h.local_to_global()[:, None] * scale)

    @settings(max_examples=20, deadline=None)
    @given(
        nx=st.integers(3, 8),
        ny=st.integers(3, 8),
        nparts=st.integers(2, 5),
        seed=st.integers(0, 1000),
        add=st.booleans(),
        nextra=st.integers(0, 3),
    )
    def test_random_partition_copy_roundtrip(self, nx, ny, nparts, seed,
                                             add, nextra):
        """Property: for arbitrary (possibly disconnected) partitions,
        widened by up to ``nextra`` drawn extra ghosts per partition, a
        copy gives every ghost its owner's value and an add gives every
        owner the serial sum."""
        nvert, edges = grid_graph(nx, ny)
        rng = np.random.default_rng(seed)
        part = rng.integers(0, nparts, size=nvert)
        # ensure all ranks exist
        part[:nparts] = np.arange(nparts)
        extra = [
            rng.choice(np.flatnonzero(part != p),
                       size=min(nextra, int((part != p).sum())),
                       replace=False).astype(np.int64)
            for p in range(nparts)
        ]
        assert_exchange_roundtrip(
            build_halos(nvert, edges, part, extra_ghosts=extra), add=add
        )


def assert_exchange_roundtrip(halos, add: bool = False) -> None:
    """The exchange property of a plan set, one SimMPI rank per
    partition: after a copy every local slot holds its owner's value;
    after an add every owner holds the serial sum of the contributions
    of every slot holding its vertex, and every ghost slot is zero.

    Contributions are small integers, distinct per (partition, vertex),
    so the sums are exact and a misrouted row cannot cancel out.  A plan
    set that breaks the property fails here with an ``AssertionError``
    or with the exchange's own error (a ``DeadlockError``, a shape or
    index error).
    """
    def contribution(rank, gids):
        return (rank + 1.0) + 16.0 * gids

    gids = [h.local_to_global() for h in halos]
    arrays = {}
    for h, l2g in zip(halos, gids):
        if add:
            arrays[h.rank] = contribution(h.rank, l2g)
        else:
            arrays[h.rank] = np.zeros(h.nlocal)
            arrays[h.rank][: h.nowned] = 100.0 + l2g[: h.nowned]
    X = exchanger(halos)
    if add:
        X.add(arrays)
    else:
        X.copy(arrays)
    serial = np.bincount(np.concatenate(gids), weights=np.concatenate(
        [contribution(h.rank, l2g) for h, l2g in zip(halos, gids)]
    ))
    for h, l2g in zip(halos, gids):
        arr = arrays[h.rank]
        if add:
            assert np.array_equal(arr[: h.nowned], serial[l2g[: h.nowned]]), \
                h.rank
            assert not arr[h.nowned:].any(), h.rank
        else:
            assert np.array_equal(arr, 100.0 + l2g), h.rank


class TestCommunicationGraph:
    def test_strip_partition_graph_is_path(self):
        nvert, edges = grid_graph(8, 4)
        part = strip_partition(nvert, 4)
        halos = build_halos(nvert, edges, part)
        adj = communication_graph(halos)
        assert max_degree(adj) == 2  # interior strips talk to 2 neighbors
        assert adj[0, 1] == 1 and adj[0, 2] == 0
