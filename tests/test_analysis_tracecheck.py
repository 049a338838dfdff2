"""Tests for the trace-based deadlock/race analyzer and SimMPI tracing.

The failure-path tests run deliberately broken 2-rank programs: the
baton scheduler raises ``DeadlockError`` the moment no rank can run, and
the analyzer then says which rank hung and why.
"""

import copy

import numpy as np
import pytest

from repro.analysis import (
    check_races,
    check_trace,
    check_world,
    concurrent,
    happens_before,
    vector_clocks,
)
from repro.comm import (
    HybridProcess,
    SimMPI,
    build_halos,
    partition_owners,
)


def grid_graph(nx, ny):
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


class TestTracing:
    def test_trace_off_by_default(self):
        world = SimMPI(2)
        world.run(lambda comm: comm.allreduce(1))
        assert world.trace == []
        with pytest.raises(ValueError):
            check_world(world)

    def test_trace_records_all_op_kinds(self):
        def body(comm):
            comm.compute(seconds=0.5)
            if comm.rank == 0:
                comm.send(np.zeros(4), dest=1)
            else:
                comm.recv(source=0)
            comm.barrier()

        world = SimMPI(2, trace=True)
        world.run(body)
        ops = {e.op for e in world.trace}
        assert ops == {"compute", "send", "recv_post", "recv", "collective"}
        send = next(e for e in world.trace if e.op == "send")
        recv = next(e for e in world.trace if e.op == "recv")
        assert recv.matched == send.eid
        assert send.nbytes == 32

    def test_clean_run_has_no_findings(self):
        def body(comm):
            other = 1 - comm.rank
            req = comm.irecv(other)
            comm.isend(np.full(3, float(comm.rank)), other)
            req.wait()
            comm.allreduce(comm.rank)

        world = SimMPI(2, trace=True)
        world.run(body)
        assert check_world(world) == []


class TestDeadlockDetection:
    def test_deadlocked_recv_names_stuck_ranks(self):
        """recv with no matching send: the run fails at once and the
        analyzer names the stuck rank/peer."""

        def body(comm):
            if comm.rank == 0:
                comm.recv(source=1)

        world = SimMPI(2, trace=True)
        with pytest.raises(RuntimeError, match="deadlocked"):
            world.run(body)
        diags = check_world(world)
        stuck = [d for d in diags if d.rule == "trace/deadlock"]
        assert len(stuck) == 1
        assert stuck[0].rank == 0 and stuck[0].peer == 1
        assert "stuck waiting" in stuck[0].message

    def test_mutual_deadlock_names_both_ranks(self):
        def body(comm):
            comm.recv(source=1 - comm.rank)

        world = SimMPI(2, trace=True)
        with pytest.raises(RuntimeError, match="deadlocked"):
            world.run(body)
        stuck = {
            d.rank for d in check_world(world) if d.rule == "trace/deadlock"
        }
        assert stuck == {0, 1}

    def test_tag_mismatch_explained(self):
        """Sender uses tag 7, receiver waits on tag 0: the analyzer
        reports the mismatch, not just the hang."""

        def body(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=0)
            else:
                comm.send(np.zeros(4), dest=0, tag=7)

        world = SimMPI(2, trace=True)
        with pytest.raises(RuntimeError, match="deadlocked"):
            world.run(body)
        diags = check_world(world)
        rules = {d.rule for d in diags}
        assert "trace/deadlock" in rules
        assert "trace/tag-mismatch" in rules
        mism = next(d for d in diags if d.rule == "trace/tag-mismatch")
        assert "sent tag 7" in mism.message
        assert "waiting on tag 0" in mism.message

    def test_deadlock_error_mentions_trace(self):
        def body(comm):
            if comm.rank == 0:
                comm.recv(source=1)

        world = SimMPI(2, trace=True)
        with pytest.raises(RuntimeError, match="trace recorded"):
            world.run(body)

    def test_unreceived_send_is_warning(self):
        def body(comm):
            if comm.rank == 0:
                comm.send(np.zeros(2), dest=1)

        world = SimMPI(2, trace=True)
        world.run(body)
        diags = check_world(world)
        assert [d.rule for d in diags] == ["trace/unreceived-message"]
        assert diags[0].severity == "warning"


class TestCollectiveDivergence:
    def test_divergent_kinds_detected(self):
        def body(comm):
            if comm.rank == 0:
                comm.barrier()
            else:
                comm.allreduce(1.0)

        world = SimMPI(2, trace=True)
        try:
            world.run(body)
        except RuntimeError:
            pass  # the scrambled collective may or may not crash
        diags = check_world(world)
        assert any(d.rule == "trace/collective-divergence" for d in diags)

    def test_missing_participant_detected(self):
        world = SimMPI(3, trace=True)

        def body(comm):
            if comm.rank != 2:
                comm._record("collective", nbytes=8.0, detail="barrier")

        world.run(body)
        diags = check_world(world)
        assert any(d.rule == "trace/collective-incomplete" for d in diags)


class TestHappensBefore:
    def test_message_orders_events(self):
        def body(comm):
            if comm.rank == 0:
                comm.trace_access("buf", [0], write=True)
                comm.send(1, dest=1)
            else:
                comm.recv(source=0)
                comm.trace_access("buf", [0], write=True)

        world = SimMPI(2, trace=True)
        world.run(body)
        clocks = vector_clocks(world.trace, 2)
        first, second = [e.eid for e in world.trace if e.op == "access"]
        a, b = sorted((first, second))
        assert happens_before(clocks, a, b)
        assert not concurrent(clocks, a, b)
        assert check_races(world.trace, 2) == []

    def test_unordered_writes_race(self):
        def body(comm):
            comm.trace_access("shared", [0, 1], write=True)

        world = SimMPI(2, trace=True)
        world.run(body)
        diags = check_races(world.trace, 2)
        assert len(diags) == 1
        assert diags[0].rule == "trace/race"
        assert "write/write" in diags[0].message
        assert diags[0].slot == 0

    def test_concurrent_reads_do_not_race(self):
        def body(comm):
            comm.trace_access("shared", [0, 1], write=False)

        world = SimMPI(2, trace=True)
        world.run(body)
        assert check_races(world.trace, 2) == []

    def test_collective_orders_across_ranks(self):
        def body(comm):
            if comm.rank == 0:
                comm.trace_access("buf", [3], write=True)
            comm.barrier()
            if comm.rank == 1:
                comm.trace_access("buf", [3], write=True)

        world = SimMPI(2, trace=True)
        world.run(body)
        assert check_races(world.trace, 2) == []


class TestHybridRaces:
    def strip_world(self, nparts=6):
        nvert, edges = grid_graph(12, 12)
        part = (np.arange(nvert) * nparts) // nvert
        halos = build_halos(nvert, edges, part)
        proc_of = partition_owners(nparts, 2)
        plans = {h.rank: h.plan for h in halos}
        return halos, plans, proc_of

    def path_world(self):
        """Path graph partitioned so partition 1 has ghosts from both
        partitions 0 and 2 — two intra-process copy work items writing
        the same destination array."""
        part = np.array([1, 0, 1, 2, 3, 4, 5], dtype=np.int64)
        edges = np.array([(i, i + 1) for i in range(6)], dtype=np.int64)
        halos = build_halos(7, edges, part)
        proc_of = partition_owners(6, 2)
        plans = {h.rank: h.plan for h in halos}
        return halos, plans, proc_of

    def run_hybrid(self, halos, plans, proc_of, nprocs=2):
        def body(comm):
            mine = tuple(
                p for p, owner in proc_of.items() if owner == comm.rank
            )
            hp = HybridProcess(
                rank=comm.rank, part_ids=mine, plans=plans, proc_of=proc_of
            )
            arrays = {p: np.arange(float(halos[p].nlocal)) for p in plans}
            hp.exchange_copy(comm, arrays)
            hp.exchange_copy(comm, arrays)  # repeat: phases must not collide

        world = SimMPI(nprocs, trace=True)
        world.run(body)
        return world

    def test_clean_hybrid_exchange_no_races(self):
        halos, plans, proc_of = self.strip_world()
        world = self.run_hybrid(halos, plans, proc_of)
        assert [d for d in check_world(world) if d.severity == "error"] == []

    def test_clean_path_world_no_races(self):
        halos, plans, proc_of = self.path_world()
        world = self.run_hybrid(halos, plans, proc_of)
        assert [d for d in check_world(world) if d.severity == "error"] == []

    def test_overlapping_ghost_slots_race_in_copy_phase(self):
        """Corrupted plan: partition 1's ghosts from partitions 0 and 2
        collide on a slot, so two conceptually-parallel OpenMP copy work
        items write it — a race the fig. 7b phases cannot order."""
        halos, plans, proc_of = self.path_world()
        plans = {r: copy.deepcopy(p) for r, p in plans.items()}
        p1 = plans[1]
        assert 0 in p1.ghost_slots and 2 in p1.ghost_slots  # both intra
        p1.ghost_slots[2] = p1.ghost_slots[2].copy()
        p1.ghost_slots[2][0] = p1.ghost_slots[0][0]
        world = self.run_hybrid(halos, plans, proc_of)
        races = [d for d in check_world(world) if d.rule == "trace/race"]
        assert races
        assert any(
            "part1" in d.message and "write/write" in d.message
            for d in races
        )
