"""SimMPI tracing and the failures of free-form rank programs.

The trace analyzer is gone: a receive that cannot match, a tag
mismatch, a skipped or divergent collective all raise
:class:`~repro.errors.DeadlockError` naming the stuck rank, and the one
shared buffer the runtime has — a hybrid process's partitions — is
checked by the exchange property.  Each of the analyzer's fixtures is a
row of the planted-bug matrix (``tests/test_planted_bugs.py``); the
classes below keep their test ids, as pointers to those rows or as the
SimMPI property the fixture's clean half stood for.
"""

import numpy as np
import pytest

from repro.comm import SimMPI
from tests.test_planted_bugs import row_test


class TestTracing:
    def test_trace_off_by_default(self):
        world = SimMPI(2)
        world.run(lambda comm: comm.allreduce(1))
        assert world.trace == []

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
            got = req.wait()
            return float(got[0]), comm.allreduce(comm.rank)

        assert SimMPI(2, trace=True).run(body) == [(1.0, 1), (0.0, 1)]


class TestDeadlockDetection:
    test_deadlocked_recv_names_stuck_ranks = row_test("trace/recv-without-send")
    test_mutual_deadlock_names_both_ranks = row_test("trace/mutual-recv")
    test_tag_mismatch_explained = row_test("trace/tag-mismatch")

    def test_deadlock_error_mentions_trace(self):
        def body(comm):
            if comm.rank == 0:
                comm.recv(source=1)

        world = SimMPI(2, trace=True)
        with pytest.raises(RuntimeError, match="trace recorded"):
            world.run(body)

    test_unreceived_send_is_warning = row_test("trace/unreceived-message")


class TestCollectiveDivergence:
    test_divergent_kinds_detected = row_test("trace/collective-divergence")
    test_missing_participant_detected = row_test("trace/collective-incomplete")


class TestHappensBefore:
    """Virtual time respects the orders the trace analyzer derived."""

    def test_message_orders_events(self):
        def body(comm):
            if comm.rank == 0:
                comm.compute(seconds=1.0)
                comm.send(1, dest=1)
                return comm.clock
            comm.recv(source=0)
            return comm.clock

        sent, received = SimMPI(2).run(body)
        assert received > sent >= 1.0

    test_unordered_writes_race = row_test("trace/race")

    def test_concurrent_reads_do_not_race(self):
        """Ranks share no buffer: a message carries a copy, so the
        sender may reuse its array as soon as ``send`` returns."""
        def body(comm):
            if comm.rank == 0:
                buf = np.arange(3.0)
                comm.send(buf, dest=1)
                buf[:] = -1.0
                return buf
            return comm.recv(source=0)

        sender, receiver = SimMPI(2).run(body)
        assert (sender == -1.0).all()
        assert receiver.tolist() == [0.0, 1.0, 2.0]

    def test_collective_orders_across_ranks(self):
        def body(comm):
            comm.compute(seconds=float(comm.rank + 1))
            before = comm.clock
            comm.barrier()
            return before, comm.clock

        clocks = SimMPI(3).run(body)
        latest = max(before for before, _after in clocks)
        assert all(after > latest for _before, after in clocks)


class TestHybridRaces:
    test_clean_hybrid_exchange_no_races = row_test("control/hybrid-copy")
    test_clean_path_world_no_races = row_test("control/hybrid-copy")
    test_overlapping_ghost_slots_race_in_copy_phase = row_test("trace/race")
