"""SimMPI tracing and the virtual-time orders of lockstep programs.

The trace analyzer is gone: a receive that cannot match or a tag
mismatch raises :class:`~repro.errors.DeadlockError` naming the stuck
rank, and the one shared buffer the runtime has — a hybrid process's
partitions — is checked by the exchange property.  Each of the
analyzer's fixtures is a row of the planted-bug matrix
(``tests/test_planted_bugs.py``, run by ``test_planted_bug_is_caught``);
the tests below are the SimMPI properties its clean fixtures stood for.
"""

import numpy as np
import pytest

from repro.comm import SimMPI


class TestTracing:
    def test_trace_off_by_default(self):
        world = SimMPI(2)
        world.allreduce([1, 1])
        assert world.trace == []

    def test_trace_records_all_op_kinds(self):
        world = SimMPI(2, trace=True)
        zero, one = world.lockstep()
        for comm in (zero, one):
            comm.compute(seconds=0.5)
        zero.send(np.zeros(4), dest=1)
        one.recv(source=0)
        world.allreduce([0, 0])
        ops = {e.op for e in world.trace}
        assert ops == {"compute", "send", "recv_post", "recv", "collective"}
        send = next(e for e in world.trace if e.op == "send")
        recv = next(e for e in world.trace if e.op == "recv")
        assert recv.matched == send.eid
        assert send.nbytes == 32

    def test_clean_run_has_no_findings(self):
        world = SimMPI(2, trace=True)
        comms = world.lockstep()
        reqs = []
        for comm in comms:
            other = 1 - comm.rank
            reqs.append(comm.irecv(other))
            comm.isend(np.full(3, float(comm.rank)), other)
        got = [float(req.wait()[0]) for req in reqs]
        assert got == [1.0, 0.0]
        assert world.allreduce([0, 1]) == 1
        sends = [e.eid for e in world.trace if e.op == "send"]
        assert sorted(e.matched for e in world.trace if e.op == "recv") \
            == sends


class TestDeadlockDetection:
    def test_deadlock_error_mentions_trace(self):
        zero, _one = SimMPI(2, trace=True).lockstep()
        with pytest.raises(RuntimeError, match="trace recorded"):
            zero.recv(source=1)


class TestHappensBefore:
    """Virtual time respects the orders the trace analyzer derived."""

    def test_message_orders_events(self):
        zero, one = SimMPI(2).lockstep()
        zero.compute(seconds=1.0)
        zero.send(1, dest=1)
        one.recv(source=0)
        assert one.clock > zero.clock >= 1.0

    def test_concurrent_reads_do_not_race(self):
        """Ranks share no buffer: a message carries a copy, so the
        sender may reuse its array as soon as ``send`` returns."""
        zero, one = SimMPI(2).lockstep()
        buf = np.arange(3.0)
        zero.send(buf, dest=1)
        buf[:] = -1.0
        assert one.recv(source=0).tolist() == [0.0, 1.0, 2.0]
        assert (buf == -1.0).all()

    def test_collective_orders_across_ranks(self):
        world = SimMPI(3)
        comms = world.lockstep()
        for comm in comms:
            comm.compute(seconds=float(comm.rank + 1))
        latest = max(comm.clock for comm in comms)
        world.allreduce([0, 0, 0])
        assert all(comm.clock > latest for comm in comms)
