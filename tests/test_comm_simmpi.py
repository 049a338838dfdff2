"""Tests for the SimMPI in-process runtime.

Every program here is a lockstep one: the test steps each rank's
endpoint itself, posting before it waits, and reduces through the
world's ``allreduce``.
"""

import threading

import numpy as np
import pytest

from repro.comm import SimMPI
from repro.errors import ConfigurationError, DeadlockError
from repro.machine import INFINIBAND, NUMALINK4, JobPlacement


def swap(world, nbytes):
    """Ranks 0 and 1 trade ``nbytes`` each way: both post their
    receive and their send, then both wait."""
    comms = world.lockstep()
    reqs = []
    for comm in comms:
        other = 1 - comm.rank
        reqs.append(comm.irecv(other))
        comm.isend(np.zeros(nbytes // 8), other)
    return [req.wait() for req in reqs]


class TestPointToPoint:
    def test_send_recv_array(self):
        zero, one = SimMPI(2).lockstep()
        zero.send(np.arange(5.0), dest=1)
        assert np.array_equal(one.recv(source=0), np.arange(5.0))

    def test_messages_are_copies(self):
        """MPI copy semantics: mutating the sent buffer afterwards must
        not corrupt the delivered message."""
        zero, one = SimMPI(2).lockstep()
        data = np.ones(4)
        zero.send(data, dest=1)
        data[:] = -1.0
        assert np.array_equal(one.recv(source=0), np.ones(4))

    def test_tags_disambiguate(self):
        zero, one = SimMPI(2).lockstep()
        zero.send(np.array([1.0]), dest=1, tag=5)
        zero.send(np.array([2.0]), dest=1, tag=9)
        second = one.recv(source=0, tag=9)
        first = one.recv(source=0, tag=5)
        assert (first[0], second[0]) == (1.0, 2.0)

    def test_nonblocking(self):
        comms = SimMPI(2).lockstep()
        reqs = []
        for comm in comms:
            other = 1 - comm.rank
            reqs.append(comm.irecv(other))
            comm.isend(np.full(3, float(comm.rank)), other)
        assert np.array_equal(reqs[0].wait(), np.ones(3))
        assert np.array_equal(reqs[1].wait(), np.zeros(3))

    def test_python_object_payload(self):
        zero, one = SimMPI(2).lockstep()
        zero.send({"cl": 0.5, "cd": 0.02}, dest=1)
        assert one.recv(source=0) == {"cl": 0.5, "cd": 0.02}

    def test_bad_rank_rejected(self):
        zero, _one = SimMPI(2).lockstep()
        with pytest.raises(ConfigurationError, match="destination rank 5"):
            zero.send(np.zeros(1), dest=5)
        with pytest.raises(ConfigurationError, match="source rank -1"):
            zero.irecv(source=-1)

    def test_isend_request_is_born_complete(self):
        """Sends are buffered: the request is complete before anyone
        receives, and the message waits in the receiver's mailbox."""
        zero, one = SimMPI(2).lockstep()
        assert zero.isend(np.full(2, 3.0), dest=1).wait() is None
        assert np.array_equal(one.recv(source=0), np.full(2, 3.0))


class TestCollectives:
    def test_allreduce_sum_scalar(self):
        assert SimMPI(4).allreduce([1, 2, 3, 4]) == 10

    def test_allreduce_max_array(self):
        out = SimMPI(3).allreduce(
            [np.array([float(r), 1.0]) for r in range(3)], op="max"
        )
        assert np.array_equal(out, np.array([2.0, 1.0]))

    def test_allreduce_min(self):
        assert SimMPI(3).allreduce([0, 1, 2], op="min") == 0

    def test_allreduce_unknown_op(self):
        with pytest.raises(ConfigurationError, match="unknown reduction"):
            SimMPI(2).allreduce([1, 1], op="prod")

    def test_collective_results_not_aliased(self):
        """The result is a fresh array, whatever the op: mutating it
        leaves every contribution as it was."""
        for op in ("sum", "max", "min"):
            values = [np.ones(2), np.ones(2), np.ones(2)]
            out = SimMPI(3).allreduce(values, op=op)
            out += 1.0
            assert all(np.array_equal(v, np.ones(2)) for v in values), op
        (value,) = values = [np.ones(2)]
        SimMPI(1).allreduce(values, op="max")[:] = 0.0
        assert np.array_equal(value, np.ones(2))

    def test_repeated_collectives(self):
        world = SimMPI(2)
        world.lockstep()
        total = sum(world.allreduce([i, i + 1]) for i in range(10))
        assert total == sum(2 * i + 1 for i in range(10))
        assert [c.stats.collectives for c in world.comms] == [10, 10]

    def test_single_rank_world(self):
        assert SimMPI(1).allreduce([42]) == 42


class TestVirtualTime:
    def test_compute_advances_clock(self):
        world = SimMPI(1)
        (comm,) = world.lockstep()
        comm.compute(seconds=2.5)
        assert world.max_clock() == pytest.approx(2.5)

    def test_compute_flops_uses_rate_curve(self):
        world = SimMPI(1)
        (comm,) = world.lockstep()
        comm.compute(flops=2.0e9, working_set_bytes=1024, rate_cache=2.0e9,
                     rate_mem=1e9)
        assert world.max_clock() == pytest.approx(1.0)

    def test_compute_needs_an_amount(self):
        (comm,) = SimMPI(1).lockstep()
        with pytest.raises(ValueError):
            comm.compute()

    def test_message_time_charged_to_receiver(self):
        zero, one = SimMPI(2).lockstep()
        zero.send(np.zeros(1 << 16), dest=1)
        one.recv(source=0)
        assert one.clock > zero.clock > 0

    def test_collective_synchronizes_clocks(self):
        world = SimMPI(3)
        for comm in world.lockstep():
            comm.compute(seconds=1.0 * (comm.rank + 1))
        world.allreduce([0, 0, 0])
        clocks = [comm.clock for comm in world.comms]
        assert clocks[0] == clocks[1] == clocks[2]
        assert clocks[0] > 3.0

    def test_cross_box_costlier_than_same_box(self):
        same = SimMPI(2, placement=JobPlacement.pack(2, nboxes=1))
        swap(same, 1 << 17)
        cross = SimMPI(
            2,
            placement=JobPlacement(cpus_per_box=(1, 1), fabric=NUMALINK4),
        )
        swap(cross, 1 << 17)
        assert cross.max_clock() > same.max_clock()

    def test_infiniband_slower_than_numalink(self):
        def clock_for(fabric):
            world = SimMPI(
                2, placement=JobPlacement(cpus_per_box=(1, 1), fabric=fabric)
            )
            swap(world, 1 << 19)
            return world.max_clock()

        assert clock_for(INFINIBAND) > clock_for(NUMALINK4)


class TestStats:
    def test_traffic_accounting(self):
        world = SimMPI(2)
        zero, one = world.lockstep()
        zero.send(np.zeros(100), dest=1)
        one.recv(source=0)
        stats = world.total_stats()
        assert stats.messages_sent == 1
        assert stats.messages_received == 1
        assert stats.bytes_sent == 800

    def test_flops_accounted(self):
        world = SimMPI(2)
        for comm in world.lockstep():
            comm.compute(flops=1e6)
        assert world.total_stats().flops == pytest.approx(2e6)


class TestErrors:
    def test_placement_rank_mismatch(self):
        with pytest.raises(ValueError):
            SimMPI(8, placement=JobPlacement.pack(4))

    def test_zero_ranks(self):
        with pytest.raises(ValueError):
            SimMPI(0)

    def test_unpicklable_payload_raises_typeerror(self):
        """No silent 64-byte fallback: the offending type is named."""
        zero, _one = SimMPI(2).lockstep()
        with pytest.raises(TypeError, match="lock"):
            zero.send(threading.Lock(), dest=1)


class TestDeadlock:
    """A receive whose message nobody sent raises at once: in a
    lockstep run every rank posts before any waits, so nothing can
    still send it."""

    def test_single_rank_unmatched_recv(self):
        (comm,) = SimMPI(1).lockstep()
        with pytest.raises(DeadlockError, match="rank 0 .* rank 0 tag 3"):
            comm.recv(source=0, tag=3)

    def test_recv_names_rank_peer_and_tag(self):
        comms = SimMPI(3).lockstep()
        comms[0].send(np.zeros(2), dest=2, tag=6)  # another tag
        req = comms[2].irecv(source=0, tag=7)
        with pytest.raises(DeadlockError) as info:
            req.wait()
        assert "rank 2 deadlocked waiting for rank 0 tag 7" in str(info.value)
        assert "trace recorded" not in str(info.value)
        traced = SimMPI(3, trace=True).lockstep()
        with pytest.raises(DeadlockError, match="trace recorded"):
            traced[2].recv(source=0, tag=7)

    def test_world_is_reusable_after_a_failed_run(self):
        world = SimMPI(2)
        zero, one = world.lockstep()
        one.send(np.ones(1), dest=0, tag=1)  # left queued by the failure
        with pytest.raises(DeadlockError):
            zero.recv(source=1)
        zero, one = world.lockstep()
        assert zero.clock == one.clock == 0.0
        with pytest.raises(DeadlockError):  # the old message is gone
            zero.recv(source=1, tag=1)
        zero, one = world.lockstep()
        one.send(np.full(1, 2.0), dest=0, tag=1)
        assert zero.recv(source=1, tag=1)[0] == 2.0
        assert world.allreduce([1, 1]) == 2
