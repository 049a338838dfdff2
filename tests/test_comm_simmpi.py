"""Tests for the SimMPI in-process runtime."""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import SimMPI
from repro.errors import DeadlockError, RankFailure
from repro.machine import INFINIBAND, NUMALINK4, JobPlacement


class TestPointToPoint:
    def test_send_recv_array(self):
        def body(comm):
            if comm.rank == 0:
                comm.send(np.arange(5.0), dest=1)
                return None
            return comm.recv(source=0)

        results = SimMPI(2).run(body)
        assert np.array_equal(results[1], np.arange(5.0))

    def test_messages_are_copies(self):
        """MPI copy semantics: mutating the sent buffer afterwards must
        not corrupt the delivered message."""

        def body(comm):
            if comm.rank == 0:
                data = np.ones(4)
                comm.send(data, dest=1)
                data[:] = -1.0
                comm.barrier()
                return None
            comm.barrier()
            return comm.recv(source=0)

        # note: barrier before recv forces the mutation to happen first
        results = SimMPI(2).run(body)
        assert np.array_equal(results[1], np.ones(4))

    def test_tags_disambiguate(self):
        def body(comm):
            if comm.rank == 0:
                comm.send(np.array([1.0]), dest=1, tag=5)
                comm.send(np.array([2.0]), dest=1, tag=9)
                return None
            second = comm.recv(source=0, tag=9)
            first = comm.recv(source=0, tag=5)
            return (first[0], second[0])

        results = SimMPI(2).run(body)
        assert results[1] == (1.0, 2.0)

    def test_nonblocking(self):
        def body(comm):
            other = 1 - comm.rank
            req = comm.irecv(other)
            comm.isend(np.full(3, float(comm.rank)), other)
            return req.wait()

        results = SimMPI(2).run(body)
        assert np.array_equal(results[0], np.ones(3))
        assert np.array_equal(results[1], np.zeros(3))

    def test_python_object_payload(self):
        def body(comm):
            if comm.rank == 0:
                comm.send({"cl": 0.5, "cd": 0.02}, dest=1)
                return None
            return comm.recv(source=0)

        results = SimMPI(2).run(body)
        assert results[1] == {"cl": 0.5, "cd": 0.02}

    def test_bad_rank_rejected(self):
        def body(comm):
            comm.send(np.zeros(1), dest=5)

        with pytest.raises(RuntimeError, match="failed"):
            SimMPI(2).run(body)

    def test_isend_request_is_born_complete(self):
        """Sends are buffered: waiting on one never hands the baton
        over, so rank 1 has not run when rank 0's wait returns."""
        log = []

        def body(comm):
            log.append(comm.rank)
            if comm.rank == 0:
                assert comm.isend(np.zeros(2), dest=1).wait() is None
                log.append("waited")
            else:
                comm.recv(source=0)

        SimMPI(2).run(body)
        assert log == [0, "waited", 1]


class TestCollectives:
    def test_allreduce_sum_scalar(self):
        results = SimMPI(4).run(lambda comm: comm.allreduce(comm.rank + 1))
        assert results == [10, 10, 10, 10]

    def test_allreduce_max_array(self):
        def body(comm):
            return comm.allreduce(np.array([float(comm.rank), 1.0]), op="max")

        results = SimMPI(3).run(body)
        for r in results:
            assert np.array_equal(r, np.array([2.0, 1.0]))

    def test_allreduce_min(self):
        results = SimMPI(3).run(lambda comm: comm.allreduce(comm.rank, op="min"))
        assert results == [0, 0, 0]

    def test_allreduce_unknown_op(self):
        with pytest.raises(RuntimeError):
            SimMPI(2).run(lambda comm: comm.allreduce(1, op="prod"))

    def test_collective_results_not_aliased(self):
        def body(comm):
            out = comm.allreduce(np.ones(2))
            out += comm.rank  # mutation must stay rank-local
            comm.barrier()
            return out[0]

        results = SimMPI(3).run(body)
        assert results == [3.0, 4.0, 5.0]

    def test_repeated_collectives(self):
        def body(comm):
            total = 0
            for i in range(10):
                total += comm.allreduce(i + comm.rank)
            return total

        results = SimMPI(2).run(body)
        assert results[0] == results[1] == sum(2 * i + 1 for i in range(10))

    def test_single_rank_world(self):
        results = SimMPI(1).run(lambda comm: comm.allreduce(42))
        assert results == [42]


class TestVirtualTime:
    def test_compute_advances_clock(self):
        world = SimMPI(1)
        world.run(lambda comm: comm.compute(seconds=2.5))
        assert world.max_clock() == pytest.approx(2.5)

    def test_compute_flops_uses_rate_curve(self):
        world = SimMPI(1)
        world.run(
            lambda comm: comm.compute(
                flops=2.0e9, working_set_bytes=1024, rate_cache=2.0e9, rate_mem=1e9
            )
        )
        assert world.max_clock() == pytest.approx(1.0)

    def test_compute_needs_an_amount(self):
        # single-rank worlds run inline, so the error arrives unwrapped
        with pytest.raises(ValueError):
            SimMPI(1).run(lambda comm: comm.compute())

    def test_message_time_charged_to_receiver(self):
        def body(comm):
            if comm.rank == 0:
                comm.send(np.zeros(1 << 16), dest=1)
            else:
                comm.recv(source=0)
            return comm.clock

        world = SimMPI(2)
        clocks = world.run(body)
        assert clocks[1] > clocks[0] > 0

    def test_collective_synchronizes_clocks(self):
        def body(comm):
            comm.compute(seconds=1.0 * (comm.rank + 1))
            comm.barrier()
            return comm.clock

        clocks = SimMPI(3).run(body)
        assert clocks[0] == clocks[1] == clocks[2]
        assert clocks[0] > 3.0

    def test_cross_box_costlier_than_same_box(self):
        def body(comm):
            other = 1 - comm.rank
            req = comm.irecv(other)
            comm.isend(np.zeros(1 << 14), other)
            req.wait()
            return comm.clock

        same = SimMPI(2, placement=JobPlacement.pack(2, nboxes=1))
        same.run(body)
        cross = SimMPI(
            2,
            placement=JobPlacement(cpus_per_box=(1, 1), fabric=NUMALINK4),
        )
        cross.run(body)
        assert cross.max_clock() > same.max_clock()

    def test_infiniband_slower_than_numalink(self):
        def body(comm):
            other = 1 - comm.rank
            req = comm.irecv(other)
            comm.isend(np.zeros(1 << 16), other)
            req.wait()

        def clock_for(fabric):
            world = SimMPI(
                2, placement=JobPlacement(cpus_per_box=(1, 1), fabric=fabric)
            )
            world.run(body)
            return world.max_clock()

        assert clock_for(INFINIBAND) > clock_for(NUMALINK4)


class TestStats:
    def test_traffic_accounting(self):
        def body(comm):
            if comm.rank == 0:
                comm.send(np.zeros(100), dest=1)
            else:
                comm.recv(source=0)

        world = SimMPI(2)
        world.run(body)
        stats = world.total_stats()
        assert stats.messages_sent == 1
        assert stats.messages_received == 1
        assert stats.bytes_sent == 800

    def test_flops_accounted(self):
        world = SimMPI(2)
        world.run(lambda comm: comm.compute(flops=1e6))
        assert world.total_stats().flops == pytest.approx(2e6)


class TestErrors:
    def test_rank_exception_propagates(self):
        def body(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            comm.barrier()

        with pytest.raises(RuntimeError, match="rank 1 failed"):
            SimMPI(2).run(body)

    @pytest.mark.parametrize("blocked_in", ["recv", "collective"])
    def test_failure_unwinds_parked_peers(self, blocked_in):
        """Rank 1 raises while the others are parked: the run reports
        rank 1 at once (no waiting out a timeout) and no thread leaks."""

        def body(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            if blocked_in == "recv":
                comm.recv(source=1)
            else:
                comm.barrier()

        threads_before = threading.active_count()
        t0 = time.perf_counter()
        with pytest.raises(RankFailure, match="rank 1 failed") as info:
            SimMPI(3).run(body)
        assert info.value.rank == 1
        assert isinstance(info.value.__cause__, ValueError)
        assert time.perf_counter() - t0 < 5.0
        assert threading.active_count() == threads_before

    def test_failure_inside_a_collective(self):
        """The combine step itself raises (ragged shapes): whichever
        rank completes the round fails, the parked ones unwind."""

        def body(comm):
            return comm.allreduce(np.zeros(2 + comm.rank))

        threads_before = threading.active_count()
        with pytest.raises(RankFailure) as info:
            SimMPI(3).run(body)
        assert info.value.rank == 2  # last to arrive combines
        assert threading.active_count() == threads_before

    def test_first_failing_rank_is_reported(self):
        def body(comm):
            comm.barrier()
            raise ValueError(f"rank {comm.rank}")

        with pytest.raises(RankFailure) as info:
            SimMPI(4).run(body)
        # rank 3 completes the barrier and runs on, so it fails first
        assert info.value.rank == 3

    def test_placement_rank_mismatch(self):
        with pytest.raises(ValueError):
            SimMPI(8, placement=JobPlacement.pack(4))

    def test_zero_ranks(self):
        with pytest.raises(ValueError):
            SimMPI(0)

    def test_unpicklable_payload_raises_typeerror(self):
        """No silent 64-byte fallback: the offending type is named."""
        import threading

        def body(comm):
            comm.send(threading.Lock(), dest=1)

        with pytest.raises(RuntimeError, match="lock"):
            SimMPI(2).run(body)


class TestDeadlock:
    """Deadlock is detected exactly (no rank can run, some unfinished)
    and at once — nothing here waits on the clock."""

    def test_single_rank_unmatched_recv(self):
        # 1-rank worlds run inline: the error arrives unwrapped
        with pytest.raises(DeadlockError, match="rank 0 .* rank 0 tag 3"):
            SimMPI(1).run(lambda comm: comm.recv(source=0, tag=3))

    def test_recv_names_rank_peer_and_tag(self):
        def body(comm):
            if comm.rank == 2:
                comm.recv(source=0, tag=7)

        threads_before = threading.active_count()
        with pytest.raises(RankFailure) as info:
            SimMPI(3).run(body)
        assert info.value.rank == 2
        assert isinstance(info.value.__cause__, DeadlockError)
        assert "waiting for rank 0 tag 7" in str(info.value.__cause__)
        assert "trace recorded" not in str(info.value.__cause__)
        assert threading.active_count() == threads_before

    def test_every_parked_rank_raises(self):
        seen = []

        def body(comm):
            try:
                comm.recv(source=(comm.rank + 1) % comm.size)
            except DeadlockError as exc:
                seen.append((comm.rank, str(exc)))
                raise

        with pytest.raises(RankFailure):
            SimMPI(3).run(body)
        assert sorted(rank for rank, _ in seen) == [0, 1, 2]
        for rank, text in seen:
            assert f"rank {rank} deadlocked" in text

    def test_collective_a_rank_never_enters(self):
        def body(comm):
            if comm.rank != 1:
                comm.barrier()

        with pytest.raises(RankFailure, match="collective") as info:
            SimMPI(3).run(body)
        assert isinstance(info.value.__cause__, DeadlockError)

    def test_world_is_reusable_after_a_failed_run(self):
        world = SimMPI(2)
        with pytest.raises(RankFailure):
            world.run(lambda comm: comm.recv(source=1 - comm.rank))
        assert world.run(lambda comm: comm.allreduce(1)) == [2, 2]


class TestBatonSchedule:
    """Exactly one rank runs at a time, in an order that is a function
    of the program alone."""

    def test_ranks_never_run_concurrently(self):
        """Stress: more ranks than cores, a tiny switch interval, and an
        unprotected shared counter that only mutual exclusion keeps at
        one.  Free-running rank threads trip it within a few rounds."""
        running = [0]
        overlaps = []

        def critical():
            running[0] += 1
            if running[0] != 1:
                overlaps.append(running[0])
            for _ in range(5000):  # ~0.1 ms of bytecodes: preemptible
                pass
            running[0] -= 1

        def body(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            total = 0.0
            for i in range(40):
                critical()
                req = comm.irecv(left, tag=i)
                comm.isend(np.full(2, float(comm.rank)), right, tag=i)
                critical()
                total += req.wait()[0]
                if i % 8 == 0:
                    total += comm.allreduce(1.0)
            return total

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            t0 = time.perf_counter()
            results = SimMPI(8).run(body)
        finally:
            sys.setswitchinterval(interval)
        assert overlaps == []
        assert results == [40.0 * ((r - 1) % 8) + 5 * 8.0 for r in range(8)]
        assert time.perf_counter() - t0 < 30.0

    def test_hand_off_goes_to_the_next_ready_rank_cyclically(self):
        order = []

        def body(comm):
            order.append(("start", comm.rank))
            comm.barrier()
            order.append(("after", comm.rank))

        SimMPI(3).run(body)
        # rank 2 completes the barrier and keeps the baton; when it
        # returns, the next ready rank after it, cyclically, is rank 0
        assert order == [
            ("start", 0), ("start", 1), ("start", 2),
            ("after", 2), ("after", 0), ("after", 1),
        ]

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_trace_is_a_function_of_the_program(self, data):
        """Two traced runs of one drawn send/recv/allreduce script give
        the same event sequence, eids included."""
        nranks = data.draw(st.integers(2, 6), label="nranks")
        rank = st.integers(0, nranks - 1)
        script = data.draw(
            st.lists(
                st.one_of(
                    st.tuples(st.just("send"), rank, rank, st.integers(0, 2)),
                    st.just(("allreduce",)),
                ),
                max_size=12,
            ),
            label="script",
        )

        def body(comm):
            got = []
            for op in script:
                if op[0] == "allreduce":
                    got.append(comm.allreduce(comm.rank))
                    continue
                _, src, dst, tag = op
                if comm.rank == src:
                    comm.isend(np.full(1, float(src)), dst, tag)
                if comm.rank == dst:
                    got.append(float(comm.recv(src, tag)[0]))
            return got

        def traced():
            world = SimMPI(nranks, trace=True)
            results = world.run(body)
            events = [
                (e.eid, e.rank, e.seq, e.op, e.peer, e.tag, e.matched)
                for e in world.trace
            ]
            return results, events, world.max_clock()

        first, second = traced(), traced()
        assert first == second
        assert [e[0] for e in first[1]] == list(range(len(first[1])))
