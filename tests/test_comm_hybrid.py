"""Tests for the hybrid MPI/OpenMP communication strategies."""

import numpy as np
import pytest

from repro.comm import (
    SimMPI,
    build_halos,
    hybrid_efficiency,
    master_thread_time,
    partition_owners,
    thread_parallel_time,
)
from tests.message_exchange import MessageExchanger
from tests.test_comm_exchange import grid_graph, strip_partition


class TestEfficiencyModel:
    def test_one_thread_is_baseline(self):
        assert hybrid_efficiency(1, comm_fraction=0.2) == 1.0

    def test_efficiency_decreases_with_threads(self):
        e2 = hybrid_efficiency(2, comm_fraction=0.1)
        e4 = hybrid_efficiency(4, comm_fraction=0.1)
        assert 1.0 > e2 > e4

    def test_figure15_shape(self):
        """Fig. 15 anchors on NUMAlink: ~0.984 at 2 threads, ~0.872 at 4
        threads.  The model should land within a few percent with the
        NSU3D comm fraction."""
        comm_fraction = 0.072  # calibrated, see perf.workmodel
        e2 = hybrid_efficiency(2, comm_fraction)
        e4 = hybrid_efficiency(4, comm_fraction)
        assert e2 == pytest.approx(0.984, abs=0.02)
        assert e4 == pytest.approx(0.872, abs=0.04)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            hybrid_efficiency(0, 0.1)
        with pytest.raises(ValueError):
            hybrid_efficiency(2, 1.5)


class TestStrategyTimes:
    def test_master_thread_overlaps_omp(self):
        """OpenMP copies hide behind MPI transit when shorter."""
        t = master_thread_time(
            mpi_time=1.0, omp_copy_time=0.5, pack_bytes=0, nthreads=4
        )
        assert t == pytest.approx(1.0)

    def test_master_thread_pack_scales_with_threads(self):
        t1 = master_thread_time(0.0, 0.0, pack_bytes=2e9, nthreads=1)
        t4 = master_thread_time(0.0, 0.0, pack_bytes=2e9, nthreads=4)
        assert t1 == pytest.approx(4 * t4)

    def test_thread_parallel_pays_lock_penalty(self):
        """Reference [12]: thread-parallel MPI 'locks' and serializes —
        it must be slower than master-thread for multithreaded runs."""
        kwargs = dict(mpi_time=1.0, omp_copy_time=0.3, pack_bytes=1e6)
        assert thread_parallel_time(nthreads=4, **kwargs) > master_thread_time(
            nthreads=4, **kwargs
        )

    def test_single_thread_no_lock_penalty(self):
        t = thread_parallel_time(1.0, 0.0, 0.0, nthreads=1)
        assert t == pytest.approx(1.0)

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            master_thread_time(1.0, 1.0, 0.0, nthreads=0)
        with pytest.raises(ValueError):
            thread_parallel_time(1.0, 1.0, 0.0, nthreads=0)


class TestPartitionOwners:
    def test_even_split(self):
        owner = partition_owners(8, 4)
        assert [owner[i] for i in range(8)] == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_uneven_split(self):
        owner = partition_owners(5, 2)
        assert [owner[i] for i in range(5)] == [0, 0, 0, 1, 1]

    def test_too_few_partitions(self):
        with pytest.raises(ValueError):
            partition_owners(2, 4)


def assert_hybrid_copy(halos, nprocs: int) -> None:
    """A copy over ``halos`` with the partitions spread over ``nprocs``
    SimMPI ranks (fig. 7b) gives every ghost its owner's value."""
    arrays = {}
    for h in halos:
        arrays[h.rank] = np.zeros(h.nlocal)
        arrays[h.rank][: h.nowned] = 1000.0 + h.owned_global
    MessageExchanger(SimMPI(nprocs), {h.rank: h.plan for h in halos}).copy(
        arrays
    )
    for h in halos:
        assert np.array_equal(arrays[h.rank], 1000.0 + h.local_to_global())


class TestHybridProcess:
    def test_hybrid_copy_matches_flat_exchange(self):
        """A 4-partition problem on 2 MPI processes x 2 threads must
        produce the same ghost values as 4 flat MPI ranks."""
        nvert, edges = grid_graph(8, 8)
        assert_hybrid_copy(
            build_halos(nvert, edges, strip_partition(nvert, 4)), nprocs=2
        )

    def test_hybrid_with_single_process(self):
        """All partitions in one process: pure OpenMP-style copies."""
        nvert, edges = grid_graph(6, 6)
        assert_hybrid_copy(
            build_halos(nvert, edges, strip_partition(nvert, 3)), nprocs=1
        )
