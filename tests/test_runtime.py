"""Tests for the unified distributed-solve runtime (repro.runtime)."""

import numpy as np
import pytest

from repro.comm import SimMPI, build_halos
from repro.errors import ConfigurationError, ExchangeLifecycleError
from repro.mesh.unstructured import build_dual, bump_channel, extract_lines
from repro.runtime import (
    DistributedSolveDriver,
    LevelSpec,
    LockstepComm,
    MetisLinePartitioner,
    Partitioner,
    SFCPartitioner,
    build_domain_hierarchy,
    build_domain_set,
    derive_coarse_partition,
    effective_cfl,
    fas_cycle,
)
from repro.solvers.cart3d.multigrid import (
    COARSE_CFL_FRACTION as CART3D_FRACTION,
)
from repro.solvers.nsu3d import context_from_dual
from repro.solvers.nsu3d.multigrid import (
    COARSE_CFL_FRACTION as NSU3D_FRACTION,
)
from repro.runtime.backends import Landed
from tests.message_exchange import MessageExchanger
from tests.test_comm_exchange import assert_exchange_roundtrip, exchanger


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


def strip_partition(nvert, nparts):
    return (np.arange(nvert) * nparts) // nvert


@pytest.fixture(scope="module")
def small_ctx():
    mesh = bump_channel(ni=8, nj=4, nk=6, wall_spacing=5e-3, ratio=1.3,
                        bump_height=0.03)
    dual = build_dual(mesh)
    return context_from_dual(dual, mu_lam=1e-5, lines=extract_lines(dual))


class TestPartitioners:
    def test_protocol_is_runtime_checkable(self, small_ctx):
        mp = MetisLinePartitioner(small_ctx.npoints, small_ctx.edges,
                                  lines=small_ctx.lines)
        sp = SFCPartitioner(np.ones(32))
        assert isinstance(mp, Partitioner)
        assert isinstance(sp, Partitioner)

    def test_metis_covers_all_points(self, small_ctx):
        part = MetisLinePartitioner(
            small_ctx.npoints, small_ctx.edges, lines=small_ctx.lines
        ).partition(4)
        assert len(part) == small_ctx.npoints
        assert set(np.unique(part)) == set(range(4))

    def test_metis_never_splits_lines(self, small_ctx):
        """Paper fig. 6b: implicit lines must stay inside one partition
        so the block-tridiagonal solves remain rank-local."""
        part = MetisLinePartitioner(
            small_ctx.npoints, small_ctx.edges, lines=small_ctx.lines
        ).partition(4)
        for line in small_ctx.lines:
            assert len(np.unique(part[line])) == 1

    def test_sfc_segments_are_contiguous(self):
        part = SFCPartitioner(np.ones(100)).partition(4)
        assert (np.diff(part) >= 0).all()
        assert set(np.unique(part)) == set(range(4))

    def test_sfc_respects_weights(self):
        # one heavy cell at the front: its segment should hold fewer
        weights = np.ones(100)
        weights[:10] = 5.0
        part = SFCPartitioner(weights).partition(2)
        assert (part == 0).sum() < (part == 1).sum()


class TestCoarseCflPolicy:
    def test_level_zero_always_fine_cfl(self):
        assert effective_cfl(0, 8.0, 0.75) == 8.0

    def test_fraction_fallback(self):
        """Every coarse level runs at the solver's fraction of ``cfl``."""
        assert effective_cfl(1, 8.0, 0.75) == 6.0
        assert effective_cfl(2, 8.0, 0.75) == 6.0
        assert effective_cfl(1, 8.0, 1.0) == 8.0

    def test_cart3d_fraction_reproduces_historical_default(self):
        """Satellite regression: Cart3D historically hard-coded
        coarse_cfl=1.5 while running cfl=2.0; the coarse-CFL rule must
        reproduce exactly that at the default fine CFL."""
        assert CART3D_FRACTION == 0.75
        assert effective_cfl(1, 2.0, CART3D_FRACTION) == 1.5

    def test_nsu3d_fraction_reproduces_historical_default(self):
        """NSU3D's coarse levels run at the fine cfl."""
        assert NSU3D_FRACTION == 1.0
        assert effective_cfl(1, 10.0, NSU3D_FRACTION) == 10.0

    def test_bad_cycle_rejected_as_configuration_error(self):
        class Ops:
            name = "x"
            nlevels = 1
            coarse_cfl_fraction = 1.0

        with pytest.raises(ConfigurationError):
            fas_cycle(Ops(), None, cycle="Z", cfl=1.0)
        # ConfigurationError subclasses ValueError: old callers that
        # caught ValueError keep working
        with pytest.raises(ValueError):
            fas_cycle(Ops(), None, cycle="Z", cfl=1.0)


class TestCoarsePartition:
    def test_lowest_fine_member_wins(self):
        # agglomerate 0 has fine members {0, 3} on parts {0, 1}: the
        # lowest-numbered fine member decides
        cluster = np.array([0, 1, 1, 0], dtype=np.int64)
        fine_part = np.array([0, 1, 1, 1], dtype=np.int64)
        coarse = derive_coarse_partition(cluster, fine_part, 2)
        assert coarse.tolist() == [0, 1]

    def test_unassigned_coarse_cell_rejected(self):
        cluster = np.array([0, 0], dtype=np.int64)
        fine_part = np.array([0, 0], dtype=np.int64)
        with pytest.raises(ConfigurationError):
            derive_coarse_partition(cluster, fine_part, 2)


class TestDomainSet:
    def _payload(self, h, part):
        return {"rank": h.rank}

    def test_owned_rows_cover_graph(self):
        nvert, edges = grid_graph(6, 6)
        part = strip_partition(nvert, 3)
        dset = build_domain_set(
            LevelSpec(nvert=nvert, edges=edges, payload=self._payload), part
        )
        assert dset.nparts == 3
        owned = np.concatenate(
            [d.halo.owned_global for d in dset.domains]
        )
        assert sorted(owned) == list(range(nvert))
        for d in dset.domains:
            assert d.nowned <= d.nlocal
            assert d.ctx["rank"] == d.halo.rank

    def test_payload_attribute_delegation(self):
        nvert, edges = grid_graph(4, 4)
        part = strip_partition(nvert, 2)

        class Payload:
            marker = 17

        dset = build_domain_set(
            LevelSpec(nvert=nvert, edges=edges,
                      payload=lambda h, p: Payload()),
            part,
        )
        dom = dset.domains[0]
        assert dom.ctx.marker == 17  # the payload is reached as dom.ctx
        with pytest.raises(AttributeError):
            dom.marker  # and only so: no fall-through to it

    def test_extra_ghosts_widen_halo(self):
        nvert, edges = grid_graph(6, 6)
        part = strip_partition(nvert, 2)
        # ask rank 0 for a vertex deep inside rank 1's interior that no
        # cross edge would ever import
        deep = int(np.flatnonzero(part == 1)[-1])
        extra = [np.array([deep], dtype=np.int64),
                 np.array([], dtype=np.int64)]
        halos = build_halos(nvert, edges, part, extra_ghosts=extra)
        l2g0 = halos[0].local_to_global()
        assert deep in l2g0[halos[0].nowned:]
        # the widened plans must still satisfy the exchange property
        assert_exchange_roundtrip(halos)
        assert_exchange_roundtrip(halos, add=True)

    def test_extra_ghosts_length_validated(self):
        nvert, edges = grid_graph(4, 4)
        part = strip_partition(nvert, 2)
        with pytest.raises(ConfigurationError):
            build_halos(nvert, edges, part,
                        extra_ghosts=[np.array([0], dtype=np.int64)])


class TestDomainHierarchy:
    def test_cluster_local_maps_resolve(self):
        nvert, edges = grid_graph(8, 8)
        part = strip_partition(nvert, 4)
        # pair up vertices along the strip direction as "agglomerates"
        cluster = (np.arange(nvert) // 2).astype(np.int64)
        ncoarse = nvert // 2
        cedges = np.unique(
            np.sort(cluster[edges], axis=1), axis=0
        )
        cedges = cedges[cedges[:, 0] != cedges[:, 1]]
        hier = build_domain_hierarchy(
            [
                LevelSpec(nvert=nvert, edges=edges,
                          payload=lambda h, p: None),
                LevelSpec(nvert=ncoarse, edges=cedges,
                          payload=lambda h, p: None),
            ],
            [cluster],
            part,
        )
        assert hier.nlevels == 2
        assert hier.nparts == 4
        for p in range(4):
            fine = hier.levels[0].domains[p]
            coarse = hier.levels[1].domains[p]
            cl = hier.cluster_local[0][p]
            assert len(cl) == fine.nowned
            assert (cl >= 0).all()
            assert (cl < coarse.nlocal).all()
            # each owned fine row maps to the right global agglomerate
            l2g_c = coarse.halo.local_to_global()
            assert np.array_equal(
                l2g_c[cl], cluster[fine.halo.owned_global]
            )

    def test_spec_cluster_count_validated(self):
        nvert, edges = grid_graph(4, 4)
        part = strip_partition(nvert, 2)
        with pytest.raises(ConfigurationError):
            build_domain_hierarchy(
                [LevelSpec(nvert=nvert, edges=edges,
                           payload=lambda h, p: None)],
                [np.zeros(nvert, dtype=np.int64)],
                part,
            )


def lockstep_level(nvert, edges, part):
    """One rank per partition of ``part``: the world, the level's
    ``{pid: domain}`` and its lockstep exchanger."""
    doms = dict(enumerate(build_domain_set(
        LevelSpec(nvert, edges, lambda halo, part: None), part
    ).domains))
    world = SimMPI(len(doms))
    return world, doms, LockstepComm(world, len(doms)).exchanger(doms)


class TestInProcessPending:
    def test_start_finish_equals_exchange_copy(self):
        nvert, edges = grid_graph(6, 6)
        part = strip_partition(nvert, 3)
        base = np.arange(nvert, dtype=np.float64)

        def run(overlapped):
            world, doms, x = lockstep_level(nvert, edges, part)
            q = np.zeros((sum(dom.nlocal for dom in doms.values()), 2))
            for p, dom in doms.items():
                q[x.rows.owned_spans[p]] = base[dom.halo.owned_global][:, None]
            if overlapped:
                pending = x.start_copy(q, tag=5)
                # one partition per rank: the window is real
                assert not isinstance(pending, Landed)
                pending.finish()
                with pytest.raises(ExchangeLifecycleError):
                    pending.finish()  # each window closes exactly once
            else:
                x.copy(q, tag=5)
            return q, [c.clock for c in world.comms]

        (a, clocks_a), (b, clocks_b) = run(True), run(False)
        assert np.array_equal(a, b)
        assert clocks_a == clocks_b

    def test_ghosts_match_owner_values(self):
        nvert, edges = grid_graph(5, 5)
        part = strip_partition(nvert, 2)
        _world, doms, x = lockstep_level(nvert, edges, part)
        q = np.zeros((sum(dom.nlocal for dom in doms.values()), 1))
        for p, dom in doms.items():
            q[x.rows.owned_spans[p], 0] = dom.halo.owned_global
        x.start_copy(q).finish()
        for p, dom in doms.items():
            assert np.array_equal(q[x.rows.spans[p], 0],
                                  dom.halo.local_to_global())


class TestHybridExchangeAdd:
    """The message-path oracle agrees with itself across layouts: an
    add over fewer processes (intra-process copies) sums as one rank
    per partition does."""

    def _halos(self):
        nvert, edges = grid_graph(6, 6)
        part = strip_partition(nvert, 4)
        return build_halos(nvert, edges, part)

    def _reference(self, halos, seed=0):
        """Pure-MPI exchange_add result, one rank per partition."""
        rng = np.random.default_rng(seed)
        fills = {h.rank: rng.standard_normal((h.nlocal, 3)) for h in halos}
        arrays = {p: fill.copy() for p, fill in fills.items()}
        exchanger(halos).add(arrays, tag=9)
        return fills, arrays

    def test_matches_plan_exchange_on_fewer_procs(self):
        halos = self._halos()
        fills, expected = self._reference(halos)
        plans = {h.rank: h.plan for h in halos}
        for nprocs in (1, 2):
            arrays = {p: fill.copy() for p, fill in fills.items()}
            MessageExchanger(SimMPI(nprocs), plans).add(arrays, tag=9)
            for p in range(4):
                assert np.allclose(arrays[p], expected[p],
                                   rtol=1e-13, atol=1e-13), (nprocs, p)

    def test_ghost_rows_zeroed_after_add(self):
        halos = self._halos()
        arrays = {h.rank: np.ones((h.nlocal, 2)) for h in halos}
        MessageExchanger(SimMPI(2), {h.rank: h.plan for h in halos}).add(
            arrays, tag=3
        )
        for h in halos:
            assert not arrays[h.rank][h.nowned:].any(), h.rank


class TestDriverValidation:
    def test_more_ranks_than_partitions_rejected(self, small_ctx):
        from repro.solvers.gas import freestream
        from repro.solvers.nsu3d.parallel import (
            NSU3DKernels,
            _local_flow_context,
        )

        qinf = freestream(0.5, nvar=5)
        part = MetisLinePartitioner(
            small_ctx.npoints, small_ctx.edges, lines=small_ctx.lines
        ).partition(2)
        hier = build_domain_hierarchy(
            [LevelSpec(
                nvert=small_ctx.npoints, edges=small_ctx.edges,
                payload=lambda h, p: _local_flow_context(small_ctx, h, p),
            )],
            [],
            part,
        )
        driver = DistributedSolveDriver(hier, NSU3DKernels(qinf), qinf)
        with pytest.raises(ConfigurationError):
            driver.run(SimMPI(3), 1, cfl=5.0)

    def test_exchanger_charges_only_when_enabled(self):
        nvert, edges = grid_graph(4, 4)
        part = strip_partition(nvert, 2)
        world, _doms, x = lockstep_level(nvert, edges, part)
        before = [c.clock for c in world.comms]
        # charging defaults to off: a no-op
        x.charge({0: 1e9, 1: 1e9})
        assert [c.clock for c in world.comms] == before
        x.charging = True
        x.charge({0: 1e9, 1: 1e9})
        assert all(c.clock > t for c, t in zip(world.comms, before))
