"""One flux call per pass: ``Cart3DKernels`` over the partitions it is
handed.

A residual pass stacks the faces of every partition in ``doms`` and
calls each flux kernel once (``_FaceBatch``).  That is a data-movement
change only — the kernels are element-wise and each partition still
scatters its own rows through its own operators — so everything here is
exact: batched against per-partition evaluation on generated levels,
whole solves against hashes recorded at the commit before the batch
existed, call counts that no longer grow with the partition count, and
the batch cache's lifetime.
"""

import cProfile
import gc
import hashlib
import pickle
import pstats
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.mesh.cartesian import Box, Sphere
from repro.runtime import RuntimeConfig
from repro.runtime.domain import DistributedDomain
from repro.runtime.process import WorkerSpec
from repro.solvers.cart3d.parallel import (
    Cart3DKernels,
    _face_batch,
    _split_batches,
)
from repro.solvers.cart3d.residual import FLUX_FUNCTIONS, add_boundary_fluxes

SOLIDS = {
    "sphere": Sphere(center=[0.5, 0.5, 0.5], radius=0.15),
    "box": Box(lo=[0.4, 0.35, 0.4], hi=[0.65, 0.6, 0.7]),
}
_SOLVERS: dict = {}


def small_solver(solid: str, dim: int, flux: str):
    key = solid, dim, flux
    if key not in _SOLVERS:
        _SOLVERS[key] = api.make_cart3d_solver(
            SOLIDS[solid], dim=dim, base_level=5 - dim, max_level=6 - dim,
            mg_levels=2, mach=0.4, flux=flux,
        )
    return _SOLVERS[key]


class NoExchange:
    """An exchanger that ships nothing: ``_completed_residual`` then
    returns each partition's local part (ghost rows zeroed)."""

    def __init__(self, pids):
        self.pids = set(pids)

    def charge(self, flops):
        assert set(flops) == self.pids

    def add(self, arrays, tag):
        assert set(arrays) == self.pids


class Window:
    """A pending exchange that only records that it was finished."""

    done = False

    def finish(self):
        assert not self.done
        self.done = True


def perturbed_states(doms, qinf, seed):
    rng = np.random.default_rng(seed)
    return {
        p: np.tile(qinf, (dom.nlocal, 1))
        * (1.0 + 0.05 * rng.random((dom.nlocal, len(qinf))))
        for p, dom in doms.items()
    }


def alone(kern, part, q):
    """The per-partition evaluation the batch replaced, from the serial
    residual's own pieces."""
    r = np.zeros_like(q)
    flux = FLUX_FUNCTIONS[kern.flux](
        q[part.face_left], q[part.face_right], part.face_normal
    )
    kern.engine.scatter_add(r, part.face_scatter, flux)
    add_boundary_fluxes(part, r, q, kern.qinf)
    return r


class TestBatchedEqualsPerPartition:
    @settings(max_examples=40, deadline=None)
    @given(
        solid=st.sampled_from(sorted(SOLIDS)),
        dim=st.sampled_from([2, 3]),
        flux=st.sampled_from(sorted(FLUX_FUNCTIONS)),
        nparts=st.integers(1, 6),
        level=st.integers(0, 1),
        overlapped=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    def test_completed_residual(self, solid, dim, flux, nparts, level,
                                overlapped, seed):
        solver = small_solver(solid, dim, flux)
        par = api.make_parallel_cart3d(solver, nparts)
        kern = par.kernels
        doms = dict(enumerate(par.hierarchy.levels[level].domains))
        qs = perturbed_states(doms, solver.qinf, seed)
        forcing = None if seed % 2 else {
            p: 1e-3 * q for p, q in qs.items()
        }

        def completed(some):
            pending = Window() if overlapped else None
            out = kern._completed_residual(
                NoExchange(some), {p: doms[p] for p in some},
                {p: qs[p] for p in some},
                None if forcing is None else {p: forcing[p] for p in some},
                pending,
            )
            assert pending is None or pending.done
            return out

        together = completed(list(doms))
        assert list(together) == list(doms)
        for p, dom in doms.items():
            assert np.array_equal(together[p], completed([p])[p])
            # and both are what the serial pieces give on that slice
            # (one pass over all faces; the overlapped split adds the
            # ghost faces' sum afterwards, which may reassociate)
            ref = alone(kern, dom.ctx, qs[p])
            ref[dom.nowned:] = 0.0
            if forcing is not None:
                ref = ref - forcing[p]
            if overlapped:
                assert np.allclose(together[p], ref, rtol=1e-12, atol=1e-14)
            else:
                assert np.array_equal(together[p], ref)

    def test_split_batches_cover_every_face_once(self):
        solver = small_solver("sphere", 3, "vanleer")
        par = api.make_parallel_cart3d(solver, 4)
        doms = dict(enumerate(par.hierarchy.levels[0].domains))
        whole = _face_batch(doms)
        interior, ghost = _split_batches(doms)
        assert _face_batch(doms) is whole
        assert _split_batches(doms)[0] is interior
        for p, dom in doms.items():
            nfaces = len(dom.ctx.face_left)
            assert len(interior.slices[p].face_left) \
                + len(ghost.slices[p].face_left) == nfaces
            assert (interior.slices[p].face_left < dom.nowned).all()
            assert (interior.slices[p].face_right < dom.nowned).all()
            # boundary lists ride with the interior batch
            assert len(ghost.slices[p].wall_cell) == 0
            assert len(ghost.slices[p].far_cell) == 0
            assert interior.slices[p].wall_cell is dom.ctx.wall_cell
        assert len(whole.face_normals.area) == sum(
            len(dom.ctx.face_left) for dom in doms.values()
        )
        assert whole.faces[-1].stop == len(whole.face_normals.area)
        assert ghost.walls[-1] == slice(0, 0)


#: sha256(q.tobytes())[:16] and the hex residual history of a 2-cycle
#: ``solve`` (sphere r=0.15, dim 2, levels 4-5, 3 multigrid levels, Mach
#: 0.4, cfl 2), recorded at the parent commit — per-partition
#: ``_face_residual`` calls, array-of-vectors van Leer and Roe.
#: Partition count and overlap reassociate the face sums, so the
#: configurations differ from each other in the last bits; each equals
#: its own parent exactly.
PARENT_SOLVES = {
    "vanleer": {
        "sim4 blocking": ("cf540294798fde7d", ["0x1.8a66c2952f78fp+0",
                                               "0x1.9d0b2f05a00ccp+0"]),
        "sim4 overlap": ("49c076e725d486c5", ["0x1.8a66c2952f795p+0",
                                              "0x1.9d0b2f05a00bcp+0"]),
        "hybrid 2x4": ("beea848e90d44e84", ["0x1.8a66c2952f796p+0",
                                            "0x1.9d0b2f05a00c1p+0"]),
        "process 2": ("732d0b19f55852bb", ["0x1.8a66c2952f795p+0",
                                           "0x1.9d0b2f05a00bap+0"]),
    },
    "roe": {
        "sim4 blocking": ("5db44895efa2da1d", ["0x1.0604ee47c488bp+1",
                                               "0x1.15ecafd7364ffp+0"]),
        "sim4 overlap": ("666e5ecd3ddc52c7", ["0x1.0604ee47c4889p+1",
                                              "0x1.15ecafd7364f8p+0"]),
        "hybrid 2x4": ("d580695a74986073", ["0x1.0604ee47c488ap+1",
                                            "0x1.15ecafd7364fdp+0"]),
        "process 2": ("23f4182bbf0a8e77", ["0x1.0604ee47c4888p+1",
                                           "0x1.15ecafd7364f7p+0"]),
    },
}


def solve_hash(flux, nparts, **config):
    solver = api.make_cart3d_solver(
        SOLIDS["sphere"], dim=2, base_level=4, max_level=5, mg_levels=3,
        mach=0.4, flux=flux,
    )
    with api.make_parallel_cart3d(
        solver, nparts, config=RuntimeConfig(**config)
    ) as par:
        q, hist = par.solve(2, cfl=2.0)
    return (hashlib.sha256(q.tobytes()).hexdigest()[:16],
            [float(x).hex() for x in hist])


class TestSolvesEqualTheParents:
    CONFIGS = {
        "sim4 blocking": (4, dict(backend="sim", overlap=False)),
        "sim4 overlap": (4, dict(backend="sim", overlap=True)),
        "hybrid 2x4": (4, dict(backend="hybrid", nranks=2, overlap=True)),
        "process 2": (2, dict(backend="process", overlap=True)),
    }

    @pytest.mark.parametrize("flux", ["vanleer", "roe"])
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_bit_equal(self, flux, config):
        nparts, cfg = self.CONFIGS[config]
        assert solve_hash(flux, nparts, **cfg) == PARENT_SOLVES[flux][config]


def calls_in_a_cycle(cycle):
    """{function name: [call count, caller files]} of one ``cycle()``,
    after a first one has filled the lazy caches."""
    cycle()
    profile = cProfile.Profile()
    profile.enable()
    cycle()
    profile.disable()
    calls: dict = {}
    for (_file, _line, name), row in pstats.Stats(profile).stats.items():
        entry = calls.setdefault(name, [0, set()])
        entry[0] += row[1]
        entry[1].update(caller[0] for caller in row[4])
    return calls


class TestCallCounts:
    """What the batch is for: the flux kernels are called per pass, not
    per partition per pass — and no pass re-derives ``|S|``."""

    @pytest.mark.parametrize("overlap", [False, True])
    def test_flux_calls_do_not_grow_with_partitions(self, overlap):
        solver = api.make_cart3d_solver(
            SOLIDS["sphere"], dim=2, base_level=4, max_level=5, mg_levels=3,
            mach=0.4,
        )
        counts = {}
        for nparts in (2, 4):
            par = api.make_parallel_cart3d(
                solver, nparts,
                config=RuntimeConfig(backend="sim", overlap=overlap),
            )
            calls = calls_in_a_cycle(lambda: par.solve(1, cfl=2.0))
            counts[nparts] = {
                name: calls[name][0]
                for name in ("van_leer_flux", "wall_flux", "rusanov_flux")
            }
        assert counts[2] == counts[4]
        assert all(n > 0 for n in counts[2].values())

    def test_normals_are_not_split_on_the_cycle_path(self):
        """Every flux is handed a ``FaceNormals`` its level split once:
        ``solvers/fluxes.py`` calls no ``np.linalg.norm`` in a cycle —
        serial or distributed, either solver."""
        cart = api.make_cart3d_solver(
            SOLIDS["sphere"], dim=2, base_level=4, max_level=5, mg_levels=3,
            mach=0.4,
        )
        mesh = api.bump_channel(8, 4, 6, wall_spacing=5e-3, ratio=1.3,
                                bump_height=0.03)
        nsu = api.make_nsu3d_solver(mesh, mach=0.5, mg_levels=2,
                                    turbulence=True)
        overlap = RuntimeConfig(overlap=True)
        par_cart = api.make_parallel_cart3d(cart, 4, config=overlap)
        par_nsu = api.make_parallel_nsu3d(nsu, 4, config=overlap)
        for cycle in (
            lambda: par_cart.solve(1, cfl=2.0),
            lambda: par_nsu.solve(1, cfl=8.0),
            cart.run_cycle,
            nsu.run_cycle,
        ):
            callers = calls_in_a_cycle(cycle).get("norm", [0, set()])[1]
            assert not any(f.endswith("solvers/fluxes.py") for f in callers)


class TestBatchLifetime:
    """The batches live in a domain's scratch cache: no registry keeps
    them, and a worker's share of the hierarchy pickles with or without
    them."""

    def test_released_with_the_level(self):
        solver = small_solver("sphere", 2, "vanleer")
        par = api.make_parallel_cart3d(
            solver, 3, config=RuntimeConfig(overlap=True)
        )
        par.solve(1, cfl=2.0)
        doms = dict(enumerate(par.hierarchy.levels[0].domains))
        refs = [weakref.ref(b)
                for b in (_face_batch(doms), *_split_batches(doms))]
        assert _face_batch(doms) in doms[0].cache.values()  # built by solve
        del doms, par
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]

    @pytest.mark.parametrize("built", [False, True])
    def test_worker_spec_round_trips_through_pickle(self, built):
        solver = small_solver("sphere", 2, "vanleer")
        par = api.make_parallel_cart3d(
            solver, 2, config=RuntimeConfig(overlap=True)
        )
        if built:
            par.solve(1, cfl=2.0)
        hierarchy = par.hierarchy
        rank = 1
        spec = WorkerSpec(
            rank=rank, nranks=2,
            doms=[{rank: DistributedDomain(lvl.domains[rank].halo,
                                           lvl.domains[rank].ctx)}
                  for lvl in hierarchy.levels],
            cluster_local=[{rank: cl[rank]}
                           for cl in hierarchy.cluster_local],
            kernels=par.kernels, overlap=True, sanitize=False, timeout=5.0,
        )
        fine = spec.doms[0]
        assert ("face_scatter" in vars(fine[rank].ctx)) == built
        if built:
            # the batches themselves travel too, when a cache is shipped
            fine[rank].cache.update(hierarchy.levels[0].domains[rank].cache)
            _split_batches(fine)
        shipped = pickle.loads(pickle.dumps(spec))
        twin = shipped.doms[0]
        assert ("face_scatter" in vars(twin[rank].ctx)) == built
        assert bool(twin[rank].cache) == built
        qs = perturbed_states(fine, solver.qinf, 0)
        assert isinstance(shipped.kernels, Cart3DKernels)
        for overlapped in (False, True):
            a, b = (
                kern._completed_residual(
                    NoExchange(doms), doms, dict(qs), None,
                    Window() if overlapped else None,
                )
                for kern, doms in ((spec.kernels, fine),
                                   (shipped.kernels, twin))
            )
            assert np.array_equal(a[rank], b[rank])
