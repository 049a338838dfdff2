"""One stacked level per rank: ``Cart3DKernels`` over the partitions it
is handed.

Every hook joins the partitions' states into one array, runs the
*serial* kernels once on the stacked level (``_Stack``: every
partition's faces, walls and far faces end to end, cell indices offset
to the stack's rows), and hands the exchanger per-partition row slices
of the result.  Fluxes are face-local and rows of different partitions
never share a scatter row, so that is a data-movement change only and
everything here is exact: stacked against per-partition evaluation on
generated levels, whole solves against hashes recorded before any
stacking existed, call counts that do not grow with the partition
count, and the stack cache's lifetime.
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
    _split_stack,
    _stack,
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


class SumOnly:
    """A comm whose allreduce folds what it is handed, nothing else."""

    def allreduce(self, parts, op="sum"):
        assert op == "sum"
        return sum(parts.values())


class NoExchange:
    """An exchanger that ships nothing: every pass then returns each
    partition's local part, ghost rows as the caller left them."""

    def __init__(self, pids):
        self.pids = set(pids)
        self.comm = SumOnly()

    def charge(self, flops):
        assert set(flops) == self.pids

    def add(self, arrays, tag):
        assert set(arrays) == self.pids

    def copy(self, arrays, tag):
        assert set(arrays) == self.pids

    def start_copy(self, arrays, tag):
        self.copy(arrays, tag)
        return Window()


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


def some(things, pids):
    return None if things is None else {p: things[p] for p in pids}


def alone(kern, part, q):
    """One partition's residual from the serial residual's own pieces."""
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

        def passes(pids):
            """Completed residual, time step, one RK step and the defect
            over the partitions ``pids``, as per-partition rows."""
            mine, states = some(doms, pids), some(qs, pids)
            stack = _stack(mine)
            pending = Window() if overlapped else None
            r = kern._completed_residual(
                NoExchange(pids), mine, stack.join(states), states,
                None if forcing is None else stack.join(some(forcing, pids)),
                pending,
            )
            assert pending is None or pending.done
            dt = kern._time_step(NoExchange(pids), stack, stack.join(states),
                                 2.0)
            # unforced: with nothing exchanged, an owned cell whose
            # faces all live on another rank has no spectral radius
            smoothed = kern.smooth(NoExchange(pids), mine, states, cfl=1.0,
                                   overlap=overlapped)
            return [stack.split(r), stack.split(dt), smoothed,
                    kern.defect(NoExchange(pids), mine, states,
                                some(forcing, pids))]

        together = passes(list(doms))
        for p, dom in doms.items():
            for whole, part in zip(together, passes([p])):
                assert list(whole) == list(doms)
                assert np.array_equal(whole[p], part[p])
            # and the residual is what the serial pieces give on that
            # slice (one pass over all faces; the overlapped split adds
            # the ghost faces' sum afterwards, which may reassociate)
            ref = alone(kern, dom.ctx, qs[p])
            ref[dom.nowned:] = 0.0
            if forcing is not None:
                ref = ref - forcing[p]
            if overlapped:
                assert np.allclose(together[0][p], ref, rtol=1e-12,
                                   atol=1e-14)
            else:
                assert np.array_equal(together[0][p], ref)

    def test_split_batches_cover_every_face_once(self):
        solver = small_solver("sphere", 3, "vanleer")
        par = api.make_parallel_cart3d(solver, 4)
        doms = dict(enumerate(par.hierarchy.levels[0].domains))
        stack = _stack(doms)
        interior, ghost = _split_stack(doms)
        assert _stack(doms) is stack
        assert _split_stack(doms)[0] is interior
        part = stack.part
        assert len(part.vol) == sum(d.nlocal for d in doms.values())
        nfaces = [len(d.ctx.face_left) for d in doms.values()]
        assert len(interior.face_left) + len(ghost.face_left) \
            == len(part.face_left) == sum(nfaces)
        assert not stack.ghost[interior.face_left].any()
        assert not stack.ghost[interior.face_right].any()
        assert (stack.ghost[ghost.face_left]
                | stack.ghost[ghost.face_right]).all()
        # boundary lists are owned-only and ride with the interior half
        assert interior.wall_cell is part.wall_cell
        assert len(ghost.wall_cell) == len(ghost.far_cell) == 0
        assert not stack.ghost[part.wall_cell].any()
        assert not stack.ghost[part.far_cell].any()
        # each partition's rows and faces, in its own order, offset
        for (p, dom), end in zip(doms.items(), np.cumsum(nfaces)):
            rows = stack.spans[p]
            faces = slice(end - len(dom.ctx.face_left), end)
            assert np.array_equal(part.vol[rows], dom.ctx.vol)
            assert np.array_equal(stack.ghost[rows],
                                  np.arange(dom.nlocal) >= dom.nowned)
            for name in ("face_left", "face_right"):
                assert np.array_equal(
                    getattr(part, name)[faces] - rows.start,
                    getattr(dom.ctx, name),
                )
            assert np.array_equal(part.face_normal[faces],
                                  dom.ctx.face_normal)
        assert np.array_equal(stack.owned, np.flatnonzero(~stack.ghost))


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
    """{function name: [call count, {caller (file, name): calls}]} of one
    ``cycle()``, after a first one has filled the lazy caches."""
    cycle()
    profile = cProfile.Profile()
    profile.enable()
    cycle()
    profile.disable()
    calls: dict = {}
    for (_file, _line, name), row in pstats.Stats(profile).stats.items():
        entry = calls.setdefault(name, [0, {}])
        entry[0] += row[1]
        for (file, _, caller), stats in row[4].items():
            key = file, caller
            entry[1][key] = entry[1].get(key, 0) + stats[0]
    return calls


class TestCallCounts:
    """What the stack is for: every kernel is called per pass, not per
    partition per pass — and no pass re-derives ``|S|``."""

    KERNELS = ("scatter_add", "rk_update", "spectral_radius",
               "van_leer_flux", "wall_flux", "rusanov_flux")

    @pytest.mark.parametrize("overlap", [False, True])
    def test_flux_calls_do_not_grow_with_partitions(self, overlap):
        solver = api.make_cart3d_solver(
            SOLIDS["sphere"], dim=2, base_level=4, max_level=5, mg_levels=3,
            mach=0.4,
        )
        counts = {}
        for nparts in (1, 2, 4):
            par = api.make_parallel_cart3d(
                solver, nparts,
                config=RuntimeConfig(backend="sim", overlap=overlap),
            )
            calls = calls_in_a_cycle(lambda: par.solve(1, cfl=2.0))
            counts[nparts] = {name: calls[name][0] for name in self.KERNELS}
        assert counts[1] == counts[2] == counts[4], counts
        assert all(n > 0 for n in counts[1].values())

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
            callers = calls_in_a_cycle(cycle).get("norm", [0, {}])[1]
            assert not any(f.endswith("solvers/fluxes.py")
                           for f, _ in callers)


class TestBatchLifetime:
    """The stack lives in a domain's scratch cache: no registry keeps
    it, and a worker's share of the hierarchy pickles with or without
    it."""

    def test_released_with_the_level(self):
        solver = small_solver("sphere", 2, "vanleer")
        par = api.make_parallel_cart3d(
            solver, 3, config=RuntimeConfig(overlap=True)
        )
        par.solve(1, cfl=2.0)
        doms = dict(enumerate(par.hierarchy.levels[0].domains))
        built = [_stack(doms), *_split_stack(doms)]
        assert built[0] in doms[0].cache.values()  # built by the solve
        assert "face_scatter" in vars(built[0].part)
        # ... and the rank-local slices keep no operator of their own
        assert all("face_scatter" not in vars(d.ctx)
                   and "side_scatters" not in vars(d.ctx)
                   for d in doms.values())
        refs = [weakref.ref(b) for b in built]
        del doms, par, built
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]

    @pytest.mark.parametrize("built", [False, True])
    def test_worker_spec_round_trips_through_pickle(self, built):
        solver = small_solver("sphere", 2, "vanleer")
        par = api.make_parallel_cart3d(
            solver, 2, config=RuntimeConfig(overlap=True)
        )
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
        qs = perturbed_states(fine, solver.qinf, 0)
        if built:
            # what a worker's first cycle fills: its one-partition stack
            # and halves, operators built
            spec.kernels.smooth(NoExchange(fine), fine, dict(qs), cfl=2.0,
                                overlap=True)
        assert bool(fine[rank].cache) == built
        shipped = pickle.loads(pickle.dumps(spec))
        twin = shipped.doms[0]
        assert bool(twin[rank].cache) == built
        if built:
            assert "face_scatter" in vars(_stack(twin).part)
            assert "face_scatter" in vars(_split_stack(twin)[1])
        # the per-partition slices never build an operator
        assert "face_scatter" not in vars(fine[rank].ctx)
        assert "face_scatter" not in vars(twin[rank].ctx)
        assert isinstance(shipped.kernels, Cart3DKernels)
        for overlapped in (False, True):
            a, b = (
                kern.smooth(NoExchange(doms), doms, dict(qs), cfl=2.0,
                            overlap=overlapped)
                for kern, doms in ((spec.kernels, fine),
                                   (shipped.kernels, twin))
            )
            assert np.array_equal(a[rank], b[rank])
