"""One stacked context per level: ``NSU3DKernels`` over the partitions it
is handed.

Every pass takes the partitions' rows as one stacked array, runs the
*serial* kernel once on the stacked :class:`FlowContext`, and hands the
exchanger that same array.  Rows of different partitions never share a
scatter row and every kernel is row-, edge- or line-local, so that is a
data-movement change only and everything here is exact: stacked against one-partition-at-a-time evaluation on
generated levels, call counts that no longer grow with the partition
count, and the stack cache's lifetime.
"""

import cProfile
import gc
import pickle
import pstats
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.runtime import RuntimeConfig
from repro.runtime.domain import DistributedDomain
from repro.runtime.process import WorkerSpec
from repro.solvers.nsu3d.parallel import NSU3DKernels, _split_stack, _stack

SHAPES = [(6, 3, 5), (8, 4, 6), (5, 4, 7)]
_SOLVERS: dict = {}


def small_solver(shape, turbulence):
    key = shape, turbulence
    if key not in _SOLVERS:
        mesh = api.bump_channel(*shape, wall_spacing=5e-3, ratio=1.3,
                                bump_height=0.03)
        _SOLVERS[key] = api.make_nsu3d_solver(
            mesh, mach=0.5, mg_levels=2, turbulence=turbulence, cfl=8.0,
        )
    return _SOLVERS[key]


class FixedReference:
    """A comm whose allreduce answers the same whatever it is handed,
    so a partition alone limits against the reference the group does."""

    def allreduce(self, parts, op="sum"):
        assert op == "max"
        return np.full(len(next(iter(parts.values()))), 0.25)


class NoExchange:
    """An exchanger that ships nothing: every pass then returns each
    partition's local part, ghost rows as the caller left them."""

    def __init__(self, doms):
        self.pids = set(doms)
        self.nrows = sum(dom.nlocal for dom in doms.values())
        self.comm = FixedReference()
        self.tags = []

    def charge(self, flops):
        assert set(flops) == self.pids

    def add(self, q, tag):
        assert len(q) == self.nrows
        self.tags.append(tag)

    def copy(self, q, tag):
        assert len(q) == self.nrows
        self.tags.append(tag)

    def start_copy(self, q, tag):
        self.copy(q, tag)
        return Window(q)


class Window:
    """A pending exchange on ``q`` that only records that it was
    finished."""

    done = False

    def __init__(self, q):
        self.q = q

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


def some(doms, pids):
    return {p: doms[p] for p in pids}


def join(states, pids):
    """The partitions ``pids``' rows of ``states``, stacked."""
    if states is None:
        return None
    return np.concatenate([states[p] for p in pids])


class TestStackedEqualsPerPartition:
    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from(SHAPES),
        turbulence=st.booleans(),
        viscous=st.booleans(),
        nparts=st.integers(1, 6),
        level=st.integers(0, 1),  # 0 has implicit lines, 1 has none
        overlapped=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    def test_every_pass(self, shape, turbulence, viscous, nparts, level,
                        overlapped, seed):
        solver = small_solver(shape, turbulence)
        par = api.make_parallel_nsu3d(solver, nparts)
        kern = NSU3DKernels(solver.qinf, viscous=viscous,
                            turbulence=turbulence)
        doms = dict(enumerate(par.hierarchy.levels[level].domains))
        assert bool(_stack(doms).ctx.line_structure.batches) == (level == 0)
        qs = perturbed_states(doms, solver.qinf, seed)
        forcing = None if seed % 2 else {p: 1e-3 * q for p, q in qs.items()}

        def passes(pids):
            """Residual, frozen operator and one smoothing step over
            the partitions ``pids``, stacked."""
            mine, q, f = some(doms, pids), join(qs, pids), join(forcing, pids)
            pending = Window(q) if overlapped else None
            r = kern._completed_residual(NoExchange(mine), mine, q, f,
                                         pending)
            assert pending is None or pending.done
            X = NoExchange(mine)
            op = kern._operator(X, _stack(mine), q, 6.0)
            assert X.tags == [11, 12]
            X = NoExchange(mine)
            smoothed = kern.smooth(X, mine, q, forcing=f, cfl=6.0,
                                   overlap=overlapped)
            assert X.tags[0] == 13 and X.tags.count(14) == 3
            return [r, op.dt, op.solve(r), smoothed,
                    kern.defect(NoExchange(mine), mine, q, f)]

        together = passes(list(doms))
        spans = _stack(doms).spans
        for p in doms:
            for whole, part in zip(together, passes([p])):
                assert np.array_equal(whole[spans[p]], part)

    def test_the_stack_is_the_contexts_end_to_end(self):
        solver = small_solver(SHAPES[1], True)
        par = api.make_parallel_nsu3d(solver, 4)
        doms = dict(enumerate(par.hierarchy.levels[0].domains))
        stack = _stack(doms)
        assert _stack(doms) is stack
        ctx = stack.ctx
        assert ctx.npoints == sum(d.nlocal for d in doms.values())
        assert ctx.nedges == sum(d.ctx.nedges for d in doms.values())
        assert len(ctx.lines) == sum(len(d.ctx.lines) for d in doms.values())
        for p, dom in doms.items():
            span = stack.spans[p]
            assert span.stop - span.start == dom.nlocal
            assert np.array_equal(ctx.volumes[span], dom.ctx.volumes)
            assert np.array_equal(
                stack.ghost[span], np.arange(dom.nlocal) >= dom.nowned
            )
            # boundary lists and the gradient closure stay owned-only
            for name in ("wall_vert", "far_vert", "sym_vert"):
                assert not stack.ghost[getattr(ctx, name)].any()
            assert not stack.ghost[ctx.dual.bvert].any()
        assert np.array_equal(stack.owned, np.flatnonzero(~stack.ghost))
        # equal-length lines of different partitions share a batch
        lengths = [len(line) for line in ctx.lines]
        assert len(ctx.line_structure.batches) == len(set(lengths))
        assert len(set(lengths)) < sum(
            len(d.ctx.line_structure.batches) for d in doms.values()
        )

    def test_split_stack_covers_every_edge_once(self):
        solver = small_solver(SHAPES[1], True)
        par = api.make_parallel_nsu3d(solver, 4)
        doms = dict(enumerate(par.hierarchy.levels[0].domains))
        stack = _stack(doms)
        interior, ghost = _split_stack(doms)
        assert _split_stack(doms)[0] is interior
        assert interior.nedges + ghost.nedges == stack.ctx.nedges
        assert not stack.ghost[interior.edges].any()
        assert stack.ghost[ghost.edges].any(axis=1).all()
        # boundary lists ride with the interior part
        assert interior.wall_vert is stack.ctx.wall_vert
        assert len(ghost.boundary.vert) == 0
        assert interior.lines == [] and ghost.dual is None


def calls_in_a_cycle(cycle):
    """cProfile rows of one ``cycle()`` after a first one has filled the
    lazy caches: ``{(file, name): (calls, {caller (file, name): calls})}``
    with ``file`` the last two path components."""
    cycle()
    profile = cProfile.Profile()
    profile.enable()
    cycle()
    profile.disable()

    def short(key):
        return "/".join(key[0].split("/")[-2:]), key[2]

    return {
        short(key): (row[1], {short(c): v[0] for c, v in row[4].items()})
        for key, row in pstats.Stats(profile).stats.items()
    }


def named(calls, name, file=""):
    return sum(n for (f, fn), (n, _) in calls.items()
               if fn == name and f.endswith(file))


class TestCallCounts:
    """What the stack is for: a cycle calls each kernel per pass, not
    per partition per pass — and the frozen operator never re-factors."""

    @pytest.fixture(scope="class")
    def solver(self):
        return small_solver(SHAPES[1], True)

    @pytest.mark.parametrize("overlap", [False, True])
    def test_kernel_calls_do_not_grow_with_partitions(self, solver, overlap):
        counts = {}
        for nparts in (2, 4):
            par = api.make_parallel_nsu3d(
                solver, nparts,
                config=RuntimeConfig(backend="sim", overlap=overlap),
            )
            calls = calls_in_a_cycle(lambda: par.solve(1, cfl=8.0))
            counts[nparts] = {
                "roe_flux": named(calls, "roe_flux"),
                "euler_jacobian": named(calls, "euler_jacobian",
                                        "numpy_engine.py"),
                "inv": named(calls, "inv", "_linalg.py"),
                "add_to": named(calls, "add_to"),
                "residual": named(calls, "residual", "nsu3d/residual.py"),
            }
            assert named(calls, "solve", "_linalg.py") == 0
        assert counts[2] == counts[4], counts
        assert all(n > 0 for n in counts[2].values())

    def test_no_lapack_solve_on_the_serial_cycle_path(self, solver):
        calls = calls_in_a_cycle(solver.run_cycle)
        assert named(calls, "solve", "_linalg.py") == 0
        assert named(calls, "inv", "_linalg.py") > 0
        # one closed-form diagonal per step and the line-edge pair: the
        # parent made four E-row evaluations per step on a line level
        steps = named(calls, "__init__", "nsu3d/linesolve.py")
        assert 0 < named(calls, "euler_jacobian", "numpy_engine.py") \
            <= 3 * steps


class TestStackLifetime:
    """The stack lives in a domain's scratch cache: no registry keeps
    it, and a worker's share of the hierarchy pickles with or without
    it."""

    def test_released_with_the_level(self):
        solver = small_solver(SHAPES[0], False)
        par = api.make_parallel_nsu3d(
            solver, 3, config=RuntimeConfig(overlap=True)
        )
        par.solve(1, cfl=8.0)
        doms = dict(enumerate(par.hierarchy.levels[0].domains))
        built = [_stack(doms), *_split_stack(doms)]
        assert built[0] in doms[0].cache.values()  # built by the solve
        assert "edge_scatter" in vars(built[0].ctx)
        # ... and the rank-local contexts keep no operator of their own
        assert all("edge_scatter" not in vars(d.ctx) for d in doms.values())
        refs = [weakref.ref(b) for b in built]
        del doms, par, built
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]

    @pytest.mark.parametrize("built", [False, True])
    def test_worker_spec_round_trips_through_pickle(self, built):
        solver = small_solver(SHAPES[0], True)
        par = api.make_parallel_nsu3d(
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
        q = perturbed_states(fine, solver.qinf, 0)[rank]
        if built:
            # what a worker's first cycle fills: its one-partition stack
            # and split, operators and line lookup built
            spec.kernels.smooth(NoExchange(fine), fine, q, cfl=6.0,
                                overlap=True)
        assert bool(fine[rank].cache) == built
        shipped = pickle.loads(pickle.dumps(spec))
        twin = shipped.doms[0]
        assert bool(twin[rank].cache) == built
        if built:
            assert "line_structure" in vars(_stack(twin).ctx)
            assert "edge_scatter" in vars(_split_stack(twin)[1])
        assert isinstance(shipped.kernels, NSU3DKernels)
        for overlapped in (False, True):
            a, b = (
                kern.smooth(NoExchange(doms), doms, q, cfl=6.0,
                            overlap=overlapped)
                for kern, doms in ((spec.kernels, fine),
                                   (shipped.kernels, twin))
            )
            assert np.array_equal(a, b)
