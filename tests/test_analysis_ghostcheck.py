"""The overlap-safety race detector, both layers.

Static layer (:mod:`repro.analysis.ghostcheck`): the AST dataflow pass
must flag every way a kernel can break the ``start_copy`` … ``finish``
contract — ghost reads mid-window, leaked or double-closed windows,
add-reductions on in-transit arrays — while passing *clean* on the two
shipped solvers, whose smoothers are the very pattern the analysis
exists to police.

Dynamic layer (:class:`repro.runtime.sanitizer.GhostSanitizer`): a
planted racy kernel must die with a :class:`GhostRaceError` attributed
to the kernel's telemetry span, while the clean kernels run the parity
matrix untouched (that half lives in ``test_runtime_parity.py``).
"""

import numpy as np
import pytest
from pathlib import Path

from repro import telemetry
from repro.analysis.ghostcheck import check_paths, check_source
from repro.comm import SimMPI, build_halos
from repro.errors import ExchangeLifecycleError, GhostRaceError, RankFailure
from repro.mesh.cartesian import Sphere
from repro.mesh.unstructured import bump_channel
from repro.runtime import GuardedArray, PendingGroup, RuntimeConfig
from repro.solvers.cart3d import Cart3DSolver, make_parallel_cart3d
from repro.solvers.cart3d.parallel import Cart3DKernels
from repro.solvers.cart3d.parallel import _stack as _cart3d_stack
from repro.solvers.cart3d.residual import residual as cart3d_residual
from repro.solvers.nsu3d import NSU3DSolver, make_parallel_nsu3d
from repro.solvers.nsu3d.parallel import NSU3DKernels, _stack
from repro.solvers.nsu3d.residual import residual

SRC = Path(__file__).parent.parent / "src" / "repro"


def rules(src: str) -> list:
    return [d.rule for d in check_source(src, "t.py")]


class TestStaticRules:
    def test_planted_ghost_read_is_flagged(self):
        """Acceptance fixture: a gather from a protected array between
        start_copy and finish."""
        diags = check_source(
            """
def smooth(X, qs, p):
    pending = X.start_copy(qs, tag=7)
    bad = qs[p] * 2.0
    pending.finish()
    return bad
""",
            "fixture.py",
        )
        assert [d.rule for d in diags] == ["ghost/read-in-window"]
        assert diags[0].severity == "error"
        assert "qs" in diags[0].message and diags[0].line == 4

    def test_write_during_window_is_flagged(self):
        assert rules(
            """
def f(X, qs, p):
    pending = X.start_copy(qs, tag=1)
    qs[p][0] = 1.0
    pending.finish()
"""
        ) == ["ghost/read-in-window"]

    def test_unfinished_window(self):
        assert rules(
            """
def f(X, qs):
    pending = X.start_copy(qs, tag=1)
    return 3
"""
        ) == ["ghost/unfinished-window"]

    def test_double_finish(self):
        assert rules(
            """
def f(X, qs):
    pending = X.start_copy(qs, tag=1)
    pending.finish()
    pending.finish()
"""
        ) == ["ghost/double-finish"]

    def test_dropped_pending_bare_expression(self):
        assert rules(
            """
def f(X, qs):
    X.start_copy(qs, tag=1)
"""
        ) == ["ghost/dropped-pending"]

    def test_dropped_pending_rebind(self):
        assert rules(
            """
def f(X, qs):
    pending = X.start_copy(qs, tag=1)
    pending = X.start_copy(qs, tag=2)
    pending.finish()
"""
        ) == ["ghost/dropped-pending"]

    def test_add_reduction_in_window(self):
        assert rules(
            """
def f(X, qs):
    pending = X.start_copy(qs, tag=1)
    X.add(qs, tag=2)
    pending.finish()
"""
        ) == ["ghost/add-in-window"]

    def test_noqa_suppresses(self):
        assert rules(
            """
def f(X, qs, p):
    pending = X.start_copy(qs, tag=1)
    bad = qs[p] * 2.0  # noqa: deliberate race fixture
    pending.finish()
"""
        ) == []


class TestBlessedIdioms:
    """The patterns the shipped kernels use must analyze race-free."""

    def test_guarded_finish_loop(self):
        """The smoothers' carry-a-pending-across-stages shape."""
        assert rules(
            """
def f(X, qs, overlap):
    pending = None
    for step in range(3):
        if pending is not None:
            pending.finish()
            pending = None
        if overlap:
            pending = X.start_copy(qs, tag=1)
        else:
            X.copy(qs, tag=1)
    if pending is not None:
        pending.finish()
"""
        ) == []

    def test_cross_iteration_read_is_caught(self):
        """Opening at the bottom of an iteration races the read at the
        top of the next one — the loop body must be analyzed twice."""
        assert rules(
            """
def f(X, qs, p):
    pending = None
    for step in range(3):
        r = qs[p] + 1.0
        if pending is not None:
            pending.finish()
        pending = X.start_copy(qs, tag=1)
    pending.finish()
"""
        ) == ["ghost/read-in-window"]

    def test_interior_split_context_blesses_reads(self):
        assert rules(
            """
def f(X, qs, dom, p):
    pending = X.start_copy(qs, tag=1)
    interior, _ghost = _split_faces(dom)
    r = residual(interior, qs[p])
    pending.finish()
"""
        ) == []

    def test_owned_bounded_slice_blesses_reads(self):
        assert rules(
            """
def f(X, qs, dom, p):
    pending = X.start_copy(qs, tag=1)
    r = qs[p][: dom.nowned] * 2.0
    pending.finish()
"""
        ) == []

    def test_returned_pending_escapes(self):
        assert rules(
            """
def f(X, qs):
    pending = X.start_copy(qs, tag=1)
    return pending
"""
        ) == []


class TestInterprocedural:
    """Passing an open pending into a helper transfers the obligation:
    the helper is re-analyzed with the window mapped onto its params —
    exactly how ``smooth`` hands off to ``_completed_residual``."""

    HELPER_OK = """
def f(self, X, qs, dom):
    pending = X.start_copy(qs, tag=1)
    r = self._helper(dom, qs, pending)
    pending = None
    return r

def _helper(self, dom, qs, pending):
    interior, _ghost = _split_faces(dom)
    r1 = residual(interior, qs)
    pending.finish()
    _interior, ghost = _split_faces(dom)
    r2 = residual(ghost, qs)
    return r1 + r2
"""

    HELPER_RACY = """
def f(self, X, qs, dom):
    pending = X.start_copy(qs, tag=1)
    r = self._helper(dom, qs, pending)
    pending = None
    return r

def _helper(self, dom, qs, pending):
    r1 = residual(dom, qs)
    pending.finish()
    return r1
"""

    #: Cart3D's shape: the stacked state ``q`` outside the window, the
    #: join of the views the window was posted on inside it
    BATCH_OK = """
def smooth(self, X, doms, q, qs):
    pending = X.start_copy(qs, tag=23)
    r = self._completed_residual(X, doms, q, qs, pending)
    pending = None
    return r

def _completed_residual(self, X, doms, q, qs, pending):
    interior, ghost = _split_stack(doms)
    r = residual(interior, _stack(doms).join(qs), self.qinf)
    pending.finish()
    return r + residual(ghost, q, self.qinf)
"""

    #: the whole stacked level gathers ghost rows: not inside the window
    BATCH_RACY = BATCH_OK.replace(
        "r = residual(interior, _stack(doms).join(qs), self.qinf)",
        "r = residual(_stack(doms).part, _stack(doms).join(qs), self.qinf)",
    )

    #: NSU3D's shape: the partitions' states joined into one array and
    #: one serial residual per pass over the stacked (split) context
    STACK_OK = """
def smooth(self, X, doms, qs):
    pending = X.start_copy(qs, tag=14)
    r = self._completed_residual(X, doms, qs, pending)
    pending = None
    return r

def _completed_residual(self, X, doms, qs, pending):
    stack = _stack(doms)
    interior, ghost = _split_stack(doms)
    r = residual(interior, stack.join(qs), self.qinf)
    pending.finish()
    q = stack.join(qs)
    return r + residual(ghost, q, self.qinf)
"""

    #: the whole stacked context gathers ghost rows: not inside the window
    STACK_RACY = STACK_OK.replace(
        "r = residual(interior, stack.join(qs), self.qinf)",
        "r = residual(stack.ctx, stack.join(qs), self.qinf)",
    )

    def test_clean_helper_passes(self):
        assert rules(self.HELPER_OK) == []

    def test_split_stack_passes_and_the_whole_stack_is_flagged(self):
        assert rules(self.STACK_OK) == []
        diags = check_source(self.STACK_RACY, "t.py")
        assert [d.rule for d in diags] == ["ghost/read-in-window"]
        assert diags[0].line == 11 and "'qs'" in diags[0].message

    def test_split_batches_pass_and_the_whole_batch_is_flagged(self):
        assert rules(self.BATCH_OK) == []
        diags = check_source(self.BATCH_RACY, "t.py")
        assert [d.rule for d in diags] == ["ghost/read-in-window"]
        assert diags[0].line == 10 and "'qs'" in diags[0].message

    def test_racy_helper_is_flagged(self):
        diags = check_source(self.HELPER_RACY, "t.py")
        assert [d.rule for d in diags] == ["ghost/read-in-window"]
        # the finding lands inside the helper, at the racy read
        assert diags[0].line == 9


class TestShippedSourceIsClean:
    """Acceptance: the analysis proves the real kernels and the runtime
    overlap machinery race-free — zero findings, not zero coverage."""

    def test_solver_kernels_and_runtime_pass(self):
        paths = [
            SRC / "solvers" / "nsu3d" / "parallel.py",
            SRC / "solvers" / "cart3d" / "parallel.py",
            SRC / "runtime" / "backends.py",
            SRC / "runtime" / "driver.py",
            SRC / "runtime" / "sanitizer.py",
        ]
        for p in paths:
            assert p.exists(), p
        assert check_paths(paths) == []

    def test_whole_tree_passes(self):
        assert check_paths([SRC]) == []


# -- dynamic layer -------------------------------------------------------------


class RacyNSU3DKernels(NSU3DKernels):
    """Planted race: evaluates the residual of the *whole* stacked
    context (which gathers ghost rows) while the exchange is still in
    flight, then finishes — numerically near-identical under SimMPI,
    which is why only the sanitizer can catch it."""

    def _completed_residual(self, X, doms, qs, forcing, pending):
        if pending is None:
            return super()._completed_residual(X, doms, qs, forcing,
                                               pending)
        stack = _stack(doms)
        r = residual(stack.ctx, stack.join(qs), self.qinf,  # noqa
                     turbulence=False, viscous=self.viscous)
        pending.finish()
        X.add(stack.split(r), tag=1)
        r[stack.ghost] = 0.0
        return r


class RacyCart3DKernels(Cart3DKernels):
    """The same planted race through the stacked path: the whole-level
    stacked pass (ghost-touching faces included) evaluated before
    ``finish``.  It reads the state as the shipped kernels must inside a
    window, ``stack.join(qs)``: the join of guard views is guarded, so
    the gather traps and names the partition whose ghost row it hit."""

    def _completed_residual(self, X, doms, q, qs, forcing, pending):
        if pending is None:
            return super()._completed_residual(X, doms, q, qs, forcing,
                                               pending)
        stack = _cart3d_stack(doms)
        r = cart3d_residual(stack.part, stack.join(qs),  # noqa
                            self.qinf, self.flux)
        pending.finish()
        X.add(stack.split(r), tag=1)
        r[stack.ghost] = 0.0
        return r


@pytest.fixture(scope="module")
def small_cart3d():
    return Cart3DSolver(Sphere(center=[0.5, 0.5, 0.5], radius=0.15), dim=2,
                        base_level=4, max_level=5, mg_levels=2, mach=0.4)


@pytest.fixture(scope="module")
def small_nsu3d():
    mesh = bump_channel(ni=8, nj=4, nk=6, wall_spacing=5e-3, ratio=1.3,
                        bump_height=0.03)
    return NSU3DSolver(mesh=mesh, mach=0.5, mg_levels=2, turbulence=False,
                       cfl=8.0)


class TestGhostSanitizerRuntime:
    def test_planted_race_raises_with_span_attribution(self, small_nsu3d):
        """Acceptance: the sanitizer converts the silent race into a
        GhostRaceError naming the partition and the kernel span."""
        pn = make_parallel_nsu3d(
            small_nsu3d, 4,
            config=RuntimeConfig(overlap=True, sanitize=True),
        )
        pn.kernels = RacyNSU3DKernels(small_nsu3d.qinf, viscous=True)
        with telemetry.capture():
            with pytest.raises(RankFailure) as exc_info:
                pn.run(SimMPI(4), 2, cfl=8.0, cycle="W")
        cause = exc_info.value.__cause__
        assert isinstance(cause, GhostRaceError)
        assert "ghost race" in str(cause)
        assert cause.partition is not None
        assert cause.span == "nsu3d.residual"

    def test_racy_kernels_pass_silently_without_sanitizer(self,
                                                          small_nsu3d):
        """The control: unsanitized, the planted race is *benign* under
        SimMPI's shared memory — which is exactly why the guard exists."""
        pn = make_parallel_nsu3d(
            small_nsu3d, 4, config=RuntimeConfig(overlap=True),
        )
        pn.kernels = RacyNSU3DKernels(small_nsu3d.qinf, viscous=True)
        qg, hist = pn.run(SimMPI(4), 2, cfl=8.0, cycle="W")
        assert np.isfinite(qg).all() and np.isfinite(hist).all()


    def test_planted_race_in_the_cart3d_batch_raises(self, small_cart3d):
        par = make_parallel_cart3d(
            small_cart3d, 4,
            config=RuntimeConfig(overlap=True, sanitize=True),
        )
        par.kernels = RacyCart3DKernels(small_cart3d.qinf)
        with pytest.raises(RankFailure) as exc_info:
            par.solve(1, cfl=2.0)
        cause = exc_info.value.__cause__
        assert isinstance(cause, GhostRaceError)
        assert "ghost rows read" in str(cause)
        assert cause.partition in range(4)

    def test_racy_cart3d_batch_passes_silently_without_sanitizer(
            self, small_cart3d):
        par = make_parallel_cart3d(
            small_cart3d, 4, config=RuntimeConfig(overlap=True),
        )
        par.kernels = RacyCart3DKernels(small_cart3d.qinf)
        qg, hist = par.solve(2, cfl=2.0)
        assert np.isfinite(qg).all() and np.isfinite(hist).all()


def armed(nrows, ghost_start, pid, seed=0):
    """One partition's state as :meth:`GhostSanitizer.guard` arms it."""
    raw = np.random.default_rng(seed).random((nrows, 3))
    raw[ghost_start:] = np.nan
    guard = raw.view(GuardedArray)
    guard._ghost = np.arange(nrows) >= ghost_start
    guard._partition = pid
    guard._active = True
    return guard


class TestMaskGuardedArray:
    """The guard traps by ghost-row *mask*.  One partition's array is
    the one-range case; the concatenation of several taken inside a
    window — the stacked state — carries every member's range and names
    the member whose ghost row was reached."""

    #: partitions 3, 5, 8 with 4+2, 3+3, 5+1 owned+ghost rows: stacked
    #: ghost rows are 4-5, 9-11 and 17
    MEMBERS = [(6, 4, 3), (6, 3, 5), (6, 5, 8)]
    GHOSTS = {4: 3, 5: 3, 9: 5, 10: 5, 11: 5, 17: 8}

    def stacked(self):
        return np.concatenate([armed(*m) for m in self.MEMBERS])

    def test_concatenated_guards_are_guarded(self):
        q = self.stacked()
        assert isinstance(q, GuardedArray) and q._active
        assert np.flatnonzero(q._ghost).tolist() == sorted(self.GHOSTS)
        assert np.isnan(np.asarray(q)[q._ghost]).all()
        # not a view of any member: the members stay one-range guards
        assert q.base is None or not isinstance(q.base, GuardedArray)

    def test_integer_reads_on_either_side_of_each_range(self):
        q = self.stacked()
        for row in range(18):
            for index in (row, row - 18, np.int64(row)):
                if row in self.GHOSTS:
                    with pytest.raises(GhostRaceError) as err:
                        q[index]
                    assert err.value.partition == self.GHOSTS[row]
                else:
                    assert np.isfinite(q[index]).all()

    def test_fancy_reads(self):
        q = self.stacked()
        owned = [r for r in range(18) if r not in self.GHOSTS]
        assert q[owned].shape == (12, 3) and type(q[owned]) is np.ndarray
        assert np.isfinite(q[np.array(owned) - 18]).all()
        assert np.isfinite(q[np.array([[0, 1], [6, 8]])]).all()
        for rows, pid in (([0, 3, 9], 5), ([16, 17], 8), ([-1], 8),
                          ([2, -14], 3), (np.array([[0, 1], [6, 11]]), 5)):
            with pytest.raises(GhostRaceError) as err:
                q[rows]
            assert err.value.partition == pid
        with pytest.raises(GhostRaceError):
            q[[0, 9], 1]  # a column pick does not hide the ghost row

    def test_boolean_reads(self):
        q = self.stacked()
        mask = np.ones(18, dtype=bool)
        mask[sorted(self.GHOSTS)] = False
        assert np.isfinite(q[mask]).all()
        for row, pid in self.GHOSTS.items():
            hit = mask.copy()
            hit[row] = True
            with pytest.raises(GhostRaceError) as err:
                q[hit]
            assert err.value.partition == pid
        assert q[np.zeros(18, dtype=bool)].shape == (0, 3)

    def test_what_still_passes(self):
        """Basic slices, pointwise work and NumPy functions are legal
        inside a window and give plain arrays."""
        q = self.stacked()
        for out in (q[:, 0], q[:4], q * 2.0, np.sqrt(q), np.zeros_like(q),
                    q[..., 1]):
            assert type(out) is np.ndarray
        assert np.isnan(q * 2.0)[q._ghost].all()

    def test_writes_trap(self):
        q = self.stacked()
        with pytest.raises(GhostRaceError):
            q[0] = 1.0
        with pytest.raises(GhostRaceError):
            np.add.at(q, [0], 1.0)
        with pytest.raises(GhostRaceError):
            np.multiply(q, 2.0, out=q)

    def test_mixed_and_inert_members(self):
        plain = np.ones((2, 3))
        q = np.concatenate([plain, armed(6, 4, 7)])
        assert q._partition.tolist() == [-1, -1] + [7] * 6
        with pytest.raises(GhostRaceError) as err:
            q[6]
        assert err.value.partition == 7
        assert np.array_equal(q[[0, 1, 5]], np.asarray(q)[[0, 1, 5]])
        # guards disarmed by finish() stack to a plain array
        done = armed(6, 4, 7)
        done._active = False
        assert type(np.concatenate([done, done])) is np.ndarray
        # other axes and other functions do not propagate the guard
        assert type(np.concatenate([armed(6, 4, 1)], axis=1)) is np.ndarray
        assert type(np.vstack([armed(6, 4, 1)])) is np.ndarray

    def test_one_range_guard_is_the_special_case(self):
        q = armed(6, 4, 2)
        assert np.isfinite(q[[0, 3, -3]]).all()
        for index in (4, -1, [0, 5], np.arange(6) > 2):
            with pytest.raises(GhostRaceError) as err:
                q[index]
            assert err.value.partition == 2


class TestExchangeLifecycle:
    def test_pending_group_double_finish_raises(self):
        group = PendingGroup([])
        group.finish()
        with pytest.raises(ExchangeLifecycleError):
            group.finish()

    def test_plan_pending_double_finish_raises(self):
        nvert = 16
        edges = np.array(
            [(i, i + 1) for i in range(nvert - 1)], dtype=np.int64
        )
        part = (np.arange(nvert) * 2) // nvert
        halos = build_halos(nvert, edges, part)

        def body(comm):
            h = halos[comm.rank]
            arr = np.zeros((h.nlocal, 1))
            pending = h.plan.start_copy(comm, arr, tag=3)
            pending.finish()
            try:
                pending.finish()
            except ExchangeLifecycleError as exc:
                return "raised" if "twice" in str(exc) else "wrong-msg"
            return "no-raise"

        assert SimMPI(2).run(body) == ["raised", "raised"]
