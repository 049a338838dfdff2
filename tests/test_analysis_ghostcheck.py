"""The overlap-window contract, at run time.

The static checker that once proved kernels never touch ghost rows
inside a ``start_copy`` … ``finish`` window is gone: each of its
fixtures is now a row of the planted-bug matrix
(``tests/test_planted_bugs.py``), planted in a running NSU3D or Cart3D
solve, and the classes below keep those fixtures' test ids as pointers
to their rows.

Dynamic layer (:class:`repro.runtime.sanitizer.GhostSanitizer`): a
planted racy kernel must die with a :class:`GhostRaceError` attributed
to the kernel's telemetry span, while the clean kernels run the parity
matrix untouched (that half lives in ``test_runtime_parity.py``).
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import telemetry
from repro.comm import SimMPI, build_halos
from repro.errors import ExchangeLifecycleError, GhostRaceError, RankFailure
from repro.mesh.cartesian import Sphere
from repro.mesh.unstructured import bump_channel
from repro.runtime import (
    GhostSanitizer,
    GuardedArray,
    LevelSpec,
    LockstepComm,
    RuntimeConfig,
    build_domain_set,
)
from repro.runtime.domain import RowStack
from repro.solvers.cart3d import Cart3DSolver, make_parallel_cart3d
from repro.solvers.nsu3d import NSU3DSolver, make_parallel_nsu3d
from tests.message_exchange import MessageExchanger
from tests.test_planted_bugs import (RacyCart3DKernels, RacyNSU3DKernels,
                                     row_test)


class TestStaticRules:
    test_planted_ghost_read_is_flagged = row_test("ghost/read-in-window")
    test_write_during_window_is_flagged = row_test("ghost/write-in-window")
    test_unfinished_window = row_test("ghost/dropped-window")
    test_double_finish = row_test("ghost/double-finish")
    test_dropped_pending_bare_expression = row_test("ghost/dropped-window")
    test_dropped_pending_rebind = row_test("ghost/rebound-window")
    test_add_reduction_in_window = row_test("ghost/add-in-window")
    # the planted racy kernels carry a `# noqa`; the sanitizer fires anyway
    test_noqa_suppresses = row_test("ghost/read-in-window")


class TestBlessedIdioms:
    test_guarded_finish_loop = row_test("control/overlap-nsu3d")
    test_cross_iteration_read_is_caught = row_test("ghost/read-in-window")
    test_interior_split_context_blesses_reads = row_test(
        "control/overlap-nsu3d")
    test_owned_bounded_slice_blesses_reads = row_test(
        "control/owned-read-in-window")
    test_returned_pending_escapes = row_test("control/overlap-nsu3d")


class TestInterprocedural:
    test_clean_helper_passes = row_test("control/overlap-nsu3d")
    test_split_stack_passes_and_the_whole_stack_is_flagged = row_test(
        "control/overlap-nsu3d", "ghost/read-in-window")
    test_split_batches_pass_and_the_whole_batch_is_flagged = row_test(
        "control/overlap-cart3d", "ghost/read-in-window-cart3d")
    test_racy_helper_is_flagged = row_test("ghost/read-in-window")


class TestShippedSourceIsClean:
    test_solver_kernels_and_runtime_pass = row_test(
        "control/overlap-nsu3d", "control/overlap-cart3d")
    test_whole_tree_passes = row_test(
        "control/overlap-nsu3d", "control/overlap-cart3d")


# -- dynamic layer -------------------------------------------------------------


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


def window_over(members, seed=0):
    """An armed window over a stack of partitions, each ``(nlocal,
    nowned, pid)``, as :meth:`GhostSanitizer.guard` arms it on the
    posted pending; returns the sanitized pending."""
    rows = RowStack({pid: SimpleNamespace(nlocal=nlocal, nowned=nowned)
                     for nlocal, nowned, pid in members})
    raw = np.random.default_rng(seed).random((len(rows.ghost), 3))
    return GhostSanitizer(rows).guard(Posted(raw))


class Posted:
    """A backend pending on ``q`` that lands nothing."""

    tag = 0

    def __init__(self, q):
        self.q, self.done = q, False

    def finish(self):
        self.done = True


class TestMaskGuardedArray:
    """The guard traps by ghost-row *mask*: the stack's
    :attr:`RowStack.ghost`, one range per partition, each naming the
    partition whose ghost row was reached."""

    #: partitions 3, 5, 8 with 4+2, 3+3, 5+1 owned+ghost rows: stacked
    #: ghost rows are 4-5, 9-11 and 17
    MEMBERS = [(6, 4, 3), (6, 3, 5), (6, 5, 8)]
    GHOSTS = {4: 3, 5: 3, 9: 5, 10: 5, 11: 5, 17: 8}

    def stacked(self):
        return window_over(self.MEMBERS).q

    def test_the_stacked_state_is_guarded(self):
        window = window_over(self.MEMBERS)
        q, raw = window.q, window.inner.q
        assert isinstance(q, GuardedArray) and q._active
        assert np.flatnonzero(q._ghost).tolist() == sorted(self.GHOSTS)
        assert np.isnan(raw[q._ghost]).all()
        assert np.isfinite(raw[~q._ghost]).all()
        # a view of the posted array, whose buffer is read-only meanwhile
        assert q.base is raw and not raw.flags.writeable
        window.finish()
        assert raw.flags.writeable and window.inner.done

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
                    q[..., 1], np.concatenate([q, q]), np.vstack([q])):
            assert type(out) is np.ndarray
        assert np.isnan(q * 2.0)[q._ghost].all()

    def test_writes_trap(self):
        q = self.stacked()
        for row, pid in ((0, 3), (7, 5), (-1, 8)):
            with pytest.raises(GhostRaceError) as err:
                q[row] = 1.0
            assert err.value.partition == pid
        with pytest.raises(GhostRaceError):
            q[:, 0] = 1.0
        with pytest.raises(GhostRaceError):
            np.add.at(q, [0], 1.0)
        with pytest.raises(GhostRaceError):
            np.multiply(q, 2.0, out=q)

    def test_mixed_and_inert_members(self):
        """A partition without ghost rows is guarded but never trapped
        on a read; a finished window's guard is inert."""
        window = window_over([(2, 2, 0), (6, 4, 7)])
        q = window.q
        assert q._partition.tolist() == [0, 0] + [7] * 6
        with pytest.raises(GhostRaceError) as err:
            q[6]
        assert err.value.partition == 7
        assert np.array_equal(q[[0, 1, 5]], np.asarray(q)[[0, 1, 5]])
        window.finish()
        assert np.isnan(q[6]).all() and type(q[[6]]) is np.ndarray
        q[0] = 1.0  # writes pass once the window is closed

    def test_one_range_guard_is_the_special_case(self):
        """A one-partition stack (a process worker's state) is one ghost
        range, every trap naming that partition."""
        q = window_over([(6, 4, 2)]).q
        assert np.isfinite(q[[0, 3, -3]]).all()
        for index in (4, -1, [0, 5], np.arange(6) > 2):
            with pytest.raises(GhostRaceError) as err:
                q[index]
            assert err.value.partition == 2

    def test_canary_names_the_partition_that_lost_it(self):
        window = window_over(self.MEMBERS)
        window.inner.q.flags.writeable = True
        window.inner.q[10] = 0.0  # past the guard: the raw buffer
        with pytest.raises(GhostRaceError, match="canary") as err:
            window.finish()
        assert err.value.partition == 5


def strips(nparts):
    """A 6x6 grid graph cut into ``nparts`` strips: its level's
    ``{pid: domain}`` and a stacked state to exchange."""
    nvert = 36
    vid = np.arange(nvert).reshape(6, 6)
    edges = np.concatenate([
        np.column_stack([vid[:-1].ravel(), vid[1:].ravel()]),
        np.column_stack([vid[:, :-1].ravel(), vid[:, 1:].ravel()]),
    ])
    doms = dict(enumerate(build_domain_set(
        LevelSpec(nvert, edges, lambda halo, part: None),
        (np.arange(nvert) * nparts) // nvert,
    ).domains))
    q = np.random.default_rng(0).random(
        (sum(dom.nlocal for dom in doms.values()), 2)
    )
    return doms, q


class TestExchangeLifecycle:
    def test_pending_group_double_finish_raises(self):
        """The already-landed pending of an eager window (several
        partitions per rank) closes exactly once too."""
        doms, q = strips(4)
        pending = LockstepComm(SimMPI(2), 4).exchanger(doms).start_copy(q)
        assert pending.q is q
        pending.finish()
        with pytest.raises(ExchangeLifecycleError, match="twice"):
            pending.finish()

    @pytest.mark.parametrize("post", ["copy", "add", "start_copy"])
    def test_post_inside_a_sanitized_window_names_the_partition(self,
                                                                post):
        """Any exchange posted while a sanitized window is open — on the
        protected array or another — raises, naming the first partition
        whose ghost rows are in flight; after ``finish`` it runs."""
        doms, q = strips(3)
        X = LockstepComm(SimMPI(3), 3).exchanger(doms)
        X.sanitize = True
        pending = X.start_copy(q, tag=4)
        for array in (q, q.copy()):
            with pytest.raises(GhostRaceError, match="tag 4") as err:
                getattr(X, post)(array, tag=5)
            assert err.value.partition == 0
        pending.finish()
        getattr(X, post)(q, tag=5)

    def test_plan_pending_double_finish_raises(self):
        """The message-path pending of a one-partition rank."""
        nvert = 16
        edges = np.array(
            [(i, i + 1) for i in range(nvert - 1)], dtype=np.int64
        )
        part = (np.arange(nvert) * 2) // nvert
        halos = build_halos(nvert, edges, part)
        X = MessageExchanger(SimMPI(2), {h.rank: h.plan for h in halos})
        posted = X.start_copy({h.rank: np.zeros((h.nlocal, 1))
                               for h in halos}, tag=3)
        posted.finish()
        for pending in posted.pendings:
            with pytest.raises(ExchangeLifecycleError, match="twice"):
                pending.finish()
