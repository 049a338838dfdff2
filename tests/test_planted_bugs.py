"""The planted-bug matrix: each bug a static checker was built to find,
planted in running code, and the check that catches it now.

A row is one failure fixture of the retired checkers (``ghostcheck``,
``plancheck``, ``tracecheck``, lint R001/R002/R005/R009/R011), of a
surviving lint rule or of the owned-row skip, rewritten as a runnable
kernel, plan or rank program, and the column that must fire on it:
``lint Rnnn``, ``sanitizer`` (``GhostRaceError`` under
``sanitize=True``), ``runtime`` (the run raises), ``parity``
(distributed misses serial beyond 1e-10), ``property``
(:func:`assert_exchange_roundtrip` fails on the plan), ``poison`` (with
every ghost row an owned-only pass skips set to NaN as it returns, a
NaN reaches an owned row), ``inert`` (no result changes, bit for bit:
no bug to see) or ``control`` (nothing planted, nothing may fire).
DESIGN.md §6 carries the same table;
:func:`test_design_matrix_lists_every_row` keeps the two in step.
"""

import copy
import functools
import re
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.analysis import lint_source
from repro.comm import HybridProcess, SimMPI, build_halos, partition_owners
from repro.comm.exchange import ExchangePlan
from repro.errors import (DeadlockError, ExchangeLifecycleError,
                          GhostRaceError, RankFailure)
from repro.mesh.cartesian import Sphere
from repro.mesh.unstructured import bump_channel
from repro.runtime import HybridExchanger, RuntimeConfig, make_exchanger
from repro.solvers.cart3d import Cart3DSolver, make_parallel_cart3d
from repro.solvers.cart3d import fas_cycle as cart3d_fas_cycle
from repro.solvers.cart3d.parallel import Cart3DKernels
from repro.solvers.cart3d.parallel import _stack as _cart3d_stack
from repro.solvers.cart3d.residual import residual as cart3d_residual
from repro.solvers.nsu3d import NSU3DSolver, make_parallel_nsu3d
from repro.solvers.nsu3d import fas_cycle as nsu3d_fas_cycle
from repro.solvers.nsu3d.parallel import NSU3DKernels, _stack
from repro.solvers.nsu3d.residual import residual
from tests.test_comm_exchange import (assert_exchange_roundtrip, grid_graph,
                                      strip_partition)
from tests.test_comm_hybrid import assert_hybrid_copy
from tests.test_owned_rows import PoisonedNSU3DKernels

DESIGN = Path(__file__).parent.parent / "DESIGN.md"

#: row id -> (column, check); a check returns when its column fired
ROWS: dict = {}


def row(name: str, column: str):
    def register(check):
        ROWS[name] = (column, check)
        return check
    return register


def caught(name: str) -> None:
    """Plant row ``name`` and assert that its column fires."""
    ROWS[name][1]()


def row_test(*names: str):
    """A test method planting rows ``names``: keeps a retired checker's
    test id, pointing at the rows that replaced its fixture."""
    def test(self):
        for name in names:
            caught(name)
    return test


# -- planted kernels -----------------------------------------------------------


class RacyNSU3DKernels(NSU3DKernels):
    """Planted race: evaluates the residual of the *whole* stacked
    context (which gathers ghost rows) while the exchange is still in
    flight, then finishes.  It reads the state as the shipped kernels
    must inside a window, ``pending.q``.  Unsanitized the run completes;
    sanitized it dies naming the partition whose ghost row was read."""

    def _completed_residual(self, X, doms, q, forcing, pending):
        if pending is None:
            return super()._completed_residual(X, doms, q, forcing,
                                               pending)
        stack = _stack(doms)
        r = residual(stack.ctx, pending.q, self.qinf,  # noqa
                     turbulence=False, viscous=self.viscous)
        pending.finish()
        X.add(r, tag=1)
        r[stack.ghost] = 0.0
        return r


class RacyCart3DKernels(Cart3DKernels):
    """The same planted race through the Cart3D stacked pass: the
    whole-level pass (ghost-touching faces included) evaluated on
    ``pending.q`` before ``finish``; the gather traps and names the
    partition whose ghost row it hit."""

    def _completed_residual(self, X, doms, q, forcing, pending):
        if pending is None:
            return super()._completed_residual(X, doms, q, forcing,
                                               pending)
        stack = _cart3d_stack(doms)
        r = cart3d_residual(stack.part, pending.q,  # noqa
                            self.qinf, self.flux)
        pending.finish()
        X.add(r, tag=1)
        r[stack.ghost] = 0.0
        return r


class _PlantedWindow:
    """The exchanger an NSU3D smoother sees, with its overlap window
    opened by ``plant(X, q, tag)`` instead of ``X.start_copy``."""

    def __init__(self, X, plant):
        self._X, self._plant = X, plant

    def __getattr__(self, name):
        return getattr(self._X, name)

    def start_copy(self, q, tag=0):
        return self._plant(self._X, q, tag)


def planting(plant):
    """NSU3D kernels whose smoother opens every window through ``plant``."""
    class Planted(NSU3DKernels):
        def smooth(self, X, doms, q, **kwargs):
            return super().smooth(_PlantedWindow(X, plant), doms, q,
                                  **kwargs)
    return Planted


def dropped_window(X, q, tag):
    """R009's bare ``X.start_copy(q)``: posted, and the pending that
    would finish it is dropped."""
    X.start_copy(q, tag)


def rebound_window(X, q, tag):
    """``pending = start_copy(); pending = start_copy()``: the first
    window is never finished."""
    X.start_copy(q, tag)
    return X.start_copy(q, tag)


def add_in_window(X, q, tag):
    """An add-reduction on the array whose copy is in flight."""
    pending = X.start_copy(q, tag)
    X.add(q, tag=2)
    return pending


def write_in_window(X, q, tag):
    """Ghost rows written, through the window's state, while their
    values are in transit."""
    pending = X.start_copy(q, tag)
    pending.q[X.rows.ghost] = 0.0
    return pending


def finished_twice(X, q, tag):
    """A window closed here and again by the smoother."""
    pending = X.start_copy(q, tag)
    pending.finish()
    return pending


def owned_read_in_window(X, q, tag):
    """Owned rows read inside the window: legal."""
    pending = X.start_copy(q, tag)
    float(pending.q[X.rows.owned].sum())
    return pending


class _LateCopy:
    """The exchanger a planted smoother sees: a stage's copy (tag 14)
    lands only at the next exchange-add, after the next stage's edge
    loop has read the ghost rows it was to refresh."""

    def __init__(self, X):
        self._X, self._late = X, None

    def __getattr__(self, name):
        return getattr(self._X, name)

    def copy(self, q, tag=0):
        if tag == 14:
            self._late = q, tag
        else:
            self._X.copy(q, tag)

    def land(self):
        if self._late is not None:
            self._X.copy(*self._late)
            self._late = None

    def add(self, q, tag=1):
        self.land()
        self._X.add(q, tag)


def late_copy(kernels):
    """``kernels`` whose blocking smoother reads each stage's ghost
    rows before the copy that refreshes them: stale, or NaN under
    poison."""
    class Planted(kernels):
        def smooth(self, X, doms, q, **kwargs):
            late = _LateCopy(X)
            q = super().smooth(late, doms, q, **kwargs)
            late.land()
            return q
    return Planted


# -- the solves the kernels run in ---------------------------------------------

CFL_NSU3D = 8.0
CFL_CART3D = 2.0


@functools.cache
def nsu3d():
    """bump 8x4x6, 2 levels, laminar; and its serial state after two
    W-cycles."""
    mesh = bump_channel(ni=8, nj=4, nk=6, wall_spacing=5e-3, ratio=1.3,
                        bump_height=0.03)
    solver = NSU3DSolver(mesh=mesh, mach=0.5, mg_levels=2, turbulence=False,
                         cfl=CFL_NSU3D)
    q = np.tile(solver.qinf, (solver.contexts[0].npoints, 1))
    for _ in range(2):
        q = nsu3d_fas_cycle(solver.contexts, solver.maps, q, solver.qinf,
                            cycle="W", cfl=CFL_NSU3D, turbulence=False)
    return solver, q


@functools.cache
def cart3d():
    """A 2-D sphere, 2 levels; and its serial state after one W-cycle."""
    solver = Cart3DSolver(Sphere(center=[0.5, 0.5, 0.5], radius=0.15),
                          dim=2, base_level=4, max_level=5, mg_levels=2,
                          mach=0.4)
    q = np.tile(solver.qinf, (solver.levels[0].nflow, 1))
    q = cart3d_fas_cycle(solver.levels, solver.transfers, q, solver.qinf,
                         cycle="W", cfl=CFL_CART3D)
    return solver, q


def run_nsu3d(kernels, sanitize=False):
    """Four partitions on ``SimMPI(4)``, 2 W-cycles, overlap on."""
    solver, _ = nsu3d()
    par = make_parallel_nsu3d(
        solver, 4, config=RuntimeConfig(overlap=True, sanitize=sanitize),
    )
    par.kernels = kernels(solver.qinf, viscous=True)
    q, _ = par.run(SimMPI(4), 2, cfl=CFL_NSU3D, cycle="W")
    return q


def run_blocking(kernels):
    """Four partitions on ``SimMPI(4)``, 2 W-cycles, blocking exchange."""
    solver, _ = nsu3d()
    par = make_parallel_nsu3d(solver, 4)
    par.kernels = kernels(solver.qinf, viscous=True)
    with np.errstate(all="ignore"):
        q, _ = par.run(SimMPI(4), 2, cfl=CFL_NSU3D, cycle="W")
    return q


def run_cart3d(kernels, sanitize=False):
    solver, _ = cart3d()
    par = make_parallel_cart3d(
        solver, 4, config=RuntimeConfig(overlap=True, sanitize=sanitize),
    )
    par.kernels = kernels(solver.qinf)
    q, _ = par.solve(1, cfl=CFL_CART3D)
    return q


def nsu3d_error(kernels):
    """max |q - serial| of an unsanitized planted solve."""
    with np.errstate(all="ignore"):
        return np.abs(run_nsu3d(kernels) - nsu3d()[1]).max()


def raises(error, run, *args):
    """``run(*args)`` fails with ``error``, directly or as the cause of
    a :class:`RankFailure`; returns it."""
    with pytest.raises((error, RankFailure)) as info:
        run(*args)
    exc = info.value
    if isinstance(exc, RankFailure):
        exc = exc.__cause__
    assert isinstance(exc, error), repr(exc)
    return exc


# -- ghostcheck's rows: the overlap window -------------------------------------


@row("ghost/read-in-window", "sanitizer")
def _():
    exc = raises(GhostRaceError, run_nsu3d, RacyNSU3DKernels, True)
    assert exc.partition is not None


@row("ghost/read-in-window-cart3d", "sanitizer")
def _():
    exc = raises(GhostRaceError, run_cart3d, RacyCart3DKernels, True)
    assert exc.partition in range(4)


@row("ghost/write-in-window", "sanitizer")
def _():
    raises(GhostRaceError, run_nsu3d, planting(write_in_window), True)
    # finish overwrites the planted values: parity cannot see it
    assert nsu3d_error(planting(write_in_window)) < 1e-10


@row("ghost/dropped-window", "sanitizer, parity")
def _():
    raises(GhostRaceError, run_nsu3d, planting(dropped_window), True)
    assert nsu3d_error(planting(dropped_window)) > 1e-3  # 1.6e-2


@row("ghost/rebound-window", "sanitizer, runtime")
def _():
    raises(GhostRaceError, run_nsu3d, planting(rebound_window), True)
    # unsanitized, a later finish receives the stale first message
    raises(ValueError, run_nsu3d, planting(rebound_window))


@row("ghost/add-in-window", "sanitizer, parity")
def _():
    raises(GhostRaceError, run_nsu3d, planting(add_in_window), True)
    assert nsu3d_error(planting(add_in_window)) > 1.0  # 1.7e2


@row("ghost/double-finish", "runtime")
def _():
    for sanitize in (False, True):
        exc = raises(ExchangeLifecycleError, run_nsu3d,
                     planting(finished_twice), sanitize)
        assert "twice" in str(exc)


@row("ghost/read-skipped-row", "poison, parity")
def _():
    assert np.isnan(run_blocking(late_copy(PoisonedNSU3DKernels))).any()
    assert np.abs(run_blocking(late_copy(NSU3DKernels))
                  - nsu3d()[1]).max() > 1e-4  # 1.5e-3


@row("control/owned-read-in-window", "control")
def _():
    assert np.abs(run_nsu3d(planting(owned_read_in_window), True)
                  - nsu3d()[1]).max() < 1e-10


@row("control/overlap-nsu3d", "control")
def _():
    assert np.abs(run_nsu3d(NSU3DKernels, True) - nsu3d()[1]).max() < 1e-10


@row("control/overlap-cart3d", "control")
def _():
    assert np.allclose(run_cart3d(Cart3DKernels, True), cart3d()[1],
                       rtol=1e-10, atol=1e-13)


# -- plancheck's rows: exchange plans ------------------------------------------


def seed_halos(nparts=8):
    """A strip partition of a 12x12 grid graph."""
    nvert, edges = grid_graph(12, 12)
    return build_halos(nvert, edges, strip_partition(nvert, nparts))


def property_fails(halos) -> None:
    with pytest.raises((AssertionError, RankFailure)):
        assert_exchange_roundtrip(halos)


def corrupted(corrupt):
    """``corrupt(halos)`` applied to a copy of the seed halos."""
    halos = copy.deepcopy(seed_halos())
    corrupt(halos)
    return halos


def property_fails_on(corrupt) -> None:
    property_fails(corrupted(corrupt))


def _reversed_mirror(h):
    h[1].plan.owned_slots[0] = h[1].plan.owned_slots[0][::-1].copy()


def _length_mismatch(h):
    h[1].plan.owned_slots[0] = h[1].plan.owned_slots[0][:-1]


def _dropped_neighbor(h):
    del h[0].plan.ghost_slots[next(iter(h[0].plan.ghost_slots))]


def _send_without_mirror(h):
    del h[next(iter(h[1].plan.owned_slots))].plan.ghost_slots[1]


def _duplicate_ghost_owner(h):
    plan = h[1].plan
    src = next(iter(plan.ghost_slots))
    plan.ghost_slots[src + 1 if src != 0 else 2] = plan.ghost_slots[src][:1]


def _ghost_slot_range(h):
    plan = h[2].plan
    q = next(iter(plan.ghost_slots))
    plan.ghost_slots[q] = np.concatenate([[10_000], plan.ghost_slots[q][1:]])


for _corrupt in (_reversed_mirror, _length_mismatch, _dropped_neighbor,
                 _send_without_mirror, _duplicate_ghost_owner,
                 _ghost_slot_range):
    row("plan/" + _corrupt.__name__[1:].replace("_", "-"), "property")(
        functools.partial(property_fails_on, _corrupt)
    )


@row("plan/wrong-owner", "property")
def _():
    def corrupt(h):
        # attribute rank 4's ghosts to rank 5, which does not own them
        h[3].plan.ghost_slots[5] = h[3].plan.ghost_slots.pop(4)
    raises(DeadlockError, assert_exchange_roundtrip, corrupted(corrupt))


def exchange_plans(plans) -> None:
    """One copy over hand-built plans, one rank per plan."""
    def body(comm):
        plan = plans[comm.rank]
        slots = [*plan.ghost_slots.values(), *plan.owned_slots.values()]
        arr = np.zeros(1 + max((int(s.max()) for s in slots), default=0))
        make_exchanger("plan", comm, plans={comm.rank: plan}).copy(
            {comm.rank: arr}
        )

    SimMPI(len(plans)).run(body)


@row("plan/circular-wait", "runtime")
def _():
    # 0 waits on 1, 1 on 2, 2 on 0; nobody sends to the rank waiting on it
    plans = [ExchangePlan(rank=r, ghost_slots={(r + 1) % 3: np.array([5])})
             for r in range(3)]
    exc = raises(DeadlockError, exchange_plans, plans)
    assert "deadlocked" in str(exc)


@row("plan/missing-send", "runtime")
def _():
    plans = [ExchangePlan(rank=0, ghost_slots={1: np.array([3])}),
             ExchangePlan(rank=1)]
    exc = raises(DeadlockError, exchange_plans, plans)
    assert "rank 0 deadlocked waiting for rank 1" in str(exc)


@row("control/symmetric-ring", "control")
def _():
    exchange_plans([
        ExchangePlan(
            rank=r,
            ghost_slots={(r - 1) % 4: np.array([10]),
                         (r + 1) % 4: np.array([11])},
            owned_slots={(r - 1) % 4: np.array([0]),
                         (r + 1) % 4: np.array([1])},
        )
        for r in range(4)
    ])


@row("control/halos-8-strips", "control")
def _():
    assert_exchange_roundtrip(seed_halos())
    assert_exchange_roundtrip(seed_halos(), add=True)


@row("control/halos-random", "control")
def _():
    nvert, edges = grid_graph(10, 10)
    part = np.random.default_rng(7).integers(0, 9, size=nvert)
    part[:9] = np.arange(9)
    halos = build_halos(nvert, edges, part)
    assert_exchange_roundtrip(halos)
    assert_exchange_roundtrip(halos, add=True)


# -- tracecheck's rows: rank programs ------------------------------------------


def deadlock(body, nranks=2) -> str:
    return str(raises(DeadlockError, SimMPI(nranks).run, body))


@row("trace/recv-without-send", "runtime")
def _():
    def body(comm):
        if comm.rank == 0:
            comm.recv(source=1)
    assert "rank 0 deadlocked waiting for rank 1" in deadlock(body)


@row("trace/mutual-recv", "runtime")
def _():
    def body(comm):
        comm.recv(source=1 - comm.rank)
    assert "deadlocked waiting for rank" in deadlock(body)


@row("trace/tag-mismatch", "runtime")
def _():
    def body(comm):
        if comm.rank == 0:
            comm.recv(source=1, tag=0)
        else:
            comm.send(np.zeros(4), dest=0, tag=7)
    assert "rank 0 deadlocked waiting for rank 1 tag 0" in deadlock(body)


@row("trace/collective-divergence", "runtime")
def _():
    def body(comm):
        if comm.rank == 0:
            comm.barrier()
        else:
            comm.allreduce(1.0)
    message = deadlock(body)
    assert "rank 0 entered barrier" in message
    assert "rank 1 entered allreduce:sum" in message


@row("trace/collective-incomplete", "runtime")
def _():
    def body(comm):
        if comm.rank != 2:
            comm.barrier()
    assert "collective that not every rank entered" in deadlock(body, 3)


@row("trace/unreceived-message", "inert")
def _():
    def body(comm, stray):
        if stray and comm.rank == 0:
            comm.send(np.zeros(2), dest=1)
        return comm.allreduce(comm.rank + 1.0)
    assert SimMPI(2).run(body, True) == SimMPI(2).run(body, False)


def path_world():
    """A path graph cut so partition 1 holds ghosts from partitions 0
    and 2; with partitions 0-2 on process 0, both are intra-process
    copy work items writing one destination array."""
    part = np.array([1, 0, 1, 2, 3, 4, 5], dtype=np.int64)
    edges = np.array([(i, i + 1) for i in range(6)], dtype=np.int64)
    return build_halos(7, edges, part)


@row("trace/race", "property")
def _():
    halos = copy.deepcopy(path_world())
    p1 = halos[1].plan
    # partition 1's ghosts from partitions 0 and 2 collide on one slot
    p1.ghost_slots[2] = p1.ghost_slots[2].copy()
    p1.ghost_slots[2][0] = p1.ghost_slots[0][0]
    property_fails(halos)


@row("control/hybrid-copy", "control")
def _():
    for halos in (seed_halos(6), path_world()):
        assert_hybrid_copy(halos, nprocs=2)


# -- lint rows -----------------------------------------------------------------


#: lint rows: row id -> (rule that fires, source, path it is linted at)
LINT_ROWS = {
    "lint/R001-wall-clock-in-comm": (
        "R006", "import time\nx = time.time()\n", "src/repro/comm/m.py"),
    "lint/R002-silent-fallback": (
        "R007", "try:\n    n = len(o)\nexcept Exception:\n    n = 64\n",
        "src/repro/comm/m.py"),
    "lint/R003-mesh-loop": (
        "R003", "for i in range(len(q)):\n    q[i] = 0.0\n",
        "src/repro/solvers/m.py"),
    "lint/R004-implicit-dtype": (
        "R004", "import numpy as np\nx = np.zeros(3)\n",
        "src/repro/solvers/m.py"),
    "lint/R006-print-in-hot-path": (
        "R006", "print(r)\n", "src/repro/database/m.py"),
    "lint/R007-bare-except": (
        "R007", "try:\n    f()\nexcept:\n    x = 1\n", "src/repro/m.py"),
    "lint/R008-comm-in-solver": (
        "R008", "from repro.comm.simmpi import SimMPI\n",
        "src/repro/solvers/m.py"),
    "lint/R010-finish-in-cleanup": (
        "R010", "try:\n    g()\nfinally:\n    pending.finish()\n",
        "src/repro/runtime/m.py"),
    "lint/R012-blocking-in-coroutine": (
        "R012", "import time\nasync def q():\n    time.sleep(0.1)\n",
        "src/repro/service/m.py"),
    "lint/R014-state-width": (
        "R014", "ok = q.shape[1] == 5\n", "src/repro/runtime/m.py"),
    "lint/R015-raw-scatter": (
        "R015", "import numpy as np\nnp.add.at(r, idx, flux)\n",
        "src/repro/solvers/m.py"),
}


def lint_fires(rule, source, path) -> None:
    assert [d.rule for d in lint_source(source, Path(path))] == [rule]


for _name, _case in LINT_ROWS.items():
    row(_name, "lint " + _case[0])(functools.partial(lint_fires, *_case))


@row("lint/R005-solver-outside-facade", "inert")
def _():
    sphere = Sphere(center=[0.5, 0.5, 0.5], radius=0.15)
    kwargs = dict(dim=2, base_level=4, max_level=5, mg_levels=2, mach=0.4)
    direct = Cart3DSolver(sphere, **kwargs)
    facade = api.make_cart3d_solver(sphere, **kwargs)
    direct.solve(ncycles=2)
    facade.solve(ncycles=2)
    assert direct.q.tobytes() == facade.q.tobytes()


@row("lint/R011-exchanger-outside-runtime", "inert")
def _():
    halos = seed_halos(4)
    plans = {h.rank: h.plan for h in halos}
    proc_of = partition_owners(4, 4)

    def body(comm, direct):
        process = HybridProcess(rank=comm.rank, part_ids=(comm.rank,),
                                plans=plans, proc_of=proc_of)
        X = (HybridExchanger(comm, process) if direct
             else make_exchanger("hybrid", comm, process=process))
        arr = 1.0 + halos[comm.rank].local_to_global()
        X.add({comm.rank: arr})
        X.copy({comm.rank: arr})
        return arr.tobytes(), X.charging, comm.clock

    assert SimMPI(4).run(body, True) == SimMPI(4).run(body, False)


# -- the tests -----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ROWS))
def test_planted_bug_is_caught(name):
    caught(name)


#: DESIGN.md rows no program can plant (see the matrix's notes)
NOT_RUNNABLE = {"trace/unordered-writes"}


def test_design_matrix_lists_every_row():
    """The table in DESIGN.md and :data:`ROWS` name the same rows, with
    the same catching column."""
    text = DESIGN.read_text()
    table = dict(re.findall(r"^\| `([\w/-]+)` \|.*\| \*\*(.+?)\*\* \|$",
                            text, flags=re.M))
    assert set(table) == set(ROWS) | NOT_RUNNABLE
    for name, (column, _check) in ROWS.items():
        assert table[name] == column, name
