"""The fill tier's two amortisations (ISSUE 24), in counts and bits.

``FillRuntime`` sizes its thread pool from ``runner.max_inflight``
(``Cart3DCaseRunner`` steps its cases in this interpreter, so one
thread), and ``Cart3DCaseRunner.prepare`` builds the wind-independent
multigrid hierarchy once per geometry instance and shares it read-only.
Nothing here reads a clock: the claims are call counts, slot numbers
and bit-equality with the per-case build.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.database import CampaignCheckpoint
from repro.mesh import cartesian
from repro.runtime import RuntimeConfig
from repro.solvers.cart3d import levels as levels_mod
from repro.solvers.cart3d import solver as solver_mod

MG_LEVELS = 3
RUNNER = {"dim": 2, "base_level": 3, "max_level": 4, "mg_levels": MG_LEVELS,
          "cycles": 1}


def tree(nwind=12):
    machs = (0.3, 0.4, 0.5)  # this coarse a mesh diverges at 0.6
    alphas = (0.0, 1.0, 2.0, 3.0)[: nwind // len(machs)]
    study = api.StudyDefinition(
        config_space=api.ParameterSpace(
            axes=(api.Axis("aileron", (0.0, 5.0)),)
        ),
        wind_space=api.ParameterSpace(
            axes=(api.Axis("mach", machs), api.Axis("alpha", alphas))
        ),
    )
    return api.build_job_tree(study)


def bits(result):
    """Everything a stored case carries, as comparable bits."""
    return (
        {k: float(v).hex() for k, v in result.coefficients.items()},
        tuple(float(r).hex() for r in result.residual_history),
        result.converged,
        result.flops,
    )


@pytest.fixture(scope="module")
def direct():
    """The 24 cases with nothing shared: one ``prepare`` per *case*."""
    runner = api.Cart3DCaseRunner(api.wing_body(), **RUNNER)
    out = {}
    for geo in tree():
        for job in geo.flow_jobs:
            spec = api.CaseSpec.from_flow_job(job, **runner.settings())
            out[spec.key] = bits(runner(spec, runner.prepare(geo)))
    return out


class Unbounded:
    """A runner that declares no ``max_inflight``: the runtime keeps
    ``slots`` threads, so sibling cases really share a hierarchy (and
    its first-use operators) concurrently."""

    def __init__(self, runner):
        self.runner = runner
        self.prepare = runner.prepare
        self.settings = runner.settings
        self.solver_name = runner.solver_name

    def __call__(self, spec, shared=None):
        return self.runner(spec, shared)


@pytest.fixture
def counted(monkeypatch):
    """Counting wrappers over the wind-independent builders."""
    calls = {"adapt_to_geometry": 0, "build_levels": 0, "sfc_coarsen": 0}
    lock = threading.Lock()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            with lock:
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        cartesian, "adapt_to_geometry",
        counting("adapt_to_geometry", cartesian.adapt_to_geometry),
    )
    build = counting("build_levels", levels_mod.build_levels)
    monkeypatch.setattr(levels_mod, "build_levels", build)
    monkeypatch.setattr(solver_mod, "build_levels", build)
    monkeypatch.setattr(
        levels_mod, "sfc_coarsen",
        counting("sfc_coarsen", levels_mod.sfc_coarsen),
    )
    return calls


class TestWidthFollowsTheRunner:
    def test_one_lane_and_one_hierarchy_per_instance(self, direct, counted):
        runner = api.Cart3DCaseRunner(api.wing_body(), **RUNNER)
        with api.FillRuntime(runner, cpus_per_case=256, durable=False) as rt:
            report = rt.run_tree(tree())
        assert report.ok() and report.executed == 24
        assert report.slots == 2
        assert report.max_concurrent == 1
        starts = [e for e in report.events if e.kind == "start"]
        assert len(starts) == 24
        assert {e.info["slot"] for e in starts} == {0}
        assert report.meshes_built == 2
        # the parent made 24 / 24 / 24 x (mg_levels - 1) of these
        assert counted == {
            "adapt_to_geometry": 2,
            "build_levels": 2,
            "sfc_coarsen": 2 * (MG_LEVELS - 1),
        }
        assert report.summary()["worker threads"] == 1
        assert report.summary()["slots"] == 2
        # and on two slots the 24 results are the unshared ones, bit for bit
        assert {o.spec.key: bits(o.result) for o in report.outcomes} == direct

    def test_direct_submission_builds_per_case(self, counted):
        runner = api.Cart3DCaseRunner(api.wing_body(), **RUNNER)
        job = tree()[0].flow_jobs[0]
        spec = api.CaseSpec.from_flow_job(job, **runner.settings())
        with api.FillRuntime(runner, cpus_per_case=256, durable=False) as rt:
            rt.run_case(spec)  # shared=None: the fallback rung's path too
        assert counted["build_levels"] == 1
        assert counted["sfc_coarsen"] == MG_LEVELS - 1

    def test_process_backend_keeps_every_slot_thread(self):
        runner = api.Cart3DCaseRunner(
            api.wing_body(), config=RuntimeConfig(backend="process", nranks=2),
            **RUNNER,
        )
        assert runner.max_inflight is None
        with api.FillRuntime(runner, cpus_per_case=256, durable=False) as rt:
            assert rt.workers == rt.slots == 2

    @pytest.mark.parametrize("config", [
        None,
        RuntimeConfig(nranks=4),
        RuntimeConfig(backend="hybrid", nranks=2),
    ])
    def test_in_interpreter_backends_get_one_thread(self, config):
        runner = api.Cart3DCaseRunner(api.wing_body(), config=config, **RUNNER)
        with api.FillRuntime(runner, cpus_per_case=64, durable=False) as rt:
            assert (rt.slots, rt.workers) == (8, 1)

    def test_manifest_records_the_worker_threads(self, tmp_path):
        runner = api.Cart3DCaseRunner(api.wing_body(), **RUNNER)
        journal = tmp_path / "fill.journal"
        with api.FillRuntime(
            runner, cpus_per_case=256, store=api.ResultStore(),
            checkpoint=CampaignCheckpoint(journal),
        ) as rt:
            rt.run_tree(tree(nwind=3))
        manifest = CampaignCheckpoint.load(journal).manifest
        assert manifest["worker_threads"] == 1
        assert manifest["cpus_per_case"] == 256


class TestSharedMeansReadOnly:
    def test_writes_raise_and_a_solve_needs_none(self):
        runner = api.Cart3DCaseRunner(api.wing_body(), **RUNNER)
        solid, mesh, hierarchy = runner.prepare(tree()[1])
        solver = api.make_cart3d_solver(
            solid, mesh=mesh, hierarchy=hierarchy, dim=2, mach=0.4,
            alpha_deg=1.0, order2=True,
        )
        assert solver.levels is hierarchy[0]
        assert solver.mg_levels == MG_LEVELS
        for write in (
            lambda: solver.levels[0].vol.__setitem__(0, 1.0),
            lambda: solver.levels[-1].face_normal.__setitem__((0, 0), 1.0),
            lambda: solver.transfers[0].parent.__setitem__(0, 0),
            lambda: mesh.ijk.__setitem__((0, 0), 0),
            lambda: solver.levels[0].cut.flow_cells.__setitem__(0, 0),
        ):
            with pytest.raises(ValueError, match="read-only"):
                write()
        solver.solve(ncycles=2)
        solver.surface_pressures()
        assert np.isfinite(solver.history.residuals).all()

    def test_distributed_case_on_a_shared_hierarchy(self):
        runner = api.Cart3DCaseRunner(
            api.wing_body(), config=RuntimeConfig(nranks=2, overlap=True),
            **RUNNER,
        )
        geo = tree()[0]
        spec = api.CaseSpec.from_flow_job(
            geo.flow_jobs[5], **runner.settings()
        )
        shared = runner.prepare(geo)
        assert bits(runner(spec, shared)) == bits(runner(spec, None))
        assert bits(runner(spec, shared)) == bits(runner(spec, None))


class TestCoefficientTypes:
    def test_fresh_result_and_its_journal_round_trip(self, tmp_path):
        runner = api.Cart3DCaseRunner(api.wing_body(), **RUNNER)
        journal = tmp_path / "fill.journal"
        store = tmp_path / "store.jsonl"
        with api.FillRuntime(
            runner, cpus_per_case=256, store=api.ResultStore(store),
            checkpoint=CampaignCheckpoint(journal),
        ) as rt:
            report = rt.run_tree(tree(nwind=3))
        restored = CampaignCheckpoint.load(journal).results
        reread = api.ResultStore(store)
        assert len(restored) == 6
        for out in report.outcomes:
            fresh = out.result.coefficients
            assert set(fresh) == {"fx", "fy", "fz", "cd", "cl", "cm"}
            for back in (restored[out.spec.key], reread.get(out.spec.key)):
                assert back.coefficients == fresh
                assert repr(back.coefficients) == repr(fresh)
                for name, value in fresh.items():
                    assert type(value) is float
                    assert type(back.coefficients[name]) is float


class TestBitEquality:
    """Sharing changes which object holds the hierarchy, not one bit of
    what is computed on it."""

    @settings(max_examples=6, deadline=None)
    @given(
        aileron=st.floats(-8.0, 8.0),
        base_level=st.integers(2, 3),
        extra_levels=st.integers(0, 2),
        mg_levels=st.integers(1, 3),
        flux=st.sampled_from(["vanleer", "roe", "rusanov"]),
        order2=st.booleans(),
        winds=st.lists(
            st.tuples(st.floats(0.3, 0.6), st.floats(-2.0, 4.0)),
            min_size=1, max_size=3,
        ),
    )
    def test_kth_sibling_equals_its_own_build(
        self, aileron, base_level, extra_levels, mg_levels, flux, order2,
        winds,
    ):
        sizing = {"dim": 2, "base_level": base_level,
                  "max_level": base_level + extra_levels}
        runner = api.Cart3DCaseRunner(
            api.wing_body(), mg_levels=mg_levels, **sizing
        )
        geo = api.GeometryJob(config_params={"aileron": aileron})
        solid, mesh, hierarchy = runner.prepare(geo)
        for mach, alpha in winds:  # the k-th after k - 1 siblings solved
            knobs = {"mach": mach, "alpha_deg": alpha, "flux": flux,
                     "order2": order2, "mg_levels": mg_levels, **sizing}
            shared = api.make_cart3d_solver(
                solid, mesh=mesh, hierarchy=hierarchy, **knobs
            )
            own = api.make_cart3d_solver(solid, mesh=mesh, **knobs)
            for solver in (shared, own):
                try:
                    solver.solve(ncycles=2)
                except FloatingPointError:  # a drawn case may diverge:
                    pass                    # then both do, at the same bit
            assert shared.q.tobytes() == own.q.tobytes()
            assert (
                [r.hex() for r in shared.history.residuals]
                == [r.hex() for r in own.history.residuals]
            )
            assert shared.history.forces == own.history.forces
            assert repr(shared.forces()) == repr(own.forces())

    @pytest.mark.parametrize("cpus_per_case, wrap, threads", [
        (512, lambda r: r, 1),
        (256, Unbounded, 2),
    ])
    def test_fill_equals_direct_calls(self, direct, cpus_per_case, wrap,
                                      threads):
        runner = api.Cart3DCaseRunner(api.wing_body(), **RUNNER)
        with api.FillRuntime(
            wrap(runner), cpus_per_case=cpus_per_case, durable=False
        ) as rt:
            report = rt.run_tree(tree())
        assert report.ok() and report.executed == 24
        assert rt.workers == threads
        assert report.meshes_built == 2
        filled = {o.spec.key: bits(o.result) for o in report.outcomes}
        assert filled == direct
