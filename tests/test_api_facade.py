"""Tests for the repro.api facade and the unified solver surface."""


import pytest

from repro import api
from repro.solvers import CaseSpec, ConvergenceHistory, SolverProtocol


@pytest.fixture(scope="module")
def cart3d():
    solver = api.make_cart3d_solver(
        api.Sphere(center=[0.5, 0.5, 0.5], radius=0.15),
        dim=2, base_level=4, max_level=5, mg_levels=2, mach=0.4,
    )
    solver.solve(ncycles=5)
    return solver


@pytest.fixture(scope="module")
def nsu3d():
    solver = api.make_nsu3d_solver(
        mesh=api.bump_channel(ni=8, nj=4, nk=6), mach=0.5, mg_levels=2
    )
    solver.solve(ncycles=5)
    return solver


class TestFacade:
    def test_all_names_resolve(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_facade_covers_the_submission_pipeline(self):
        for name in (
            "CaseSpec", "CaseResult", "FillRuntime", "Cart3DCaseRunner",
            "ResultStore", "schedule_fill", "build_job_tree",
            "make_cart3d_solver", "make_nsu3d_solver", "node_slots",
            "fill_summary_table", "VariableFidelityStudy",
        ):
            assert name in api.__all__

    def test_lazy_package_getattr(self):
        import repro

        assert repro.api is api
        with pytest.raises(AttributeError):
            repro.no_such_submodule

    def test_api_version_is_declared(self):
        assert api.__api_version__ == "10.0"

    def test_service_surface_exported(self):
        for name in (
            "DatabaseService", "PointQuery", "QueryResponse",
            "ServiceCounters", "SurrogateConfig", "AdmissionController",
            "TenantQuota", "ServiceOverloaded", "LatencyHistogram",
        ):
            assert name in api.__all__
            assert getattr(api, name) is not None
        from repro import errors, service

        assert api.DatabaseService is service.DatabaseService
        assert api.ServiceOverloaded is errors.ServiceOverloaded

    def test_backend_selection_surface_exported(self):
        for name in (
            "RuntimeConfig", "BACKENDS", "make_exchanger",
            "ProcessExchanger", "ProcessPool", "make_parallel_nsu3d",
            "make_parallel_cart3d",
        ):
            assert name in api.__all__
            assert getattr(api, name) is not None
        assert api.BACKENDS == ("sim", "hybrid", "process")

    def test_kernel_engine_surface_exported(self):
        """There is one kernel engine, so there is nothing to select."""
        from repro import kernels

        assert len(api.__all__) == 111
        for name in ("KernelConfig", "ENGINES", "make_engine"):
            assert name not in api.__all__
            assert not hasattr(api, name)
        for name in ("KernelConfig", "BatchedEngine", "make_engine"):
            assert not hasattr(kernels, name)

    def test_removed_kernel_keywords_rejected(self):
        """``kernel_config=`` is gone from every place that took it, and
        a removed keyword is a ``TypeError``, not a silent default."""
        sphere = api.Sphere(center=[0.5, 0.5, 0.5], radius=0.15)
        mesh = api.bump_channel(ni=8, nj=4, nk=6)
        with pytest.raises(TypeError):
            api.make_nsu3d_solver(mesh=mesh, mg_levels=2, kernel_config=None)
        for bad in ({"kernel_config": None}, {"engine": "numpy"},
                    {"block_size": 16}):
            with pytest.raises(TypeError):
                api.make_cart3d_solver(sphere, dim=2, base_level=4,
                                       max_level=5, mg_levels=2, **bad)
        with pytest.raises(TypeError):
            api.Cart3DCaseRunner(api.wing_body(), kernel_config=None)

    def test_all_is_complete(self):
        """Self-test of the facade contract: every public attribute is
        exported in ``__all__`` and vice versa — nothing leaks in or
        silently drops out of the blessed surface."""
        import types

        public = {
            name
            for name, value in vars(api).items()
            if not name.startswith("_")
            and not isinstance(value, types.ModuleType)
            and name != "annotations"
        }
        assert public == set(api.__all__)

    def test_durability_surface_exported(self):
        for name in (
            "ChaosPolicy", "CampaignCheckpoint", "CheckpointState",
            "ReproError", "ConfigurationError", "CaseExecutionError",
            "CaseTimeout", "CampaignAborted", "CheckpointCorrupt",
            "WorkerCrash", "SolverDivergence", "RuntimeClosed",
        ):
            assert name in api.__all__
            assert getattr(api, name) is not None

    def test_facade_errors_are_the_canonical_classes(self):
        from repro import errors

        assert api.ReproError is errors.ReproError
        assert api.CampaignAborted is errors.CampaignAborted


class TestUnifiedSurface:
    def test_both_solvers_satisfy_the_protocol(self, cart3d, nsu3d):
        assert isinstance(cart3d, SolverProtocol)
        assert isinstance(nsu3d, SolverProtocol)

    def test_histories_share_one_type(self, cart3d, nsu3d):
        assert isinstance(cart3d.history, ConvergenceHistory)
        assert isinstance(nsu3d.history, ConvergenceHistory)

    def test_forces_key_parity(self, cart3d, nsu3d):
        keys_c = set(cart3d.forces())
        keys_n = set(nsu3d.forces())
        assert {"cl", "cd", "cm"} <= keys_c
        assert keys_c == keys_n

    def test_size_and_ndof(self, cart3d, nsu3d):
        from repro.solvers.gas import NVAR_EULER

        assert cart3d.size == cart3d.levels[0].nflow
        assert cart3d.ndof == cart3d.size * NVAR_EULER
        assert nsu3d.size == nsu3d.contexts[0].npoints
        assert nsu3d.ndof == nsu3d.size * 6


class TestCaseResultPackaging:
    def test_case_result_roundtrip(self, cart3d):
        from repro.solvers import CaseResult, case_result

        spec = CaseSpec(config={"flap": 1.0}, wind={"mach": 0.4})
        result = case_result(cart3d, spec)
        assert result.coefficients == cart3d.forces()
        assert result.cycles == len(cart3d.history.residuals)
        again = CaseResult.from_json(result.to_json())
        assert again.spec.key == spec.key
        assert again.coefficients == result.coefficients

    def test_to_record_carries_params_and_history(self, cart3d):
        from repro.solvers import case_result

        spec = CaseSpec(config={"flap": 1.0}, wind={"mach": 0.4})
        rec = case_result(cart3d, spec).to_record()
        assert rec.params == {"flap": 1.0, "mach": 0.4}
        assert len(rec.residual_history) == len(cart3d.history.residuals)
