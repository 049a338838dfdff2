"""Tests for the parameter-study / aero-database machinery."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import VariableFidelityStudy
from repro.database import (
    Axis,
    ParameterSpace,
    ResultStore,
    StudyDefinition,
    build_job_tree,
    meshing_amortization,
    schedule_fill,
    standard_study,
)
from repro.solvers import CaseResult, CaseSpec


class TestParameterSpaces:
    def test_axis_linspace(self):
        a = Axis.linspace("mach", 0.3, 0.8, 6)
        assert len(a.values) == 6
        assert a.values[0] == pytest.approx(0.3)
        assert a.values[-1] == pytest.approx(0.8)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            Axis("x", ())

    def test_duplicate_axis_names_rejected(self):
        with pytest.raises(ValueError):
            ParameterSpace(axes=(Axis("m", (1,)), Axis("m", (2,))))

    def test_case_count_is_product(self):
        space = ParameterSpace(
            axes=(Axis("a", (1, 2, 3)), Axis("b", (1, 2)))
        )
        assert space.ncases == 6
        assert len(list(space.cases())) == 6

    def test_paper_scale_arithmetic(self):
        """'ten values of each parameter would require 10^6 CFD
        simulations' in the 6-D study."""
        study = standard_study(n_config=10, n_wind=10)
        assert study.ncases == 10**6
        assert study.config_space.ncases == 1000
        assert study.wind_space.ncases == 1000

    def test_hierarchy_shape(self):
        study = standard_study(n_config=2, n_wind=3)
        tops = list(study.hierarchy())
        assert len(tops) == 8  # 2^3 config instances
        config, winds = tops[0]
        assert set(config) == {"aileron", "elevator", "rudder"}
        assert len(list(winds)) == 27


class TestJobTree:
    def test_tree_counts(self):
        study = standard_study(n_config=2, n_wind=2)
        tree = build_job_tree(study)
        assert len(tree) == 8
        assert sum(g.ncases for g in tree) == study.ncases

    def test_amortization(self):
        """One mesh amortized over all wind cases of its instance."""
        study = standard_study(n_config=2, n_wind=3)
        tree = build_job_tree(study)
        assert meshing_amortization(tree) == pytest.approx(27.0)

    def test_flow_job_params_merge(self):
        study = standard_study(n_config=2, n_wind=2)
        job = build_job_tree(study)[0].flow_jobs[0]
        assert set(job.params) == {
            "aileron", "elevator", "rudder", "mach", "alpha", "beta"
        }


class TestScheduler:
    def test_concurrent_cases_per_box(self):
        """'3-10 million cell cases typically fit in memory on 32-128
        CPUs, making it possible to run several cases simultaneously on
        each 512 CPU node'."""
        study = standard_study(n_config=2, n_wind=2)
        plan = schedule_fill(build_job_tree(study), nnodes=1,
                             cpus_per_case=32)
        assert plan.concurrent_cases == 16

    def test_makespan_scales_down_with_nodes(self):
        study = standard_study(n_config=2, n_wind=3)
        tree = build_job_tree(study)
        t1 = schedule_fill(tree, nnodes=1).makespan_seconds
        t4 = schedule_fill(tree, nnodes=4).makespan_seconds
        assert t4 < t1

    def test_all_jobs_assigned(self):
        study = standard_study(n_config=2, n_wind=2)
        tree = build_job_tree(study)
        plan = schedule_fill(tree, nnodes=2)
        assert len(plan.assignments) == study.ncases

    def test_no_slot_overlap(self):
        study = standard_study(n_config=2, n_wind=2)
        plan = schedule_fill(build_job_tree(study), nnodes=1,
                             cpus_per_case=256)
        by_interval = sorted((s, e) for _, _, s, e in plan.assignments)
        # 2 slots: at most 2 jobs overlapping any instant
        events = []
        for s, e in by_interval:
            events.append((s, 1))
            events.append((e, -1))
        live = 0
        for _, d in sorted(events):
            live += d
            assert live <= 2

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            schedule_fill([], nnodes=0)
        with pytest.raises(ValueError):
            schedule_fill([], nnodes=1, cpus_per_case=4096)


class CountingRunner:
    """Stands in for ``Cart3DCaseRunner``: counts the cases it executes."""

    solver_name = "cart3d"

    def __init__(self):
        self.calls = []

    def settings(self):
        return {}

    def __call__(self, spec, shared=None):
        self.calls.append(spec.key)
        return CaseResult(spec=spec, coefficients={"cl": 0.42})


def make_result(mach, alpha, cl, converged=True):
    return CaseResult(
        spec=CaseSpec(wind={"mach": mach, "alpha": alpha}),
        coefficients={"cl": cl, "cd": 0.01},
        residual_history=(1.0, 1e-6),
        converged=converged,
    )


def make_study(runner=None):
    return VariableFidelityStudy(
        geometry=None,
        study=StudyDefinition(
            config_space=ParameterSpace(axes=(Axis("flap", (0.0,)),)),
            wind_space=ParameterSpace(axes=(Axis("mach", (0.5,)),)),
        ),
        _runner=runner or CountingRunner(),
    )


class TestDatabase:
    """The aero database is the fill runtime's :class:`ResultStore`."""

    def test_insert_and_get(self):
        store = ResultStore()
        key = store.put(make_result(0.5, 1.0, 0.3))
        assert key == CaseSpec(wind={"mach": 0.5, "alpha": 1.0}).key
        assert store.get(key).coefficients["cl"] == 0.3
        assert store.keys() == [key]

    def test_missing_without_solver_raises(self):
        study = make_study()
        assert study.runtime().store.get(
            study.case_spec({"mach": 0.9}, {"flap": 0.0}).key
        ) is None
        with pytest.raises(KeyError):
            study.corrected_coefficient({"flap": 0.0, "mach": 0.9}, "cl", {})
        assert study.runner().calls == []

    def test_virtual_rerun(self):
        """The paper's virtual database: a case the store lacks re-runs
        on demand, once; asking again is a cache hit."""
        study = make_study()
        wind, config = {"mach": 0.7, "alpha": 2.0}, {"flap": 0.0}
        rec = study.run_case(wind, config)
        assert rec.coefficients["cl"] == 0.42
        assert study.runner().calls == [study.case_spec(wind, config).key]
        assert study.run_case(wind, config).coefficients["cl"] == 0.42
        assert len(study.runner().calls) == study.cases_run == 1
        assert study.corrected_coefficient(
            {**config, **wind}, "cl", {"cl": 0.08}
        ) == pytest.approx(0.5)

    def test_slice(self):
        store = ResultStore()
        for m in (0.4, 0.5):
            for a in (0.0, 2.0):
                store.put(make_result(m, a, m + a))
        subset = store.slice(mach=0.5)
        assert len(subset) == 2
        assert all(r.spec.params["mach"] == 0.5 for r in subset)
        assert len(store.slice()) == 4

    def test_coefficients(self):
        store = ResultStore()
        for a in (0.0, 1.0, 2.0):
            store.put(make_result(0.5, a, 0.1 * a))
        params, cl = store.coefficients("cl")
        assert [p["alpha"] for p in params] == [0.0, 1.0, 2.0]
        assert cl.tolist() == [0.0, 0.1, 0.2]
        assert np.isnan(store.coefficients("cm")[1]).all()

    def test_outliers_flagged(self):
        store = ResultStore()
        for i in range(20):
            store.put(make_result(0.4 + 0.01 * i, 0.0, 0.30))
        store.put(make_result(0.9, 0.0, 25.0))  # wild
        bad = store.outliers("cl")
        assert len(bad) == 1
        assert bad[0].coefficients["cl"] == 25.0

    def test_orders_converged(self):
        assert make_result(0.5, 0.0, 0.3).orders_converged() == pytest.approx(6.0)

    def test_unconverged_listing(self):
        store = ResultStore()
        rec = make_result(0.5, 0.0, 0.3, converged=False)
        store.put(rec)
        store.put(make_result(0.6, 0.0, 0.3))
        assert store.unconverged() == [rec]

    def test_degraded_listing(self):
        store = ResultStore()
        rec = replace(make_result(0.5, 0.0, 0.3), degraded=True)
        store.put(rec)
        store.put(make_result(0.6, 0.0, 0.3))
        assert store.degraded() == [rec]

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 30), seed=st.integers(0, 99))
    def test_roundtrip_property(self, tmp_path_factory, n, seed):
        rng = np.random.default_rng(seed)
        path = tmp_path_factory.mktemp("store") / "results.jsonl"
        store = ResultStore(path)
        latest = {}
        for _ in range(n):
            m = float(rng.integers(30, 90)) / 100
            a = float(rng.integers(-40, 80)) / 10
            cl = float(rng.normal())
            store.put(make_result(m, a, cl))
            latest[(m, a)] = cl
        # reloaded from disk, last write wins per key and every stored
        # point is retrievable
        reloaded = ResultStore(path)
        assert len(reloaded) == len(latest)
        for (m, a), cl in latest.items():
            [rec] = reloaded.slice(mach=m, alpha=a)
            assert rec.coefficients["cl"] == cl
