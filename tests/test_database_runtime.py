"""Tests for the executing fill runtime (paper section IV job control).

Most tests drive :class:`FillRuntime` with fake runners so scheduling
behavior — slot bounds, retry, caching, cancellation — is exercised
without real solves; one closing test runs a small real fill and checks
it matches a serial loop exactly.
"""

import copy
import dataclasses
import gc
import hashlib
import json
import pickle
import threading
import weakref

import pytest

from repro.database import (
    Axis,
    CampaignCheckpoint,
    FillRuntime,
    ParameterSpace,
    ResultStore,
    StudyDefinition,
    build_job_tree,
    schedule_fill,
)
from repro.errors import CaseExecutionError
from repro.machine import CPUS_PER_NODE, node_slots
from repro.service import PointQuery
from repro.solvers import CaseResult, CaseSpec


def spec(i, **settings):
    return CaseSpec(
        config={"flap": 0.0}, wind={"mach": 0.4 + 0.01 * i},
        settings=settings,
    )


def ok_runner(s, shared=None):
    return CaseResult(spec=s, coefficients={"cl": s.wind_params["mach"]})


def tiny_tree(nconfig=2, nwind=3):
    study = StudyDefinition(
        config_space=ParameterSpace(
            axes=(Axis("flap", tuple(float(i) for i in range(nconfig))),)
        ),
        wind_space=ParameterSpace(
            axes=(Axis("mach", tuple(0.4 + 0.1 * i for i in range(nwind))),)
        ),
    )
    return build_job_tree(study)


class TestSlotSizing:
    def test_node_slots_matches_paper_arithmetic(self):
        assert node_slots(32) == CPUS_PER_NODE // 32
        assert node_slots(32, nnodes=4) == (CPUS_PER_NODE // 32) * 4
        assert node_slots(500) == 1  # barely fits, still one slot

    def test_rejects_nonpositive_cpus(self):
        with pytest.raises(ValueError, match="positive CPU count"):
            node_slots(0)
        with pytest.raises(ValueError, match="positive CPU count"):
            node_slots(-32)

    def test_rejects_case_larger_than_node(self):
        with pytest.raises(ValueError, match="exceeds the 512-CPU"):
            node_slots(CPUS_PER_NODE + 1)

    def test_schedule_fill_shares_the_validation(self):
        tree = tiny_tree()
        with pytest.raises(ValueError, match="exceeds the 512-CPU"):
            schedule_fill(tree, cpus_per_case=CPUS_PER_NODE + 1)
        with pytest.raises(ValueError, match="positive CPU count"):
            schedule_fill(tree, cpus_per_case=0)

    def test_runtime_rejects_oversized_case(self):
        with pytest.raises(ValueError, match="exceeds the 512-CPU"):
            FillRuntime(ok_runner, cpus_per_case=CPUS_PER_NODE * 2, durable=False)


class TestRunTree:
    def test_empty_tree_reports_zero_cases(self):
        with FillRuntime(ok_runner, durable=False) as rt:
            report = rt.run_tree([])
        assert report.cases == 0
        assert report.executed == 0
        assert report.ok()

    def test_zero_wind_cases_geometry_never_built(self):
        built = []

        def prepare(geo_job):
            built.append(geo_job)
            return "product"

        tree = tiny_tree(nconfig=2, nwind=1)
        for geo in tree:
            geo.flow_jobs = []
        with FillRuntime(ok_runner, durable=False) as rt:
            report = rt.run_tree(tree, prepare=prepare)
        assert report.cases == 0
        assert built == []  # lazy: no case ever forced the mesh

    def test_more_cases_than_slots_respects_bound(self):
        slots = node_slots(128)  # 4 slots
        # a runner with no ``max_inflight`` keeps every slot's thread: a
        # case returns only once ``slots`` cases are inside the runner at
        # once (a broken barrier fails the case; there are no retries)
        together = threading.Barrier(slots, timeout=5)

        def runner(s, shared=None):
            together.wait()
            return ok_runner(s)

        with FillRuntime(runner, cpus_per_case=128, max_attempts=1,
                         durable=False) as rt:
            report = rt.run_tree(tiny_tree(nconfig=3, nwind=4))
        assert report.cases == 12
        assert report.executed == 12 and report.ok()
        assert rt.workers == report.slots == slots
        assert 1 < report.max_concurrent <= slots

    def test_geometry_prepared_once_per_instance(self):
        builds = []
        # the widest race window: all 8 cases (16 slots) have started
        # before any of them asks for its instance's geometry
        together = threading.Barrier(8, timeout=5)

        def on_event(event):
            if event.kind == "start":
                together.wait()

        def prepare(geo_job):
            builds.append(geo_job.config_params["flap"])
            return geo_job.config_params

        with FillRuntime(ok_runner, on_event=on_event, durable=False) as rt:
            report = rt.run_tree(tiny_tree(nconfig=2, nwind=4), prepare=prepare)
        assert sorted(builds) == [0.0, 1.0]  # once per instance, not per case
        assert report.meshes_built == 2


class TestRetryAndFailure:
    def test_transient_failure_succeeds_on_retry(self):
        calls = {}

        def flaky(s, shared=None):
            calls[s.key] = calls.get(s.key, 0) + 1
            if calls[s.key] == 1:
                raise OSError("node dropped the job")
            return ok_runner(s)

        with FillRuntime(flaky, max_attempts=3, backoff_seconds=0.0,
                         durable=False) as rt:
            out = rt.submit(spec(0)).outcome()
        assert out.state == "done"
        assert out.attempts == 2

    def test_retries_exhausted_marks_failed(self):
        def broken(s, shared=None):
            raise OSError("boom")

        with FillRuntime(broken, max_attempts=2, backoff_seconds=0.0,
                         durable=False) as rt:
            handle = rt.submit(spec(0))
            out = handle.outcome()
            assert out.state == "failed"
            assert out.attempts == 2
            assert "boom" in out.error
            with pytest.raises(CaseExecutionError):
                handle.result()
            kinds = [e.kind for e in rt.events.all()]
        assert kinds.count("retry") == 1
        assert kinds.count("failed") == 1

    def test_failed_case_not_cached(self):
        attempts = {"n": 0}

        def flaky(s, shared=None):
            attempts["n"] += 1
            if attempts["n"] <= 1:
                raise OSError("boom")
            return ok_runner(s)

        store = ResultStore()
        with FillRuntime(flaky, max_attempts=1, store=store) as rt:
            assert rt.submit(spec(0)).outcome().state == "failed"
        assert len(store) == 0

    def test_timeout_is_retryable(self):
        # the runtime reads its clock at call time: the first attempt
        # steps a fake clock past the budget instead of sleeping
        now = {"t": 0.0}

        def runner(s, shared=None):
            if now["t"] == 0.0:
                now["t"] += 0.05
            return ok_runner(s)

        with FillRuntime(
            runner, timeout_seconds=0.02, max_attempts=2, backoff_seconds=0.0,
            durable=False,
        ) as rt:
            rt._clock = lambda: now["t"]
            out = rt.submit(spec(0)).outcome()
        assert out.state == "done"
        assert out.attempts == 2

    def test_cancel_stops_queued_cases(self):
        started = threading.Event()
        release = threading.Event()

        def runner(s, shared=None):
            started.set()
            release.wait(timeout=5)
            return ok_runner(s)

        rt = FillRuntime(runner, cpus_per_case=512, durable=False)  # one slot
        try:
            first = rt.submit(spec(0))
            rest = [rt.submit(spec(i)) for i in range(1, 4)]
            started.wait(timeout=5)
            rt.cancel()
            release.set()
            states = [h.outcome().state for h in rest]
            assert states == ["cancelled"] * 3
            assert first.outcome().state == "done"  # in-flight case finishes
        finally:
            release.set()
            rt.close()


class TestCaching:
    def test_duplicate_submission_is_session_hit(self):
        ran = []

        def runner(s, shared=None):
            ran.append(s.key)
            return ok_runner(s)

        with FillRuntime(runner, durable=False) as rt:
            a = rt.submit(spec(0))
            a.outcome()
            b = rt.submit(spec(0))
        assert not a.hit and b.hit
        assert b.result().coefficients == a.result().coefficients
        assert ran == [spec(0).key]

    def test_in_flight_twins_share_one_execution(self):
        """A twin of a held in-flight case shares its future; once the
        case finishes the runtime lets go of its handle, and the next
        re-submission is a store hit.  The runner ran once."""
        entered, release = threading.Event(), threading.Event()
        ran = []

        def runner(s, shared=None):
            ran.append(s.key)
            entered.set()
            assert release.wait(timeout=30)
            return ok_runner(s)

        with FillRuntime(runner, durable=False) as rt:
            primary = rt.submit(spec(0))
            assert entered.wait(timeout=30)
            twins = [rt.submit(spec(0)) for _ in range(3)]
            release.set()
            outcomes = {id(h.outcome()) for h in [primary, *twins]}
            later = rt.submit(spec(0))
            held = weakref.ref(primary)
            del primary
            gc.collect()
            assert held() is None  # no second store beside the first
        assert all(t.hit for t in twins) and len(outcomes) == 1
        assert later.hit and later.outcome().state == "cached"
        assert ran == [spec(0).key]

    def test_failed_case_reruns_on_resubmit(self):
        calls = []

        def flaky(s, shared=None):
            calls.append(s.key)
            if len(calls) == 1:
                raise OSError("node dropped the job")
            return ok_runner(s)

        with FillRuntime(flaky, max_attempts=1, durable=False) as rt:
            assert rt.submit(spec(0)).outcome().state == "failed"
            again = rt.submit(spec(0))
            assert not again.hit
            assert again.outcome().state == "done"
        assert calls == [spec(0).key] * 2

    def test_second_run_all_cache_hits(self):
        tree = tiny_tree(nconfig=2, nwind=3)
        with FillRuntime(ok_runner, durable=False) as rt:
            r1 = rt.run_tree(tree)
            r2 = rt.run_tree(tree)
        assert r1.executed == 6 and r1.cache_hits == 0
        assert r2.executed == 0 and r2.cache_hits == 6
        assert r2.max_concurrent == 0
        for report in (r1, r2):
            assert report.max_concurrent <= report.workers <= report.slots

    def test_persistent_store_survives_runtimes(self, tmp_path):
        path = tmp_path / "results.jsonl"
        with FillRuntime(ok_runner, store=ResultStore(path)) as rt:
            rt.submit(spec(0)).result()

        def never(s, shared=None):
            raise AssertionError("store hit should not execute")

        with FillRuntime(never, store=ResultStore(path)) as rt:
            handle = rt.submit(spec(0))
            assert handle.hit
            assert handle.result().coefficients["cl"] == pytest.approx(0.4)

    def test_spec_key_is_order_independent(self):
        a = CaseSpec(config={"a": 1.0, "b": 2.0}, wind={"mach": 0.5, "alpha": 1.0})
        b = CaseSpec(config={"b": 2.0, "a": 1.0}, wind={"alpha": 1.0, "mach": 0.5})
        assert a.key == b.key
        c = CaseSpec(config={"a": 1.0, "b": 2.5}, wind=a.wind_params)
        assert c.key != a.key

    def test_case_runner_keys_are_pinned(self):
        """A stored campaign's keys, settings and manifest entry for a
        fixed ``Cart3DCaseRunner`` do not move: literals, not a
        comparison between two runners."""
        from repro.api import Cart3DCaseRunner, wing_body

        runner = Cart3DCaseRunner(wing_body(), mg_levels=2, cycles=4)
        settings = {"dim": 2, "base_level": 4, "max_level": 5,
                    "mg_levels": 2, "cycles": 4}
        assert runner.settings() == settings
        assert runner.describe() == {
            "type": "cart3d", "geometry": None, "tol_orders": 4.0,
            "converged_orders": 2.0, **settings,
        }
        tree = build_job_tree(StudyDefinition(
            config_space=ParameterSpace(axes=(Axis("flap", (0.0, 5.0)),)),
            wind_space=ParameterSpace(axes=(Axis("mach", (0.4, 0.5)),)),
        ))
        store = ResultStore()
        with FillRuntime(ok_runner, store=store) as rt:
            rt.run_tree(tree, solver=runner.solver_name,
                        settings=runner.settings())
        assert sorted(store.keys()) == [
            "1398e9e08c62132b", "3b44fa98da68d6b4",
            "45cf0dbcfcda8ac3", "b837fbfd4b361ab9",
        ]


class TestCaseSpecKey:
    """``CaseSpec.key`` / ``geometry_key`` are hashed once per spec and
    cached; nothing else about the spec moves."""

    PINNED = [
        (CaseSpec(wind={"mach": 0.5, "alpha": 2.0}, solver="synthetic"),
         "08d4b12b1fbce3ce", "51d5da973fc5b37e"),
        (CaseSpec(config={"flap": 5.0, "aileron": -2.5},
                  wind={"mach": 0.84, "alpha": 3.06, "beta": 1.0},
                  solver="cart3d", settings={"cycles": 50, "mg_levels": 3}),
         "b05cc711d10449f8", "346835f8e084b6b2"),
        (PointQuery(mach=0.45, alpha=1.5, config={"elevon": 10.0},
                    beta=0.5).spec("nsu3d", {"levels": 2}),
         "b9d0c3e631944efd", "555a8af2ac230a12"),
    ]

    @pytest.mark.parametrize("spec, key, geometry_key", PINNED)
    def test_keys_are_pinned(self, spec, key, geometry_key):
        assert (spec.key, spec.geometry_key) == (key, geometry_key)

    def test_key_hashed_once_per_spec(self, count_calls):
        calls = count_calls(hashlib, "sha256")
        s = spec(0)
        assert s.key == s.key == spec(0).key
        assert s.geometry_key == s.geometry_key
        assert len(calls) == 3    # two specs' keys, one geometry key

    @pytest.mark.parametrize("clone", [
        lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy, copy.copy,
    ])
    def test_cached_key_survives_copies(self, count_calls, clone):
        s = spec(0)
        key = s.key
        calls = count_calls(hashlib, "sha256")
        twin = clone(s)
        assert twin == s and hash(twin) == hash(s)
        assert twin.key == key
        assert calls == []

    def test_replace_recomputes_the_key(self):
        s = spec(0)
        moved = dataclasses.replace(s, wind={"mach": 0.9})
        assert moved.key == CaseSpec(config={"flap": 0.0},
                                     wind={"mach": 0.9}).key != s.key
        assert dataclasses.replace(s, solver="nsu3d").geometry_key != (
            s.geometry_key
        )

    def test_equality_and_hash_ignore_the_cache(self):
        cached, fresh = spec(0), spec(0)
        cached.key
        assert "key" in vars(cached) and "key" not in vars(fresh)
        assert cached == fresh
        assert hash(cached) == hash(fresh) == hash(
            (fresh.config, fresh.wind, fresh.solver, fresh.settings)
        )
        assert [f.name for f in dataclasses.fields(CaseSpec)] == [
            "config", "wind", "solver", "settings",
        ]

    def test_result_json_bytes_unchanged(self):
        s, _, _ = self.PINNED[1]
        s.key
        result = CaseResult(spec=s, coefficients={"cl": 0.5, "cd": 0.02},
                            residual_history=(1.0, 1e-6), flops=12.0)
        assert json.dumps(result.to_json()) == (
            '{"config": {"aileron": -2.5, "flap": 5.0}, "wind": {"alpha": '
            '3.06, "beta": 1.0, "mach": 0.84}, "solver": "cart3d", '
            '"settings": {"cycles": 50, "mg_levels": 3}, "coefficients": '
            '{"cl": 0.5, "cd": 0.02}, "residual_history": [1.0, 1e-06], '
            '"converged": true, "flops": 12.0, "degraded": false}'
        )

    def test_refill_hashes_each_spec_once(self, tmp_path, count_calls):
        """24 cases through a path-backed store and a journal, as a
        database fill runs them: each fill builds 24 specs and hashes
        each once — the re-fill, all cache hits, included."""
        tree = build_job_tree(StudyDefinition(
            config_space=ParameterSpace(axes=(Axis("flap", (0.0, 5.0)),)),
            wind_space=ParameterSpace(axes=(
                Axis("mach", (0.4, 0.5, 0.6)),
                Axis("alpha", (0.0, 1.0, 2.0, 3.0)),
            )),
        ))
        calls = count_calls(hashlib, "sha256")
        with FillRuntime(
            ok_runner, store=ResultStore(tmp_path / "store.jsonl"),
            checkpoint=CampaignCheckpoint(tmp_path / "fill.journal"),
        ) as rt:
            cold = rt.run_tree(tree)
            assert (cold.executed, len(calls)) == (24, 24)
            refill = rt.run_tree(tree)
        assert (refill.cache_hits, len(calls)) == (24, 48)


class TestEventStream:
    def test_events_cover_the_lifecycle(self):
        seen = []
        with FillRuntime(ok_runner, on_event=seen.append, durable=False) as rt:
            report = rt.run_tree(tiny_tree(nconfig=1, nwind=2))
        kinds = [e.kind for e in report.events]
        assert kinds.count("submit") == 2
        assert kinds.count("start") == 2
        assert kinds.count("done") == 2
        assert [e.kind for e in seen] == [e.kind for e in rt.events.all()]
        seqs = [e.seq for e in rt.events.all()]
        assert seqs == sorted(seqs) == list(range(len(seqs)))

    def test_summary_feeds_the_report_table(self):
        from repro.perf import fill_summary_table

        with FillRuntime(ok_runner, durable=False) as rt:
            r1 = rt.run_tree(tiny_tree(nconfig=1, nwind=2))
            r2 = rt.run_tree(tiny_tree(nconfig=1, nwind=2))
        table = fill_summary_table({"fill": r1.summary(), "re-fill": r2.summary()})
        assert "cache hits" in table
        assert "re-fill" in table


class TestResultStore:
    def test_roundtrip_and_last_write_wins(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        r1 = CaseResult(spec=spec(0), coefficients={"cl": 1.0})
        r2 = CaseResult(spec=spec(0), coefficients={"cl": 2.0})
        store.put(r1)
        store.put(r2)
        fresh = ResultStore(path)
        assert len(fresh) == 1
        assert fresh.get(spec(0).key).coefficients["cl"] == 2.0


class TestRealSolverFill:
    def test_runtime_fill_matches_serial_loop(self):
        """A concurrent runtime fill must be bit-identical to running the
        same cases one by one — amortized meshing changes nothing."""
        from repro.database import Cart3DCaseRunner
        from repro.mesh.cartesian import wing_body

        study = StudyDefinition(
            config_space=ParameterSpace(axes=(Axis("aileron", (0.0,)),)),
            wind_space=ParameterSpace(
                axes=(Axis("mach", (0.4, 0.5)), Axis("alpha", (0.0, 2.0)))
            ),
        )
        tree = build_job_tree(study)
        runner = Cart3DCaseRunner(
            wing_body(), dim=2, base_level=4, max_level=4, mg_levels=1, cycles=4
        )
        with FillRuntime(runner, cpus_per_case=128, durable=False) as rt:
            report = rt.run_tree(tree)
        assert report.ok() and report.executed == 4
        assert report.meshes_built == 1
        # the solver steps in this interpreter: one thread of four slots
        assert report.max_concurrent <= report.workers == 1 < report.slots

        serial = {}
        for geo in tree:
            shared = runner.prepare(geo)
            for job in geo.flow_jobs:
                s = CaseSpec.from_flow_job(job, **runner.settings())
                serial[s.key] = runner(s, shared)
        for out in report.outcomes:
            assert out.result.coefficients == serial[out.spec.key].coefficients
