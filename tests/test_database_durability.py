"""Tests for campaign durability (ISSUE 4): the rooted error taxonomy,
deterministic chaos injection, journal-backed checkpoint/resume, the
graceful-degradation ladder, the durable contract, and the resume CLI.

The load-bearing assertions are the acceptance criteria: a campaign
killed mid-run (cancelled, or chaos-crashed) resumes from its journal
with zero recomputation of completed cases and yields a database
coefficient-identical to an uninterrupted run.
"""

import json
import threading
import warnings
from pathlib import Path

import pytest

from repro import errors
from repro.database import (
    Axis,
    CampaignCheckpoint,
    ChaosPolicy,
    CheckpointState,
    FillRuntime,
    ParameterSpace,
    ResultStore,
    StudyDefinition,
    build_job_tree,
)
from repro.database.checkpoint import TERMINAL_KINDS
from repro.solvers import CaseResult, CaseSpec


def tree24():
    """3 geometry instances x 8 wind cases = 24-case campaign."""
    study = StudyDefinition(
        config_space=ParameterSpace(
            axes=(Axis("flap", (0.0, 5.0, 10.0)),)
        ),
        wind_space=ParameterSpace(
            axes=(Axis("mach", tuple(0.3 + 0.05 * i for i in range(8))),)
        ),
    )
    return build_job_tree(study)


class TrackingRunner:
    """Fake runner recording which case keys it actually executed."""

    solver_name = "fake"

    def __init__(self, gate=None):
        self.gate = gate  # a threading.Event every case waits for
        self.calls = []
        self._lock = threading.Lock()

    def __call__(self, spec, shared=None):
        if self.gate is not None:
            self.gate.wait(5)
        with self._lock:
            self.calls.append(spec.key)
        return CaseResult(
            spec=spec,
            coefficients={
                "cl": spec.wind_params["mach"] + spec.config_params["flap"],
                "cd": 0.01 * spec.wind_params["mach"],
            },
            residual_history=(1.0, 1e-3),
            converged=True,
        )


def fill_db(report):
    return {
        tuple(sorted(o.spec.params.items())): o.result.coefficients
        for o in report.outcomes if o.result is not None
    }


class TestErrorTaxonomy:
    def test_single_root(self):
        for name in errors.__all__:
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError), name

    def test_builtin_compatibility_preserved(self):
        # pre-taxonomy except clauses keep catching the new classes
        assert issubclass(errors.ConfigurationError, ValueError)
        for cls in (
            errors.CaseExecutionError,
            errors.CaseTimeout,
            errors.CampaignAborted,
            errors.CheckpointCorrupt,
            errors.WorkerCrash,
            errors.SolverDivergence,
            errors.RuntimeClosed,
        ):
            assert issubclass(cls, RuntimeError), cls

    def test_errors_carry_structure(self):
        exc = errors.CaseExecutionError("abc123", 3, "boom")
        assert (exc.key, exc.attempts, exc.cause) == ("abc123", 3, "boom")
        aborted = errors.CampaignAborted("node died", report="partial")
        assert aborted.report == "partial"
        corrupt = errors.CheckpointCorrupt(Path("j.jsonl"), 7, "bad json")
        assert corrupt.lineno == 7

    def test_comm_raises_are_taxonomy_members(self):
        from repro.comm.simmpi import SimMPI

        with pytest.raises(errors.ConfigurationError):
            SimMPI(0)
        with pytest.raises(ValueError):  # old call sites still work
            SimMPI(0)

    def test_closed_runtime_raises_typed_error(self):
        rt = FillRuntime(TrackingRunner(), durable=False)
        rt.close()
        with pytest.raises(errors.RuntimeClosed):
            rt.submit(CaseSpec(wind={"mach": 0.5}))
        with pytest.raises(RuntimeError):  # backwards compatible
            rt.submit(CaseSpec(wind={"mach": 0.5}))


class TestChaosPolicy:
    def test_deterministic_across_instances(self):
        a = ChaosPolicy(seed=7, crash_rate=0.3, hang_rate=0.3,
                        divergence_rate=0.3)
        b = ChaosPolicy(seed=7, crash_rate=0.3, hang_rate=0.3,
                        divergence_rate=0.3)
        keys = [f"key{i}" for i in range(50)]
        assert [a.attempt_fault(k, 1) for k in keys] == [
            b.attempt_fault(k, 1) for k in keys
        ]

    def test_seed_changes_fault_pattern(self):
        keys = [f"key{i}" for i in range(200)]
        a = ChaosPolicy(seed=1, crash_rate=0.2)
        b = ChaosPolicy(seed=2, crash_rate=0.2)
        assert [a.attempt_fault(k, 1) for k in keys] != [
            b.attempt_fault(k, 1) for k in keys
        ]

    def test_zero_rates_inject_nothing(self):
        quiet = ChaosPolicy(seed=3)
        assert all(
            quiet.attempt_fault(f"k{i}", a) is None
            for i in range(100)
            for a in (1, 2, 3)
        )
        assert not quiet.truncate_journal("k0")
        assert not quiet.solver_fault("k0")

    def test_rate_one_always_fires_and_crash_wins(self):
        loud = ChaosPolicy(seed=0, crash_rate=1.0, hang_rate=1.0,
                           divergence_rate=1.0)
        assert loud.attempt_fault("anything", 1) == "crash"

    def test_rates_validated(self):
        with pytest.raises(errors.ConfigurationError):
            ChaosPolicy(crash_rate=1.5)
        with pytest.raises(ValueError):
            ChaosPolicy(hang_rate=-0.1)

    def test_solver_fault_sticky_per_key(self):
        chaos = ChaosPolicy(seed=5, divergence_rate=0.5)
        keys = [f"k{i}" for i in range(100)]
        hit = [k for k in keys if chaos.solver_fault(k)]
        assert hit  # with rate 0.5 over 100 keys some must fire
        # sticky: the same key answers the same way every time
        assert all(chaos.solver_fault(k) for k in hit)

    def test_expected_faults_names_the_victims(self):
        chaos = ChaosPolicy(seed=9, crash_rate=0.2)
        keys = [f"case{i}" for i in range(40)]
        faults = chaos.expected_faults(keys)
        assert faults
        assert set(faults.values()) == {"crash"}
        assert all(chaos.attempt_fault(k, 1) == "crash" for k in faults)

    def test_hang_seconds_exceeds_timeout(self):
        assert ChaosPolicy.hang_seconds(0.1) == pytest.approx(0.15)
        assert ChaosPolicy.hang_seconds(None) > 0


class TestResultStoreTruncation:
    """Bugfix regression: crash mid-write used to raise on reload."""

    def _store_with_results(self, path, n=3):
        store = ResultStore(path)
        runner = TrackingRunner()
        for i in range(n):
            store.put(runner(CaseSpec(
                config={"flap": 0.0}, wind={"mach": 0.3 + 0.1 * i}
            )))
        return store

    def test_truncated_final_line_ignored_with_one_warning(self, tmp_path):
        path = tmp_path / "results.jsonl"
        self._store_with_results(path, n=3)
        text = path.read_text()
        lines = text.splitlines()
        torn = "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2]
        path.write_text(torn)
        with pytest.warns(RuntimeWarning, match="truncated final line"):
            reloaded = ResultStore(path)
        assert len(reloaded) == 2  # the torn record re-runs, others load

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / "results.jsonl"
        self._store_with_results(path, n=3)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:10]  # corrupt a middle line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(errors.CheckpointCorrupt):
            ResultStore(path)

    def test_intact_store_loads_silently(self, tmp_path):
        path = tmp_path / "results.jsonl"
        self._store_with_results(path, n=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(ResultStore(path)) == 2


class TestCheckpointJournal:
    def _run_campaign(self, tmp_path, **kwargs):
        journal = tmp_path / "campaign.jsonl"
        runner = TrackingRunner()
        with FillRuntime(
            runner, durable=False,
            checkpoint=CampaignCheckpoint(journal), **kwargs
        ) as rt:
            report = rt.run_tree(tree24())
        return journal, runner, report

    def test_journal_roundtrip_classifies_cases(self, tmp_path):
        journal, _, report = self._run_campaign(tmp_path)
        state = CampaignCheckpoint.load(journal)
        assert len(state.completed) == 24
        assert state.failed == set()
        assert state.in_flight == set()
        assert state.interrupted == set()
        assert len(state.results) == 24
        assert state.summary()["cases"] == 24

    def test_manifest_first_writer_wins(self, tmp_path):
        journal, _, _ = self._run_campaign(tmp_path)
        ckpt = CampaignCheckpoint(journal)
        assert ckpt.has_manifest
        assert not ckpt.write_manifest({"cases": []})
        state = CampaignCheckpoint.load(journal)
        assert len(state.manifest["cases"]) == 24

    def test_job_tree_rebuilds_campaign_shape(self, tmp_path):
        journal, _, _ = self._run_campaign(tmp_path)
        state = CampaignCheckpoint.load(journal)
        rebuilt = state.job_tree()
        assert len(rebuilt) == 3  # geometry instances
        assert sum(len(g.flow_jobs) for g in rebuilt) == 24
        assert len(state.case_specs()) == 24

    def test_truncated_final_line_tolerated(self, tmp_path):
        journal, _, _ = self._run_campaign(tmp_path)
        lines = journal.read_text().splitlines()
        journal.write_text(
            "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2]
        )
        with pytest.warns(RuntimeWarning, match="truncated final"):
            CampaignCheckpoint.load(journal)

    def test_interior_corruption_raises_checkpoint_corrupt(self, tmp_path):
        journal, _, _ = self._run_campaign(tmp_path)
        lines = journal.read_text().splitlines()
        lines[2] = lines[2][:5]
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(errors.CheckpointCorrupt) as info:
            CampaignCheckpoint.load(journal)
        assert info.value.lineno == 3

    def test_missing_journal_is_configuration_error(self, tmp_path):
        with pytest.raises(errors.ConfigurationError):
            CampaignCheckpoint.load(tmp_path / "nope.jsonl")

    def test_done_with_torn_result_must_rerun(self, tmp_path):
        """A 'done' whose result append was torn is NOT completed."""
        journal, _, _ = self._run_campaign(tmp_path)
        state = CampaignCheckpoint.load(journal)
        victim = sorted(state.completed)[0]
        kept = [
            line for line in journal.read_text().splitlines()
            if not (
                '"record": "result"' in line
                and json.loads(line)["key"] == victim
            )
        ]
        journal.write_text("\n".join(kept) + "\n")
        state2 = CampaignCheckpoint.load(journal)
        assert victim not in state2.completed
        assert victim in state2.interrupted

    def test_journal_with_a_plan_manifest_still_resumes(self, tmp_path):
        """Older journals carry a ``"plan"`` entry in their manifest (the
        campaign's planner summary); it is ignored, not rejected."""
        journal = tmp_path / "campaign.jsonl"
        journal.write_text(
            '{"record": "manifest", "version": 1, "campaign": {"solver": '
            '"fake", "settings": {}, "nnodes": 1, "cpus_per_case": 512, '
            '"worker_threads": 1, "store": null, "runner": null, "plan": '
            '{"makespan_seconds": 1260.0, "mesh_seconds": 60.0, '
            '"flow_seconds": 1200.0, "concurrent_cases": 1, "njobs": 2}, '
            '"cases": [{"config": {"flap": 0.0}, "wind": {"mach": 0.3}}, '
            '{"config": {"flap": 0.0}, "wind": {"mach": 0.35}}]}}\n'
        )
        state = CampaignCheckpoint.load(journal)
        assert state.manifest["plan"]["njobs"] == 2
        assert len(state.case_specs()) == 2
        runner = TrackingRunner()
        with FillRuntime(runner, durable=False) as rt:
            report = rt.resume(checkpoint=journal)
        assert report.ok() and report.cases == report.executed == 2
        assert sorted(runner.calls) == sorted(
            s.key for s in state.case_specs()
        )

    def test_terminal_kinds_cover_crash(self):
        assert "crash" in TERMINAL_KINDS


class TestKillResume:
    """Satellite: 24-case fill, cancel after N events, resume, zero
    re-run of completed cases, coefficient-identical database."""

    def test_cancelled_campaign_resumes_with_zero_recomputation(
        self, tmp_path
    ):
        journal = tmp_path / "campaign.jsonl"
        # no case runs before all 24 are queued, so the cancel below
        # always lands mid-campaign
        queued = threading.Event()
        runner = TrackingRunner(gate=queued)
        counted = {"n": 0, "submit": 0}

        rt = FillRuntime(
            runner, cpus_per_case=512, durable=False,  # 1 slot: serial
            checkpoint=CampaignCheckpoint(journal),
        )

        def cancel_after(event, n_events=40):
            counted["n"] += 1
            if event.kind == "submit":
                counted["submit"] += 1
                if counted["submit"] == 24:
                    queued.set()
            if counted["n"] == n_events:
                rt.cancel()

        rt._user_on_event = cancel_after
        with rt:
            interrupted = rt.run_tree(tree24())
        assert interrupted.cancelled > 0  # the kill really interrupted it
        state = CampaignCheckpoint.load(journal)
        completed = state.completed
        assert completed  # and some cases really finished first
        assert set(runner.calls) >= completed

        # resume in a fresh runtime/process-equivalent: new store, new
        # runner; completed cases restore from the journal
        resumed_runner = TrackingRunner()
        with FillRuntime(resumed_runner, durable=False) as rt2:
            report = rt2.resume(checkpoint=journal)
        assert report.ok()
        assert report.cases == 24
        assert report.restored == len(completed)
        assert report.cache_hits == len(completed)
        # zero recomputation: no completed case ran again
        assert set(resumed_runner.calls) == (
            {s.key for s in state.case_specs()} - completed
        )

        # coefficient-identical to an uninterrupted fill
        with FillRuntime(TrackingRunner(), durable=False) as rt3:
            reference = rt3.run_tree(tree24())
        assert fill_db(report) == fill_db(reference)
        assert len(fill_db(report)) == 24

    def test_resume_without_checkpoint_is_configuration_error(self):
        with FillRuntime(TrackingRunner(), durable=False) as rt:
            with pytest.raises(errors.ConfigurationError, match="resume"):
                rt.resume()


class TestCrashResume:
    """Acceptance: chaos worker-crash kills the campaign; the journal
    brings it back with zero recomputation and an identical database."""

    def test_worker_crash_aborts_with_partial_report(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        chaos = ChaosPolicy(seed=3, crash_rate=0.15)
        tree = tree24()
        with FillRuntime(
            TrackingRunner(), cpus_per_case=512, durable=False,
            chaos=chaos, checkpoint=CampaignCheckpoint(journal),
        ) as rt:
            with pytest.raises(errors.CampaignAborted) as info:
                rt.run_tree(tree)
        report = info.value.report
        assert report is not None
        assert report.crashed == 1
        assert not report.ok()
        kinds = [e.kind for e in report.events]
        assert "chaos" in kinds and "crash" in kinds and "abort" in kinds

    def test_crashed_campaign_resumes_to_identical_database(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        tree = tree24()
        first = TrackingRunner()
        with FillRuntime(
            first, cpus_per_case=512, durable=False,
            chaos=ChaosPolicy(seed=3, crash_rate=0.15),
            checkpoint=CampaignCheckpoint(journal),
        ) as rt:
            with pytest.raises(errors.CampaignAborted):
                rt.run_tree(tree)

        state = CampaignCheckpoint.load(journal)
        completed = state.completed
        second = TrackingRunner()
        with FillRuntime(second, durable=False) as rt2:  # chaos off: node fixed
            report = rt2.resume(checkpoint=journal)
        assert report.ok()
        assert report.restored == len(completed)
        assert not completed.intersection(second.calls)

        with FillRuntime(TrackingRunner(), durable=False) as rt3:
            reference = rt3.run_tree(tree)
        assert fill_db(report) == fill_db(reference)

    def test_truncated_journal_write_chaos(self, tmp_path):
        """truncate_rate tears a result append; the loader tolerates it
        and the affected case re-runs on resume."""
        journal = tmp_path / "campaign.jsonl"
        chaos = ChaosPolicy(seed=1, truncate_rate=0.2)
        with FillRuntime(
            TrackingRunner(), cpus_per_case=512, durable=False,
            chaos=chaos, checkpoint=CampaignCheckpoint(journal, chaos=chaos),
        ) as rt:
            rt.run_tree(tree24())
        with pytest.warns(RuntimeWarning, match="truncated final"):
            state = CampaignCheckpoint.load(journal)
        # the journal died at the first torn append: completions after it
        # are lost, so resume re-runs them — but never a surviving one
        assert len(state.completed) < 24
        second = TrackingRunner()
        with FillRuntime(second, durable=False) as rt2:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                report = rt2.resume(checkpoint=journal)
        assert report.ok()
        assert not state.completed.intersection(second.calls)
        assert len(fill_db(report)) == 24


class TestResumeTwice:
    """A journal classifies each case by its last event in append order:
    a resumed session's clock restarts near 0, so ordering by stamp let
    the interrupted session's stale events outrank the resumed ``done``s
    and a second resume re-ran every case the first one finished."""

    def test_second_resume_executes_nothing(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        with FillRuntime(
            TrackingRunner(), cpus_per_case=512, durable=False,
            chaos=ChaosPolicy(seed=3, crash_rate=0.15),
            checkpoint=CampaignCheckpoint(journal),
        ) as rt:
            # a long first session: every stamp it journals is later
            # than any the resumed session's fresh clock will write
            rt._clock = lambda: 1.0e6
            with pytest.raises(errors.CampaignAborted):
                rt.run_tree(tree24())
        second = TrackingRunner()
        with FillRuntime(
            second, durable=False, checkpoint=CampaignCheckpoint(journal),
        ) as rt2:
            first = rt2.resume()
        assert first.ok() and first.executed == len(second.calls) > 0
        state = CampaignCheckpoint.load(journal)
        assert len(state.completed) == 24 and state.interrupted == set()

        third = TrackingRunner()
        with FillRuntime(third, durable=False) as rt3:
            again = rt3.resume(checkpoint=journal)
        assert again.ok() and again.restored == 24
        assert again.executed == 0 and third.calls == []

    def test_refill_keeps_the_journaled_completions(self, tmp_path):
        """A re-fill's cache hits change no case's state."""
        journal = tmp_path / "campaign.jsonl"
        with FillRuntime(
            TrackingRunner(), durable=False,
            checkpoint=CampaignCheckpoint(journal),
        ) as rt:
            rt.run_tree(tree24())
            assert rt.run_tree(tree24()).cache_hits == 24
        state = CampaignCheckpoint.load(journal)
        assert len(state.completed) == 24 and state.in_flight == set()


class TestDegradationLadder:
    def _diverging_runner(self):
        def runner(spec, shared=None):
            raise errors.SolverDivergence(f"case {spec.key} diverges")

        runner.solver_name = "nsu3d"
        return runner

    def test_fallback_completes_case_and_marks_degraded(self):
        fallback = TrackingRunner()
        fallback.solver_name = "cart3d"
        with FillRuntime(
            self._diverging_runner(), durable=False, fallback=fallback,
            max_attempts=2, backoff_seconds=0.0,
        ) as rt:
            report = rt.run_tree(tree24())
        assert report.ok()
        assert report.failures == 0
        assert report.degraded == 24
        assert report.summary()["degraded"] == 24
        assert len(fallback.calls) == 24
        assert len(rt.store.degraded()) == 24
        assert all(o.result.degraded for o in report.outcomes)
        kinds = [e.kind for e in report.events]
        assert "fallback" in kinds

    def test_fallback_failure_surfaces_primary_error(self):
        def broken_fallback(spec, shared=None):
            raise RuntimeError("fallback broken too")

        with FillRuntime(
            self._diverging_runner(), durable=False,
            fallback=broken_fallback, max_attempts=2, backoff_seconds=0.0,
        ) as rt:
            out = rt.submit(CaseSpec(wind={"mach": 0.5})).outcome()
        assert out.state == "failed"
        assert "SolverDivergence" in out.error

    def test_healthy_cases_never_touch_the_fallback(self):
        fallback = TrackingRunner()
        with FillRuntime(
            TrackingRunner(), durable=False, fallback=fallback,
        ) as rt:
            report = rt.run_tree(tree24())
        assert report.degraded == 0
        assert fallback.calls == []

    def test_degraded_flag_survives_store_roundtrip(self):
        result = TrackingRunner()(CaseSpec(
            config={"flap": 0.0}, wind={"mach": 0.5}
        ))
        from dataclasses import replace

        degraded = replace(result, degraded=True)
        assert CaseResult.from_json(degraded.to_json()).degraded
        assert not CaseResult.from_json(result.to_json()).degraded


class TestDurableContract:
    def test_storeless_construction_warns(self):
        with pytest.warns(RuntimeWarning, match="durable=False"):
            rt = FillRuntime(TrackingRunner())
        rt.close()

    def test_durable_false_is_the_documented_escape_hatch(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rt = FillRuntime(TrackingRunner(), durable=False)
        assert rt.durable is False
        rt.close()

    def test_durable_true_without_store_fails_fast(self):
        with pytest.raises(errors.ConfigurationError, match="durable=True"):
            FillRuntime(TrackingRunner(), durable=True)

    def test_durable_true_with_memory_store_fails_fast(self):
        with pytest.raises(errors.ConfigurationError, match="in-memory"):
            FillRuntime(TrackingRunner(), durable=True, store=ResultStore())

    def test_durable_true_with_path_store_or_checkpoint(self, tmp_path):
        rt = FillRuntime(
            TrackingRunner(), durable=True,
            store=ResultStore(tmp_path / "r.jsonl"),
        )
        assert rt.durable
        rt.close()
        rt2 = FillRuntime(
            TrackingRunner(), durable=True, store=ResultStore(),
            checkpoint=CampaignCheckpoint(tmp_path / "j.jsonl"),
        )
        assert rt2.durable
        rt2.close()


class TestResumeCLI:
    def _journaled_campaign(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        store = tmp_path / "results.jsonl"
        runner = TrackingRunner()
        with FillRuntime(
            runner, store=ResultStore(store),
            checkpoint=CampaignCheckpoint(journal),
        ) as rt:
            rt.run_tree(tree24())
        return journal, store

    def test_status_prints_campaign_ledger(self, tmp_path, capsys):
        from repro.database.__main__ import main

        journal, _ = self._journaled_campaign(tmp_path)
        assert main(["status", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "completed" in out and "24" in out

    def test_resume_requires_reconstructible_runner(self, tmp_path):
        """A fake-runner campaign has no manifest runner description —
        the CLI refuses with a pointer to in-process resume."""
        from repro.database.__main__ import main

        journal, store = self._journaled_campaign(tmp_path)
        with pytest.raises(errors.ConfigurationError, match="in-process"):
            main(["resume", str(journal), "--store", str(store)])

    def test_resume_completes_real_cart3d_campaign(self, tmp_path, capsys):
        """End to end through the CLI: a real (tiny) Cart3D campaign is
        journaled, then resumed from disk — everything restores, nothing
        recomputes."""
        from repro.database.__main__ import main
        from repro.database.runner import Cart3DCaseRunner
        from repro.mesh.cartesian import wing_body

        journal = tmp_path / "campaign.jsonl"
        store = tmp_path / "results.jsonl"
        runner = Cart3DCaseRunner(
            wing_body(), dim=2, base_level=3, max_level=4, mg_levels=2,
            cycles=5, geometry_name="wing_body",
        )
        study = StudyDefinition(
            config_space=ParameterSpace(axes=(Axis("aileron", (0.0,)),)),
            wind_space=ParameterSpace(axes=(Axis("mach", (0.4, 0.5)),)),
        )
        with FillRuntime(
            runner, store=ResultStore(store),
            checkpoint=CampaignCheckpoint(journal),
        ) as rt:
            report = rt.run_tree(build_job_tree(study))
        assert report.ok() and report.executed == 2

        # geometry events carry geometry-instance keys; they must not
        # register as in-flight cases on a completed journal
        state = CampaignCheckpoint.load(journal)
        assert state.in_flight == set()
        assert state.interrupted == set()

        assert main(["resume", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "resumed" in out
        # the store already held both results: resume executed nothing
        assert "executed" in out

    def test_manifest_records_runner_description(self, tmp_path):
        from repro.database.runner import Cart3DCaseRunner
        from repro.mesh.cartesian import wing_body

        runner = Cart3DCaseRunner(
            wing_body(), dim=2, geometry_name="wing_body"
        )
        desc = runner.describe()
        assert desc["type"] == "cart3d"
        assert desc["geometry"] == "wing_body"
        assert desc["dim"] == 2

    def test_distributed_runner_round_trips_through_manifest(self):
        """A resumed case must run (and key) exactly as the interrupted
        one did: the rebuilt runner's settings equal the journaled ones,
        decomposition included."""
        from repro.database.runner import Cart3DCaseRunner, rebuild_runner
        from repro.mesh.cartesian import wing_body
        from repro.runtime import RuntimeConfig

        runner = Cart3DCaseRunner(
            wing_body(), dim=2, cycles=5, geometry_name="wing_body",
            config=RuntimeConfig(backend="process", nranks=2, overlap=True),
        )
        # through JSON, as the journal stores it
        manifest = json.loads(json.dumps({"runner": runner.describe()}))
        rebuilt = rebuild_runner(manifest["runner"])
        assert rebuilt.settings() == runner.settings()
        assert rebuilt.settings()["nranks"] == 2
        assert rebuilt.config == runner.config


class TestTelemetryCrashSpans:
    def test_crash_closes_scheduler_and_attempt_spans(self):
        from repro.telemetry import Timeline
        from repro.telemetry.collect import add_fill_events

        with FillRuntime(
            TrackingRunner(), cpus_per_case=512, durable=False,
            chaos=ChaosPolicy(seed=3, crash_rate=0.15),
        ) as rt:
            with pytest.raises(errors.CampaignAborted) as info:
                rt.run_tree(tree24())
        timeline = add_fill_events(Timeline(), info.value.report.events)
        sched = [e for e in timeline.spans() if e.cat == "scheduler"]
        crashed = [e for e in sched if e.args.get("outcome") == "crash"]
        assert len(crashed) == 1
        attempts = [e for e in timeline.spans() if e.cat == "fill"]
        assert any(e.args.get("outcome") == "crash" for e in attempts)

    def test_resume_event_lands_on_the_timeline(self, tmp_path):
        from repro.telemetry import Timeline
        from repro.telemetry.collect import add_fill_events

        journal = tmp_path / "campaign.jsonl"
        with FillRuntime(
            TrackingRunner(), durable=False,
            checkpoint=CampaignCheckpoint(journal),
        ) as rt:
            rt.run_tree(tree24())
        events = []
        with FillRuntime(
            TrackingRunner(), durable=False, on_event=events.append
        ) as rt2:
            rt2.resume(checkpoint=journal)
        timeline = add_fill_events(Timeline(), events)
        instants = [
            e for e in timeline.events
            if e.kind == "instant" and e.name == "resume"
        ]
        assert len(instants) == 1
        assert instants[0].args["restored"] == 24
