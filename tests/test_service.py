"""Tests for the aero-database query service (repro.service).

Covers the full tier ladder — exact, single-flight coalescing,
surrogate interpolation, admitted solves — plus per-tenant fair-share
admission with typed load shedding, the awaitable CaseHandle bridge,
kill → restart → zero-recomputation recovery through the checkpoint
journal, the CLI, and the telemetry hot-path instrumentation.
"""

import asyncio
import gc
import hashlib
import json
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.database.checkpoint import CampaignCheckpoint
from repro.database.chaos import ChaosPolicy
from repro.database.handles import CaseHandle
from repro.database.resultstore import ResultStore
from repro.database.runtime import FillRuntime
from repro.errors import (
    CaseTimeout,
    ConfigurationError,
    ServiceOverloaded,
)
from repro.service import (
    AdmissionController,
    DatabaseService,
    PointQuery,
    SurrogateConfig,
    TenantQuota,
    interpolate,
)
from repro.service import surrogate
from repro.service.__main__ import SyntheticRunner, main as service_main
from repro.solvers.interface import CaseResult, CaseSpec
from repro.telemetry import capture


class TrackingRunner(SyntheticRunner):
    """Synthetic runner recording every executed case key."""

    def __init__(self, delay: float = 0.0):
        super().__init__(delay=delay)
        self.calls = []
        self._lock = threading.Lock()

    def __call__(self, spec, shared=None):
        with self._lock:
            self.calls.append(spec.key)
        return super().__call__(spec, shared)


class GatedRunner(TrackingRunner):
    """Runner that parks on an event until the test releases it."""

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.entered = threading.Event()

    def __call__(self, spec, shared=None):
        self.entered.set()
        assert self.gate.wait(timeout=30.0), "test never released the gate"
        return super().__call__(spec, shared)


def make_runtime(runner, *, slots_cpus=128, checkpoint=None,
                 store=None, **kwargs):
    return FillRuntime(
        runner,
        nnodes=1,
        cpus_per_case=slots_cpus,
        store=store if store is not None else ResultStore(),
        durable=False if (store is None and checkpoint is None) else None,
        checkpoint=checkpoint,
        **kwargs,
    )


def fill_grid(service, machs=(0.4, 0.5, 0.6), alphas=(0.0, 2.0, 4.0)):
    """Solve a small wind grid through the service (prefill)."""

    async def drive():
        for mach in machs:
            for alpha in alphas:
                await service.query(PointQuery(mach=mach, alpha=alpha))

    asyncio.run(drive())


def synth_result(mach, alpha, **spec_kwargs):
    spec = CaseSpec(
        wind={"mach": mach, "alpha": alpha},
        solver=spec_kwargs.pop("solver", "synthetic"),
        **spec_kwargs,
    )
    return CaseResult(
        spec=spec,
        coefficients=SyntheticRunner.coefficients(mach, alpha),
    )


class TestPointIndex:
    def test_nearest_orders_by_normalized_distance(self):
        store = ResultStore()
        for mach, alpha in [(0.4, 0.0), (0.5, 2.0), (0.6, 4.0), (0.4, 4.0)]:
            store.put(synth_result(mach, alpha))
        probe = CaseSpec(
            wind={"mach": 0.5, "alpha": 2.1}, solver="synthetic"
        )
        neighbors = store.nearest(probe, k=4)
        assert len(neighbors) == 4
        distances = [d for d, _ in neighbors]
        assert distances == sorted(distances)
        # (0.5, 2.0) is by far the closest point
        assert neighbors[0][1].spec.wind_params == {
            "mach": 0.5, "alpha": 2.0
        }

    def test_index_maintained_on_put(self):
        store = ResultStore()
        probe = CaseSpec(
            wind={"mach": 0.45, "alpha": 1.0}, solver="synthetic"
        )
        assert store.nearest(probe) == []
        assert store.group_size(probe) == 0
        store.put(synth_result(0.4, 1.0))
        assert store.group_size(probe) == 1
        assert len(store.nearest(probe)) == 1

    def test_exact_point_excluded_from_neighbors(self):
        store = ResultStore()
        result = synth_result(0.5, 2.0)
        store.put(result)
        store.put(synth_result(0.6, 2.0))
        neighbors = store.nearest(result.spec, k=4)
        assert [r.spec.key for _, r in neighbors] != [result.spec.key]
        assert len(neighbors) == 1

    def test_groups_do_not_mix(self):
        """Different config instance or solver settings are different
        neighbor groups: interpolating across them would be nonsense."""
        store = ResultStore()
        store.put(synth_result(0.4, 1.0, config={"flap": 5.0}))
        store.put(synth_result(0.5, 1.0, settings={"cycles": 50}))
        probe = CaseSpec(
            wind={"mach": 0.45, "alpha": 1.0}, solver="synthetic"
        )
        assert store.nearest(probe, k=4) == []

    def test_mismatched_wind_axes_excluded(self):
        store = ResultStore()
        store.put(synth_result(0.4, 1.0))
        probe = CaseSpec(
            wind={"mach": 0.45, "alpha": 1.0, "beta": 2.0},
            solver="synthetic",
        )
        assert store.nearest(probe, k=4) == []

    def test_index_rebuilt_from_persisted_lines(self, tmp_path):
        path = tmp_path / "store.jsonl"
        first = ResultStore(path)
        first.put(synth_result(0.4, 1.0))
        first.put(synth_result(0.5, 1.0))
        reloaded = ResultStore(path)
        probe = CaseSpec(
            wind={"mach": 0.45, "alpha": 1.0}, solver="synthetic"
        )
        assert len(reloaded.nearest(probe, k=4)) == 2

    def test_nearest_hashes_only_the_query_key(self, count_calls):
        """On a 1 000-record store a lookup derives no stored key: the
        only hash is the query's own, for excluding its exact point."""
        store = ResultStore()
        for i in range(1000):
            store.put(synth_result(0.3 + 0.5 * (i % 32) / 32,
                                   10.0 * (i // 32) / 32))
        store.nearest(synth_result(0.3, 0.0).spec, k=6)   # lazy build
        calls = count_calls(hashlib, "sha256")
        stored = synth_result(0.3 + 0.5 * 5 / 32, 10.0 * 7 / 32).spec
        neighbors = store.nearest(stored, k=6)
        assert len(neighbors) == 6 and len(calls) == 1
        assert stored.key not in [r.spec.key for _, r in neighbors]
        store.nearest(stored, k=6)
        store.nearest(CaseSpec(wind={"mach": 0.512, "alpha": 3.3},
                               solver="synthetic"), k=6)
        assert len(calls) == 1


def _wind_distance(a: dict, b: dict, scales: dict) -> float | None:
    """Scalar per-candidate distance (oracle): None unless both points
    span the same axes with equal non-numeric values; else the
    normalized Euclidean distance, squared with ``**``."""
    if set(a) != set(b):
        return None
    total = 0.0
    for name, va in a.items():
        vb = b[name]
        if not isinstance(va, (int, float)) or not isinstance(vb, (int, float)):
            if va != vb:
                return None
            continue
        scale = scales.get(name, 1.0)
        total += ((float(va) - float(vb)) / scale) ** 2
    return math.sqrt(total)


class ScanIndex:
    """Oracle point index: every query scans its group, keying and
    scoring each candidate in turn."""

    def __init__(self):
        self.results = {}
        self.points = {}

    def put(self, result):
        spec = result.spec
        self.results[spec.key] = result
        group = self.points.setdefault(
            (spec.solver, spec.config, spec.settings), {}
        )
        group[spec.wind] = spec.key

    def nearest(self, spec, k):
        query = spec.wind_params
        group = self.points.get((spec.solver, spec.config, spec.settings))
        if not group:
            return []
        candidates = [(dict(wind), key) for wind, key in group.items()
                      if key != spec.key]
        scales = {}
        for name, value in query.items():
            if not isinstance(value, (int, float)):
                continue
            values = [float(value)] + [
                float(wind[name]) for wind, _ in candidates
                if isinstance(wind.get(name), (int, float))
            ]
            spread = max(values) - min(values)
            scales[name] = spread if spread > 0.0 else 1.0
        scored = []
        for wind, key in candidates:
            distance = _wind_distance(query, wind, scales)
            if distance is not None:
                scored.append((distance, key))
        scored.sort(key=lambda pair: pair[0])
        return [(d, self.results[key]) for d, key in scored[:k]]


# grid values re-put points; ints meet equal floats (1 == 1.0, two keys)
AXIS_VALUES = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    st.integers(-1, 3),
    st.floats(-2.0, 4.0, allow_nan=False),
)


@st.composite
def wind_points(draw):
    wind = {"mach": draw(AXIS_VALUES), "alpha": draw(AXIS_VALUES)}
    if draw(st.booleans()):
        wind["beta"] = draw(AXIS_VALUES)
    if draw(st.integers(0, 3)) == 0:
        wind["regime"] = draw(st.sampled_from(["cruise", "landing"]))
    return wind


CONFIGS = ({}, {"flap": 5.0})


class TestPointIndexProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        puts=st.lists(
            st.tuples(st.sampled_from(CONFIGS), wind_points()),
            min_size=1, max_size=30,
        ),
        queries=st.lists(
            st.tuples(
                st.one_of(st.integers(0, 29),
                          st.tuples(st.sampled_from(CONFIGS), wind_points())),
                st.integers(1, 40),
            ),
            min_size=1, max_size=8,
        ),
    )
    def test_columnar_index_matches_the_scan(self, tmp_path_factory,
                                             puts, queries):
        path = tmp_path_factory.mktemp("index") / "store.jsonl"
        store, oracle = ResultStore(path), ScanIndex()
        for i, (config, wind) in enumerate(puts):
            result = CaseResult(
                spec=CaseSpec(config=config, wind=wind, solver="synthetic"),
                coefficients={"cl": float(i)},
            )
            store.put(result)
            oracle.put(result)
        specs = []
        for target, k in queries:
            if isinstance(target, int):     # a stored point: excluded
                config, wind = puts[target % len(puts)]
            else:
                config, wind = target
            specs.append((CaseSpec(config=config, wind=wind,
                                   solver="synthetic"), k))
        for index in (store, ResultStore(path)):
            for spec, k in specs:
                got, want = index.nearest(spec, k), oracle.nearest(spec, k)
                assert [(r.spec.key, r.coefficients) for _, r in got] == [
                    (r.spec.key, r.coefficients) for _, r in want
                ]
                assert spec.key not in [r.spec.key for _, r in got]
                for (a, _), (b, _) in zip(got, want):
                    assert abs(a - b) <= 2 * math.ulp(b)


class TestCaseHandleBridge:
    def test_result_timeout_raises_case_timeout(self):
        runner = GatedRunner()
        with make_runtime(runner) as runtime:
            handle = runtime.submit(
                CaseSpec(wind={"mach": 0.5, "alpha": 1.0},
                         solver="synthetic")
            )
            with pytest.raises(CaseTimeout):
                handle.result(timeout=0.05)
            runner.gate.set()
            result = handle.result(timeout=10.0)
            assert result.converged

    def test_await_handle_resolves_on_event_loop(self):
        runner = TrackingRunner()
        with make_runtime(runner) as runtime:
            async def drive():
                handle = runtime.submit(
                    CaseSpec(wind={"mach": 0.5, "alpha": 1.0},
                             solver="synthetic")
                )
                outcome = await handle
                return outcome

            outcome = asyncio.run(drive())
            assert outcome.state == "done"
            assert outcome.result is not None

    def test_async_wait_timeout_then_success(self):
        runner = GatedRunner()
        with make_runtime(runner) as runtime:
            async def drive():
                handle = runtime.submit(
                    CaseSpec(wind={"mach": 0.5, "alpha": 1.0},
                             solver="synthetic")
                )
                with pytest.raises(CaseTimeout):
                    await handle.wait(timeout=0.05)
                # the timeout abandoned the wait, not the case
                runner.gate.set()
                outcome = await handle.wait(timeout=10.0)
                return outcome

            assert asyncio.run(drive()).state == "done"


class TestQuerySurface:
    def test_point_query_canonicalizes_config(self):
        a = PointQuery(mach=0.5, alpha=1.0,
                       config={"flap": 5.0, "aileron": 2.0})
        b = PointQuery(mach=0.5, alpha=1.0,
                       config={"aileron": 2.0, "flap": 5.0})
        assert a.spec().key == b.spec().key

    def test_beta_optional(self):
        two_axis = PointQuery(mach=0.5, alpha=1.0)
        three_axis = PointQuery(mach=0.5, alpha=1.0, beta=2.0)
        assert "beta" not in two_axis.wind
        assert three_axis.wind["beta"] == 2.0
        assert two_axis.spec().key != three_axis.spec().key

    def test_response_json_roundtrip(self):
        runner = TrackingRunner()
        with make_runtime(runner) as runtime:
            service = DatabaseService(runtime)

            async def drive():
                return await service.query(PointQuery(mach=0.5, alpha=1.0))

            response = asyncio.run(drive())
            record = json.loads(json.dumps(response.to_json()))
            assert record["source"] == "solve"
            assert record["wind"] == {"mach": 0.5, "alpha": 1.0}
            assert set(record["coefficients"]) == {"cl", "cd", "cm"}


class TestCoalescing:
    def test_identical_concurrent_queries_cost_one_solve(self):
        runner = GatedRunner()
        with make_runtime(runner) as runtime:
            service = DatabaseService(
                runtime, surrogate=SurrogateConfig(max_distance=0.0)
            )

            async def drive():
                query = PointQuery(mach=0.5, alpha=2.0)
                tasks = [
                    asyncio.create_task(service.query(query))
                    for _ in range(8)
                ]
                # all eight are parked on one in-flight solve
                assert await asyncio.to_thread(runner.entered.wait, 5.0)
                assert len(service._inflight) == 1
                runner.gate.set()
                return await asyncio.gather(*tasks)

            responses = asyncio.run(drive())
        assert len(runner.calls) == 1
        assert sum(r.coalesced for r in responses) == 7
        assert {r.source for r in responses} == {"solve"}
        assert service.counters.coalesced == 7
        assert service.counters.solved == 1

    def test_sequential_identical_queries_hit_the_store(self):
        runner = TrackingRunner()
        with make_runtime(runner) as runtime:
            service = DatabaseService(runtime)

            async def drive():
                first = await service.query(PointQuery(mach=0.5, alpha=2.0))
                second = await service.query(PointQuery(mach=0.5, alpha=2.0))
                return first, second

            first, second = asyncio.run(drive())
        assert first.source == "solve"
        assert second.source == "exact"
        assert len(runner.calls) == 1


class TestSurrogate:
    def test_interpolation_tagged_with_error_estimate(self):
        runner = TrackingRunner()
        with make_runtime(runner) as runtime:
            service = DatabaseService(runtime)
            fill_grid(service)
            solved = len(runner.calls)

            async def drive():
                return await service.query(
                    PointQuery(mach=0.45, alpha=1.5)
                )

            response = asyncio.run(drive())
        assert response.source == "surrogate"
        assert response.neighbors >= 3
        assert response.error_estimate > 0.0
        assert len(runner.calls) == solved  # no new solve
        # the estimate bounds the actual miss on this smooth surface
        exact = SyntheticRunner.coefficients(0.45, 1.5)
        actual = max(
            abs(response.coefficients[k] - exact[k]) for k in exact
        )
        assert actual <= response.error_estimate

    def test_too_few_neighbors_falls_through_to_solve(self):
        runner = TrackingRunner()
        with make_runtime(runner) as runtime:
            service = DatabaseService(runtime)
            fill_grid(service, machs=(0.4,), alphas=(0.0, 2.0))

            async def drive():
                return await service.query(PointQuery(mach=0.4, alpha=1.0))

            response = asyncio.run(drive())
        assert response.source == "solve"

    def test_max_error_demotes_to_solve(self):
        runner = TrackingRunner()
        with make_runtime(runner) as runtime:
            service = DatabaseService(
                runtime,
                surrogate=SurrogateConfig(max_error=1.0e-12),
            )
            fill_grid(service)

            async def drive():
                return await service.query(
                    PointQuery(mach=0.45, alpha=1.5)
                )

            assert asyncio.run(drive()).source == "solve"

    def test_max_distance_gates_extrapolation(self):
        runner = TrackingRunner()
        with make_runtime(runner) as runtime:
            service = DatabaseService(runtime)
            fill_grid(service)

            async def drive():
                # far outside the filled grid: must solve, not extrapolate
                return await service.query(
                    PointQuery(mach=2.5, alpha=30.0)
                )

            assert asyncio.run(drive()).source == "solve"

    def test_linear_surface_recovered_exactly(self):
        neighbors = []
        for mach, alpha in [(0.4, 0.0), (0.6, 0.0), (0.4, 4.0), (0.6, 4.0)]:
            spec = CaseSpec(
                wind={"mach": mach, "alpha": alpha}, solver="synthetic"
            )
            neighbors.append((
                0.5,
                CaseResult(
                    spec=spec,
                    coefficients={"cl": 2.0 * mach + 0.1 * alpha},
                ),
            ))
        coefficients, error = interpolate(
            {"mach": 0.5, "alpha": 2.0}, neighbors, "linear"
        )
        assert coefficients["cl"] == pytest.approx(1.2, abs=1.0e-9)
        assert error == pytest.approx(0.0, abs=1.0e-9)

    def test_interpolate_validates_inputs(self):
        with pytest.raises(ConfigurationError):
            interpolate({"mach": 0.5}, [], "linear")
        with pytest.raises(ConfigurationError):
            interpolate({"mach": 0.5}, [(0.1, synth_result(0.4, 1.0))],
                        "cubic")
        with pytest.raises(ConfigurationError):
            SurrogateConfig(k=2, min_neighbors=3)


def refit_loo(coords, values):
    """Oracle: leave-one-out by refitting without each neighbor in turn
    (``_loo_error`` for sets of three or more before the closed form)."""
    worst = 0.0
    mask = np.ones(coords.shape[0], dtype=bool)
    for i in range(coords.shape[0]):
        mask[i] = False
        predicted = surrogate._predict(coords[mask], values[mask], coords[i])
        worst = max(worst, float(np.abs(predicted - values[i]).max()))
        mask[i] = True
    return worst


def leverages(coords):
    design = np.hstack([np.ones((coords.shape[0], 1)), coords])
    return np.diag(design @ np.linalg.pinv(design))


SAMPLES = st.floats(-5.0, 5.0, allow_nan=False)


class TestLeaveOneOut:
    @settings(max_examples=150, deadline=None)
    @given(
        ndim=st.integers(1, 3),
        extra=st.integers(1, 5),
        data=st.data(),
    )
    def test_closed_form_matches_refits(self, ndim, extra, data):
        n = ndim + 1 + extra
        coords = np.array(data.draw(st.lists(
            st.lists(st.floats(0.0, 1.0, allow_nan=False),
                     min_size=ndim, max_size=ndim),
            min_size=n, max_size=n,
        )))
        values = np.array(data.draw(st.lists(
            st.lists(SAMPLES, min_size=3, max_size=3),
            min_size=n, max_size=n,
        )))
        design = np.hstack([np.ones((n, 1)), coords])
        # non-degenerate: well conditioned, no neighbor carrying its refit
        assume(np.linalg.cond(design) < 1.0e4)
        assume(leverages(coords).max() < 1.0 - 1.0e-3)
        want = refit_loo(coords, values)
        assert surrogate._loo_closed_form(coords, values) is not None
        # relative to the miss, or to the samples where an affine
        # surface fits them exactly and both sides are round-off
        assert surrogate._loo_error(coords, values) == (
            pytest.approx(want, rel=1.0e-9,
                          abs=1.0e-9 * np.abs(values).max())
        )

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["collinear", "pinned", "few"]),
        n=st.integers(3, 7),
        start=st.tuples(SAMPLES, SAMPLES),
        step=st.tuples(SAMPLES, SAMPLES),
        values=st.lists(st.lists(SAMPLES, min_size=2, max_size=2),
                        min_size=7, max_size=7),
    )
    def test_degenerate_sets_take_the_refits(self, kind, n, start, step,
                                             values):
        """Collinear points, a neighbor whose removal leaves a collinear
        set (leverage 1) and too few points for affine refits all return
        the refit loop's value, bit for bit."""
        t = np.arange(n, dtype=np.float64)[:, None]
        coords = np.array(start) + t * np.array(step)
        if kind == "pinned":
            assume(n >= 4)
            coords[-1] += np.array([-step[1], step[0]])
        elif kind == "few":
            coords = coords[:3]
        assume(np.ptp(coords, axis=0).min() > 1.0e-3)
        assume(len(np.unique(coords, axis=0)) == len(coords))
        values = np.array(values[:len(coords)])
        want = refit_loo(coords, values)
        got = surrogate._loo_error(coords, values)
        assert got.hex() == want.hex()

    def test_interpolation_fits_once(self, count_calls):
        """Six non-degenerate neighbors: the prediction is the only
        least-squares fit; the error estimate refits nothing."""
        calls = count_calls(np.linalg, "lstsq")
        neighbors = [
            (0.1, synth_result(mach, alpha))
            for mach, alpha in [(0.4, 0.0), (0.5, 0.0), (0.6, 2.0),
                                (0.4, 4.0), (0.5, 4.0), (0.6, 0.0)]
        ]
        coefficients, error = interpolate(
            {"mach": 0.45, "alpha": 1.5}, neighbors, "linear"
        )
        assert len(calls) == 1
        assert error > 0.0 and set(coefficients) == {"cl", "cd", "cm"}


async def yield_until(predicate):
    """Let the loop run other tasks until ``predicate()`` holds — a
    clock-free replacement for 'sleep a few ms and hope'."""
    for _ in range(1000):
        if predicate():
            return
        await asyncio.sleep(0)
    raise AssertionError("condition never held")


class TestAdmission:
    def test_fair_share_across_tenants(self):
        """A burst from one tenant must not starve another's first
        query: the fewest-inflight tenant wins each freed slot."""

        async def drive():
            admission = AdmissionController(2, max_queue=10)
            order = []
            done = {tag: asyncio.Event()
                    for tag in ("a0", "a1", "a2", "a3", "b0")}

            async def hold(tenant, tag):
                await admission.acquire(tenant)
                order.append(tag)
                await done[tag].wait()
                admission.release(tenant)

            burst = [
                asyncio.create_task(hold("a", f"a{i}")) for i in range(4)
            ]
            # a0/a1 granted, a2/a3 queued
            await yield_until(lambda: admission.queued == 2)
            late = asyncio.create_task(hold("b", "b0"))
            await yield_until(lambda: admission.queued == 3)
            done["a0"].set()  # one slot frees while a1 still holds one
            await yield_until(lambda: len(order) == 3)
            for event in done.values():
                event.set()
            await asyncio.gather(*burst, late)
            return order

        order = asyncio.run(drive())
        assert order[:2] == ["a0", "a1"]
        # b0 arrived last but overtakes tenant a's queued backlog
        assert order.index("b0") < order.index("a2")

    def test_priority_breaks_ties(self):
        """Sequenced by loop yields, not by the clock: b0 is queued
        before vip0 arrives, and nothing is released until both wait."""

        async def drive():
            admission = AdmissionController(
                1,
                max_queue=10,
                quotas={"vip": TenantQuota(priority=5)},
            )
            order = []
            go = asyncio.Event()

            async def hold(tenant, tag):
                await admission.acquire(tenant)
                order.append(tag)
                await go.wait()
                admission.release(tenant)

            first = asyncio.create_task(hold("a", "a0"))
            await yield_until(lambda: admission.busy == 1)
            queued = [asyncio.create_task(hold("b", "b0"))]
            await yield_until(lambda: admission.queued == 1)
            queued.append(asyncio.create_task(hold("vip", "vip0")))
            await yield_until(lambda: admission.queued == 2)
            go.set()
            await asyncio.gather(first, *queued)
            return order

        assert asyncio.run(drive()) == ["a0", "vip0", "b0"]

    def test_full_queue_sheds_with_typed_error(self):
        async def drive():
            admission = AdmissionController(1, max_queue=1)
            await admission.acquire("a")  # occupies the slot
            parked = asyncio.create_task(admission.acquire("b"))
            await yield_until(lambda: admission.queued == 1)  # queue full
            with pytest.raises(ServiceOverloaded) as info:
                await admission.acquire("c")
            assert info.value.tenant == "c"
            assert info.value.queued == 1
            assert admission.shed == 1
            admission.release("a")
            await parked
            admission.release("b")
            return admission.snapshot()

        snapshot = asyncio.run(drive())
        assert snapshot["busy"] == 0
        assert snapshot["granted"] == 2
        assert snapshot["shed"] == 1

    def test_cancelled_waiter_does_not_leak(self):
        async def drive():
            admission = AdmissionController(1, max_queue=4)
            await admission.acquire("a")
            parked = asyncio.create_task(admission.acquire("b"))
            await yield_until(lambda: admission.queued == 1)
            parked.cancel()
            with pytest.raises(asyncio.CancelledError):
                await parked
            assert admission.queued == 0
            admission.release("a")
            # the slot is free again for anyone
            await admission.acquire("c")
            admission.release("c")

        asyncio.run(drive())

    def test_release_without_grant_raises(self):
        admission = AdmissionController(1)
        with pytest.raises(ConfigurationError):
            admission.release("nobody")

    def test_service_sheds_and_counts(self, tmp_path):
        """A shed solve-tier query raises ServiceOverloaded, increments
        the counter, and is NOT journaled as accepted."""
        journal = tmp_path / "svc.jsonl"
        runner = GatedRunner()
        with make_runtime(
            runner, slots_cpus=512,  # capacity 1
            checkpoint=CampaignCheckpoint(journal),
        ) as runtime:
            service = DatabaseService(
                runtime,
                max_queue=0,
                surrogate=SurrogateConfig(max_distance=0.0),
            )

            async def drive():
                leader = asyncio.create_task(
                    service.query(PointQuery(mach=0.5, alpha=1.0,
                                             tenant="a"))
                )
                assert await asyncio.to_thread(runner.entered.wait, 5.0)
                with pytest.raises(ServiceOverloaded):
                    await service.query(
                        PointQuery(mach=0.6, alpha=2.0, tenant="b")
                    )
                runner.gate.set()
                return await leader

            response = asyncio.run(drive())
        assert response.source == "solve"
        assert service.counters.shed == 1
        accepted = [
            json.loads(line)
            for line in journal.read_text().splitlines()
            if '"query"' in line
        ]
        accepted = [
            r for r in accepted
            if r.get("record") == "event" and r.get("kind") == "query"
        ]
        assert len(accepted) == 1
        assert accepted[0]["info"]["tenant"] == "a"

    def test_cached_tier_answers_while_solve_occupies_the_slot(self):
        """The acceptance criterion 'no query waits behind an unrelated
        tenant's full solve': with the only slot busy, exact and
        surrogate answers still return immediately."""
        runner = GatedRunner()
        with make_runtime(runner, slots_cpus=512) as runtime:
            # prefill the store directly so the gated runner never runs
            for mach in (0.4, 0.5, 0.6):
                for alpha in (0.0, 2.0, 4.0):
                    runtime.store.put(synth_result(mach, alpha))
            service = DatabaseService(runtime)

            async def drive():
                blocked = asyncio.create_task(
                    service.query(PointQuery(mach=0.9, alpha=8.0,
                                             tenant="slow"))
                )
                assert await asyncio.to_thread(runner.entered.wait, 5.0)
                exact = await asyncio.wait_for(
                    service.query(PointQuery(mach=0.5, alpha=2.0,
                                             tenant="fast")),
                    timeout=1.0,
                )
                surrogate = await asyncio.wait_for(
                    service.query(PointQuery(mach=0.45, alpha=1.5,
                                             tenant="fast")),
                    timeout=1.0,
                )
                runner.gate.set()
                await blocked
                return exact, surrogate

            exact, surrogate = asyncio.run(drive())
        assert exact.source == "exact"
        assert surrogate.source == "surrogate"


class TestRestart:
    def test_kill_restart_recovers_without_recomputation(self, tmp_path):
        journal = tmp_path / "svc.jsonl"
        first_runner = TrackingRunner()
        runtime = make_runtime(
            first_runner, checkpoint=CampaignCheckpoint(journal)
        )
        service = DatabaseService(runtime)
        completed = [(0.4, 0.0), (0.5, 2.0), (0.6, 4.0)]
        lost = [(0.45, 1.0), (0.55, 3.0)]

        async def first_session():
            for mach, alpha in completed:
                await service.query(PointQuery(mach=mach, alpha=alpha))
            # "kill": the pool dies with queries accepted but unrun —
            # the journal has their query events, no terminal events
            runtime.close()
            for mach, alpha in lost:
                with pytest.raises(Exception):
                    await service.query(PointQuery(mach=mach, alpha=alpha))

        asyncio.run(first_session())
        assert len(first_runner.calls) == 3

        second_runner = TrackingRunner()
        with make_runtime(
            second_runner, checkpoint=CampaignCheckpoint(journal)
        ) as revived_runtime:
            revived = DatabaseService(revived_runtime)
            recovery = revived.recover()
            assert recovery["restored"] == 3
            assert len(recovery["resubmitted"]) == 2

            async def second_session():
                responses = []
                for mach, alpha in completed + lost:
                    responses.append(
                        await revived.query(
                            PointQuery(mach=mach, alpha=alpha)
                        )
                    )
                return responses

            responses = asyncio.run(second_session())
        # completed cases answer exact from the restored store; the
        # lost ones were resubmitted by recover() and each ran once
        assert [r.source for r in responses[:3]] == ["exact"] * 3
        assert len(second_runner.calls) == 2
        everything = first_runner.calls + second_runner.calls
        assert len(everything) == len(set(everything)) == 5

    def test_recover_without_checkpoint_raises(self):
        with make_runtime(TrackingRunner()) as runtime:
            service = DatabaseService(runtime)
            with pytest.raises(ConfigurationError):
                service.recover()

    def test_torn_result_line_reruns_that_case(self, tmp_path):
        """Chaos-torn journal (the PR-4 harness): a completed case whose
        result append was truncated is not 'completed' — recovery
        resubmits it instead of trusting half a record."""
        journal = tmp_path / "torn.jsonl"
        chaos = ChaosPolicy(seed=7, truncate_rate=1.0)
        runner = TrackingRunner()
        with make_runtime(
            runner, checkpoint=CampaignCheckpoint(journal, chaos=chaos)
        ) as runtime:
            service = DatabaseService(runtime)

            async def drive():
                return await service.query(PointQuery(mach=0.5, alpha=1.0))

            asyncio.run(drive())
        second = TrackingRunner()
        with pytest.warns(RuntimeWarning):
            with make_runtime(
                second, checkpoint=CampaignCheckpoint(journal)
            ) as revived_runtime:
                revived = DatabaseService(revived_runtime)
                recovery = revived.recover()
                assert recovery["restored"] == 0
                assert len(recovery["resubmitted"]) == 1


class TestRetention:
    def test_misses_leave_no_handle_behind(self):
        """Every true miss solves, and afterwards the store is the only
        record of it: no ``CaseHandle`` outlives its case, and the
        bytes each miss retains stay bounded."""
        misses = 500

        def queries(lo, hi):
            return [PointQuery(mach=0.3 + 1e-4 * i, alpha=1.0)
                    for i in range(lo, hi)]

        async def drive(batch):
            for query in batch:
                await service.query(query)

        with make_runtime(SyntheticRunner()) as runtime:
            service = DatabaseService(
                runtime, surrogate=SurrogateConfig(max_distance=0.0)
            )
            asyncio.run(drive(queries(0, 20)))  # warm every code path
            batch = queries(20, 20 + misses)
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.take_snapshot()
                asyncio.run(drive(batch))
                gc.collect()
                after = tracemalloc.take_snapshot()
            finally:
                tracemalloc.stop()
            assert service.counters.solved == 20 + misses
            keys = {service.spec_for(q).key for q in batch}
            live = [o for o in gc.get_objects()
                    if isinstance(o, CaseHandle) and o.key in keys]
            assert live == []
        retained = sum(
            stat.size_diff for stat in after.compare_to(before, "filename")
        )
        assert retained / misses <= 4500


class TestTelemetry:
    def test_query_spans_and_latency_recorded(self):
        runner = TrackingRunner()
        with capture() as tracer:
            with make_runtime(runner) as runtime:
                service = DatabaseService(runtime, tracer=tracer)

                async def drive():
                    await service.query(PointQuery(mach=0.5, alpha=1.0))
                    await service.query(PointQuery(mach=0.5, alpha=1.0))

                asyncio.run(drive())
        spans = [s for s in tracer.spans if s.name == "service.query"]
        assert len(spans) == 2
        assert all(s.cat == "service" for s in spans)
        assert service.latency.count == 2
        assert service.latency.percentile(99.0) >= service.latency.min
        summary = service.latency.summary()
        assert summary["count"] == 2
        assert summary["p99_seconds"] >= summary["p50_seconds"] >= 0.0

    def test_counters_partition_queries(self):
        runner = TrackingRunner()
        with make_runtime(runner) as runtime:
            service = DatabaseService(runtime)
            fill_grid(service)

            async def drive():
                await service.query(PointQuery(mach=0.45, alpha=1.5))

            asyncio.run(drive())
        counters = service.counters
        assert counters.queries == (
            counters.exact + counters.surrogate + counters.coalesced
            + counters.solved + counters.shed + counters.failed
        )
        status = service.status()
        assert status["counters"]["hit_rate"] == pytest.approx(
            counters.hit_rate
        )
        assert status["admission"]["capacity"] == runtime.slots


class TestServiceCLI:
    def test_serve_status_query_roundtrip(self, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            "\n".join(
                json.dumps({"mach": 0.4 + 0.05 * i, "alpha": 1.0,
                            "tenant": "cli"})
                for i in range(4)
            )
            + "\n"
        )
        store = tmp_path / "store.jsonl"
        journal = tmp_path / "journal.jsonl"
        assert service_main([
            "serve", str(requests),
            "--store", str(store), "--journal", str(journal),
        ]) == 0
        out = capsys.readouterr().out
        lines = [json.loads(line) for line in out.splitlines()]
        assert sum("source" in record for record in lines) == 4
        assert lines[-1]["status"]["counters"]["queries"] == 4

        assert service_main(["status", str(journal)]) == 0
        ledger = json.loads(capsys.readouterr().out)
        assert ledger["accepted"] == 4
        assert ledger["pending"] == []

        # offline exact hit
        assert service_main(["query", str(store), "0.4", "1.0"]) == 0
        exact = json.loads(capsys.readouterr().out)
        assert exact["source"] == "exact"
        # offline surrogate between stored points
        assert service_main(["query", str(store), "0.47", "1.0"]) == 0
        surrogate = json.loads(capsys.readouterr().out)
        assert surrogate["source"] == "surrogate"
        assert surrogate["error_estimate"] >= 0.0
        # true miss: non-zero exit
        assert service_main(["query", str(store), "0.9", "9.0"]) == 1

    def test_serve_recover_resumes_journal(self, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps({"mach": 0.5, "alpha": 2.0}) + "\n"
        )
        store = tmp_path / "store.jsonl"
        journal = tmp_path / "journal.jsonl"
        assert service_main([
            "serve", str(requests), "--store", str(store),
            "--journal", str(journal),
        ]) == 0
        capsys.readouterr()
        # second session recovers the journal, then answers exact
        assert service_main([
            "serve", str(requests), "--store", str(store),
            "--journal", str(journal), "--recover",
        ]) == 0
        out = capsys.readouterr().out
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[0]["recovered"]["resubmitted"] == []
        answered = [r for r in lines if "source" in r]
        assert [r["source"] for r in answered] == ["exact"]
