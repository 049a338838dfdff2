"""Tests for the repo-specific AST lint pass."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import RULES, lint_paths, lint_source
from repro.analysis.__main__ import main as lint_main


def diags_for(text, path, select=None):
    return lint_source(text, Path(path), select=select)


class TestWallClockRule:
    def test_time_time_flagged_in_comm(self):
        src = "import time\n\ndef f():\n    return time.time()\n"
        diags = diags_for(src, "src/repro/comm/bad.py")
        assert [d.rule for d in diags] == ["R001"]
        assert diags[0].line == 4
        assert "time.time" in diags[0].message

    def test_perf_counter_from_import_and_alias(self):
        src = (
            "from time import perf_counter as pc\n"
            "import time as t\n"
            "x = pc()\n"
            "y = t.monotonic()\n"
        )
        diags = diags_for(src, "src/repro/perf/bad.py")
        assert [d.rule for d in diags] == ["R001", "R001"]

    def test_not_flagged_outside_virtual_time_modules(self):
        # mesh is outside both the R001 (comm/perf) and R006
        # (solvers/comm/database) segment sets
        src = "import time\nx = time.time()\n"
        assert diags_for(src, "src/repro/mesh/unstructured/dual.py") == []

    def test_noqa_suppresses(self):
        src = "import time\nx = time.time()  # noqa: wall clock for logs\n"
        assert diags_for(src, "src/repro/comm/ok.py") == []


class TestAdhocInstrumentationRule:
    def test_wall_clock_flagged_in_database(self):
        src = "import time\n\ndef f():\n    return time.monotonic()\n"
        diags = diags_for(src, "src/repro/database/runtime.py")
        assert [d.rule for d in diags] == ["R006"]
        assert "EpochClock" in diags[0].message

    def test_wall_clock_flagged_in_solvers(self):
        src = "from time import perf_counter\nt = perf_counter()\n"
        diags = diags_for(src, "src/repro/solvers/nsu3d/solver.py")
        assert [d.rule for d in diags] == ["R006"]

    def test_no_double_report_where_r001_applies(self):
        """In comm both R001 and R006 are active; a wall-clock call must
        yield exactly one diagnostic (R001 takes precedence)."""
        src = "import time\nx = time.time()\n"
        diags = diags_for(src, "src/repro/comm/bad.py")
        assert [d.rule for d in diags] == ["R001"]

    def test_print_flagged_in_hot_paths(self):
        src = "def f(r):\n    print('residual', r)\n"
        for seg in ("solvers/cart3d", "comm", "database"):
            diags = diags_for(src, f"src/repro/{seg}/mod.py")
            assert [d.rule for d in diags] == ["R006"], seg
            assert "telemetry" in diags[0].message

    def test_print_allowed_outside_hot_paths(self):
        src = "def f(r):\n    print('residual', r)\n"
        assert diags_for(src, "src/repro/analysis/__main__.py") == []

    def test_noqa_suppresses(self):
        src = "def f(r):\n    print(r)  # noqa: debug aid\n"
        assert diags_for(src, "src/repro/solvers/kern.py") == []

    def test_shipped_hot_paths_are_clean(self):
        repo = Path(__file__).parent.parent / "src" / "repro"
        diags = lint_paths(
            [repo / "solvers", repo / "comm", repo / "database"],
            select={"R006"},
        )
        assert diags == []


class TestSilentExceptRule:
    def test_silent_fallback_flagged(self):
        src = (
            "def f(obj):\n"
            "    try:\n"
            "        return len(obj)\n"
            "    except Exception:\n"
            "        return 64\n"
        )
        diags = diags_for(src, "src/repro/anywhere/mod.py")
        assert [d.rule for d in diags] == ["R002"]

    def test_bare_except_now_owned_by_r007(self):
        src = "try:\n    pass\nexcept:\n    pass\n"
        diags = diags_for(src, "src/repro/x.py")
        assert [d.rule for d in diags] == ["R007"]

    def test_bare_except_still_r002_when_r007_not_selected(self):
        src = "try:\n    pass\nexcept:\n    pass\n"
        diags = diags_for(src, "src/repro/x.py", select={"R002"})
        assert [d.rule for d in diags] == ["R002"]

    def test_reraising_handler_passes(self):
        src = (
            "def f(obj):\n"
            "    try:\n"
            "        return len(obj)\n"
            "    except Exception as exc:\n"
            "        raise TypeError(str(exc)) from exc\n"
        )
        assert diags_for(src, "src/repro/x.py") == []

    def test_specific_exception_passes(self):
        src = "try:\n    pass\nexcept ValueError:\n    pass\n"
        assert diags_for(src, "src/repro/x.py") == []

    def test_comm_package_passes_after_payload_fix(self):
        """Satellite: the _payload_bytes silent-64 fallback is gone, so
        R002 is clean over the whole comm package."""
        comm_dir = Path(__file__).parent.parent / "src" / "repro" / "comm"
        assert lint_paths([comm_dir], select={"R002"}) == []


class TestSwallowedExceptionRule:
    def test_except_exception_pass_flagged(self):
        src = "try:\n    f()\nexcept Exception:\n    pass\n"
        diags = diags_for(src, "src/repro/database/mod.py")
        assert [d.rule for d in diags] == ["R007"]
        assert "empty" in diags[0].message

    def test_ellipsis_body_flagged(self):
        src = "try:\n    f()\nexcept BaseException:\n    ...\n"
        diags = diags_for(src, "src/repro/comm/mod.py")
        assert [d.rule for d in diags] == ["R007"]

    def test_bare_except_flagged_even_with_real_body(self):
        src = "try:\n    f()\nexcept:\n    x = 1\n"
        diags = diags_for(src, "src/repro/x.py")
        assert [d.rule for d in diags] == ["R007"]
        assert "KeyboardInterrupt" in diags[0].message

    def test_one_offence_one_diagnostic(self):
        """R007 takes the swallowed cases; R002 must not double-report."""
        src = "try:\n    f()\nexcept Exception:\n    pass\n"
        diags = diags_for(src, "src/repro/x.py")
        assert [d.rule for d in diags] == ["R007"]

    def test_broad_handler_with_fallback_stays_r002(self):
        src = (
            "def f(obj):\n"
            "    try:\n"
            "        return len(obj)\n"
            "    except Exception:\n"
            "        return 64\n"
        )
        diags = diags_for(src, "src/repro/x.py")
        assert [d.rule for d in diags] == ["R002"]

    def test_specific_exception_pass_allowed(self):
        src = "try:\n    f()\nexcept KeyError:\n    pass\n"
        assert diags_for(src, "src/repro/x.py") == []

    def test_noqa_suppresses(self):
        src = "try:\n    f()\nexcept Exception:  # noqa: best effort\n    pass\n"
        assert diags_for(src, "src/repro/x.py") == []

    def test_shipped_package_is_clean(self):
        """Tier-1 enforcement: no swallowed exceptions inside src/repro."""
        repo = Path(__file__).parent.parent
        diags = lint_paths([repo / "src" / "repro"], select={"R007"})
        assert diags == []


class TestMeshLoopRule:
    def test_range_len_flagged_in_solvers(self):
        src = "def f(arr):\n    for i in range(len(arr)):\n        pass\n"
        diags = diags_for(src, "src/repro/solvers/nsu3d/kern.py")
        assert [d.rule for d in diags] == ["R003"]

    def test_range_shape_flagged(self):
        src = "def f(arr):\n    for i in range(arr.shape[0]):\n        pass\n"
        diags = diags_for(src, "src/repro/solvers/cart3d/kern.py")
        assert [d.rule for d in diags] == ["R003"]

    def test_bounded_range_passes(self):
        src = "def f(nlevels):\n    for i in range(nlevels):\n        pass\n"
        assert diags_for(src, "src/repro/solvers/kern.py") == []

    def test_not_flagged_outside_solvers(self):
        src = "def f(arr):\n    for i in range(len(arr)):\n        pass\n"
        assert diags_for(src, "src/repro/mesh/unstructured/dual.py") == []


class TestDtypeRule:
    def test_implicit_dtype_flagged(self):
        src = "import numpy as np\nx = np.zeros((10, 3))\n"
        diags = diags_for(src, "src/repro/solvers/kern.py")
        assert [d.rule for d in diags] == ["R004"]

    def test_keyword_dtype_passes(self):
        src = "import numpy as np\nx = np.zeros(10, dtype=np.float64)\n"
        assert diags_for(src, "src/repro/solvers/kern.py") == []

    def test_positional_dtype_passes(self):
        src = "import numpy as np\nx = np.zeros(10, np.int64)\n"
        assert diags_for(src, "src/repro/solvers/kern.py") == []

    def test_full_needs_third_argument(self):
        src = "import numpy as np\nx = np.full(10, 0.5)\n"
        diags = diags_for(src, "src/repro/solvers/kern.py")
        assert [d.rule for d in diags] == ["R004"]

    def test_alias_resolved(self):
        src = "import numpy\nx = numpy.empty(4)\n"
        diags = diags_for(src, "src/repro/solvers/kern.py")
        assert [d.rule for d in diags] == ["R004"]


class TestFacadeRule:
    def test_direct_construction_flagged_in_database(self):
        src = (
            "from repro.solvers.cart3d import Cart3DSolver\n"
            "s = Cart3DSolver(geom, dim=2)\n"
        )
        diags = diags_for(src, "src/repro/database/runtime.py")
        assert [d.rule for d in diags] == ["R005"]
        assert "make_cart3d_solver" in diags[0].message

    def test_nsu3d_and_attribute_paths_flagged(self):
        src = (
            "import repro.solvers.nsu3d as nsu3d\n"
            "s = nsu3d.NSU3DSolver(mesh=m)\n"
        )
        diags = diags_for(src, "src/repro/database/backfill.py")
        assert [d.rule for d in diags] == ["R005"]
        assert "make_nsu3d_solver" in diags[0].message

    def test_facade_factory_passes(self):
        src = (
            "from repro import api\n"
            "s = api.make_cart3d_solver(geom, mesh=mesh)\n"
        )
        assert diags_for(src, "src/repro/database/runtime.py") == []

    def test_not_flagged_outside_database(self):
        src = (
            "from repro.solvers.cart3d import Cart3DSolver\n"
            "s = Cart3DSolver(geom)\n"
        )
        assert diags_for(src, "src/repro/api.py") == []
        assert diags_for(src, "src/repro/core/workflow.py") == []

    def test_shipped_database_package_is_clean(self):
        repo = Path(__file__).parent.parent
        diags = lint_paths(
            [repo / "src" / "repro" / "database"], select={"R005"}
        )
        assert diags == []


class TestDistributedMachineryRule:
    def test_absolute_simmpi_import_flagged(self):
        src = "from repro.comm.simmpi import SimMPI\n"
        diags = diags_for(src, "src/repro/solvers/cart3d/parallel.py")
        assert [d.rule for d in diags] == ["R008"]
        assert "repro.runtime" in diags[0].message

    def test_relative_exchange_import_flagged(self):
        src = "from ...comm.exchange import LocalHalo, build_halos\n"
        diags = diags_for(src, "src/repro/solvers/nsu3d/parallel.py")
        assert [d.rule for d in diags] == ["R008"]

    def test_partition_subpackage_flagged(self):
        src = "from ...partition.sfcpart import cell_weights, sfc_partition\n"
        diags = diags_for(src, "src/repro/solvers/cart3d/parallel.py")
        assert [d.rule for d in diags] == ["R008"]

    def test_plain_import_flagged(self):
        src = "import repro.partition.metis\n"
        diags = diags_for(src, "src/repro/solvers/nsu3d/mod.py")
        assert [d.rule for d in diags] == ["R008"]

    def test_comm_package_name_laundering_flagged(self):
        # spelling the same dependency as `from ...comm import SimMPI`
        # must not slip through
        src = "from ...comm import SimMPI, build_halos\n"
        diags = diags_for(src, "src/repro/solvers/nsu3d/parallel.py")
        assert [d.rule for d in diags] == ["R008", "R008"]

    def test_runtime_and_physics_imports_pass(self):
        src = (
            "from ...runtime import DistributedSolveDriver, PlanExchanger\n"
            "from ...telemetry.spans import span\n"
            "from ..gas import apply_positivity_floors\n"
            "from .residual import residual\n"
        )
        assert diags_for(src, "src/repro/solvers/nsu3d/parallel.py") == []

    def test_comm_hybrid_not_banned(self):
        # only simmpi/exchange/partition are fenced off; hybrid stays
        # importable for the analysis helpers that model it
        src = "from ...comm.hybrid import hybrid_efficiency\n"
        assert diags_for(src, "src/repro/solvers/nsu3d/mod.py") == []

    def test_not_flagged_outside_solvers(self):
        src = "from repro.comm.simmpi import SimMPI\n"
        assert diags_for(src, "src/repro/database/runtime.py") == []
        assert diags_for(src, "src/repro/runtime/driver.py") == []

    def test_noqa_suppresses(self):
        src = "from repro.comm.simmpi import SimMPI  # noqa: doc example\n"
        assert diags_for(src, "src/repro/solvers/nsu3d/mod.py") == []

    def test_shipped_solver_packages_are_clean(self):
        """Tier-1 enforcement of the tentpole claim: all distributed
        orchestration lives in repro.runtime, statically."""
        repo = Path(__file__).parent.parent
        diags = lint_paths(
            [repo / "src" / "repro" / "solvers"], select={"R008"}
        )
        assert diags == []


class TestUnboundStartCopyRule:
    def test_bare_start_copy_statement_flagged(self):
        src = "def f(X, qs):\n    X.start_copy(qs, tag=1)\n"
        diags = diags_for(src, "src/repro/runtime/mod.py")
        assert [d.rule for d in diags] == ["R009"]
        assert "discarded" in diags[0].message

    def test_bound_start_copy_passes(self):
        src = (
            "def f(X, qs):\n"
            "    pending = X.start_copy(qs, tag=1)\n"
            "    pending.finish()\n"
        )
        assert diags_for(src, "src/repro/runtime/mod.py") == []

    def test_applies_tree_wide(self):
        # R009 has no segment scoping: a leaked pending in a test or
        # script is just as lost as one in a kernel
        src = "plan.start_copy(comm, arr, tag=2)\n"
        diags = diags_for(src, "tests/test_something.py")
        assert [d.rule for d in diags] == ["R009"]

    def test_noqa_suppresses(self):
        src = "X.start_copy(qs, tag=1)  # noqa: fire-and-forget fixture\n"
        assert diags_for(src, "src/repro/runtime/mod.py") == []


class TestFinishInCleanupRule:
    def test_finish_in_finally_flagged(self):
        src = (
            "def f(X, qs):\n"
            "    pending = X.start_copy(qs, tag=1)\n"
            "    try:\n"
            "        g(qs)\n"
            "    finally:\n"
            "        pending.finish()\n"
        )
        diags = diags_for(src, "src/repro/runtime/mod.py",
                          select={"R010"})
        assert [d.rule for d in diags] == ["R010"]
        assert "finally" in diags[0].message

    def test_finish_in_swallowing_except_flagged(self):
        src = (
            "def f(pending, qs):\n"
            "    try:\n"
            "        g(qs)\n"
            "    except ValueError:\n"
            "        pending.finish()\n"
        )
        diags = diags_for(src, "src/repro/runtime/mod.py",
                          select={"R010"})
        assert [d.rule for d in diags] == ["R010"]

    def test_finish_in_reraising_except_passes(self):
        src = (
            "def f(pending, qs):\n"
            "    try:\n"
            "        g(qs)\n"
            "    except ValueError:\n"
            "        pending.finish()\n"
            "        raise\n"
        )
        assert diags_for(src, "src/repro/runtime/mod.py",
                         select={"R010"}) == []

    def test_finish_on_success_path_passes(self):
        src = (
            "def f(X, qs):\n"
            "    pending = X.start_copy(qs, tag=1)\n"
            "    g(qs)\n"
            "    pending.finish()\n"
        )
        assert diags_for(src, "src/repro/runtime/mod.py",
                         select={"R010"}) == []


class TestBlockingCallInServiceCoroutine:
    def test_time_sleep_flagged_in_service_coroutine(self):
        src = (
            "import time\n"
            "async def query(self):\n"
            "    time.sleep(0.1)\n"
        )
        diags = diags_for(src, "src/repro/service/frontend.py",
                          select={"R012"})
        assert [d.rule for d in diags] == ["R012"]
        assert "event loop" in diags[0].message

    def test_solver_construction_flagged(self):
        src = (
            "from repro.solvers.cart3d import Cart3DSolver\n"
            "async def solve_inline(spec):\n"
            "    return Cart3DSolver(spec)\n"
        )
        diags = diags_for(src, "src/repro/service/frontend.py",
                          select={"R012"})
        assert [d.rule for d in diags] == ["R012"]

    def test_synchronous_campaign_drivers_flagged(self):
        src = (
            "async def answer(self, spec, tree):\n"
            "    self.runtime.run_case(spec)\n"
            "    self.runtime.run_tree(tree)\n"
        )
        diags = diags_for(src, "src/repro/service/frontend.py",
                          select={"R012"})
        assert [d.rule for d in diags] == ["R012", "R012"]

    def test_sync_def_in_service_passes(self):
        """The rule polices coroutine bodies only; synchronous helpers
        (the CLI runner, recover()) legitimately block."""
        src = (
            "import time\n"
            "def runner(spec, shared):\n"
            "    time.sleep(0.1)\n"
        )
        assert diags_for(src, "src/repro/service/__main__.py",
                         select={"R012"}) == []

    def test_nested_sync_def_is_its_own_context(self):
        src = (
            "import time\n"
            "async def query(self):\n"
            "    def backoff():\n"
            "        time.sleep(0.1)\n"
            "    return backoff\n"
        )
        assert diags_for(src, "src/repro/service/frontend.py",
                         select={"R012"}) == []

    def test_not_flagged_outside_service(self):
        src = (
            "import time\n"
            "async def poll(self):\n"
            "    time.sleep(0.1)\n"
        )
        assert diags_for(src, "src/repro/database/runtime.py",
                         select={"R012"}) == []

    def test_awaiting_the_bridge_passes(self):
        src = (
            "import asyncio\n"
            "async def query(self, spec):\n"
            "    handle = self.runtime.submit(spec)\n"
            "    await asyncio.sleep(0)\n"
            "    return await handle.wait(self.solve_timeout)\n"
        )
        assert diags_for(src, "src/repro/service/frontend.py",
                         select={"R012"}) == []

    def test_noqa_suppresses(self):
        src = (
            "import time\n"
            "async def query(self):\n"
            "    time.sleep(0.1)  # noqa\n"
        )
        assert diags_for(src, "src/repro/service/frontend.py",
                         select={"R012"}) == []

    def test_shipped_service_package_is_clean(self):
        repo = Path(__file__).parent.parent
        diags = lint_paths(
            [repo / "src" / "repro" / "service"], select={"R012"}
        )
        assert diags == []


class TestHardcodedStateWidthRule:
    def test_len_comparison_flagged(self):
        src = (
            "def check(qinf):\n"
            "    if len(qinf) != 5:\n"
            "        raise ValueError\n"
        )
        diags = diags_for(src, "src/repro/solvers/nsu3d/parallel.py",
                          select={"R014"})
        assert [d.rule for d in diags] == ["R014"]
        assert "variable_layout" in diags[0].message

    def test_shape_comparison_flagged(self):
        src = "def f(q):\n    return q.shape[1] == 5\n"
        diags = diags_for(src, "src/repro/runtime/driver.py",
                          select={"R014"})
        assert [d.rule for d in diags] == ["R014"]

    def test_nvar_attribute_comparison_flagged(self):
        src = "def f(solver):\n    return solver.nvar > 5\n"
        diags = diags_for(src, "src/repro/solvers/nsu3d/solver.py",
                          select={"R014"})
        assert [d.rule for d in diags] == ["R014"]

    def test_state_slice_flagged(self):
        src = "def f(q):\n    return q[:, :5]\n"
        diags = diags_for(src, "src/repro/solvers/fluxes.py",
                          select={"R014"})
        assert [d.rule for d in diags] == ["R014"]
        assert "NVAR_EULER" in diags[0].message

    def test_turbulence_tail_slice_flagged(self):
        src = "def f(q):\n    return q[..., 5:]\n"
        diags = diags_for(src, "src/repro/solvers/fluxes.py",
                          select={"R014"})
        assert [d.rule for d in diags] == ["R014"]

    def test_named_constant_passes(self):
        src = (
            "from repro.solvers.gas import NVAR_EULER\n"
            "def f(q):\n"
            "    if q.shape[1] > NVAR_EULER:\n"
            "        return q[..., NVAR_EULER:]\n"
            "    return q\n"
        )
        assert diags_for(src, "src/repro/solvers/fluxes.py",
                         select={"R014"}) == []

    def test_unrelated_literal_five_passes(self):
        # a 5 that is not compared against a width-like expression and
        # not a state slice bound is none of R014's business
        src = "def f(retries):\n    return retries == 5 or 5 in [1, 5]\n"
        assert diags_for(src, "src/repro/solvers/nsu3d/solver.py",
                         select={"R014"}) == []

    def test_gas_module_is_exempt(self):
        src = "NVAR_EULER = 5\ndef ok(q):\n    return q.shape[-1] == 5\n"
        assert diags_for(src, "src/repro/solvers/gas.py",
                         select={"R014"}) == []

    def test_not_flagged_outside_solvers_and_runtime(self):
        src = "def f(q):\n    return q[:, :5]\n"
        assert diags_for(src, "src/repro/mesh/unstructured/dual.py",
                         select={"R014"}) == []

    def test_noqa_suppresses(self):
        src = (
            "def f(qinf):\n"
            "    return len(qinf) == 5  # noqa: legacy-format probe\n"
        )
        assert diags_for(src, "src/repro/solvers/nsu3d/parallel.py",
                         select={"R014"}) == []

    def test_shipped_solver_and_runtime_trees_are_clean(self):
        repo = Path(__file__).parent.parent
        diags = lint_paths(
            [repo / "src" / "repro" / "solvers",
             repo / "src" / "repro" / "runtime"],
            select={"R014"},
        )
        assert diags == []


class TestRawScatterRule:
    SRC = (
        "import numpy as np\n"
        "def f(r, idx, flux):\n"
        "    np.add.at(r, idx, flux)\n"
    )

    @pytest.mark.parametrize("path", [
        "src/repro/solvers/nsu3d/residual.py",
        "src/repro/solvers/cart3d/levels.py",
        "src/repro/comm/exchange.py",
        # the distributed transfer operators restrict on the cycle path
        "src/repro/runtime/driver.py",
    ])
    def test_flagged_on_the_solve_path(self, path):
        diags = diags_for(self.SRC, path, select={"R015"})
        assert [d.rule for d in diags] == ["R015"]
        assert diags[0].line == 3
        assert "scatter_add" in diags[0].message

    def test_other_ufuncs_and_import_spellings_flagged(self):
        src = (
            "import numpy\n"
            "def f(hi, idx, x):\n"
            "    numpy.maximum.at(hi, idx, x)\n"
        )
        diags = diags_for(src, "src/repro/solvers/nsu3d/jacobians.py",
                          select={"R015"})
        assert [d.rule for d in diags] == ["R015"]
        assert "np.maximum.at" in diags[0].message

    @pytest.mark.parametrize("path", [
        # the engine's np.add.at *is* the ad-hoc fallback
        "src/repro/kernels/numpy_engine.py",
        # set-up code that builds meshes and graphs is not the solve path
        "src/repro/mesh/unstructured/dual.py",
        "src/repro/partition/metis.py",
        # only the halo unpack is policed in comm
        "src/repro/comm/simmpi.py",
    ])
    def test_out_of_scope_modules_pass(self, path):
        assert diags_for(self.SRC, path, select={"R015"}) == []

    def test_engine_scatter_and_indexed_add_pass(self):
        src = (
            "from repro.kernels import get_engine\n"
            "def f(r, op, flux, slots, data):\n"
            "    get_engine().scatter_add(r, op, flux)\n"
            "    r[slots] += data\n"
            "    return r.at\n"
        )
        assert diags_for(src, "src/repro/solvers/nsu3d/residual.py",
                         select={"R015"}) == []

    def test_noqa_suppresses(self):
        src = (
            "import numpy as np\n"
            "def f(r, idx, flux):\n"
            "    np.add.at(r, idx, flux)  # noqa: one-off diagnostic\n"
        )
        assert diags_for(src, "src/repro/solvers/nsu3d/residual.py",
                         select={"R015"}) == []

    def test_shipped_solve_path_is_clean(self):
        repo = Path(__file__).parent.parent
        diags = lint_paths(
            [repo / "src" / "repro" / "solvers",
             repo / "src" / "repro" / "runtime",
             repo / "src" / "repro" / "comm" / "exchange.py"],
            select={"R015"},
        )
        assert diags == []


class TestRunner:
    def test_select_filters_rules(self):
        src = (
            "import numpy as np\n"
            "x = np.zeros(4)\n"
            "for i in range(len(x)):\n"
            "    pass\n"
        )
        diags = diags_for(src, "src/repro/solvers/kern.py", select={"R004"})
        assert [d.rule for d in diags] == ["R004"]

    def test_syntax_error_reported_not_raised(self):
        diags = diags_for("def f(:\n", "src/repro/solvers/kern.py")
        assert [d.rule for d in diags] == ["lint/syntax-error"]

    def test_main_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "solvers" / "good.py"
        clean.parent.mkdir()
        clean.write_text("import numpy as np\nx = np.zeros(3, dtype=float)\n")
        assert lint_main([str(clean)]) == 0
        dirty = tmp_path / "solvers" / "bad.py"
        dirty.write_text("import numpy as np\nx = np.zeros(3)\n")
        assert lint_main([str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "R004" in out and "bad.py" in out

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULES:
            assert rule_id in out

    def test_module_invocation_on_repo(self):
        """python -m repro.analysis over the shipped package is clean."""
        repo = Path(__file__).parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis"],
            capture_output=True,
            text=True,
            cwd=repo,
            env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 error(s)" in proc.stdout
