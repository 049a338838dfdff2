"""Reachability census of ``src/repro``: every function nothing runs.

    python3 benchmarks/census.py

One global hook records every code object that is entered, in this
process and in every thread it starts (``sys.settrace`` +
``threading.settrace``; the hook returns no local tracer, so it costs one
call per Python frame).  It is a trace hook, not a profile hook, because
three tier-1 tests run ``cProfile``, which replaces the profile hook and
would silently end the census for the rest of the run.  Four sources run
under it, all in this process:

* ``tier1``    -- the tier-1 suite, ``pytest tests/``;
* ``examples`` -- every ``examples/*.py`` as ``__main__``;
* ``benches``  -- the figure benches, ``pytest benchmarks/ --benchmark-disable``
  without ``perf/`` (a timed pytest-benchmark round pauses every trace
  hook, so each benchmarked function runs once, untimed); not ``-x``:
  their wall-clock assertions (``bench_database_fill``'s 1.15x) need not
  hold under the hook, and a failed assertion must not stop the census;
* ``harness``  -- ``benchmarks/perf/run.py --workload W --smoke --trace 1``
  for every workload ``BENCHMARK.json`` declares.

Both pytest runs use a derandomized Hypothesis profile without an
example database, so every drawn argument is the same from run to run.
Files the benches and the harness write under ``benchmarks/results`` and
``benchmarks/perf/results`` are put back as they were.  Code that runs
only in a child process (process-backend workers, subprocess CLIs) is
invisible to the hook; :data:`REASONS` says so where it matters.

The report lists every function and method defined under ``src/repro``
that no source entered, with its length and the reason it stays, then
every ``repro.api.__all__`` name that nothing outside ``tests/`` uses
(beyond its defining module and the package re-exports).  An entry
without a reason makes the exit status 1; so does a reason for an entry
that no longer exists.  A last, informational section lists per module
the functions only ``tier1`` enters — no example, figure bench or
harness run does; it needs no reasons and leaves the exit status
alone.  The report is ``benchmarks/results/census.txt``; it holds no
timings, so a re-run on the same tree writes the same file (``git diff
--exit-code benchmarks/results/census.txt``).
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import re
import runpy
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
OUT = HERE / "results" / "census.txt"
#: directories whose files the benches and the harness rewrite
WRITTEN = (HERE / "results", HERE / "perf" / "results")


def _reasons(reason: str, *names: str) -> dict:
    return dict.fromkeys(names, reason)


#: ``path:qualname`` (path relative to ``src/repro``) -> why it stays
REASONS: dict = {
    **_reasons(
        "protocol stub: the body of a typing.Protocol member never runs; "
        "NumpyEngine implements it (tests/test_kernel_engines.py)",
        *(f"kernels/engine.py:KernelEngine.{name}" for name in (
            "scatter_add", "euler_jacobian", "edge_jacobians",
            "block_factor", "thomas_factor", "rk_update")),
        "kernels/engine.py:BlockFactor.solve",
    ),
    **_reasons(
        "protocol stub: both solvers implement it "
        "(tests/test_api_facade.py::TestUnifiedSurface)",
        *(f"solvers/interface.py:SolverProtocol.{name}" for name in (
            "size", "ndof", "solve", "forces", "residual_norm")),
    ),
    "runtime/partitioners.py:Partitioner.partition":
        "protocol stub: MetisLinePartitioner and SFCPartitioner implement it "
        "(tests/test_runtime.py)",
    **_reasons(
        "ImplicitSolid base method: every concrete solid overrides it "
        "(tests/test_geometry.py)",
        *(f"mesh/cartesian/geometry.py:ImplicitSolid.{name}" for name in (
            "sdf", "bounding_box", "triangulate", "contains")),
    ),
    **_reasons(
        "ImplicitSolid interface of a deflected component: nothing bounds "
        "or triangulates one yet (shuttle_database.py triangulates the "
        "undeflected stack); tests/test_geometry.py should",
        "mesh/cartesian/geometry.py:Rotated.bounding_box",
        "mesh/cartesian/geometry.py:Rotated.triangulate",
    ),
    **_reasons(
        "runs only in a process-backend worker, which the hook cannot see "
        "(tests/test_runtime_process.py spawns them)",
        "runtime/process.py:_worker_main",
        "runtime/process.py:ProcessComm.clock",
        "runtime/backends.py:ProcessExchanger.charge",
    ),
}

#: ``repro.api.__all__`` names with no user outside ``tests/`` -> why
API_REASONS: dict = {
    "DomainSet": "return type of build_domain_set, one level of a "
                 "DomainHierarchy: the facade names the types it hands out",
    "build_domain_set": "one-level twin of build_domain_hierarchy, the "
                        "runtime's building block (test_runtime*.py)",
    "BACKENDS": "the names RuntimeConfig(backend=) accepts "
                "(test_api_facade.py)",
    "wing_mesh": "bump_channel's wing-like twin, the other NSU3D mesh "
                 "generator (test_unstructured_mesh.py)",
    "standard_study": "the paper's 6-D (aileron, elevator, rudder) x "
                      "(Mach, alpha, beta) study shape (test_database.py)",
    "SchedulePlan": "return type of schedule_fill, the Columbia makespan "
                    "planner (test_database.py::TestScheduler)",
    "ServiceCounters": "type of DatabaseService.counters "
                       "(test_api_facade.py)",
    "DesignHistory": "type of DesignOptimizer.history",
    "trim_objective": "the paper's trim/drag design objective over a "
                      "VariableFidelityStudy (test_core_design.py)",
    "add_tracer": "Timeline adapter for a Tracer's spans "
                  "(test_telemetry.py)",
    "add_simmpi_trace": "Timeline adapter for a SimMPI world trace "
                        "(test_telemetry.py)",
    "chrome_trace": "in-memory form of write_trace (test_telemetry.py)",
    "write_metrics": "file form of metrics (test_telemetry.py)",
}


# -- the hook -----------------------------------------------------------------

#: the code objects the running source entered; :func:`main` swaps in a
#: fresh set per source and keeps each in :data:`ENTERED`
entered: set = set()
ENTERED: dict = {}


def _hook(frame, event, arg):
    entered.add(frame.f_code)   # the global hook sees "call" events only


def install() -> None:
    threading.settrace(_hook)
    sys.settrace(_hook)


class Reinstall:
    """pytest plugin: put the hook back before every test, in case one
    cleared it."""

    @staticmethod
    def pytest_runtest_setup(item):
        install()


# -- the sources --------------------------------------------------------------

def _snapshot() -> dict:
    return {
        path: path.read_bytes()
        for folder in WRITTEN if folder.exists()
        for path in folder.rglob("*") if path.is_file()
    }


def _restore(before: dict) -> None:
    for path in _snapshot():
        if path not in before:
            path.unlink()
    for path, data in before.items():
        if not path.exists() or path.read_bytes() != data:
            path.write_bytes(data)


def _pytest(args: list) -> int:
    import pytest
    from hypothesis import settings

    # the same examples every run (and none replayed from .hypothesis/):
    # a drawn argument can decide whether a function is reached at all
    settings.register_profile("census", derandomize=True, database=None)
    return int(pytest.main(["-q", "-p", "no:cacheprovider",
                            "--hypothesis-profile", "census", *args],
                           plugins=[Reinstall()]))


def run_tier1() -> str:
    return f"exit {_pytest([str(ROOT / 'tests')])}"


def run_examples() -> str:
    failed = []
    for path in sorted((ROOT / "examples").glob("*.py")):
        install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(path), run_name="__main__")
        except SystemExit as exc:
            if exc.code not in (None, 0):
                failed.append(f"{path.name}: exit {exc.code}")
        except Exception as exc:  # a failed example is reported, not fatal
            failed.append(f"{path.name}: {exc!r}")
    return "; ".join(failed) or "all exit 0"


def run_benches() -> str:
    # a timed pytest-benchmark round pauses every trace hook; disabled,
    # the plugin calls each benchmarked function once, in plain sight
    code = _pytest([str(HERE), "--ignore", str(HERE / "perf"),
                    "--benchmark-disable"])
    return f"exit {code}"


def run_harness() -> str:
    sys.path.insert(0, str(HERE / "perf"))
    harness = runpy.run_path(str(HERE / "perf" / "run.py"),
                             run_name="census_harness")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    codes = []
    try:
        for workload in spec["workloads"]:
            install()
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(harness["main"](
                    ["--workload", workload["name"], "--smoke", "--trace", "1"]
                ))
    finally:
        harness["reap"]()
    return f"exit codes {codes}"


SOURCES = {"tier1": run_tier1, "examples": run_examples,
           "benches": run_benches, "harness": run_harness}


# -- the report ---------------------------------------------------------------

def functions() -> list:
    """``(path, qualname, first line, lines)`` of every def under
    ``src/repro``; the first line is the first decorator's, as in
    ``co_firstlineno``."""
    found = []

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                qualname = prefix + child.name
                found.append((path, qualname, first,
                              child.end_lineno - first + 1))
                visit(child, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return found


def _keys(codes) -> set:
    return {
        (os.path.realpath(code.co_filename), code.co_firstlineno,
         code.co_name)
        for code in list(codes)
    }


def _key(fn) -> tuple:
    return os.path.realpath(fn[0]), fn[2], fn[1].rsplit(".", 1)[-1]


def unreached() -> tuple:
    """Every function, those no source entered, and those only
    ``tier1`` entered."""
    seen = {name: _keys(codes) for name, codes in ENTERED.items()}
    others = set().union(*(keys for name, keys in seen.items()
                           if name != "tier1"))
    every = functions()
    missed = [fn for fn in every
              if not any(_key(fn) in keys for keys in seen.values())]
    tier1_only = [fn for fn in every
                  if _key(fn) in seen["tier1"] and _key(fn) not in others]
    return every, missed, tier1_only


def facade_orphans() -> list:
    """``(name, test files)`` of each ``repro.api.__all__`` name that no
    file outside ``tests/`` mentions, apart from the module defining it,
    the package ``__init__`` re-exports and ``api.py`` itself."""
    from repro import api

    defined: dict = {}
    for path in PACKAGE.rglob("*.py"):
        for node in ast.parse(path.read_text()).body:
            targets = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets
                           if isinstance(t, ast.Name)]
            for name in targets:
                defined.setdefault(name, set()).add(path)
    outside = {
        path: path.read_text()
        for pattern in ("examples/*.py", "benchmarks/**/*.py",
                        "src/repro/**/*.py")
        for path in ROOT.glob(pattern)
        if path.name != "__init__.py"
        and path not in (PACKAGE / "api.py", Path(__file__).resolve())
    }
    tests = {path: path.read_text() for path in ROOT.glob("tests/*.py")}
    orphans = []
    for name in api.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        if any(word.search(text) for path, text in outside.items()
               if path not in defined.get(name, ())):
            continue
        users = sorted(path.name for path, text in tests.items()
                       if word.search(text))
        orphans.append((name, users))
    return orphans


def render(every: list, missed: list, orphans: list,
           tier1_only: list) -> tuple:
    problems = []
    lines = [
        "# Reachability census of src/repro (python3 benchmarks/census.py;",
        "# regenerate, do not edit).  Sources: " + ", ".join(SOURCES) + ".",
        f"# {len(every)} functions, {len(missed)} never entered "
        f"({sum(fn[3] for fn in missed)} lines).",
        "",
        "## functions no source enters: path:line  qualname  lines  reason",
    ]
    keys = set()
    for path, qualname, first, nlines in missed:
        rel = path.relative_to(PACKAGE).as_posix()
        key = f"{rel}:{qualname}"
        keys.add(key)
        reason = REASONS.get(key)
        if reason is None:
            problems.append(f"no reason: {key}")
            reason = "NO REASON"
        lines.append(f"{rel}:{first}  {qualname}  {nlines}  {reason}")
    problems += [f"stale reason: {key}" for key in REASONS if key not in keys]
    lines += [
        "",
        "## repro.api.__all__ names no file outside tests/ uses: "
        "name  [tests]  reason",
    ]
    names = set()
    for name, users in orphans:
        names.add(name)
        reason = API_REASONS.get(name)
        if reason is None:
            problems.append(f"no reason: api.{name}")
            reason = "NO REASON"
        lines.append(f"{name}  [{', '.join(users) or 'none'}]  {reason}")
    problems += [f"stale reason: api.{name}" for name in API_REASONS
                 if name not in names]
    by_module: dict = {}
    for path, qualname, first, nlines in tier1_only:
        by_module.setdefault(path.relative_to(PACKAGE).as_posix(), []).append(
            (first, qualname, nlines))
    lines += [
        "",
        "## functions only tier1 enters, by module (informational; no "
        "reasons): path  functions  lines, then line  qualname  lines",
        f"# {len(tier1_only)} functions "
        f"({sum(fn[3] for fn in tier1_only)} lines).",
    ]
    for rel, fns in sorted(by_module.items(),
                           key=lambda kv: (-sum(f[2] for f in kv[1]), kv[0])):
        lines.append(f"{rel}  {len(fns)}  {sum(f[2] for f in fns)}")
        lines += [f"  {first}  {qualname}  {nlines}"
                  for first, qualname, nlines in sorted(fns)]
    return "\n".join(lines) + "\n", problems


def main() -> int:
    # as ``python -m pytest`` from the root: tests import ``tests.*``
    os.chdir(ROOT)
    sys.path[:0] = [str(SRC), str(ROOT)]
    global entered
    before = _snapshot()
    try:
        for source, run in SOURCES.items():
            entered = ENTERED[source] = set()
            install()
            print(f"census: {source}: {run()}", file=sys.stderr)
    finally:
        sys.settrace(None)
        threading.settrace(None)
        _restore(before)
    every, missed, tier1_only = unreached()
    text, problems = render(every, missed, facade_orphans(), tier1_only)
    OUT.write_text(text)
    for problem in problems:
        print(f"census: {problem}", file=sys.stderr)
    return 1 if problems else 0


# the process backend spawns workers that re-import the main module
if __name__ == "__main__":
    sys.exit(main())
