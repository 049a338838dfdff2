"""Repo-specific AST lint rules for the reproduction codebase.

Generic linters cannot know that SimMPI time is *virtual*, that solver
inner loops must be vectorized to hit the paper's throughput, or that
kernel allocations must pin their dtype to keep working sets predictable.
These rules encode exactly those house invariants:

* **R003 python-mesh-loop** — ``for i in range(len(arr))`` /
  ``range(arr.shape[0])`` in solver hot modules is a Python-level loop
  over a mesh-sized array; vectorize it.
* **R004 implicit-dtype-alloc** — ``np.zeros``/``empty``/``ones``/
  ``full`` without an explicit dtype in solver kernels; implicit float64
  defaults hide precision and memory-footprint decisions.
* **R006 adhoc-instrumentation** — ``print(...)`` or wall-clock reads
  (``time.time``/``perf_counter`` and friends) in the ``solvers``/
  ``comm``/``database``/``perf`` packages.  SimMPI clocks are virtual:
  mixing wall clock into the ledger silently corrupts every scaling
  prediction calibrated from it, and measurement and progress
  reporting must go through :mod:`repro.telemetry` spans (clocks
  through its :class:`~repro.telemetry.EpochClock` injection) so every
  observation lands on the unified timeline.  ``__main__.py`` CLI
  modules are exempt: printing is their job.
* **R007 swallowed-exception** — bare ``except:`` anywhere, and a broad
  ``except Exception``/``BaseException`` whose handler never raises:
  failures vanish or turn into fallback values (the original
  ``_payload_bytes`` bug: unpicklable payloads were silently billed 64
  bytes), and bare ``except:`` also traps ``KeyboardInterrupt``/
  ``SystemExit``, making a stuck campaign unkillable.
* **R008 distributed-machinery-in-solver** — modules under ``solvers``
  may not import ``comm.simmpi``/``comm.exchange`` or ``partition.*``
  directly.  All domain decomposition, halo construction and exchange
  scheduling lives in :mod:`repro.runtime`; solver packages contribute
  physics kernels only.  This is what keeps the "one partition → halo →
  multigrid → cycle-driver stack" claim true statically rather than by
  convention.
* **R010 finish-in-cleanup** — ``finish()`` called inside an ``except``
  handler that never re-raises, or inside a ``finally`` block.  Since
  ``finish()`` itself raises (:class:`~repro.errors.
  ExchangeLifecycleError` on double-close, and it replays ghost-slot
  writes that can fail on poisoned state), a cleanup-path call masks
  the original error with a secondary one — exactly the failure mode
  the durable-campaign error taxonomy exists to prevent.  Close
  windows on the success path; in cleanup, drop the pending instead.
* **R012 blocking-call-in-service-coroutine** — ``time.sleep``, direct
  solver construction, or a synchronous campaign driver
  (``FillRuntime.run_case``/``run_tree``) inside a coroutine body in
  :mod:`repro.service`.  The query front end's whole contract is that
  cache and surrogate tiers answer while solves run on the worker
  pool; one blocking call in an ``async def`` parks the event loop and
  every tenant behind it.  Solves are submitted (``submit()``) and
  awaited through the :class:`~repro.database.handles.CaseHandle`
  asyncio bridge.  Synchronous helpers (``def``) in the package —
  including nested ones — are their own execution context and exempt.
* **R014 hardcoded-state-width** — the literal ``5`` used as a state
  width in ``solvers``/``runtime``: comparisons of ``len(...)``/
  ``x.shape[...]``/``*nvar*`` expressions against ``5``, and ``[:5]``/
  ``[5:]`` slices.  The distributed stack is layout-generic; widths come
  from :func:`repro.solvers.gas.variable_layout` (``layout.nvar``,
  ``layout.momentum``, ``layout.turbulence``) or the ``NVAR_EULER``
  constant, never a bare literal that silently re-pins the five-variable
  assumption.  ``gas.py`` is exempt — it *defines* the layout and the
  named constants.
* **R015 raw-scatter-outside-engine** — a bare ``np.add.at`` (any
  ``np.<ufunc>.at``) under ``solvers`` or ``runtime``, or in
  ``comm/exchange.py``.
  Scatter accumulation on the solve path has one spelling,
  ``engine.scatter_add(out, idx, contrib)``: it is the call the engine
  implements, the perf harness's probe attributes, and prebuilt
  :class:`~repro.kernels.ScatterOperator` index sets ride.  A raw
  ``ufunc.at`` bypasses all three (and is ~13x slower on state-vector
  and Jacobian-block contributions).  Where the targets provably never
  repeat, write ``arr[idx] += x``.  The engine module
  (``kernels/numpy_engine.py``) is outside the rule's scope: its
  ``np.add.at`` *is* the ad-hoc-index fallback.

A finding on a line containing ``noqa`` is suppressed (same idiom as
ruff); :data:`RULES` documents each rule and the path segments it
applies to.  Run the pass with ``python -m repro.analysis check``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from .diagnostics import Diagnostic

#: Calls that read the wall clock, by dotted module path.
WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
}

#: numpy allocators that must be dtype-explicit in kernels, mapped to the
#: positional index where dtype may legally appear instead of a keyword.
DTYPE_ALLOCATORS = {"empty": 1, "zeros": 1, "ones": 1, "full": 2}


@dataclass(frozen=True)
class Rule:
    """One lint rule: identity, rationale, and the path segments (package
    directory names) it applies to — ``None`` means the whole tree."""

    id: str
    name: str
    description: str
    segments: tuple | None


RULES = {
    "R003": Rule(
        id="R003",
        name="python-mesh-loop",
        description=(
            "Python-level for loop over a mesh-sized array in a solver hot "
            "module; vectorize with numpy instead"
        ),
        segments=("solvers",),
    ),
    "R004": Rule(
        id="R004",
        name="implicit-dtype-alloc",
        description=(
            "numpy allocation without an explicit dtype in a kernel module; "
            "pin the dtype so precision and memory footprint are deliberate"
        ),
        segments=("solvers",),
    ),
    "R006": Rule(
        id="R006",
        name="adhoc-instrumentation",
        description=(
            "ad-hoc timing/printing in a hot-path or virtual-time "
            "package; SimMPI clocks are virtual and measurement goes "
            "through repro.telemetry spans so it lands on the unified "
            "timeline"
        ),
        segments=("solvers", "comm", "database", "perf"),
    ),
    "R007": Rule(
        id="R007",
        name="swallowed-exception",
        description=(
            "bare except, or a broad except that never raises; failures "
            "vanish or become fallback values, and bare except traps "
            "KeyboardInterrupt/SystemExit"
        ),
        segments=None,
    ),
    "R008": Rule(
        id="R008",
        name="distributed-machinery-in-solver",
        description=(
            "solver module imports comm.simmpi/comm.exchange or "
            "partition.* directly; domain decomposition and exchange "
            "scheduling live in repro.runtime — solvers contribute "
            "physics kernels only"
        ),
        segments=("solvers",),
    ),
    "R010": Rule(
        id="R010",
        name="finish-in-cleanup",
        description=(
            "finish() inside an except handler that never re-raises or "
            "inside a finally block; a failure there masks the original "
            "error — close windows on the success path instead"
        ),
        segments=None,
    ),
    "R012": Rule(
        id="R012",
        name="blocking-call-in-service-coroutine",
        description=(
            "blocking call inside a repro.service coroutine body; the "
            "event loop must stay free to answer cache/surrogate tiers "
            "— submit() to the runtime pool and await the CaseHandle "
            "bridge instead"
        ),
        segments=("service",),
    ),
    "R014": Rule(
        id="R014",
        name="hardcoded-state-width",
        description=(
            "literal 5 used as a state-vector width in a solver/runtime "
            "module; derive widths from variable_layout (layout.nvar, "
            "layout.momentum, layout.turbulence) or NVAR_EULER so "
            "extended state vectors keep working"
        ),
        segments=("solvers", "runtime"),
    ),
    "R015": Rule(
        id="R015",
        name="raw-scatter-outside-engine",
        description=(
            "bare np.<ufunc>.at in a solver or runtime module or "
            "comm/exchange.py; accumulate through engine.scatter_add "
            "(index array or prebuilt ScatterOperator), or arr[idx] += x "
            "where the targets never repeat"
        ),
        segments=("solvers", "runtime"),
    ),
}

#: Attribute calls R012 treats as synchronous whole-case execution.
R012_BLOCKING_ATTRS = {"run_case", "run_tree"}

#: Solver classes whose construction R012 keeps off the event loop.
SOLVER_CLASSES = {"Cart3DSolver", "NSU3DSolver"}

#: Modules R008 bans from solver packages (normalized: no ``repro.``
#: prefix, relative dots stripped).  ``partition`` covers the whole
#: partitioning package.
R008_BANNED_MODULES = ("comm.simmpi", "comm.exchange", "partition")

#: Names whose import *from the comm package itself* R008 also bans —
#: they resolve into comm.simmpi/comm.exchange regardless of spelling.
R008_BANNED_COMM_NAMES = {
    "simmpi",
    "exchange",
    "SimMPI",
    "Comm",
    "CommStats",
    "Request",
    "build_halos",
    "LocalHalo",
    "ExchangePlan",
    "communication_graph",
}


def active_rules(path: Path) -> list[Rule]:
    """Rules applying to ``path``, by its directory segments."""
    path = Path(path)
    parts = set(path.parts)
    rules = [
        r
        for r in RULES.values()
        if r.segments is None or parts.intersection(r.segments)
    ]
    if path.name == "exchange.py" and "comm" in parts:
        # the halo unpack is the one scatter on the solve path that
        # lives outside the solver packages
        rules.append(RULES["R015"])
    if path.name == "__main__.py":
        # CLI entry points print by design; R006 polices hot paths only
        rules = [r for r in rules if r.id != "R006"]
    if path.name == "gas.py":
        # gas.py defines variable_layout and the NVAR_* constants — the
        # one place the width literal legitimately lives
        rules = [r for r in rules if r.id != "R014"]
    return rules


def lint_source(text: str, path) -> list[Diagnostic]:
    """Lint one module's source text; ``path`` scopes which rules apply."""
    path = Path(path)
    rules = {r.id for r in active_rules(path)}
    if not rules:
        return []
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        return [
            Diagnostic(
                rule="lint/syntax-error",
                severity="error",
                message=f"cannot parse: {exc.msg}",
                path=str(path),
                line=exc.lineno or 1,
            )
        ]
    lines = text.splitlines()
    visitor = _LintVisitor(rules, str(path))
    visitor.visit(tree)
    return [
        d
        for d in visitor.diagnostics
        if not (
            d.line is not None
            and d.line - 1 < len(lines)
            and "noqa" in lines[d.line - 1]
        )
    ]


def lint_file(path) -> list[Diagnostic]:
    path = Path(path)
    return lint_source(path.read_text(), path)


def lint_paths(paths) -> list[Diagnostic]:
    """Lint every ``*.py`` under the given files/directories."""
    diags: list[Diagnostic] = []
    for path in paths:
        path = Path(path)
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for f in files:
            diags.extend(lint_file(f))
    return diags


class _LintVisitor(ast.NodeVisitor):
    def __init__(self, rules: set, path: str):
        self.rules = rules
        self.path = path
        self.diagnostics: list[Diagnostic] = []
        self._aliases: dict = {}  # local name -> dotted module/attr path
        self._func_kinds: list = []  # "async"/"sync" nesting, innermost last

    def _report(self, rule_id: str, node: ast.AST, message: str) -> None:
        self.diagnostics.append(
            Diagnostic(
                rule=rule_id,
                severity="error",
                message=message,
                path=self.path,
                line=getattr(node, "lineno", 1),
            )
        )

    # -- function-kind nesting (R012: "am I in a coroutine body?") ------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # a sync def nested inside a coroutine is its own execution
        # context: calling it later is the caller's (lintable) act
        self._func_kinds.append("sync")
        self.generic_visit(node)
        self._func_kinds.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._func_kinds.append("async")
        self.generic_visit(node)
        self._func_kinds.pop()

    @property
    def _in_coroutine(self) -> bool:
        return bool(self._func_kinds) and self._func_kinds[-1] == "async"

    # -- alias tracking (import time as t; from time import perf_counter) ----

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._aliases[alias.asname or alias.name.split(".")[0]] = alias.name
            if "R008" in self.rules:
                self._r008_module(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module:
            for alias in node.names:
                self._aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        if "R008" in self.rules:
            mod = self._r008_module(node, node.module or "")
            if mod == "comm":
                for alias in node.names:
                    if alias.name in R008_BANNED_COMM_NAMES:
                        self._report(
                            "R008",
                            node,
                            f"import of {alias.name} from the comm package "
                            "in a solver module; go through repro.runtime "
                            "(Partitioner/DistributedDomain/"
                            "DistributedSolveDriver) instead",
                        )
        self.generic_visit(node)

    def _r008_module(self, node: ast.AST, module: str) -> str:
        """Normalize an imported module path and report it if banned;
        returns the normalized path for further checks."""
        mod = module.removeprefix("repro.")
        for banned in R008_BANNED_MODULES:
            if mod == banned or mod.startswith(banned + "."):
                self._report(
                    "R008",
                    node,
                    f"solver module imports {mod} directly; partitioning, "
                    "halos and exchange scheduling live in repro.runtime — "
                    "depend on its surface instead",
                )
                break
        return mod

    def _qualname(self, func: ast.expr) -> str | None:
        parts: list = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self._aliases.get(node.id, node.id)
        return ".".join([base] + list(reversed(parts)))

    # -- calls ----------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        qual = self._qualname(node.func)
        if "R006" in self.rules:
            if qual in WALL_CLOCK_CALLS:
                self._report(
                    "R006",
                    node,
                    f"wall-clock call {qual}() in a hot-path or "
                    "virtual-time package; advance virtual clocks via "
                    "Comm.compute()/transfer costs, or inject a "
                    "repro.telemetry.EpochClock and record spans",
                )
            if qual == "print":
                self._report(
                    "R006",
                    node,
                    "print(...) in a hot-path package; emit telemetry "
                    "spans/instants (repro.telemetry) so progress lands "
                    "on the unified timeline",
                )
        if "R015" in self.rules and qual is not None:
            parts = qual.split(".")
            if len(parts) == 3 and parts[0] in ("numpy", "np") \
                    and parts[2] == "at":
                self._report(
                    "R015",
                    node,
                    f"raw np.{parts[1]}.at(...) on the solve path; use "
                    "engine.scatter_add (which takes an index array or a "
                    "prebuilt ScatterOperator), or arr[idx] += x where "
                    "the targets never repeat",
                )
        if "R004" in self.rules and qual is not None:
            root, _, attr = qual.rpartition(".")
            if root in ("numpy", "np") and attr in DTYPE_ALLOCATORS:
                dtype_pos = DTYPE_ALLOCATORS[attr]
                explicit = any(k.arg == "dtype" for k in node.keywords) or (
                    len(node.args) > dtype_pos
                )
                if not explicit:
                    self._report(
                        "R004",
                        node,
                        f"np.{attr}(...) without an explicit dtype in a "
                        "kernel module",
                    )
        if "R012" in self.rules and self._in_coroutine:
            blocking = None
            if qual == "time.sleep":
                blocking = (
                    "time.sleep(...) parks the event loop and every "
                    "tenant behind it; use await asyncio.sleep(...)"
                )
            elif qual is not None and (
                qual.rpartition(".")[2] in SOLVER_CLASSES
            ):
                blocking = (
                    f"direct {qual.rpartition('.')[2]}(...) construction "
                    "runs solver setup on the event loop; submit a "
                    "CaseSpec to the runtime's worker pool instead"
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in R012_BLOCKING_ATTRS
            ):
                blocking = (
                    f"synchronous .{node.func.attr}(...) blocks the loop "
                    "for whole case executions; use submit() and await "
                    "the CaseHandle bridge"
                )
            if blocking is not None:
                self._report(
                    "R012",
                    node,
                    f"blocking call in a service coroutine: {blocking}",
                )
        self.generic_visit(node)

    # -- R010: finish() on a cleanup path --------------------------------------

    def visit_Try(self, node: ast.Try) -> None:
        if "R010" in self.rules:
            for call in self._finish_calls(node.finalbody):
                self._report(
                    "R010",
                    call,
                    "finish() inside a finally block; if the body already "
                    "failed, a secondary failure here (double-close, "
                    "poisoned ghost writes) masks the original error — "
                    "close the window on the success path",
                )
        self.generic_visit(node)

    @staticmethod
    def _finish_calls(stmts) -> list:
        calls = []
        for stmt in stmts:
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "finish"
                ):
                    calls.append(sub)
        return calls

    # -- R007: swallowed exceptions -------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        raises = any(isinstance(n, ast.Raise) for n in ast.walk(node))
        if "R010" in self.rules and not raises:
            for call in self._finish_calls(node.body):
                self._report(
                    "R010",
                    call,
                    "finish() inside an except handler that never "
                    "re-raises; the original failure is swallowed and a "
                    "secondary finish() failure would mask it — re-raise "
                    "after cleanup or drop the pending",
                )
        if "R007" in self.rules and (
            node.type is None or (self._is_broad(node.type) and not raises)
        ):
            if node.type is None:
                what = ("bare except traps KeyboardInterrupt/SystemExit "
                        "too")
            else:
                what = (f"except {ast.unparse(node.type)} never re-raises; "
                        "failures vanish or become fallback values")
            self._report(
                "R007",
                node,
                f"{what} — catch specific exceptions and handle them, or "
                "raise a typed error",
            )
        self.generic_visit(node)

    @staticmethod
    def _is_broad(expr) -> bool:
        names = expr.elts if isinstance(expr, ast.Tuple) else [expr]
        return any(
            isinstance(n, ast.Name) and n.id in ("Exception", "BaseException")
            for n in names
        )

    # -- R014: hard-coded state-vector widths ----------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        if "R014" in self.rules:
            operands = [node.left, *node.comparators]
            for a, b in zip(operands, operands[1:]):
                if self._is_width_literal(a) and self._width_like(b):
                    other = b
                elif self._is_width_literal(b) and self._width_like(a):
                    other = a
                else:
                    continue
                self._report(
                    "R014",
                    node,
                    f"state width compared against the literal 5 "
                    f"({ast.unparse(other)}); derive it from "
                    "variable_layout(...).nvar or NVAR_EULER so extended "
                    "state vectors keep working",
                )
                break
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if "R014" in self.rules:
            parts = (
                node.slice.elts
                if isinstance(node.slice, ast.Tuple)
                else [node.slice]
            )
            for part in parts:
                if isinstance(part, ast.Slice) and any(
                    self._is_width_literal(bound)
                    for bound in (part.lower, part.upper)
                ):
                    self._report(
                        "R014",
                        node,
                        f"slice {ast.unparse(node)} pins the five-variable "
                        "state width; slice with NVAR_EULER or the "
                        "layout.turbulence columns instead",
                    )
                    break
        self.generic_visit(node)

    @staticmethod
    def _is_width_literal(expr) -> bool:
        return (
            isinstance(expr, ast.Constant)
            and isinstance(expr.value, int)
            and not isinstance(expr.value, bool)
            and expr.value == 5
        )

    @staticmethod
    def _width_like(expr) -> bool:
        """len(x), x.shape[i], or anything named like an nvar."""
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id == "len"
        ):
            return True
        if (
            isinstance(expr, ast.Subscript)
            and isinstance(expr.value, ast.Attribute)
            and expr.value.attr == "shape"
        ):
            return True
        if isinstance(expr, ast.Attribute) and "nvar" in expr.attr.lower():
            return True
        return isinstance(expr, ast.Name) and "nvar" in expr.id.lower()

    # -- R003: mesh-sized Python loops ----------------------------------------

    def visit_For(self, node: ast.For) -> None:
        if "R003" in self.rules and self._is_mesh_range(node.iter):
            self._report(
                "R003",
                node,
                f"Python for loop over {ast.unparse(node.iter)} in a solver "
                "hot module iterates a mesh-sized array element by element",
            )
        self.generic_visit(node)

    @staticmethod
    def _is_mesh_range(expr) -> bool:
        """range(...) whose bound is len(x) or x.shape[i]."""
        if not (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id == "range"
            and expr.args
        ):
            return False

        def mesh_sized(arg) -> bool:
            if (
                isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Name)
                and arg.func.id == "len"
            ):
                return True
            return (
                isinstance(arg, ast.Subscript)
                and isinstance(arg.value, ast.Attribute)
                and arg.value.attr == "shape"
            )

        return any(mesh_sized(a) for a in expr.args)
