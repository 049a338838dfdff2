"""Static overlap-safety analysis for the ghost-exchange window.

The overlapped exchange (``start_copy`` → compute interior →
``finish``, paper fig. 7) imposes a contract the type system cannot
see: between the two calls a kernel must not read the protected
arrays' ghost rows, must not write the arrays at all, and must close
every window exactly once.  Under SimMPI a violation is silently
benign, so this pass proves the contract *statically* over the solver
kernels and the runtime driver — the analysis twin of the runtime
:class:`~repro.runtime.sanitizer.GhostSanitizer`.

The pass is a per-function abstract interpreter over the AST:

* ``x = X.start_copy(arrays, ...)`` opens a **window** on ``x``
  protecting the argument arrays' root names.
* While a window is open, any appearance of a protected name is a
  potential ghost read and is flagged — *unless* the analysis can
  prove the use interior-only.  Two proof idioms are recognized, the
  ones the shipped kernels use:

  - an **interior context**: the first element of a tuple-unpack from
    a ``_split*`` helper (``interior, ghost = _split_stack(doms)``)
    blesses any call it appears in, because such a call evaluates only
    edges/faces whose endpoints are owned rows;
  - a **bounded slice**: ``q[: dom.nowned]``-style reads cannot reach
    the trailing ghost rows.

* Passing an open pending *into a call* transfers the obligation: the
  window closes here, and when the callee is resolvable in the same
  module it is re-analyzed with the window mapped onto its parameters
  (this is how ``pending`` flows from ``smooth`` into
  ``_completed_residual`` in both solvers).
* ``pending is None`` / ``is not None`` tests refine paths, so the
  guarded idiom ``if pending is not None: pending.finish()`` analyzes
  race-free.  Loop bodies are executed twice so a window opened at the
  bottom of an iteration meets the reads at the top of the next.

Rules (all error severity, reported as :class:`Diagnostic`):

* ``ghost/read-in-window`` — a protected array is read (or written)
  during an open window without an interior-only proof;
* ``ghost/add-in-window`` — an add-reduction exchange (``X.add``)
  consumes a protected array mid-window: the accumulation would ship
  poisoned ghost contributions to their owners;
* ``ghost/dropped-pending`` — a ``start_copy`` result is discarded or
  overwritten unfinished, leaking posted receives;
* ``ghost/double-finish`` — a pending is finished twice on one path;
* ``ghost/unfinished-window`` — a window is provably still open when
  the function returns (and the pending does not escape).

Findings on lines containing ``noqa`` are suppressed, matching the
lint pass.  Run it standalone via ``python -m repro.analysis
ghostcheck`` or as part of the ``check`` umbrella.
"""

from __future__ import annotations

import ast
from pathlib import Path

from .diagnostics import Diagnostic

#: Rule catalog: id -> human description (mirrors ``lint.RULES`` shape
#: loosely; ghostcheck rules are path-independent).
GHOST_RULES = {
    "ghost/read-in-window": (
        "a protected array is read or written during an open overlap "
        "window without an interior-only proof (interior split context "
        "or owned-bounded slice)"
    ),
    "ghost/add-in-window": (
        "an add-reduction exchange consumes a protected array while its "
        "overlap window is open; the reduction would ship stale ghost "
        "contributions"
    ),
    "ghost/dropped-pending": (
        "a start_copy result is discarded or overwritten while "
        "unfinished; the posted receives are leaked and ghosts never "
        "update"
    ),
    "ghost/double-finish": (
        "finish() called twice on the same pending along one path; the "
        "second call raises ExchangeLifecycleError at runtime"
    ),
    "ghost/unfinished-window": (
        "an overlap window is still open when the function returns and "
        "the pending does not escape; ghost rows are left stale"
    ),
}

#: Argument root names never treated as protected arrays — exchanger
#: handles, tags and the like flow through ``start_copy`` alongside the
#: real payload.
_NON_ARRAY_ROOTS = {"self", "cls", "comm", "tag", "X"}

#: Method names that perform an add-reduction exchange.
_ADD_METHODS = {"add", "exchange_add"}


def _root_name(node: ast.expr) -> str | None:
    """Base ``Name`` id under arbitrarily nested subscripts, or None."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _contains_start_copy(node: ast.AST) -> ast.Call | None:
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "start_copy"
        ):
            return sub
    return None


def _protected_roots(call: ast.Call) -> set:
    """Root names of the array arguments of a ``start_copy`` call."""
    roots = set()
    for arg in call.args:
        root = _root_name(arg)
        if root is not None and root not in _NON_ARRAY_ROOTS:
            roots.add(root)
    for kw in call.keywords:
        if kw.arg in (None, "tag"):
            continue
        root = _root_name(kw.value)
        if root is not None and root not in _NON_ARRAY_ROOTS:
            roots.add(root)
    return roots


class _State:
    """Abstract state for one path through a function."""

    def __init__(self):
        #: open windows: pending name -> (frozenset of protected
        #: roots, line where the window opened)
        self.windows: dict = {}
        #: pendings definitely finished (and not since reopened)
        self.finished: set = set()
        #: names proven interior-only (first elt of a _split* unpack)
        self.interior: set = set()

    def copy(self) -> "_State":
        s = _State()
        s.windows = dict(self.windows)
        s.finished = set(self.finished)
        s.interior = set(self.interior)
        return s

    def merge(self, other: "_State") -> "_State":
        """Join of two branch exit states: a window survives if open on
        either path; a pending is finished only if finished on both."""
        s = _State()
        s.windows = dict(other.windows)
        s.windows.update(self.windows)
        s.finished = self.finished & other.finished
        s.interior = self.interior & other.interior
        return s


class _FunctionChecker:
    """Analyze one function body; collects diagnostics and transfer
    requests (callee name -> initial window mapping)."""

    def __init__(self, path: str, functions: dict):
        self.path = path
        self.functions = functions
        self.diagnostics: list[Diagnostic] = []
        #: (callee name, ((pending_param, frozenset(array_params)), ...))
        self.transfers: set = set()

    # -- reporting ------------------------------------------------------------

    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        self.diagnostics.append(
            Diagnostic(
                rule=rule,
                severity="error",
                message=message,
                path=self.path,
                line=getattr(node, "lineno", 1),
            )
        )

    # -- entry ----------------------------------------------------------------

    def run(self, fn: ast.FunctionDef, init_windows: dict | None = None):
        state = _State()
        if init_windows:
            for name, roots in init_windows.items():
                state.windows[name] = (frozenset(roots), fn.lineno)
        state = self._exec_block(fn.body, state)
        self._check_fn_exit(fn, state)

    def _check_fn_exit(self, fn: ast.FunctionDef, state: _State) -> None:
        for name, (_roots, line) in state.windows.items():
            self.diagnostics.append(
                Diagnostic(
                    rule="ghost/unfinished-window",
                    severity="error",
                    message=(
                        f"overlap window '{name}' opened here is still "
                        f"open when {fn.name}() returns; call finish() "
                        "on every path"
                    ),
                    path=self.path,
                    line=line,
                )
            )

    # -- statement interpreter ------------------------------------------------

    def _exec_block(self, stmts: list, state: _State) -> _State:
        for stmt in stmts:
            state = self._exec_stmt(stmt, state)
        return state

    def _exec_stmt(self, stmt: ast.stmt, state: _State) -> _State:
        if isinstance(stmt, ast.Assign):
            return self._exec_assign(stmt, state)
        if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            if stmt.value is not None:
                self._check_expr(stmt.value, state, set())
            self._check_write_target(stmt.target, state)
            return state
        if isinstance(stmt, ast.Expr):
            return self._exec_expr_stmt(stmt, state)
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._check_expr(stmt.value, state, set())
                # a returned pending escapes: the caller owns the window
                for name in list(state.windows):
                    if self._name_appears(stmt.value, name):
                        del state.windows[name]
            return state
        if isinstance(stmt, ast.If):
            return self._exec_if(stmt, state)
        if isinstance(stmt, (ast.For, ast.While)):
            return self._exec_loop(stmt, state)
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self._check_expr(item.context_expr, state, set())
            return self._exec_block(stmt.body, state)
        if isinstance(stmt, ast.Try):
            after_body = self._exec_block(stmt.body, state.copy())
            merged = after_body
            for handler in stmt.handlers:
                merged = merged.merge(
                    self._exec_block(handler.body, state.copy())
                )
            merged = self._exec_block(stmt.orelse, merged)
            return self._exec_block(stmt.finalbody, merged)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return state  # nested defs are analyzed separately
        for value in ast.iter_child_nodes(stmt):
            if isinstance(value, ast.expr):
                self._check_expr(value, state, set())
        return state

    # -- assignments ----------------------------------------------------------

    def _exec_assign(self, stmt: ast.Assign, state: _State) -> _State:
        value = stmt.value
        target = stmt.targets[0] if len(stmt.targets) == 1 else None

        # interior tagging: interior, ghost = _split_*(...)
        if (
            isinstance(target, ast.Tuple)
            and len(target.elts) == 2
            and all(isinstance(e, ast.Name) for e in target.elts)
            and isinstance(value, ast.Call)
        ):
            callee = value.func
            callee_name = (
                callee.id if isinstance(callee, ast.Name)
                else callee.attr if isinstance(callee, ast.Attribute)
                else ""
            )
            if callee_name.startswith("_split"):
                self._check_expr(value, state, set())
                state.interior.add(target.elts[0].id)
                state.interior.discard(target.elts[1].id)
                return state

        start = _contains_start_copy(value)
        if start is not None and isinstance(target, ast.Name):
            # reads in the opening call itself precede the window
            self._check_expr(value, state, set(), skip_start_copy=True)
            self._drop_window(target.id, state, stmt)
            state.windows[target.id] = (
                frozenset(_protected_roots(start)), stmt.lineno,
            )
            state.finished.discard(target.id)
            return state

        self._check_expr(value, state, set())
        for tgt in stmt.targets:
            self._check_write_target(tgt, state)
            if isinstance(tgt, ast.Name):
                # rebinding an open pending drops its window
                self._drop_window(tgt.id, state, stmt)
                state.finished.discard(tgt.id)
                state.interior.discard(tgt.id)
        return state

    def _drop_window(self, name: str, state: _State, stmt: ast.stmt) -> None:
        if name in state.windows:
            _roots, line = state.windows.pop(name)
            self._report(
                "ghost/dropped-pending",
                stmt,
                f"pending '{name}' (window opened at line {line}) is "
                "overwritten while unfinished; its posted receives leak "
                "and ghost rows never update",
            )

    def _check_write_target(self, target: ast.expr, state: _State) -> None:
        """A subscript/attribute store into a protected array is a write
        race; plain-name rebinding is handled by the caller."""
        if isinstance(target, ast.Subscript):
            root = _root_name(target)
            win = self._window_protecting(root, state)
            if win is not None:
                self._report(
                    "ghost/read-in-window",
                    target,
                    f"write into protected array '{root}' during the "
                    f"overlap window opened by '{win}'; the exchange in "
                    "transit still owns this buffer",
                )
            self._check_expr(target.slice, state, set())
        elif isinstance(target, ast.Tuple):
            for elt in target.elts:
                self._check_write_target(elt, state)

    # -- expression statements ------------------------------------------------

    def _exec_expr_stmt(self, stmt: ast.Expr, state: _State) -> _State:
        value = stmt.value
        start = _contains_start_copy(value)
        if start is not None:
            called_on = (
                ast.unparse(start.func.value)
                if isinstance(start.func, ast.Attribute)
                else "?"
            )
            self._report(
                "ghost/dropped-pending",
                stmt,
                f"result of {called_on}.start_copy(...) is discarded; "
                "bind the pending exchange and finish() it (or use the "
                "blocking copy())",
            )
            self._check_expr(value, state, set(), skip_start_copy=True)
            return state
        # name.finish()
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "finish"
            and isinstance(value.func.value, ast.Name)
        ):
            name = value.func.value.id
            if name in state.windows:
                del state.windows[name]
                state.finished.add(name)
            elif name in state.finished:
                self._report(
                    "ghost/double-finish",
                    stmt,
                    f"'{name}.finish()' called twice on this path; the "
                    "second call raises ExchangeLifecycleError",
                )
            return state
        self._check_expr(value, state, set())
        return state

    # -- conditionals and loops -----------------------------------------------

    @staticmethod
    def _none_test(test: ast.expr) -> tuple[str, bool] | None:
        """Recognize ``name is None`` / ``name is not None``; returns
        (name, is_none_on_true) or None."""
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.left, ast.Name)
            and len(test.comparators) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            if isinstance(test.ops[0], ast.Is):
                return test.left.id, True
            if isinstance(test.ops[0], ast.IsNot):
                return test.left.id, False
        return None

    def _exec_if(self, stmt: ast.If, state: _State) -> _State:
        refine = self._none_test(stmt.test)
        if refine is None:
            self._check_expr(stmt.test, state, set())
        true_state = state.copy()
        false_state = state.copy()
        if refine is not None:
            name, is_none_on_true = refine
            none_state = true_state if is_none_on_true else false_state
            # on the None path no window can be open on this name
            none_state.windows.pop(name, None)
        after_true = self._exec_block(stmt.body, true_state)
        after_false = self._exec_block(stmt.orelse, false_state)
        return after_true.merge(after_false)

    def _exec_loop(self, stmt, state: _State) -> _State:
        if isinstance(stmt, ast.For):
            self._check_expr(stmt.iter, state, set())
            self._check_write_target(stmt.target, state)
        else:
            self._check_expr(stmt.test, state, set())
        pre = state.copy()
        # two passes: windows opened at the bottom of an iteration must
        # meet the reads at the top of the next
        once = self._exec_block(stmt.body, state.copy())
        twice = self._exec_block(stmt.body, once.copy())
        after = pre.merge(twice)
        return self._exec_block(stmt.orelse, after)

    # -- expression reads -----------------------------------------------------

    @staticmethod
    def _name_appears(node: ast.AST, name: str) -> bool:
        return any(
            isinstance(sub, ast.Name) and sub.id == name
            for sub in ast.walk(node)
        )

    def _window_protecting(self, root, state: _State) -> str | None:
        """Name of an open window protecting ``root``, if any."""
        if root is None:
            return None
        for pending, (roots, _line) in state.windows.items():
            if root in roots:
                return pending
        return None

    def _check_expr(self, node: ast.expr, state: _State, blessed: set,
                    skip_start_copy: bool = False) -> None:
        """Flag protected-array reads in ``node``; process transfers."""
        if isinstance(node, ast.Call):
            self._check_call(node, state, blessed, skip_start_copy)
            return
        if isinstance(node, ast.Subscript):
            sl = node.slice
            if isinstance(sl, ast.Slice) and sl.upper is not None:
                # q[:n]-style bounded slice cannot reach trailing ghosts
                for part in (sl.lower, sl.upper, sl.step):
                    if part is not None:
                        self._check_expr(part, state, blessed)
                return
            self._check_expr(node.value, state, blessed)
            self._check_expr(sl, state, blessed)
            return
        if isinstance(node, ast.Name):
            if node.id in blessed or node.id in state.windows:
                return
            win = self._window_protecting(node.id, state)
            if win is not None:
                self._report(
                    "ghost/read-in-window",
                    node,
                    f"protected array '{node.id}' is used during the "
                    f"overlap window opened by '{win}' without an "
                    "interior-only proof (interior split context or "
                    "owned-bounded slice); its ghost rows are stale "
                    "until finish()",
                )
            return
        if isinstance(node, ast.Compare):
            # pending-identity tests are not array reads
            names = {node.left} | set(node.comparators)
            for sub in names:
                if not (isinstance(sub, ast.Name)
                        and sub.id in state.windows):
                    self._check_expr(sub, state, blessed)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._check_expr(child, state, blessed)
            elif isinstance(child, ast.comprehension):
                self._check_expr(child.iter, state, blessed)
                for cond in child.ifs:
                    self._check_expr(cond, state, blessed)

    def _check_call(self, node: ast.Call, state: _State, blessed: set,
                    skip_start_copy: bool = False) -> None:
        if (
            skip_start_copy
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "start_copy"
        ):
            # the opening call itself: its reads precede the window
            self._check_expr(node.func.value, state, blessed)
            for arg in list(node.args) + [k.value for k in node.keywords]:
                self._check_expr(arg, state, set(state.windows) | blessed
                                 | {_root_name(a) for a in node.args
                                    if _root_name(a)})
            return

        direct_args = list(node.args) + [k.value for k in node.keywords]

        # obligation transfer: an open pending passed into a call closes
        # the window here; the callee (when resolvable) is re-analyzed
        # with the window mapped onto its parameters
        transferred = [
            arg.id for arg in direct_args
            if isinstance(arg, ast.Name) and arg.id in state.windows
        ]
        exempt = set(blessed)
        for name in transferred:
            roots, _line = state.windows.pop(name)
            state.finished.discard(name)
            exempt |= roots
            self._queue_transfer(node, name, roots)

        # interior-context blessing: a call evaluating an interior-only
        # split touches no ghost rows by construction
        if any(
            isinstance(arg, ast.Name) and arg.id in state.interior
            for arg in direct_args
        ):
            for pending, (roots, _line) in state.windows.items():
                exempt |= roots

        # add-reduction during a window ships poisoned ghost rows
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _ADD_METHODS
        ):
            for arg in direct_args:
                root = _root_name(arg)
                win = self._window_protecting(root, state)
                if win is not None and root not in exempt:
                    self._report(
                        "ghost/add-in-window",
                        node,
                        f"add-reduction exchange on '{root}' while the "
                        f"overlap window opened by '{win}' is open; "
                        "finish() first so owners do not accumulate "
                        "stale ghost contributions",
                    )
                    exempt.add(root)

        self._check_expr(node.func, state, exempt)
        for arg in direct_args:
            self._check_expr(arg, state, exempt)

    def _queue_transfer(self, node: ast.Call, pending: str,
                        roots: frozenset) -> None:
        """Map an obligation transfer onto a resolvable callee."""
        func = node.func
        if isinstance(func, ast.Name):
            callee = func.id
            skip_self = False
        elif isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ) and func.value.id in ("self", "cls"):
            callee = func.attr
            skip_self = True
        else:
            return
        fn = self.functions.get(callee)
        if fn is None:
            return
        params = [a.arg for a in fn.args.args]
        if skip_self and params:
            params = params[1:]
        mapping: dict = {}
        for i, arg in enumerate(node.args):
            if i >= len(params):
                break
            if isinstance(arg, ast.Name):
                if arg.id == pending:
                    mapping["__pending__"] = params[i]
                elif arg.id in roots:
                    mapping.setdefault("__roots__", set()).add(params[i])
        for kw in node.keywords:
            if kw.arg is None or not isinstance(kw.value, ast.Name):
                continue
            if kw.value.id == pending:
                mapping["__pending__"] = kw.arg
            elif kw.value.id in roots:
                mapping.setdefault("__roots__", set()).add(kw.arg)
        if "__pending__" not in mapping:
            return
        self.transfers.add((
            callee,
            mapping["__pending__"],
            frozenset(mapping.get("__roots__", frozenset())),
        ))


def _collect_functions(tree: ast.Module) -> dict:
    """Every function/method in the module, keyed by bare name."""
    functions: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            functions[node.name] = node
    return functions


def check_source(text: str, path) -> list[Diagnostic]:
    """Run the overlap-safety pass over one module's source text."""
    path = Path(path)
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        return [
            Diagnostic(
                rule="ghost/syntax-error",
                severity="error",
                message=f"cannot parse: {exc.msg}",
                path=str(path),
                line=exc.lineno or 1,
            )
        ]
    functions = _collect_functions(tree)
    diags: list[Diagnostic] = []
    pending_transfers: set = set()
    for fn in functions.values():
        checker = _FunctionChecker(str(path), functions)
        checker.run(fn)
        diags.extend(checker.diagnostics)
        pending_transfers |= checker.transfers

    # second phase: re-analyze callees that received an open window
    done: set = set()
    while pending_transfers:
        transfer = pending_transfers.pop()
        if transfer in done:
            continue
        done.add(transfer)
        callee, pending_param, root_params = transfer
        fn = functions.get(callee)
        if fn is None:
            continue
        checker = _FunctionChecker(str(path), functions)
        checker.run(fn, init_windows={pending_param: set(root_params)})
        diags.extend(checker.diagnostics)
        pending_transfers |= checker.transfers - done

    # dedupe (loop bodies run twice) and honor noqa, like the lint pass
    lines = text.splitlines()
    seen: set = set()
    out: list[Diagnostic] = []
    for d in diags:
        key = (d.rule, d.line, d.message)
        if key in seen:
            continue
        seen.add(key)
        if (
            d.line is not None
            and d.line - 1 < len(lines)
            and "noqa" in lines[d.line - 1]
        ):
            continue
        out.append(d)
    return out


def check_file(path) -> list[Diagnostic]:
    path = Path(path)
    return check_source(path.read_text(), path)


def check_paths(paths) -> list[Diagnostic]:
    """Run the pass over every ``*.py`` under the given paths."""
    diags: list[Diagnostic] = []
    for path in paths:
        path = Path(path)
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for f in files:
            diags.extend(check_file(f))
    return diags
