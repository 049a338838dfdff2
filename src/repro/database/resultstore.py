"""The aero-performance database (paper §IV-V): content-keyed, persistent.

"In general, the only data stored for these cases are surface pressures,
convergence histories and force and moment coefficients.  If, during
review of the results, the database shows unexpected results in a
particular region, those cases are typically re-run on-demand ... In
many cases, it is actually faster to re-run a case than it would be to
retrieve it from mass storage" — the *virtual database*.

:class:`ResultStore` keeps exactly those records: an in-memory map from
:attr:`CaseSpec.key` to :class:`~repro.solvers.interface.CaseResult`,
optionally backed by an append-only JSON-lines file so a campaign
survives process restarts.  Within a fill campaign, re-submitting an
identical case (same config, wind and solver settings) is a cache hit,
not a second solve; a case the store lacks re-runs on demand through
:meth:`~repro.core.workflow.VariableFidelityStudy.run_case`.  The review
verbs — :meth:`ResultStore.slice`, :meth:`~ResultStore.coefficients`,
:meth:`~ResultStore.outliers`, :meth:`~ResultStore.unconverged` and
:meth:`~ResultStore.degraded` — match on :attr:`CaseSpec.params`.

The store deliberately keys on *content* (the sha-256 of the canonical
spec), not on parameter dicts, so two callers constructing the same case
through different code paths — the facade, a raw :class:`FlowJob`, a
virtual re-run — dedup against each other.

For the query service's surrogate tier the store also maintains a
columnar **point index**: within each *group* of cases that differ only
in their wind-space point (same solver, config instance and solver
settings), one row per stored wind point — its content key, and its
numeric coordinates kept as columns, sub-indexed by (numeric axis
names, non-numeric wind items), so that only points on the same axis
set meet.  It is built once from the persisted lines at load, and every
:meth:`put` appends a row (a re-put only refreshes the row's key); the
NumPy arrays are rebuilt lazily on the next :meth:`nearest`.  So
:meth:`nearest` — the k-nearest-neighbor lookup the surrogate
interpolation feeds on — never rescans the store and never re-derives a
content key: it takes the group's arrays under the lock and answers
with a fixed number of array operations (per-axis spread, normalized
distances, a stable top-k).
"""

from __future__ import annotations

import json
import threading
import warnings
from pathlib import Path

import numpy as np

from ..errors import CheckpointCorrupt
from ..solvers.interface import CaseResult, CaseSpec


def _group_key(spec: CaseSpec) -> tuple:
    """Everything of a spec's identity *except* the wind point: cases in
    one group are candidate neighbors for interpolating each other."""
    return (spec.solver, spec.config, spec.settings)


def _axis_set(wind: tuple) -> tuple[tuple, tuple, list[float]]:
    """Split wind items into the sub-index they belong to — (numeric
    axis names, non-numeric items) — and the numeric coordinates.

    Only points with the same sub-index are neighbors: a case recorded
    with a ``beta`` axis is not a neighbor of a query without one
    (interpolating across differing axis sets would silently
    extrapolate along the missing dimension), and a non-numeric wind
    value must match exactly.
    """
    names, other, coords = [], [], []
    for name, value in wind:
        if isinstance(value, (int, float)):
            names.append(name)
            coords.append(float(value))
        else:
            other.append((name, value))
    return tuple(names), tuple(other), coords


class _Group:
    """One neighbor group's wind points as numeric columns.

    Rows are numbered in first-put order; a re-put of a stored point
    only refreshes its content key.  ``subs`` holds, per sub-index, its
    rows and one coordinate column per numeric axis.  The NumPy form is
    rebuilt lazily after a put.
    """

    __slots__ = ("rows", "keys", "subs", "_arrays")

    def __init__(self) -> None:
        self.rows: dict[tuple, int] = {}
        self.keys: list[str] = []
        self.subs: dict[tuple, tuple[list[int], list[list[float]]]] = {}
        self._arrays: tuple | None = None

    def add(self, wind: tuple, key: str) -> None:
        self._arrays = None
        row = self.rows.get(wind)
        if row is not None:
            self.keys[row] = key
            return
        row = self.rows[wind] = len(self.keys)
        self.keys.append(key)
        names, other, coords = _axis_set(wind)
        ids, columns = self.subs.setdefault(
            (names, other), ([], [[] for _ in names])
        )
        ids.append(row)
        for column, value in zip(columns, coords):
            column.append(value)

    def arrays(self) -> tuple:
        """``(keys, {sub: (rows, columns)}, {axis: (lo, hi)})`` — the
        bounds over every sub-index carrying the axis, what the
        distance normalization spans.  Immutable once built, so a
        snapshot outlives later puts."""
        if self._arrays is None:
            subs = {
                sub: (np.array(ids, dtype=np.intp),
                      np.array(columns, dtype=np.float64)
                      .reshape(len(columns), len(ids)))
                for sub, (ids, columns) in self.subs.items()
            }
            bounds: dict[str, tuple[float, float]] = {}
            for (names, _), (_, columns) in subs.items():
                for name, column in zip(names, columns):
                    lo, hi = bounds.get(name, (np.inf, -np.inf))
                    bounds[name] = (min(lo, float(column.min())),
                                    max(hi, float(column.max())))
            self._arrays = (tuple(self.keys), subs, bounds)
        return self._arrays


class ResultStore:
    """Thread-safe content-keyed cache of :class:`CaseResult` records.

    Parameters
    ----------
    path:
        Optional JSON-lines file.  Existing entries are loaded on
        construction; every :meth:`put` appends one line, so the store
        is persistent across runtime instances and processes.  Later
        entries for the same key win (last-write-wins on reload).
    """

    def __init__(self, path: str | Path | None = None):
        self._lock = threading.Lock()
        self._results: dict[str, CaseResult] = {}
        #: group key -> that group's wind points
        self._points: dict[tuple, _Group] = {}
        self._path = Path(path) if path is not None else None
        if self._path is not None and self._path.exists():
            lines = self._path.read_text().splitlines()
            for lineno, line in enumerate(lines, start=1):
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError as exc:
                    if lineno == len(lines):
                        # a process killed mid-append leaves a torn final
                        # line; that one result simply re-runs
                        warnings.warn(
                            f"ignoring truncated final line in result "
                            f"store {self._path} (crash mid-write)",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                        continue
                    raise CheckpointCorrupt(
                        self._path, lineno,
                        f"unparseable result-store line: {exc.msg}",
                    ) from exc
                result = CaseResult.from_json(entry)
                self._results[result.spec.key] = result
                self._index(result.spec)

    def _index(self, spec: CaseSpec) -> None:
        """Register one spec's wind point (caller holds the lock, or is
        the constructor before the store is shared)."""
        self._points.setdefault(_group_key(spec), _Group()).add(
            spec.wind, spec.key
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._results)

    @property
    def path(self) -> Path | None:
        return self._path

    def keys(self) -> list[str]:
        with self._lock:
            return list(self._results)

    def get(self, key: str) -> CaseResult | None:
        with self._lock:
            return self._results.get(key)

    def put(self, result: CaseResult) -> str:
        """Store a result under its spec's content key; returns the key."""
        key = result.spec.key
        with self._lock:
            self._results[key] = result
            self._index(result.spec)
            if self._path is not None:
                with self._path.open("a") as fh:
                    fh.write(json.dumps(result.to_json()) + "\n")
        return key

    def group_size(self, spec: CaseSpec) -> int:
        """Number of stored wind points in ``spec``'s neighbor group."""
        with self._lock:
            group = self._points.get(_group_key(spec))
            return 0 if group is None else len(group.keys)

    def nearest(self, spec: CaseSpec, k: int = 4) -> list[tuple[float, CaseResult]]:
        """The ``k`` stored cases nearest to ``spec`` in wind space.

        Candidates come from ``spec``'s point-index group (same solver,
        config instance and solver settings — cases legitimately
        interpolable into the query).  Distances are Euclidean over the
        shared numeric wind axes, each axis normalized by the value
        spread the group actually covers, so a Mach range of 0.3 and an
        alpha range of 10 degrees weigh equally.  The exact point itself
        (``spec.key``) is excluded: the caller already checked it.  The
        spread covers every point of the group that carries the axis,
        whatever its axis set, except that one.

        Returns ``(distance, result)`` pairs sorted nearest-first (ties
        in first-put order).  The work is a fixed number of array
        operations on the group's columns, not a loop over candidates.
        """
        names, other, query = _axis_set(spec.wind)
        with self._lock:
            group = self._points.get(_group_key(spec))
            if group is None:
                return []
            keys, subs, bounds = group.arrays()
            own = group.rows.get(spec.wind, -1)
        if own >= 0 and keys[own] != spec.key:
            own = -1    # an equal wind tuple now stored under another key
        if (names, other) not in subs:
            return []    # no stored point spans the query's axis set
        rows, columns = subs[names, other]
        keep = rows != own
        rows = rows[keep]
        if not rows.size:
            return []
        total = np.zeros(rows.size)
        for name, value, column in zip(names, query, columns):
            # the spread includes the query, so it makes no difference
            # that the bounds also cover the excluded exact point
            lo, hi = bounds[name]
            spread = max(value, hi) - min(value, lo)
            scale = spread if spread > 0.0 else 1.0
            step = (value - column[keep]) / scale
            total += step * step
        distance = np.sqrt(total)
        order = np.argsort(distance, kind="stable")[:k]
        with self._lock:
            return [
                (d, self._results[keys[row]])
                for d, row in zip(distance[order].tolist(),
                                  rows[order].tolist())
            ]

    # -- review verbs (match on spec.params) ---------------------------------

    def slice(self, **fixed) -> list[CaseResult]:
        """Stored results whose parameters match all the given values."""
        with self._lock:
            results = list(self._results.values())
        return [
            r for r in results
            if all(r.spec.params.get(k) == v for k, v in fixed.items())
        ]

    def coefficients(self, name: str) -> tuple[list[dict], np.ndarray]:
        """(list of param dicts, array of one coefficient) over all cases."""
        results = self.slice()
        values = np.array([r.coefficients.get(name, np.nan) for r in results])
        return [r.spec.params for r in results], values

    def outliers(self, name: str, nsigma: float = 3.0) -> list[CaseResult]:
        """Cases whose coefficient deviates > nsigma from the database
        mean — 'unexpected results in a particular region' flagged for
        on-demand re-runs."""
        results = self.slice()
        values = np.array([r.coefficients.get(name, np.nan) for r in results])
        good = values[np.isfinite(values)]
        if len(good) < 3:
            return []
        mu, sd = good.mean(), good.std()
        if sd == 0:
            return []
        return [
            r for r, v in zip(results, values)
            if np.isfinite(v) and abs(v - mu) > nsigma * sd
        ]

    def unconverged(self) -> list[CaseResult]:
        return [r for r in self.slice() if not r.converged]

    def degraded(self) -> list[CaseResult]:
        """Results filled at the fallback fidelity — candidates for the
        paper's on-demand re-run once the primary solver recovers."""
        return [r for r in self.slice() if r.degraded]
