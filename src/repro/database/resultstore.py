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
**point index**: within each *group* of cases that differ only in their
wind-space point (same solver, config instance and solver settings),
``(mach, alpha, ...) -> content key``.  It is built once from the
persisted lines at load and maintained incrementally on every
:meth:`put`, so :meth:`nearest` — the k-nearest-neighbor lookup the
surrogate interpolation feeds on — never rescans the store.
"""

from __future__ import annotations

import json
import math
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


def _wind_distance(a: dict, b: dict, scales: dict) -> float | None:
    """Normalized Euclidean distance over shared numeric wind axes.

    Returns None when the two points do not span the same numeric axes
    (a case recorded with a ``beta`` axis is not a neighbor of a query
    without one — interpolating across differing axis sets would
    silently extrapolate along the missing dimension).
    """
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
        #: group key -> {wind-items tuple -> content key}
        self._points: dict[tuple, dict[tuple, str]] = {}
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
        group = self._points.setdefault(_group_key(spec), {})
        group[spec.wind] = spec.key

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
            return len(self._points.get(_group_key(spec), ()))

    def nearest(self, spec: CaseSpec, k: int = 4) -> list[tuple[float, CaseResult]]:
        """The ``k`` stored cases nearest to ``spec`` in wind space.

        Candidates come from ``spec``'s point-index group (same solver,
        config instance and solver settings — cases legitimately
        interpolable into the query).  Distances are Euclidean over the
        shared numeric wind axes, each axis normalized by the value
        spread the group actually covers, so a Mach range of 0.3 and an
        alpha range of 10 degrees weigh equally.  The exact point itself
        (``spec.key``) is excluded: the caller already checked it.

        Returns ``(distance, result)`` pairs sorted nearest-first.
        """
        query = spec.wind_params
        with self._lock:
            group = self._points.get(_group_key(spec))
            if not group:
                return []
            candidates = [
                (dict(wind), key)
                for wind, key in group.items()
                if key != spec.key and key in self._results
            ]
            results = {key: self._results[key] for _, key in candidates}
        scales: dict[str, float] = {}
        for name, value in query.items():
            if not isinstance(value, (int, float)):
                continue
            values = [float(value)] + [
                float(wind[name])
                for wind, _ in candidates
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
        return [(distance, results[key]) for distance, key in scored[:k]]

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
