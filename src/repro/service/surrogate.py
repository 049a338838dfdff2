"""Surrogate tier: answer cache misses from neighboring filled cases.

The variable-fidelity argument (PAPERS.md: mixed-fidelity tiering in
the PyFR heterogeneous-computing line; the paper's own Cart3D-corrects-
NSU3D workflow) gives the service a principled middle rung between a
cache hit and a real solve: force/moment coefficients vary smoothly
over the wind space, so a query landing *between* filled points can be
interpolated from its neighbors at a small, *estimable* error — vastly
cheaper than a solve and honest about its fidelity (every surrogate
response is tagged ``source="surrogate"`` with the error estimate).

One interpolant over the normalized wind-space axes, ``linear``: a
least-squares affine fit when the neighbor set determines one (>=
ndim+1 points), else inverse-distance weighting.

The error estimate is leave-one-out cross-validation over the neighbor
set: refit without each neighbor, predict it, take the worst miss over
neighbors and coefficients.  With every refit affine (``n - 1 >= ndim
+ 1``) no refit runs: one QR of the full design gives each miss in
closed form, ``(y_i - ŷ_i) / (1 - h_ii)`` with ``h_ii`` the leverage of
neighbor ``i``.  That path is guarded — the design must have full rank
and every leverage must satisfy ``h_ii < 1 - 1e-6`` (a leverage near 1
means the refit without that neighbor is singular, and the formula
divides by almost nothing) — and anything the guard rejects, like
inverse-distance refits, runs the refit loop.
With too few points for LOO the spread of neighbor values stands in
(conservative).  Eligibility is explicit:
:meth:`SurrogateConfig.eligible` requires ``min_neighbors`` within
``max_distance`` (normalized units), so the tier never quietly
extrapolates from the far side of the database.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..solvers.interface import CaseResult

@dataclass(frozen=True)
class SurrogateConfig:
    """Knobs of the surrogate tier.

    ``max_error`` (in coefficient units) demotes a surrogate answer
    whose LOO estimate is worse back to the solve tier: the service
    would rather pay for a solve than serve a bad interpolation.
    """

    k: int = 6
    min_neighbors: int = 3
    max_distance: float = 0.75
    max_error: float | None = None

    def __post_init__(self) -> None:
        if self.min_neighbors < 2:
            raise ConfigurationError(
                f"min_neighbors must be >= 2, got {self.min_neighbors}"
            )
        if self.k < self.min_neighbors:
            raise ConfigurationError(
                f"k ({self.k}) must be >= min_neighbors "
                f"({self.min_neighbors})"
            )

    def eligible(self, neighbors: list[tuple[float, CaseResult]]) -> bool:
        """Can this neighbor set support an interpolation?"""
        close = [d for d, _ in neighbors if d <= self.max_distance]
        return len(close) >= self.min_neighbors

    def within(self, neighbors: list[tuple[float, CaseResult]]
               ) -> list[tuple[float, CaseResult]]:
        """The usable support: neighbors inside ``max_distance``."""
        return [(d, r) for d, r in neighbors if d <= self.max_distance]


def _coordinates(wind: dict, axes: tuple[str, ...]) -> np.ndarray:
    return np.array(
        [float(wind[name]) for name in axes], dtype=np.float64
    )


def _predict(coords: np.ndarray, values: np.ndarray,
             at: np.ndarray) -> np.ndarray:
    """Predict coefficient rows at one point from neighbor samples.

    ``coords`` is (n, ndim) neighbor positions, ``values`` (n, ncoef)
    their coefficients, ``at`` the (ndim,) query point.
    """
    n, ndim = coords.shape
    if n >= ndim + 1:
        # affine least squares: c(w) = a + b . w
        design = np.hstack(
            [np.ones((n, 1), dtype=np.float64), coords]
        )
        fit, *_ = np.linalg.lstsq(design, values, rcond=None)
        return np.asarray(
            np.hstack([1.0, at]) @ fit, dtype=np.float64
        )
    # under-determined: inverse-distance weighting
    dist = np.linalg.norm(coords - at[None, :], axis=1)
    if np.any(dist < 1.0e-12):
        return np.asarray(
            values[int(np.argmin(dist))], dtype=np.float64
        )
    weights = 1.0 / dist**2
    return np.asarray(
        (weights[:, None] * values).sum(axis=0) / weights.sum(),
        dtype=np.float64,
    )


def _loo_closed_form(coords: np.ndarray,
                     values: np.ndarray) -> float | None:
    """Worst leave-one-out miss of the affine least-squares fit from one
    QR of the full design, or None where that is unsafe.

    Dropping row ``i`` of a full-rank least-squares fit moves the
    prediction at ``x_i`` so that its miss is ``(y_i - ŷ_i) / (1 -
    h_ii)``, with ``ŷ = Q Qᵀ y`` the full fit and ``h_ii = |Q_i|²`` the
    leverage.  Valid only while every refit still has full rank: the
    design must have it (every ``|R_jj|`` above ``1e-6`` of the
    largest) and no row may carry the fit alone (``h_ii < 1 - 1e-6``;
    a leverage of 1 means the refit without that row is singular).
    """
    n = coords.shape[0]
    design = np.hstack([np.ones((n, 1), dtype=np.float64), coords])
    q, r = np.linalg.qr(design)
    pivots = np.abs(np.diag(r))
    leverage = np.einsum("ij,ij->i", q, q)
    if (pivots.min() <= 1.0e-6 * pivots.max()
            or not np.all(leverage < 1.0 - 1.0e-6)):
        return None
    residual = values - q @ (q.T @ values)
    return float(np.abs(residual / (1.0 - leverage)[:, None]).max())


def _loo_error(coords: np.ndarray, values: np.ndarray) -> float:
    """Leave-one-out cross-validation error (worst miss, coefficient
    units); falls back to the neighbor-value spread when the set is too
    small to refit without a point.

    The misses come from :func:`_loo_closed_form` when every refit is
    itself an affine fit (``n - 1 >= ndim + 1``) and the set passes its
    guard; otherwise — inverse-distance refits, degenerate sets — each
    neighbor is refit away in turn."""
    n, ndim = coords.shape
    if n < 3:
        spread = values.max(axis=0) - values.min(axis=0)
        return float(spread.max()) if spread.size else 0.0
    if n - 1 >= ndim + 1:
        worst = _loo_closed_form(coords, values)
        if worst is not None:
            return worst
    worst = 0.0
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        mask[i] = False
        predicted = _predict(coords[mask], values[mask], coords[i])
        worst = max(worst, float(np.abs(predicted - values[i]).max()))
        mask[i] = True
    return worst


def interpolate(
    wind: dict,
    neighbors: list[tuple[float, CaseResult]],
    method: str = "linear",
) -> tuple[dict, float]:
    """Interpolate one wind point from ``(distance, result)`` neighbors.

    Returns ``(coefficients, error_estimate)``.  Neighbors must share
    the query's wind axes (the point index guarantees that); the
    coefficient name set is the intersection across neighbors, so a
    mixed-provenance group never fabricates a coefficient only some
    neighbors carry.  ``method`` names the interpolant; ``"linear"`` is
    the only one.
    """
    if method != "linear":
        raise ConfigurationError(
            f"unknown surrogate method {method!r}; the surrogate is "
            f"'linear'"
        )
    if not neighbors:
        raise ConfigurationError("cannot interpolate from zero neighbors")
    axes = tuple(sorted(
        name for name, value in wind.items()
        if isinstance(value, (int, float))
    ))
    if not axes:
        raise ConfigurationError("query wind point has no numeric axes")
    names: set[str] = set(neighbors[0][1].coefficients)
    for _, result in neighbors[1:]:
        names &= set(result.coefficients)
    ordered = tuple(sorted(names))
    if not ordered:
        raise ConfigurationError(
            "neighbor results share no coefficient names"
        )
    # normalize each axis by the spread the support covers, so Mach
    # (0.0x wide) and alpha (degrees wide) weigh comparably
    raw = np.array(
        [_coordinates(r.spec.wind_params, axes) for _, r in neighbors],
        dtype=np.float64,
    )
    at = _coordinates(wind, axes)
    lo = np.minimum(raw.min(axis=0), at)
    hi = np.maximum(raw.max(axis=0), at)
    scale = np.where(hi > lo, hi - lo, 1.0)
    coords = raw / scale
    values = np.array(
        [[float(r.coefficients[name]) for name in ordered]
         for _, r in neighbors],
        dtype=np.float64,
    )
    predicted = _predict(coords, values, at / scale)
    if not np.all(np.isfinite(predicted)):
        raise ConfigurationError(
            "surrogate prediction is not finite; neighbor set is "
            "degenerate (collinear or duplicated wind points)"
        )
    error = _loo_error(coords, values)
    if not math.isfinite(error):
        error = float(
            (values.max(axis=0) - values.min(axis=0)).max()
        )
    return dict(zip(ordered, predicted.tolist())), error
