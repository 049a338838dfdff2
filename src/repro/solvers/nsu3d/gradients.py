"""Green-Gauss gradients on median-dual control volumes.

Vertex gradients drive three things in the NSU3D-style discretization:
second-order MUSCL reconstruction of the convective fluxes, the vorticity
magnitude in the turbulence model's production term, and the viscous
work terms.  The Green-Gauss formula over the dual CV is exact for
linear fields on a closed dual (which :mod:`repro.mesh.unstructured.dual`
guarantees to machine precision).

The surface integral and the volume division are exposed separately
(:func:`green_gauss_sums` / :func:`green_gauss`): the distributed path
accumulates each rank's partial surface sums, completes them across
ranks with an exchange-add (every dual face lives on exactly one rank),
and only then divides by the control volumes — the same
partial-sum/complete/finalize pattern as the residual.  A rank-local
closure carries just the geometry the surface integral needs, as a
:class:`GradientSurface`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...kernels import ScatterOperator, get_engine, incidence
from ...mesh.unstructured.dual import DualMesh


@dataclass
class GradientSurface:
    """The minimal closed-surface geometry Green-Gauss integrates over.

    A duck-typed subset of :class:`~repro.mesh.unstructured.dual.
    DualMesh`: interior dual faces as edges with oriented face vectors,
    boundary faces as per-vertex outward normals, and the control
    volumes.  The distributed NSU3D path builds one per rank (local
    edge set, owned-only boundary closure) so the serial gradient
    kernels run unchanged on rank-local geometry.
    """

    edges: np.ndarray  # (E, 2)
    face_vectors: np.ndarray  # (E, 3), oriented edges[:,0] -> edges[:,1]
    volumes: np.ndarray  # (N,)
    bvert: np.ndarray  # (B,) boundary-face vertex
    bnormal: np.ndarray  # (B, 3) outward boundary-face normal


def surface_scatters(
    dual: DualMesh | GradientSurface,
) -> tuple[ScatterOperator, ScatterOperator]:
    """(signed dual-face, boundary-face) scatter operators of a closed
    surface.  A level context keeps its own
    (:attr:`FlowContext.gradient_scatters`); this builds a fresh pair
    for a surface nobody owns operators for."""
    n = len(dual.volumes)
    return (
        incidence(n, (dual.edges[:, 0], 1.0), (dual.edges[:, 1], -1.0)),
        incidence(n, (dual.bvert, 1.0)),
    )


def green_gauss_sums(
    dual: DualMesh | GradientSurface,
    fields: np.ndarray,
    scatters: tuple[ScatterOperator, ScatterOperator] | None = None,
) -> np.ndarray:
    """Undivided Green-Gauss surface sums of ``fields`` (N, k) -> (N, 3, k).

    The closed-surface integral only — divide by ``dual.volumes`` to get
    gradients.  Interior dual faces use the edge-midpoint average;
    boundary faces use the boundary vertex value itself (first-order
    closure).  ``scatters`` are the surface's prebuilt
    :func:`surface_scatters`, when its owner has them.
    """
    fields = np.asarray(fields, dtype=np.float64)
    if fields.ndim == 1:
        fields = fields[:, None]
    n, k = len(dual.volumes), fields.shape[1]
    grad = np.zeros((n, 3, k), dtype=np.float64)
    faces, boundary = (
        scatters if scatters is not None else surface_scatters(dual)
    )
    mid = 0.5 * (fields[dual.edges[:, 0]] + fields[dual.edges[:, 1]])
    engine = get_engine()
    engine.scatter_add(
        grad, faces, dual.face_vectors[:, :, None] * mid[:, None, :]
    )
    engine.scatter_add(
        grad, boundary,
        dual.bnormal[:, :, None] * fields[dual.bvert][:, None, :],
    )
    return grad


def green_gauss(
    dual: DualMesh | GradientSurface,
    fields: np.ndarray,
    scatters: tuple[ScatterOperator, ScatterOperator] | None = None,
) -> np.ndarray:
    """Gradients of ``fields`` (N, k) -> (N, 3, k)."""
    grad = green_gauss_sums(dual, fields, scatters)
    grad /= dual.volumes[:, None, None]
    return grad


def vorticity_magnitude(grad_vel: np.ndarray) -> np.ndarray:
    """|curl u| from velocity gradients ``(N, 3, 3)`` with
    ``grad_vel[:, i, j] = d u_j / d x_i``."""
    wx = grad_vel[:, 1, 2] - grad_vel[:, 2, 1]
    wy = grad_vel[:, 2, 0] - grad_vel[:, 0, 2]
    wz = grad_vel[:, 0, 1] - grad_vel[:, 1, 0]
    return np.sqrt(wx**2 + wy**2 + wz**2)
