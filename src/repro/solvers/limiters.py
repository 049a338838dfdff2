"""Slope limiters for second-order reconstruction.

Both solvers achieve second-order accuracy by extrapolating cell/point
values to face midpoints with gradients; limiters keep the extrapolation
monotone near shocks.  The van Albada limiter is the classic smooth
choice for steady-state convergence (it never fully shuts off in smooth
flow, preserving residual convergence); minmod is the robust fallback.
"""

from __future__ import annotations

import numpy as np


def minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise minmod of two slopes."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    same = a * b > 0
    return np.where(same, np.where(np.abs(a) < np.abs(b), a, b), 0.0)


def van_albada(a: np.ndarray, b: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Van Albada average of two slopes (smooth limiter)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    num = (b * b + eps) * a + (a * a + eps) * b
    den = a * a + b * b + 2 * eps
    out = num / den
    return np.where(a * b > 0, out, 0.0)


LIMITERS = {
    "minmod": minmod,
    "van_albada": van_albada,
}
