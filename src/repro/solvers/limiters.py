"""Slope limiter for second-order reconstruction.

Both solvers achieve second-order accuracy by extrapolating cell/point
values to face midpoints with gradients; the limiter keeps the
extrapolation monotone near shocks.  Van Albada is the classic smooth
choice for steady-state convergence (it never fully shuts off in smooth
flow, preserving residual convergence), and both residuals call it.
"""

from __future__ import annotations

import numpy as np


def van_albada(a: np.ndarray, b: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Van Albada average of two slopes (smooth limiter)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    num = (b * b + eps) * a + (a * a + eps) * b
    den = a * a + b * b + 2 * eps
    out = num / den
    return np.where(a * b > 0, out, 0.0)
