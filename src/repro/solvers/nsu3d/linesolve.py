"""Point-implicit and line-implicit smoothers (paper section III, fig. 5).

The point-implicit smoother inverts one dense 6x6 block per grid point.
In boundary-layer regions the grid anisotropy couples points strongly
along wall-normal lines, and the point scheme stalls; NSU3D therefore
solves block-tridiagonal systems **along the implicit lines** with an LU
(Thomas) sweep, reverting to point-implicit off the lines.  "Because the
line solver is inherently scalar, the lines are sorted based on their
length, and grouped into sets of 64 lines of similar length, over which
vectorization may then take place" — our numpy implementation does
exactly that: lines of equal length are batched and the Thomas recursion
runs vectorized across the batch.

A smoothing step freezes its implicit operator at the step's initial
state and applies it in each of the three stages, so everything that
depends on that state alone is done once per step, in
:class:`FrozenOperator`: the per-face radii (shared by the local time
step, the diagonal and the line couplings), the diagonal blocks, the
couplings at the line edges, and the *factorization* — each line group
eliminated once (``engine.thomas_factor``), the off-line blocks inverted
once (``engine.block_factor``).  A stage is then a residual and the
right-hand-side sweeps.  The line batches and the line -> edge lookup
are geometry and live on the context
(:attr:`FlowContext.line_structure`).  The distributed smoother
(:mod:`.parallel`) builds the same operator on the stacked context of
its partitions, adds the two owner sums and inverts the point blocks of
owned rows only: a ghost row's correction stays zero, and its state
waits for the exchange copy that ends the stage.
"""

from __future__ import annotations

import numpy as np

from ...kernels import get_engine
from ...telemetry.spans import traced
from ..gas import apply_positivity_floors, variable_layout
from .context import FlowContext
from .jacobians import (
    complete_diagonal,
    edge_diagonal,
    edge_radii,
    line_offdiagonals,
    spectral_sum,
)
from .residual import apply_wall_bc, residual

#: Exchange tags of the two owner sums a decomposed
#: :class:`FrozenOperator` performs (spectral radii, diagonal blocks).
TAG_SPECTRAL_SUM = 11
TAG_DIAGONAL = 12

#: Largest relative change of density and total energy per correction
#: (twice that, over a seeded floor, for the turbulence variables).
MAX_CHANGE = 0.2


def limit_correction(q, dq, turb_ref=None):
    """Per-point scaling so density, total energy and the turbulence
    variables change boundedly per step — the standard guard against
    violent startup corrections from coarse levels.

    Which columns get limited comes from the solver's variable layout,
    not hard-coded slots, so extended state vectors (multi-equation
    turbulence models) limit the right rows.

    ``turb_ref`` supplies the field-maximum of each turbulence working
    variable (one entry per ``layout.turbulence`` column).  The serial
    path takes the max over the rows it was given; a distributed caller
    must pass the *global* maxima (an allreduce over owned rows) so every
    rank limits against the same reference and partitioning does not
    change the answer.
    """
    layout = variable_layout(q.shape[1])
    s = np.ones(len(q), dtype=np.float64)
    for var in layout.limited:
        allowed = MAX_CHANGE * np.abs(q[:, var]) + 1e-300
        s = np.minimum(s, allowed / np.maximum(np.abs(dq[:, var]), 1e-300))
    for j, var in enumerate(layout.turbulence):
        # allow bounded growth: a few times the current value, with a
        # floor tied to the largest working-variable level in the field
        # so near-zero points can still seed
        ref = (
            turb_ref[j] if turb_ref is not None
            else np.abs(q[:, var]).max()
        )
        seed = 0.05 * ref + 1e-300
        allowed = 2.0 * MAX_CHANGE * (np.abs(q[:, var]) + seed)
        s = np.minimum(s, allowed / np.maximum(np.abs(dq[:, var]), 1e-300))
    return q + np.minimum(s, 1.0)[:, None] * dq


def block_thomas(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Batched block-tridiagonal LU solve for one line group.

    Shapes: diag (L, m, k, k); lower/upper (L, m-1, k, k); rhs (L, m, k).
    Vectorized across the L lines of the batch (the paper's groups-of-64
    strategy); the recursion runs over the m stations.  The recursion
    itself lives in :mod:`repro.kernels`; this is the one-shot
    factor-then-solve of the active engine.
    """
    return get_engine().thomas_factor(lower, diag, upper).solve(rhs)


class FrozenOperator:
    """The implicit operator of one smoothing step, frozen at the
    step's initial state and factored once.

    Everything that depends on the state alone is evaluated here, one
    time: the per-face radii feed the local time step (:attr:`dt`), the
    diagonal blocks and the along-line couplings; the line groups are
    eliminated (``engine.thomas_factor``) and the off-line blocks
    inverted (``engine.block_factor``), so each stage's :meth:`solve` is
    only the right-hand-side sweeps.

    ``owner_sum(array, tag)``, when given, completes a per-vertex
    partial sum in place across the ranks of a decomposed level (an
    exchange-add over the caller's partitions); it sees the spectral
    sum and the edge part of the diagonal.  Lines are never split by
    the partitioner (fig. 6b), so their couplings need no completion.

    ``points``, when given, are the off-line rows whose blocks are
    inverted (by default every row no line covers).  A decomposed level
    passes its owned ones: :meth:`solve` leaves the other rows of its
    result zero, and nothing reads them before the next exchange copy
    overwrites the ghost rows they update.
    """

    def __init__(self, ctx: FlowContext, q: np.ndarray, cfl: float,
                 use_lines: bool = True, owner_sum=None, points=None):
        engine = get_engine()
        radii = edge_radii(ctx, q)
        total = spectral_sum(ctx, radii)[:, None]
        diag = edge_diagonal(ctx, q, radii)
        if owner_sum is not None:
            owner_sum(total, TAG_SPECTRAL_SUM)
            owner_sum(diag.reshape(ctx.npoints, -1), TAG_DIAGONAL)
        #: CFL-scaled local pseudo-time step per vertex
        self.dt = cfl * ctx.volumes / np.maximum(total[:, 0], 1e-300)
        diag = complete_diagonal(ctx, q, diag, self.dt)
        lines = ctx.line_structure
        self._lines: list = []
        self._rest: np.ndarray | slice = slice(None)
        if use_lines and lines.batches:
            self._rest = lines.rest
            lower, upper = map(
                lines.per_batch, line_offdiagonals(ctx, q, radii)
            )
            self._lines = [
                (batch, engine.thomas_factor(lo, diag[batch], up))
                for batch, lo, up in zip(lines.batches, lower, upper)
            ]
        if points is not None:
            self._rest = points
        self._points = engine.block_factor(diag[self._rest])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``P^-1 rhs``: line solves on the lines, point solves off."""
        dq = np.zeros_like(rhs)
        for batch, factor in self._lines:
            dq[batch] = factor.solve(rhs[batch])
        dq[self._rest] = self._points.solve(rhs[self._rest])
        return dq


#: Multistage coefficients for the preconditioned scheme.  A plain
#: (block-Jacobi) implicit update has unit amplification for pure
#: advection — it is the multistage wrapper that supplies the
#: high-frequency damping multigrid needs from its smoother.
STAGE_COEFFS = (0.6, 0.6, 1.0)


@traced("nsu3d.linesolve", cat="solver")
def smooth(
    ctx: FlowContext,
    q: np.ndarray,
    qinf: np.ndarray,
    forcing: np.ndarray | None = None,
    cfl: float = 10.0,
    nsteps: int = 1,
    use_lines: bool = True,
    order2: bool = False,
    turbulence: bool = True,
    viscous: bool = True,
) -> np.ndarray:
    """``nsteps`` preconditioned-multistage implicit smoothing steps.

    Each step freezes the implicit operator (point-diagonal or
    line-tridiagonal blocks) at the step's initial state and runs the
    multistage recursion

        q^(k) = q^(0) - alpha_k  P^{-1} (R(q^(k-1)) - f)

    — NSU3D's "local implicit solver at each grid point" driving a
    multistage scheme.  Per-point correction limiting and positivity
    floors guard the startup transient.
    """
    q = apply_wall_bc(ctx, q)
    for _ in range(nsteps):
        operator = FrozenOperator(ctx, q, cfl, use_lines)
        q0 = q
        for alpha in STAGE_COEFFS:
            r = residual(
                ctx, q, qinf, order2=order2, turbulence=turbulence,
                viscous=viscous,
            )
            if forcing is not None:
                r = r - forcing
            dq = -alpha * operator.solve(r)
            if not np.isfinite(dq).all():
                raise FloatingPointError("implicit stage produced non-finite dq")
            q = stage_update(ctx, q0, dq)
    return q


def stage_update(ctx: FlowContext, q0: np.ndarray, dq: np.ndarray,
                 turb_ref=None) -> np.ndarray:
    """``q0 + dq`` as a stage accepts it: correction limited, strong
    wall rows re-imposed, turbulence variables and then density and
    pressure floored."""
    cand = apply_wall_bc(ctx, limit_correction(q0, dq, turb_ref=turb_ref))
    for var in variable_layout(cand.shape[1]).turbulence:
        cand[:, var] = np.maximum(cand[:, var], 0.0)
    return apply_positivity_floors(cand)
