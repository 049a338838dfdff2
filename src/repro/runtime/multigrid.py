"""The one FAS cycle driver for every solver (tentpole piece 3).

Both codes use "the same multigrid cycling strategies" (paper fig. 4):
V-cycles and the preferred W-cycles that revisit the coarse levels
``2^(l-1)`` times per fine-grid visit, with the Full Approximation
Scheme forcing

    f_c = R_c(I q_f) - I (R_f(q_f) - f_f)

so the coarse correction vanishes at convergence.  What differs between
NSU3D and Cart3D — the smoother, the residual operator, the transfer
stencils, wall-row masking, correction limiting — is factored into a
:class:`LevelOps` adapter; this module owns only the cycle shape, the
coarse-CFL policy and the per-level telemetry spans.  The serial
adapters live next to each solver (``solvers/*/multigrid.py``), the
distributed one in :mod:`repro.runtime.driver` — all four paths execute
this single function, on one state array per level.

Coarse-CFL policy (the one documented rule, replacing ``None`` ->
``cfl`` in NSU3D vs a hard-coded ``1.5`` in Cart3D):

* level 0 always runs at ``cfl``;
* coarse levels run at ``coarse_cfl`` when the caller passes one;
* otherwise they run at ``ops.coarse_cfl_fraction * cfl`` — NSU3D
  declares fraction 1.0 (its agglomerated coarse operators tolerate the
  fine CFL), Cart3D declares 0.75 (first-order coarse RK stability,
  reproducing the historical 1.5 at the default ``cfl=2.0``).
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..telemetry.spans import span as _span


class LevelOps:
    """Protocol the cycle driver is parameterized over.

    Required attributes: ``name`` (span prefix), ``nlevels``,
    ``coarse_cfl_fraction``.  Required methods (``q`` is a state
    ndarray — the level's rows for the serial adapters, the stacked rows
    of the partitions for the distributed one):

    ``clone(q)``
        Independent copy of a state.
    ``smooth(level, q, forcing, cfl, nsteps)``
        ``nsteps`` smoothing steps of ``dq/dt = -(R(q) - forcing)``.
    ``defect(level, q, forcing)``
        ``R(q) - forcing`` (the fine-level quantity restricted into the
        coarse forcing term).
    ``restrict_state(level, q)``
        Volume-weighted restriction of ``q`` to level+1, including any
        boundary-condition fixup the coarse state must satisfy.
    ``coarse_forcing(level, q_c0, defect)``
        The FAS forcing ``R_c(q_c0) - I(defect)`` on level+1, including
        any wall-row masking.
    ``apply_correction(level, q, q_c, q_c0)``
        Prolong ``q_c - q_c0`` to ``level`` and apply it, including the
        solver's correction limiting/guarding.
    """


def effective_cfl(
    level: int, cfl: float, coarse_cfl: float | None, fraction: float
) -> float:
    """The unified coarse-CFL policy (see module docstring)."""
    if level == 0:
        return cfl
    if coarse_cfl is not None:
        return float(coarse_cfl)
    return fraction * cfl


def fas_cycle(
    ops,
    q,
    *,
    level: int = 0,
    forcing=None,
    cycle: str = "W",
    nu1: int = 1,
    nu2: int = 1,
    cfl: float,
    coarse_cfl: float | None = None,
):
    """One FAS cycle from ``level`` down; returns the updated state."""
    if cycle not in ("V", "W"):
        raise ConfigurationError("cycle must be 'V' or 'W'")
    with _span(f"{ops.name}.mg_level", cat="solver", level=level):
        return _fas_level(
            ops, q, level=level, forcing=forcing, cycle=cycle,
            nu1=nu1, nu2=nu2, cfl=cfl, coarse_cfl=coarse_cfl,
        )


def _fas_level(ops, q, *, level, forcing, cycle, nu1, nu2, cfl, coarse_cfl):
    this_cfl = effective_cfl(level, cfl, coarse_cfl, ops.coarse_cfl_fraction)

    q = ops.smooth(level, q, forcing, this_cfl, nu1)

    if level + 1 < ops.nlevels:
        # the restricted base state first (it must satisfy the coarse
        # level's own boundary conditions before R_c is evaluated)
        q_c0 = ops.restrict_state(level, q)
        defect = ops.defect(level, q, forcing)
        f_c = ops.coarse_forcing(level, q_c0, defect)

        q_c = ops.clone(q_c0)
        visits = 2 if (cycle == "W" and level + 2 < ops.nlevels) else 1
        for _ in range(visits):
            q_c = fas_cycle(
                ops, q_c, level=level + 1, forcing=f_c, cycle=cycle,
                nu1=nu1, nu2=nu2, cfl=cfl, coarse_cfl=coarse_cfl,
            )
        q = ops.apply_correction(level, q, q_c, q_c0)

    return ops.smooth(level, q, forcing, this_cfl, nu2)
