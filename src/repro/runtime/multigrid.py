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

The cycle has one recipe: one pre- and one post-smoothing step per
level visit, and one coarse-CFL rule — level 0 runs at ``cfl``, every
coarser level at ``ops.coarse_cfl_fraction * cfl``.  Each solver
declares its fraction once, as ``COARSE_CFL_FRACTION`` in its
``multigrid`` module: NSU3D 1.0 (its agglomerated coarse operators
tolerate the fine CFL), Cart3D 0.75 (first-order coarse RK stability;
1.5 at the default ``cfl=2.0``).
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
    ``smooth(level, q, forcing, cfl)``
        One smoothing step of ``dq/dt = -(R(q) - forcing)``.
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


def effective_cfl(level: int, cfl: float, fraction: float) -> float:
    """The coarse-CFL rule (see module docstring)."""
    return cfl if level == 0 else fraction * cfl


def fas_cycle(
    ops,
    q,
    *,
    level: int = 0,
    forcing=None,
    cycle: str = "W",
    cfl: float,
):
    """One FAS cycle from ``level`` down; returns the updated state."""
    if cycle not in ("V", "W"):
        raise ConfigurationError("cycle must be 'V' or 'W'")
    with _span(f"{ops.name}.mg_level", cat="solver", level=level):
        return _fas_level(
            ops, q, level=level, forcing=forcing, cycle=cycle, cfl=cfl,
        )


def _fas_level(ops, q, *, level, forcing, cycle, cfl):
    this_cfl = effective_cfl(level, cfl, ops.coarse_cfl_fraction)

    q = ops.smooth(level, q, forcing, this_cfl)

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
                cfl=cfl,
            )
        q = ops.apply_correction(level, q, q_c, q_c0)

    return ops.smooth(level, q, forcing, this_cfl)
