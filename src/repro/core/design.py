"""Design optimization driver (paper sections I and VI).

The paper's motivating workflow uses the high-fidelity solver "to drive
a high-fidelity design optimization procedure", noting that "even for
relatively efficient adjoint-based design-optimization approaches, as
many as 20 to 50 analysis cycles may be required to reach a local
optimum" — which is exactly why the 72M-point case's wall-clock time
matters (24 hours for a design loop at 2008 CPUs).

This module implements the outer loop at demonstration scale: a
finite-difference-gradient descent over named design variables (control
deflections or geometry parameters), each evaluation a full flow solve.
Substitution note (DESIGN.md): the paper's adjoint gradients (references
[23]-[26]) are replaced by finite differences — same outer-loop
structure and cost bookkeeping, at n+1 solves per design cycle instead
of 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class DesignHistory:
    """Objective and variable traces plus the analysis-cycle count the
    paper budgets (20-50 cycles to a local optimum)."""

    objectives: list = field(default_factory=list)
    variables: list = field(default_factory=list)
    analysis_runs: int = 0

    @property
    def improved(self) -> bool:
        return (
            len(self.objectives) >= 2
            and self.objectives[-1] < self.objectives[0]
        )


@dataclass
class DesignOptimizer:
    """Finite-difference gradient descent over named design variables.

    Parameters
    ----------
    evaluate:
        Callable ``dict -> float`` running one flow analysis and
        returning the objective (e.g. drag at fixed lift).
    variables:
        Initial values, ``{name: value}``.
    bounds:
        Optional ``{name: (lo, hi)}`` box constraints (deflection
        limits).
    step:
        Finite-difference step per variable.
    learning_rate:
        Gradient-descent step scale, with backtracking halving.
    """

    evaluate: object
    variables: dict
    bounds: dict = field(default_factory=dict)
    step: float = 0.5
    learning_rate: float = 4.0
    history: DesignHistory = field(default_factory=DesignHistory)

    def _run(self, variables: dict) -> float:
        self.history.analysis_runs += 1
        return float(self.evaluate(dict(variables)))

    def _clip(self, variables: dict) -> dict:
        out = dict(variables)
        for name, (lo, hi) in self.bounds.items():
            if name in out:
                out[name] = float(np.clip(out[name], lo, hi))
        return out

    def gradient(self, variables: dict, f0: float) -> dict:
        """One-sided finite-difference gradient (n extra analyses)."""
        grad = {}
        for name in variables:
            probe = dict(variables)
            probe[name] = probe[name] + self.step
            grad[name] = (self._run(self._clip(probe)) - f0) / self.step
        return grad

    def optimize(self, design_cycles: int = 5, tol: float = 1e-6) -> dict:
        """Run the outer loop; returns the best variables found."""
        x = self._clip(self.variables)
        f = self._run(x)
        self.history.objectives.append(f)
        self.history.variables.append(dict(x))
        for _ in range(design_cycles):
            g = self.gradient(x, f)
            gnorm = np.sqrt(sum(v * v for v in g.values()))
            if gnorm < tol:
                break
            rate = self.learning_rate
            for _ in range(5):  # backtracking line search
                cand = self._clip(
                    {k: x[k] - rate * g[k] for k in x}
                )
                f_cand = self._run(cand)
                if f_cand < f:
                    x, f = cand, f_cand
                    break
                rate *= 0.5
            self.history.objectives.append(f)
            self.history.variables.append(dict(x))
        return x


def trim_objective(study, target_cl: float, wind: dict,
                   cd_weight: float = 1.0):
    """Standard trim/drag objective over control variables.

    Returns ``evaluate(variables)`` for :class:`DesignOptimizer`: runs
    the study's Cart3D analysis at ``wind`` with the variables as
    control deflections and scores ``(cl - target)^2 + w * cd``.
    """

    def evaluate(variables: dict) -> float:
        record = study.run_case(wind, variables)
        cl = record.coefficients["cl"]
        cd = record.coefficients["cd"]
        return (cl - target_cl) ** 2 + cd_weight * cd

    return evaluate
