"""The paper's full design story, end to end (sections I, IV, VI).

1. **Optimize**: drive the flow solver through a design loop (the paper
   budgets "20 to 50 analysis cycles ... to reach a local optimum") to
   trim the wing-body to a target lift with the elevator.
2. **Validate**: fill the aero database over the wind envelope for the
   optimized configuration ("once a new 'optimal' design has been
   constructed, it must be validated throughout the entire flight
   envelope").
3. **Assess**: static stability from the validated database.

Run:  python examples/design_optimization.py
"""

import numpy as np

from repro.core import (
    AeroInterpolant,
    DesignOptimizer,
    VariableFidelityStudy,
    is_statically_stable,
)
from repro.database import Axis, ParameterSpace, StudyDefinition
from repro.mesh.cartesian import wing_body


def main():
    design_point = {"mach": 0.5, "alpha": 2.0}

    study = VariableFidelityStudy(
        geometry=wing_body(),
        study=StudyDefinition(
            config_space=ParameterSpace(axes=(Axis("case", (0,)),)),
            wind_space=ParameterSpace(axes=(Axis("mach", (0.5,)),)),
        ),
        dim=2, base_level=4, max_level=6, mg_levels=2, cycles=20,
    )

    print("== 1. design loop: trim the design point to a target cl ==")
    target_cl = -0.10

    def evaluate(variables):
        wind = dict(design_point)
        wind["alpha"] = variables["alpha"]
        record = study.run_case(wind, {"case": 0})
        return (record.coefficients["cl"] - target_cl) ** 2

    optimizer = DesignOptimizer(
        evaluate=evaluate,
        variables={"alpha": 0.0},
        bounds={"alpha": (-6.0, 6.0)},
        step=1.0,
        learning_rate=40.0,
    )
    best = optimizer.optimize(design_cycles=4)
    print(f"  objective {optimizer.history.objectives[0]:.5f} -> "
          f"{optimizer.history.objectives[-1]:.5f} "
          f"in {optimizer.history.analysis_runs} analysis runs "
          f"(paper budget: 20-50)")
    print(f"  trimmed angle of attack: {best['alpha']:+.2f} deg")

    print("== 2. envelope validation of the optimized design ==")
    validation = VariableFidelityStudy(
        geometry=wing_body(),
        study=StudyDefinition(
            config_space=ParameterSpace(axes=(Axis("case", (0,)),)),
            wind_space=ParameterSpace(
                axes=(
                    Axis("mach", (0.4, 0.5, 0.6)),
                    Axis("alpha", (0.0, 2.0, 4.0)),
                )
            ),
        ),
        dim=2, base_level=4, max_level=5, mg_levels=3, cycles=30,
    )
    db = validation.fill()
    _, cls = db.coefficients("cl")
    _, cds = db.coefficients("cd")
    print(f"  {len(db)} envelope cases: cl in "
          f"[{cls.min():+.3f}, {cls.max():+.3f}], cd in "
          f"[{cds.min():.4f}, {cds.max():.4f}]")
    print(f"  unconverged cases flagged for re-run: "
          f"{len(db.unconverged())}")

    print("== 3. stability assessment from the database ==")
    aero = AeroInterpolant(db, fixed={"case": 0})
    stable = is_statically_stable(aero, mach=0.5)
    print(f"  dCm/dalpha < 0 at M=0.5: {stable}")


if __name__ == "__main__":
    main()
