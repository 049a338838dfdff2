"""Tests for the variable-fidelity workflow and the database fly-through."""

import numpy as np
import pytest

from repro.core import (
    AeroInterpolant,
    FlightState,
    VariableFidelityStudy,
    fly_through,
    is_statically_stable,
)
from repro.database import Axis, ParameterSpace, ResultStore, StudyDefinition
from repro.mesh.cartesian import wing_body
from repro.solvers import CaseResult, CaseSpec


@pytest.fixture(scope="module")
def tiny_study():
    return StudyDefinition(
        config_space=ParameterSpace(axes=(Axis("aileron", (0.0,)),)),
        wind_space=ParameterSpace(
            axes=(Axis("mach", (0.4, 0.5)), Axis("alpha", (0.0, 2.0)))
        ),
    )


@pytest.fixture(scope="module")
def filled_study(tiny_study):
    runner = VariableFidelityStudy(
        geometry=wing_body(),
        study=tiny_study,
        dim=2,
        base_level=4,
        max_level=5,
        mg_levels=2,
        cycles=10,
    )
    runner.fill()
    return runner


class TestVariableFidelity:
    def test_fill_produces_all_cases(self, filled_study, tiny_study):
        assert len(filled_study.runtime().store) == tiny_study.ncases
        assert filled_study.meshes_built == 1  # one config instance
        assert filled_study.cases_run == tiny_study.ncases

    def test_records_carry_forces_and_history(self, filled_study):
        [rec] = filled_study.runtime().store.slice(
            aileron=0.0, mach=0.4, alpha=0.0
        )
        assert "cd" in rec.coefficients and "cl" in rec.coefficients
        assert len(rec.residual_history) == 10
        assert np.isfinite(list(rec.coefficients.values())).all()

    def test_max_cases_truncates(self, tiny_study):
        runner = VariableFidelityStudy(
            geometry=wing_body(), study=tiny_study, dim=2,
            base_level=4, max_level=4, mg_levels=1, cycles=3,
        )
        db = runner.fill(max_cases=2)
        assert len(db) == 2

    def test_anchor_correction(self, filled_study):
        """NSU3D anchoring: the corrected database reproduces the anchor
        exactly and shifts its neighbors by the same delta."""
        anchor = {"aileron": 0.0, "mach": 0.5, "alpha": 2.0}
        high_fidelity = {"cl": 0.123, "cd": 0.045}
        corr = filled_study.anchor_with_nsu3d(anchor, high_fidelity)
        fixed = filled_study.corrected_coefficient(anchor, "cl", corr)
        assert fixed == pytest.approx(0.123)
        other = {"aileron": 0.0, "mach": 0.4, "alpha": 0.0}
        [stored] = filled_study.runtime().store.slice(**other)
        raw = stored.coefficients["cl"]
        assert filled_study.corrected_coefficient(
            other, "cl", corr
        ) == pytest.approx(raw + corr["cl"])


def synthetic_db():
    """Analytic database: cl = 0.1 a, cm = -0.02 a, cd = 0.01 + m^2/100."""
    db = ResultStore()
    for m in (0.4, 0.5, 0.6):
        for a in (0.0, 2.0, 4.0):
            db.put(
                CaseResult(
                    spec=CaseSpec(config={"elevator": 0.0},
                                  wind={"mach": m, "alpha": a}),
                    coefficients={
                        "cl": 0.1 * a,
                        "cd": 0.01 + m**2 / 100,
                        "cm": -0.02 * a,
                    },
                )
            )
    return db


class TestFlyThrough:
    def test_interpolant_exact_at_nodes(self):
        aero = AeroInterpolant(synthetic_db(), fixed={"elevator": 0.0})
        assert aero("cl", 0.5, 2.0) == pytest.approx(0.2)
        assert aero("cm", 0.6, 4.0) == pytest.approx(-0.08)

    def test_interpolant_linear_between_nodes(self):
        aero = AeroInterpolant(synthetic_db(), fixed={"elevator": 0.0})
        assert aero("cl", 0.45, 1.0) == pytest.approx(0.1)

    def test_interpolant_clips_outside_envelope(self):
        aero = AeroInterpolant(synthetic_db(), fixed={"elevator": 0.0})
        assert aero("cl", 0.9, 10.0) == pytest.approx(0.4)

    def test_missing_records_rejected(self):
        db = synthetic_db()
        with pytest.raises(ValueError):
            AeroInterpolant(db, fixed={"elevator": 99.0})

    def test_static_stability_sign(self):
        aero = AeroInterpolant(synthetic_db(), fixed={"elevator": 0.0})
        assert is_statically_stable(aero, 0.5)  # dCm/dalpha = -0.02 < 0

    def test_fly_through_produces_trajectory(self):
        aero = AeroInterpolant(synthetic_db(), fixed={"elevator": 0.0})
        traj = fly_through(aero, FlightState(u=0.5), steps=50, dt=0.02)
        assert len(traj) == 51
        machs = [s.mach for s in traj]
        assert all(np.isfinite(machs))
        assert traj[-1].x > 0  # moved downrange

    def test_flight_state_derived_quantities(self):
        s = FlightState(u=0.4, w=0.0, theta_deg=3.0)
        assert s.mach == pytest.approx(0.4)
        assert s.alpha_deg == pytest.approx(3.0)
