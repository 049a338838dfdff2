"""Flying the vehicle through the database (paper section I).

"When coupled with a six-degree-of-freedom (6-DOF) integrator, the
vehicle can be 'flown' through the database by guidance and control
system designers to explore issues of stability and control."

A deliberately compact longitudinal 3-DOF integrator (the pitch-plane
subset of the 6-DOF problem — forward speed, vertical speed, pitch):
forces come from the aero database by interpolation over Mach and
angle-of-attack, so a filled database is literally what closes the
simulation loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..database import ResultStore


@dataclass
class AeroInterpolant:
    """Bilinear (Mach, alpha) interpolation of the coefficients stored in
    the aero database (:class:`~repro.database.ResultStore`)."""

    database: ResultStore
    fixed: dict = field(default_factory=dict)

    def __post_init__(self):
        records = self.database.slice(**self.fixed)
        if not records:
            raise ValueError("no database records match the fixed parameters")
        points = [r.spec.params for r in records]
        self.machs = np.array(sorted({p["mach"] for p in points}))
        self.alphas = np.array(sorted({p["alpha"] for p in points}))
        self._tables = {}
        for name in ("cl", "cd", "cm"):
            table = np.full((len(self.machs), len(self.alphas)), np.nan)
            for r, p in zip(records, points):
                i = int(np.searchsorted(self.machs, p["mach"]))
                j = int(np.searchsorted(self.alphas, p["alpha"]))
                table[i, j] = r.coefficients.get(name, np.nan)
            if np.isnan(table).any():
                raise ValueError(f"database not dense in (mach, alpha) for {name}")
            self._tables[name] = table

    def __call__(self, name: str, mach: float, alpha: float) -> float:
        m = np.clip(mach, self.machs[0], self.machs[-1])
        a = np.clip(alpha, self.alphas[0], self.alphas[-1])
        i = int(np.clip(np.searchsorted(self.machs, m) - 1, 0,
                        max(len(self.machs) - 2, 0)))
        j = int(np.clip(np.searchsorted(self.alphas, a) - 1, 0,
                        max(len(self.alphas) - 2, 0)))
        if len(self.machs) == 1:
            fm = 0.0
            i = 0
        else:
            fm = (m - self.machs[i]) / (self.machs[i + 1] - self.machs[i])
        if len(self.alphas) == 1:
            fa = 0.0
            j = 0
        else:
            fa = (a - self.alphas[j]) / (self.alphas[j + 1] - self.alphas[j])
        t = self._tables[name]
        i2 = min(i + 1, len(self.machs) - 1)
        j2 = min(j + 1, len(self.alphas) - 1)
        return float(
            (1 - fm) * (1 - fa) * t[i, j]
            + fm * (1 - fa) * t[i2, j]
            + (1 - fm) * fa * t[i, j2]
            + fm * fa * t[i2, j2]
        )


@dataclass
class FlightState:
    """Longitudinal state: position, velocity, pitch attitude."""

    x: float = 0.0
    z: float = 0.0
    u: float = 0.5  # Mach along body x
    w: float = 0.0  # vertical speed (Mach units)
    theta_deg: float = 2.0  # pitch attitude

    @property
    def mach(self) -> float:
        return float(np.hypot(self.u, self.w))

    @property
    def alpha_deg(self) -> float:
        return self.theta_deg - np.degrees(np.arctan2(self.w, max(self.u, 1e-9)))


def fly_through(
    aero: AeroInterpolant,
    state: FlightState,
    steps: int = 100,
    dt: float = 0.05,
    mass: float = 50.0,
    inertia: float = 20.0,
    gravity: float = 0.05,
    pitch_damping: float = 2.0,
) -> list:
    """Integrate the pitch-plane trajectory through the aero database.

    Returns the list of states (a trajectory), one per step.  Simple
    semi-implicit Euler; forces are (cl, cd, cm) interpolated from the
    database at the instantaneous (Mach, alpha).
    """
    trajectory = [state]
    qref = 1.0
    theta_rate = 0.0
    for _ in range(steps):
        s = trajectory[-1]
        mach, alpha = s.mach, s.alpha_deg
        cl = aero("cl", mach, alpha)
        cd = aero("cd", mach, alpha)
        cm = aero("cm", mach, alpha)
        q = qref * mach**2
        # wind axes -> body-ish axes (small-angle)
        lift, drag = q * cl, q * cd
        du = (-drag - mass * gravity * np.sin(np.radians(s.theta_deg))) / mass
        dw = (-lift + mass * gravity * np.cos(np.radians(s.theta_deg))) / mass
        dtheta2 = (q * cm - pitch_damping * theta_rate) / inertia
        theta_rate += dt * dtheta2
        new = FlightState(
            x=s.x + dt * s.u,
            z=s.z - dt * s.w,
            u=max(s.u + dt * du, 1e-3),
            w=s.w + dt * dw,
            theta_deg=s.theta_deg + dt * theta_rate,
        )
        trajectory.append(new)
    return trajectory


def is_statically_stable(aero: AeroInterpolant, mach: float,
                         alphas=(0.0, 2.0, 4.0)) -> bool:
    """dCm/dalpha < 0 — the basic stability question G&C designers ask
    of the database."""
    cms = [aero("cm", mach, a) for a in alphas]
    slope = np.polyfit(alphas, cms, 1)[0]
    return bool(slope < 0)
