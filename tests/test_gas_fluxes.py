"""Tests for gas relations, flux functions and limiters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers.fluxes import (
    euler_flux,
    max_wave_speed,
    roe_flux,
    rusanov_flux,
    split_normals,
    van_leer_flux,
    wall_flux,
)
from repro.solvers.gas import (
    GAMMA,
    GM1,
    apply_positivity_floors,
    check_physical,
    conservative_to_primitive,
    freestream,
    mach_number,
    pressure,
    primitive_to_conservative,
    sound_speed,
)
from repro.solvers.limiters import van_albada


def random_states(n, nvar, seed=0):
    rng = np.random.default_rng(seed)
    prim = np.empty((n, nvar))
    prim[:, 0] = 0.5 + rng.random(n)
    prim[:, 1:4] = rng.normal(scale=0.4, size=(n, 3))
    prim[:, 4] = 0.4 + rng.random(n)
    if nvar > 5:
        prim[:, 5] = rng.random(n) * 1e-4
    return primitive_to_conservative(prim), prim


class TestGas:
    @pytest.mark.parametrize("nvar", [5, 6])
    def test_conversion_roundtrip(self, nvar):
        q, prim = random_states(100, nvar)
        assert np.allclose(conservative_to_primitive(q), prim)
        assert np.allclose(primitive_to_conservative(prim), q)

    def test_pressure_of_freestream(self):
        q = freestream(0.75)
        assert pressure(q[None, :])[0] == pytest.approx(1.0 / GAMMA)
        assert sound_speed(q[None, :])[0] == pytest.approx(1.0)

    def test_freestream_mach(self):
        for mach in (0.3, 0.75, 2.6):
            q = freestream(mach, alpha_deg=2.09, beta_deg=0.8)
            assert mach_number(q[None, :])[0] == pytest.approx(mach)

    def test_freestream_direction(self):
        q = freestream(1.0, alpha_deg=90.0)
        assert q[3] == pytest.approx(1.0)  # straight up
        assert abs(q[1]) < 1e-12

    def test_freestream_sa_seed_scales_with_viscosity(self):
        mu = 1e-5
        q = freestream(0.75, nvar=6, nu_lam=mu)
        assert q[5] == pytest.approx(3.0 * mu)

    def test_freestream_validation(self):
        with pytest.raises(ValueError):
            freestream(-1.0)
        with pytest.raises(ValueError):
            freestream(0.5, nvar=7)

    def test_check_physical(self):
        q, _ = random_states(10, 5)
        assert check_physical(q)
        q[3, 0] = -1.0
        assert not check_physical(q)

    def test_positivity_floors(self):
        q, _ = random_states(10, 5)
        q[2, 4] = 0.0  # negative pressure
        fixed = apply_positivity_floors(q)
        assert check_physical(fixed)
        # untouched rows unchanged
        assert np.array_equal(fixed[0], q[0])

    def test_floors_noop_when_physical(self):
        q, _ = random_states(10, 5)
        assert apply_positivity_floors(q) is q


class TestFluxConsistency:
    @pytest.mark.parametrize("flux", [rusanov_flux, roe_flux, van_leer_flux])
    @pytest.mark.parametrize("nvar", [5, 6])
    def test_consistency(self, flux, nvar):
        """F(q, q, S) must equal the physical flux f(q).S."""
        q, _ = random_states(50, nvar)
        rng = np.random.default_rng(1)
        normal = rng.normal(size=(50, 3))
        n = normal / np.linalg.norm(normal, axis=1, keepdims=True)
        area = np.linalg.norm(normal, axis=1)
        exact = euler_flux(q, n) * area[:, None]
        assert np.allclose(flux(q, q, normal), exact, atol=1e-10)

    @pytest.mark.parametrize("flux", [roe_flux, van_leer_flux])
    def test_supersonic_upwinding(self, flux):
        # (Rusanov is excluded: its single-wave dissipation is not
        # exactly one-sided even for supersonic flow)
        """Fully supersonic flow: the flux must be one-sided."""
        prim_l = np.array([[1.0, 3.0, 0, 0, 1 / GAMMA]])
        prim_r = np.array([[0.7, 3.0, 0, 0, 0.6 / GAMMA]])
        ql, qr = primitive_to_conservative(prim_l), primitive_to_conservative(prim_r)
        normal = np.array([[1.0, 0, 0]])
        assert np.allclose(flux(ql, qr, normal), euler_flux(ql, normal), atol=1e-10)

    def test_roe_captures_stationary_contact(self):
        """Roe resolves a stationary contact exactly (zero mass flux)."""
        prim_l = np.array([[1.0, 0, 0, 0, 0.5]])
        prim_r = np.array([[0.3, 0, 0, 0, 0.5]])
        ql, qr = primitive_to_conservative(prim_l), primitive_to_conservative(prim_r)
        f = roe_flux(ql, qr, np.array([[1.0, 0, 0]]))
        assert abs(f[0, 0]) < 1e-12

    def test_rusanov_diffuses_contact(self):
        prim_l = np.array([[1.0, 0, 0, 0, 0.5]])
        prim_r = np.array([[0.3, 0, 0, 0, 0.5]])
        ql, qr = primitive_to_conservative(prim_l), primitive_to_conservative(prim_r)
        f = rusanov_flux(ql, qr, np.array([[1.0, 0, 0]]))
        assert abs(f[0, 0]) > 1e-3

    def test_wall_flux_is_pressure_only(self):
        q, _ = random_states(20, 5)
        normal = np.tile(np.array([[0.0, 0.0, 2.0]]), (20, 1))
        f = wall_flux(q, normal)
        assert np.allclose(f[:, 0], 0)
        assert np.allclose(f[:, 4], 0)
        assert np.allclose(f[:, 3], pressure(q) * 2.0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_flux_antisymmetry(self, seed):
        """F(ql, qr, S) = -F(qr, ql, -S): what makes the edge loop
        conservative."""
        ql, _ = random_states(10, 5, seed=seed)
        qr, _ = random_states(10, 5, seed=seed + 1)
        rng = np.random.default_rng(seed + 2)
        normal = rng.normal(size=(10, 3))
        for flux in (rusanov_flux, roe_flux, van_leer_flux):
            f1 = flux(ql, qr, normal)
            f2 = flux(qr, ql, -normal)
            assert np.allclose(f1, -f2, atol=1e-10), flux.__name__


# -- straight-line reference formulas ----------------------------------------
#
# The rewritten flux kernels compute on per-component rows; these are the
# same formulas written the plain way — states as arrays of vectors, dot
# products as ``np.sum(..., axis=-1)``, primitives re-derived wherever
# they are needed.  The kernels must reproduce them exactly: the row
# layout is a data-movement change, not an arithmetic one.


def _ref_split(normal):
    area = np.linalg.norm(normal, axis=-1)
    return normal / np.maximum(area, 1e-300)[..., None], area


def _ref_primitive(cons):
    rho = cons[..., 0]
    vel = cons[..., 1:4] * (1.0 / rho)[..., None]
    prim = np.empty_like(cons)
    prim[..., 0] = rho
    prim[..., 1:4] = vel
    prim[..., 4] = GM1 * (cons[..., 4] - 0.5 * rho * np.sum(vel**2, axis=-1))
    if cons.shape[-1] == 6:
        prim[..., 5] = cons[..., 5] * (1.0 / rho)
    return prim


def _ref_pressure(cons):
    ke = 0.5 * np.sum(cons[..., 1:4] ** 2, axis=-1) / cons[..., 0]
    return GM1 * (cons[..., 4] - ke)


def _ref_euler(cons, n):
    prim = _ref_primitive(cons)
    rho, vel, p = prim[..., 0], prim[..., 1:4], prim[..., 4]
    vn = np.sum(vel * n, axis=-1)
    out = np.empty_like(cons)
    out[..., 0] = rho * vn
    out[..., 1:4] = rho[..., None] * vel * vn[..., None] + p[..., None] * n
    out[..., 4] = (cons[..., 4] + p) * vn
    out[..., 5:] = cons[..., 5:] * vn[..., None]
    return out


def _ref_wave_speed(cons, n):
    prim = _ref_primitive(cons)
    vn = np.sum(prim[..., 1:4] * n, axis=-1)
    return np.abs(vn) + np.sqrt(GAMMA * prim[..., 4] / prim[..., 0])


def _ref_rusanov(ql, qr, normal):
    n, area = _ref_split(normal)
    lam = np.maximum(_ref_wave_speed(ql, n), _ref_wave_speed(qr, n))
    flux = 0.5 * (_ref_euler(ql, n) + _ref_euler(qr, n)) \
        - 0.5 * lam[..., None] * (qr - ql)
    return flux * area[..., None]


def _ref_roe(ql, qr, normal, entropy_fix=0.05, floor_strengths=True):
    """``floor_strengths=False`` is the formula as it was before the
    floor fix: ``a`` floored, the wave strengths dividing by raw a^2."""
    n, area = _ref_split(normal)
    pl, pr = _ref_primitive(ql), _ref_primitive(qr)
    rho_l, u_l, p_l = pl[..., 0], pl[..., 1:4], pl[..., 4]
    rho_r, u_r, p_r = pr[..., 0], pr[..., 1:4], pr[..., 4]
    h_l = (ql[..., 4] + p_l) / rho_l
    h_r = (qr[..., 4] + p_r) / rho_r
    sl, sr = np.sqrt(rho_l), np.sqrt(rho_r)
    w = sl / (sl + sr)
    u = w[..., None] * u_l + (1 - w)[..., None] * u_r
    h = w * h_l + (1 - w) * h_r
    ke = 0.5 * np.sum(u * u, axis=-1)
    a2 = GM1 * (h - ke)
    a = np.sqrt(np.maximum(a2, 1e-12))
    if floor_strengths:
        a2 = np.maximum(a2, 1e-12)
    un = np.sum(u * n, axis=-1)
    drho, dp, du = rho_r - rho_l, p_r - p_l, u_r - u_l
    dun = np.sum(du * n, axis=-1)
    rho_roe = sl * sr
    a1 = (dp - rho_roe * a * dun) / (2 * a2)
    a3 = (dp + rho_roe * a * dun) / (2 * a2)
    a2w = drho - dp / a2
    dut = du - dun[..., None] * n
    lam1, lam2, lam3 = np.abs(un - a), np.abs(un), np.abs(un + a)
    eps = entropy_fix * a
    for lam in (lam1, lam3):
        small = lam < eps
        lam[small] = (lam[small] ** 2 / np.maximum(eps[small], 1e-300)
                      + eps[small]) * 0.5
    diss = np.zeros(ql.shape[:-1] + (5,))
    # u - a wave, entropy wave, shear waves, u + a wave — in this order
    diss[..., 0] += a1 * lam1
    diss[..., 1:4] += (a1 * lam1)[..., None] * (u - a[..., None] * n)
    diss[..., 4] += a1 * lam1 * (h - a * un)
    diss[..., 0] += a2w * lam2
    diss[..., 1:4] += (a2w * lam2)[..., None] * u
    diss[..., 4] += a2w * lam2 * ke
    diss[..., 1:4] += (rho_roe * lam2)[..., None] * dut
    diss[..., 4] += rho_roe * lam2 * np.sum(u * dut, axis=-1)
    diss[..., 0] += a3 * lam3
    diss[..., 1:4] += (a3 * lam3)[..., None] * (u + a[..., None] * n)
    diss[..., 4] += a3 * lam3 * (h + a * un)
    flux = np.empty_like(ql)
    flux[..., :5] = 0.5 * (
        _ref_euler(ql[..., :5], n) + _ref_euler(qr[..., :5], n)
    ) - 0.5 * diss
    mass = flux[..., 0]
    flux[..., 5:] = mass[..., None] * np.where(
        mass[..., None] >= 0,
        ql[..., 5:] / rho_l[..., None], qr[..., 5:] / rho_r[..., None],
    )
    return flux * area[..., None]


def _ref_van_leer(ql, qr, normal):
    """The array-of-vectors ``van_leer_flux`` the kernel replaced: each
    half moves its faces through boolean-mask gathers and scatters."""

    def half(q, n, sign):
        prim = _ref_primitive(q)
        rho, vel, p = prim[..., 0], prim[..., 1:4], prim[..., 4]
        a = np.sqrt(GAMMA * p / rho)
        vn = np.sum(vel * n, axis=-1)
        m = vn / a
        out = np.zeros_like(q)

        full = sign * m >= 1.0  # fully upwind
        if full.any():
            out[full] = _ref_euler(q[full], n[full])
        sub = np.abs(m) < 1.0
        if sub.any():
            rs, vs, ps = rho[sub], vel[sub], p[sub]
            a_s, m_s, vn_s = a[sub], m[sub], vn[sub]
            n_s = n[sub]
            fmass = sign * 0.25 * rs * a_s * (m_s + sign) ** 2
            common = (-vn_s + sign * 2.0 * a_s) / GAMMA
            out_sub = np.zeros_like(q[sub])
            out_sub[..., 0] = fmass
            out_sub[..., 1:4] = fmass[..., None] * (
                vs + common[..., None] * n_s
            )
            # energy: van Leer's split enthalpy form
            h_split = (
                0.5 * np.sum(vs * vs, axis=-1)
                - 0.5 * vn_s**2
                + ((GM1) * vn_s + sign * 2 * a_s) ** 2 / (2 * (GAMMA**2 - 1.0))
            )
            out_sub[..., 4] = fmass * h_split
            if q.shape[-1] > 5:
                out_sub[..., 5:] = fmass[..., None] * (
                    q[sub][..., 5:] / rs[..., None]
                )
            out[sub] = out_sub
        return out

    n, area = _ref_split(normal)
    return (half(ql, n, +1.0) + half(qr, n, -1.0)) * area[..., None]


def _ref_wall(cons, normal):
    n, area = _ref_split(normal)
    out = np.zeros_like(cons)
    out[..., 1:4] = _ref_pressure(cons)[..., None] * n
    return out * area[..., None]


#: how the drawn face sets are biased: plain subsonic pairs, faces whose
#: normal Mach number is past 1 (one-sided upwinding; van Leer's
#: ``sign * m >= 1`` branch), and faces sitting within the entropy-fix
#: band of a sonic point
REGIMES = ("subsonic", "supersonic", "sonic")


def drawn_faces(seed, nvar, regime, nfaces=24):
    """Left/right states and area-weighted normals for one regime; a
    sixth of the normals have zero area (the ``1e-300`` guard)."""
    rng = np.random.default_rng(seed)
    normal = rng.normal(size=(nfaces, 3)) * rng.uniform(0.1, 3.0, (nfaces, 1))
    unit = normal / np.linalg.norm(normal, axis=1, keepdims=True)
    prim = np.empty((2, nfaces, nvar))
    prim[..., 0] = rng.uniform(0.5, 1.5, (2, nfaces))
    prim[..., 4] = rng.uniform(0.4, 1.4, (2, nfaces))
    if nvar > 5:
        prim[..., 5] = rng.uniform(0.0, 1e-3, (2, nfaces))
    a = np.sqrt(GAMMA * prim[..., 4] / prim[..., 0])
    mach_n = {
        "subsonic": rng.uniform(-0.8, 0.8, (2, nfaces)),
        "supersonic": rng.choice([-1.0, 1.0], (1, nfaces))
        * rng.uniform(1.2, 3.0, (2, nfaces)),
        "sonic": rng.choice([-1.0, 1.0], (1, nfaces))
        * rng.uniform(0.97, 1.03, (2, nfaces)),
    }[regime]
    tangent = np.cross(unit, rng.normal(size=(nfaces, 3)))
    prim[..., 1:4] = (a * mach_n)[..., None] * unit \
        + rng.uniform(-0.3, 0.3, (2, nfaces, 1)) * tangent
    if regime == "sonic":
        # a weak jump, so the Roe average stays inside the fix band
        prim[1] = prim[0] * (1.0 + 1e-3 * rng.normal(size=prim[0].shape))
    normal[::6] = 0.0
    ql, qr = primitive_to_conservative(prim)
    return ql, qr, normal


def same(a, b):
    return np.array_equal(a, b, equal_nan=True)


def same_bytes(a, b):
    """:func:`same`, signs of zeros included: ``-0.0 == 0.0``, so a
    value comparison lets a sign drift in a downwind or zero-area row
    through."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRowKernelsMatchReference:
    """Each component-major kernel against its straight-line formula, on
    generated face sets."""

    faces = given(
        seed=st.integers(0, 10_000),
        nvar=st.sampled_from([5, 6]),
        regime=st.sampled_from(REGIMES),
    )

    def test_regimes_hit_their_branches(self):
        for nvar in (5, 6):
            ql, qr, normal = drawn_faces(3, nvar, "supersonic")
            n, _ = _ref_split(normal)
            live = np.linalg.norm(normal, axis=1) > 0
            prim = _ref_primitive(ql)
            mach = np.sum(prim[:, 1:4] * n, axis=1) / np.sqrt(
                GAMMA * prim[:, 4] / prim[:, 0]
            )
            assert (np.abs(mach[live]) >= 1.0).all()
            assert (mach > 1).any() and (mach < -1).any()

            ql, qr, normal = drawn_faces(3, nvar, "sonic")
            n, _ = _ref_split(normal)
            prim = _ref_primitive(0.5 * (ql + qr))
            a = np.sqrt(GAMMA * prim[:, 4] / prim[:, 0])
            un = np.sum(prim[:, 1:4] * n, axis=1)
            assert (np.abs(np.abs(un) - a) < 0.05 * a).any()
            assert (np.linalg.norm(normal, axis=1) == 0).any()

    @settings(max_examples=60, deadline=None)
    @faces
    def test_roe(self, seed, nvar, regime):
        ql, qr, normal = drawn_faces(seed, nvar, regime)
        assert same_bytes(roe_flux(ql, qr, normal), _ref_roe(ql, qr, normal))

    @settings(max_examples=60, deadline=None)
    @faces
    def test_van_leer(self, seed, nvar, regime):
        ql, qr, normal = drawn_faces(seed, nvar, regime)
        assert same_bytes(van_leer_flux(ql, qr, normal),
                          _ref_van_leer(ql, qr, normal))

    @pytest.mark.parametrize("nvar", [5, 6])
    def test_van_leer_takes_no_branch_on_a_nan_state(self, nvar):
        """NaN is neither subsonic nor fully upwind: such a side adds
        the zero flux it always did, not NaN."""
        ql, qr, normal = drawn_faces(5, nvar, "supersonic")
        ql[1] = qr[1] = ql[2] = qr[4] = np.nan
        f = van_leer_flux(ql, qr, normal)
        assert same_bytes(f, _ref_van_leer(ql, qr, normal))
        assert not f[1].any() and not np.signbit(f[1]).any()
        assert np.isfinite(f).all()

    @settings(max_examples=40, deadline=None)
    @faces
    def test_rusanov(self, seed, nvar, regime):
        ql, qr, normal = drawn_faces(seed, nvar, regime)
        assert same_bytes(rusanov_flux(ql, qr, normal),
                          _ref_rusanov(ql, qr, normal))

    @settings(max_examples=40, deadline=None)
    @faces
    def test_pointwise_kernels(self, seed, nvar, regime):
        ql, _, normal = drawn_faces(seed, nvar, regime)
        n, _ = _ref_split(normal)
        assert same(conservative_to_primitive(ql), _ref_primitive(ql))
        assert same(pressure(ql), _ref_pressure(ql))
        assert same(euler_flux(ql, n), _ref_euler(ql, n))
        assert same(max_wave_speed(ql, n), _ref_wave_speed(ql, n))
        assert same(wall_flux(ql, normal), _ref_wall(ql, normal))

    @settings(max_examples=20, deadline=None)
    @faces
    def test_presplit_normals_change_nothing(self, seed, nvar, regime):
        """A level hands the kernels normals it split once; that must be
        the same computation as splitting per call."""
        ql, qr, normal = drawn_faces(seed, nvar, regime)
        split = split_normals(normal)
        assert split_normals(split) is split
        for flux in (rusanov_flux, roe_flux, van_leer_flux):
            assert same_bytes(flux(ql, qr, split), flux(ql, qr, normal))
        assert same_bytes(wall_flux(ql, split), wall_flux(ql, normal))

    def test_zero_area_faces_carry_no_flux(self):
        ql, qr, normal = drawn_faces(11, 6, "subsonic")
        dead = np.linalg.norm(normal, axis=1) == 0
        for flux in (roe_flux, rusanov_flux, van_leer_flux):
            f = flux(ql, qr, normal)
            assert np.isfinite(f).all()
            assert (f[dead] == 0).all()


class TestRoeSoundSpeedFloor:
    """``a^2`` is floored once and the floor is what the wave strengths
    divide by — it used to guard only ``a = sqrt(a^2)``."""

    @pytest.mark.parametrize("nvar", [5, 6])
    def test_zero_pressure_average_stays_finite(self, nvar):
        # p = 0 on both sides: the Roe average has a^2 = 0 exactly, and
        # dp / a^2 was 0 / 0
        prim = np.zeros((4, nvar))
        prim[:, 0] = [1.0, 0.7, 1.3, 1.0]
        prim[:, 1] = [0.3, -0.2, 0.0, 0.5]
        if nvar > 5:
            prim[:, 5] = 1e-4
        q = primitive_to_conservative(prim)
        normal = np.array([[1.0, 0.2, 0.0]] * 4)
        with np.errstate(invalid="ignore", divide="ignore"):
            before = _ref_roe(q, q, normal, floor_strengths=False)
        assert not np.isfinite(before).all()
        f = roe_flux(q, q, normal)
        assert np.isfinite(f).all()
        n, area = _ref_split(normal)
        assert np.allclose(f, euler_flux(q, n) * area[:, None], atol=1e-12)

    def test_unphysical_average_uses_the_floored_speed(self):
        # slightly negative pressure: a^2 < 0.  The strengths must be
        # the ones the floored a^2 gives, not jumps divided by the raw
        # negative value
        prim_l = np.array([[1.0, 0.4, 0.0, 0.0, -1e-3]])
        prim_r = np.array([[0.9, 0.1, 0.1, 0.0, -2e-3]])
        ql = primitive_to_conservative(prim_l)
        qr = primitive_to_conservative(prim_r)
        normal = np.array([[0.5, 0.5, 0.0]])
        f = roe_flux(ql, qr, normal)
        assert np.isfinite(f).all()
        assert same(f, _ref_roe(ql, qr, normal))

    def test_physical_states_are_untouched_by_the_floor(self):
        """Where a^2 > 1e-12 the fix changes no bit (no pinned history
        moves): the kernel still equals the pre-fix formula."""
        for seed, nvar, regime in [(1, 5, "subsonic"), (2, 6, "supersonic"),
                                   (3, 6, "sonic")]:
            ql, qr, normal = drawn_faces(seed, nvar, regime, nfaces=200)
            assert same(
                roe_flux(ql, qr, normal),
                _ref_roe(ql, qr, normal, floor_strengths=False),
            )


class TestLimiters:
    def test_van_albada_smooth(self):
        out = van_albada(np.array([1.0]), np.array([1.0]))
        assert out[0] == pytest.approx(1.0, rel=1e-6)

    def test_van_albada_opposite_slopes_vanish(self):
        assert van_albada(np.array([1.0]), np.array([-1.0]))[0] == 0.0

    @given(
        a=st.floats(-10, 10, allow_nan=False),
        b=st.floats(-10, 10, allow_nan=False),
    )
    def test_limiters_bounded(self, a, b):
        out = van_albada(np.array([a]), np.array([b]))[0]
        assert abs(out) <= max(abs(a), abs(b)) + 1e-9
