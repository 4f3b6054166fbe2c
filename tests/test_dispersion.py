"""Dispersion relation: frozen constants, derivatives, modal structure."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import brentq

import _reference as ref
from diatomic_waves import (
    ACOUSTIC,
    OPTICAL,
    ConfigError,
    Dispersion,
    LatticeParams,
)


@pytest.fixture
def disp(desk) -> Dispersion:
    return Dispersion(desk(0.01))


# ---------------------------------------------------------------------------
# parameters and frozen constants
# ---------------------------------------------------------------------------

def test_params_require_gamma_ordering():
    with pytest.raises(ConfigError):
        LatticeParams(gamma1=1.27, gamma2=0.82, h=0.01)
    with pytest.raises(ConfigError):
        LatticeParams(gamma1=0.82, gamma2=0.82, h=0.01)
    with pytest.raises(ConfigError):
        LatticeParams(gamma1=0.82, gamma2=1.27, h=1.5)


def test_params_require_finite_values():
    for bad in (dict(gamma2=np.inf), dict(gamma1=np.nan), dict(h=np.nan)):
        with pytest.raises(ConfigError):
            LatticeParams(**{"gamma1": 0.82, "gamma2": 1.27, "h": 0.01, **bad})


def test_from_masses_requires_mass_ordering():
    with pytest.raises(ConfigError):
        LatticeParams.from_masses(3.81e-26, 5.88e-26, 15.0, 2.82e-10, 1e-3)
    with pytest.raises(ConfigError):
        LatticeParams.from_masses(5.88e-26, 3.81e-26, -1.0, 2.82e-10, 1e-3)


def test_from_masses_nacl_constants(nacl_params):
    assert_allclose(nacl_params.gamma1, ref.NACL_CONSTANTS["gamma1"], rtol=1e-14)
    assert_allclose(nacl_params.gamma2, ref.NACL_CONSTANTS["gamma2"], rtol=1e-14)
    disp = Dispersion(nacl_params)
    # the mass-derived normalization makes the sound speed exactly 1
    assert abs(disp.sound_speed - 1.0) < 1e-14
    assert_allclose(
        disp.dispersion_coefficient,
        ref.NACL_CONSTANTS["dispersion_coefficient"],
        rtol=1e-13,
    )


def test_desk_constants(disp):
    assert_allclose(disp.sound_speed, ref.DESK_CONSTANTS["sound_speed"], rtol=1e-14)
    assert_allclose(
        disp.dispersion_coefficient,
        ref.DESK_CONSTANTS["dispersion_coefficient"],
        rtol=1e-13,
    )


def test_critical_point_desk(disp):
    crit = disp.critical
    assert_allclose(crit.p_star, ref.DESK_CONSTANTS["p_star"], atol=1e-11)
    assert_allclose(crit.c_star, ref.DESK_CONSTANTS["c_star"], atol=1e-11)
    assert_allclose(crit.q_star, ref.DESK_CONSTANTS["q_star"], atol=1e-10)
    # defining property and sign structure of the curvature
    assert abs(disp.omega2_derivs(crit.p_star, 2)[2]) < 1e-12
    p_in = np.linspace(0.02, crit.p_star - 1e-3, 50)
    p_out = np.linspace(crit.p_star + 1e-3, np.pi / 2 - 0.02, 50)
    assert np.all(disp.omega2_derivs(p_in, 2)[2] < 0.0)
    assert np.all(disp.omega2_derivs(p_out, 2)[2] > 0.0)


def test_critical_point_nacl(nacl_params):
    crit = Dispersion(nacl_params).critical
    assert_allclose(crit.p_star, ref.NACL_CONSTANTS["p_star"], atol=1e-11)
    assert_allclose(crit.c_star, ref.NACL_CONSTANTS["c_star"], atol=1e-11)
    assert_allclose(crit.q_star, ref.NACL_CONSTANTS["q_star"], atol=1e-10)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(gamma1=st.floats(0.01, 10.0), ratio=st.floats(1.01, 1e4))
def test_critical_point_matches_brent_reference(gamma1, ratio):
    """The bracketed Newton ``p_star`` agrees with a Brent solve of
    ``omega_2'' = 0`` run to ``xtol = 1e-16``, within 1e-13 (the ``xtol`` of
    the Brent solve the package used before).  Ratios nearer 1 are left
    out: ``omega_2''`` flattens there, so its root is ill-conditioned, and two
    correct solvers differed by 1.4e-12 at ``gamma2 / gamma1 = 1.0005``."""
    disp = Dispersion(LatticeParams(gamma1=gamma1, gamma2=gamma1 * ratio, h=0.01))
    reference = brentq(
        lambda p: float(disp.omega2_derivs(p, 2)[2]),
        1e-3,
        np.pi / 2 - 1e-3,
        xtol=1e-16,
        rtol=4.0 * np.finfo(float).eps,
    )
    assert abs(disp.critical.p_star - reference) <= 1e-13


# ---------------------------------------------------------------------------
# branch values and derivatives
# ---------------------------------------------------------------------------

def test_band_edges(disp):
    edges = ref.DESK_CONSTANTS
    assert_allclose(disp.omega1(np.pi / 2), edges["acoustic_top"], rtol=1e-14)
    assert_allclose(disp.omega2(np.pi / 2), edges["optical_bottom"], rtol=1e-14)
    assert_allclose(disp.omega2(0.0), edges["optical_top"], rtol=1e-14)
    assert disp.omega1(0.0) == 0.0
    # spectral gap is open for distinct masses
    assert disp.omega2(np.pi / 2) - disp.omega1(np.pi / 2) > 0.3


def test_aux_c_closed_values(disp):
    g1, g2 = 0.82, 1.27
    assert_allclose(disp.aux_c(0.0), g1 + g2, rtol=1e-15)
    assert_allclose(disp.aux_c(np.pi), g2 - g1, rtol=1e-12)


@pytest.mark.parametrize("p", sorted(ref.DESK_BRANCHES))
def test_branch_values_and_derivatives_frozen(disp, p):
    row = ref.DESK_BRANCHES[p]
    w1 = disp.omega1_smooth_derivs(p, 3)
    w2 = disp.omega2_derivs(p, 3)
    assert_allclose(w1[0], row["omega1"], rtol=1e-12)
    assert_allclose(w1[1], row["omega1_d1"], rtol=1e-12)
    assert_allclose(w1[2], row["omega1_d2"], rtol=1e-10)
    assert_allclose(w1[3], row["omega1_d3"], rtol=1e-9)
    assert_allclose(w2[0], row["omega2"], rtol=1e-12)
    assert_allclose(w2[1], row["omega2_d1"], rtol=1e-12)
    assert_allclose(w2[2], row["omega2_d2"], rtol=1e-10)
    assert_allclose(w2[3], row["omega2_d3"], rtol=1e-9)
    assert_allclose(disp.legendre_omega1(p), row["legendre"], rtol=1e-11, atol=1e-14)
    assert_allclose(disp.omega1(p), row["omega1"], rtol=1e-12)


def test_branch_symmetries(disp):
    p = np.linspace(-np.pi / 2, np.pi / 2, 41)
    assert_allclose(disp.omega1(p), disp.omega1(-p), rtol=1e-14)
    assert_allclose(disp.omega2(p), disp.omega2(-p), rtol=1e-14)
    assert_allclose(disp.omega1(p + np.pi), disp.omega1(p), rtol=0, atol=1e-13)
    assert_allclose(disp.omega2(p + np.pi), disp.omega2(p), rtol=1e-13)
    # strict branch ordering with an open gap everywhere
    assert np.all(disp.omega2(p) - disp.omega1(p) > 0.3)


def test_optical_group_velocity_endpoints(disp):
    assert abs(disp.omega2_derivs(0.0, 1)[1]) < 1e-14
    assert abs(disp.omega2_derivs(np.pi / 2, 1)[1]) < 1e-12
    # interior group speed is negative (wave moves outward via |x| = -w2' t)
    p = np.linspace(0.1, np.pi / 2 - 0.1, 20)
    assert np.all(disp.omega2_derivs(p, 1)[1] < 0.0)


def test_acoustic_taylor_small_p(disp):
    c = disp.sound_speed
    q = disp.dispersion_coefficient
    p = np.array([1e-1, 3e-2, 1e-2, 3e-3])
    err = np.abs(disp.omega1(p) - (c * p - q * p**3 / 3.0))
    # remainder is O(p^5): fitted slope of log err vs log p close to 5
    slope = np.polyfit(np.log(p), np.log(err), 1)[0]
    assert slope > 4.8
    # one-sided acoustic group speed approaches c at the origin
    assert_allclose(disp.omega1_smooth_derivs(1e-8, 1)[1], c, rtol=1e-12)


def test_acoustic_derivative_rejects_kink(disp):
    # the smooth odd extension stays finite with the long-wave limits
    w = disp.omega1_smooth_derivs(0.0, 3)
    assert_allclose(w[1], disp.sound_speed, rtol=1e-14)
    assert abs(w[2]) < 1e-12
    assert_allclose(w[3], -2.0 * disp.dispersion_coefficient, rtol=1e-11)


def test_derivatives_match_finite_differences(disp):
    step = 1e-5
    for p in (0.3, 0.9, 1.3):
        for fn, d in (
            (disp.omega1, disp.omega1_smooth_derivs(p, 1)[1]),
            (disp.omega2, disp.omega2_derivs(p, 1)[1]),
        ):
            fd = (fn(p + step) - fn(p - step)) / (2.0 * step)
            assert_allclose(d, fd, rtol=1e-6)
        fd2 = (disp.omega2(p + step) - 2 * disp.omega2(p) + disp.omega2(p - step)) / step**2
        assert_allclose(disp.omega2_derivs(p, 2)[2], fd2, rtol=1e-4)


def test_legendre_small_p_limit(disp):
    # m(p) = omega1 - p omega1' = (2/3) q p^3 + O(p^5)
    q = disp.dispersion_coefficient
    for p in (1e-2, 1e-3):
        assert_allclose(disp.legendre_omega1(p), 2.0 * q * p**3 / 3.0, rtol=1e-3)
    assert disp.legendre_omega1(0.0) == 0.0


# ---------------------------------------------------------------------------
# modal matrices
# ---------------------------------------------------------------------------

def test_modal_matrices_projector_identities(disp):
    p = np.linspace(-np.pi / 2, np.pi / 2, 31)
    a = disp.modal_matrix(p, ACOUSTIC)
    b = disp.modal_matrix(p, OPTICAL)
    eye = np.broadcast_to(np.eye(2), a.shape)
    assert_allclose(a + b, eye, rtol=0, atol=1e-14)
    assert_allclose(a @ a, a, rtol=0, atol=1e-13)
    assert_allclose(b @ b, b, rtol=0, atol=1e-13)
    assert_allclose(a @ b, np.zeros_like(a), rtol=0, atol=1e-13)
    # even in p
    assert_allclose(a, disp.modal_matrix(-p, ACOUSTIC), rtol=0, atol=1e-14)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    gamma1=st.floats(0.01, 10.0),
    ratio=st.floats(1.0 + 1e-6, 100.0),
    p=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8),
)
def test_modal_projectors_are_complementary_and_idempotent(gamma1, ratio, p):
    disp = Dispersion(LatticeParams(gamma1=gamma1, gamma2=gamma1 * ratio, h=0.01))
    p = np.array(p)
    a = disp.modal_matrix(p, ACOUSTIC)
    b = disp.modal_matrix(p, OPTICAL)
    assert_allclose(a + b, np.broadcast_to(np.eye(2), a.shape), rtol=0, atol=1e-15)
    # oblique projectors: entries grow with gamma2/gamma1, rounding with their square
    tol = 1e-15 * max(1.0, float(np.max(np.abs(a)))) ** 2
    assert_allclose(a @ a, a, rtol=0, atol=tol)
    assert_allclose(b @ b, b, rtol=0, atol=tol)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    gamma1=st.floats(0.01, 10.0),
    ratio=st.floats(0.01, 100.0),
    p=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8),
)
def test_modal_off_diagonals_obey_am_gm(gamma1, ratio, p):
    """``g^2 + 4 g1 g2 cos^2 p >= 4 g |cos p| sqrt(g1 g2)`` gives ``|A_01| <=
    sqrt(g1/g2)/2`` and ``|A_10| <= sqrt(g2/g1)/2``, hence row sums of
    ``|A| + |B|`` at most ``2 + sqrt(max/min)``: the constant of the band cut
    in ``solve_quadrature``.  Both orders of the stiffnesses are drawn: the
    projector formula does not need the ``gamma1 < gamma2`` that
    ``LatticeParams`` enforces."""
    g1, g2 = gamma1, gamma1 * ratio
    disp = Dispersion(SimpleNamespace(gamma1=g1, gamma2=g2, h=0.01))
    a = disp.modal_matrix(np.array(p), ACOUSTIC)
    b = disp.modal_matrix(np.array(p), OPTICAL)
    slack = 1.0 + 1e-14
    assert np.all(np.abs(a[:, 0, 1]) <= 0.5 * np.sqrt(g1 / g2) * slack)
    assert np.all(np.abs(a[:, 1, 0]) <= 0.5 * np.sqrt(g2 / g1) * slack)
    rows = np.sum(np.abs(a) + np.abs(b), axis=-1)
    assert np.all(rows <= (2.0 + np.sqrt(max(g1, g2) / min(g1, g2))) * slack)


def test_modal_matrix_zone_centre(disp):
    g1, g2 = 0.82, 1.27
    a0 = disp.modal_matrix(0.0, ACOUSTIC)
    expected = np.array([[g2, g1], [g2, g1]]) / (g1 + g2)
    assert_allclose(a0, expected, rtol=1e-14)
    # (1, -1) is a left null vector: both rows of A(0) coincide
    assert_allclose(np.array([1.0, -1.0]) @ a0, [0.0, 0.0], atol=1e-15)
    b0 = disp.modal_matrix(0.0, OPTICAL)
    assert_allclose(b0, np.array([[g1, -g1], [-g2, g2]]) / (g1 + g2), rtol=1e-13)


def test_modal_matrix_zone_edge(disp):
    # at the zone edge the modes separate by species exactly
    a = disp.modal_matrix(np.pi / 2, ACOUSTIC)
    b = disp.modal_matrix(np.pi / 2, OPTICAL)
    assert_allclose(a, np.diag([1.0, 0.0]), rtol=0, atol=1e-12)
    assert_allclose(b, np.diag([0.0, 1.0]), rtol=0, atol=1e-12)


def test_eigen_identity_squared_frequencies(disp):
    # 2 Gamma L(p) (the symbol of the force operator) must have
    # eigenvalues omega_1^2, omega_2^2
    g1, g2 = 0.82, 1.27
    for p in np.linspace(0.05, np.pi / 2 - 0.05, 9):
        cp = np.cos(p)
        symbol = np.array(
            [[2.0 * g1, -2.0 * g1 * cp], [-2.0 * g2 * cp, 2.0 * g2]]
        )
        eig = np.sort(np.linalg.eigvals(symbol).real)
        assert_allclose(
            eig,
            [disp.omega1(p) ** 2, disp.omega2(p) ** 2],
            rtol=1e-12,
        )


def test_branch_argument_validation(disp):
    with pytest.raises(ConfigError):
        disp.modal_matrix(0.3, 0)
    with pytest.raises(ConfigError):
        disp.omega2_derivs(0.3, 4)
