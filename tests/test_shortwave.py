"""Short-wave asymptotics: splits, stationary phase, Airy-front evaluators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from diatomic_waves import (
    ACOUSTIC,
    AIRY_AI_ZERO,
    OPTICAL,
    ConfigError,
    Dispersion,
    NumericalError,
    RegimeError,
    StationaryPoints,
    TableProfile,
    acoustic_front_airy,
    acoustic_stationary,
    acoustic_uniform,
    airy_ai_pair,
    optical_front_airy,
    optical_stationary,
    optical_uniform,
    shortwave_total,
    solve_quadrature,
    spectral_vector,
    split_about_pstar,
    three_point_continue,
)
from diatomic_waves import shortwave
from diatomic_waves.dispersion import LatticeParams

MU = 0.01
T = 0.5


@pytest.fixture(scope="module")
def params():
    return LatticeParams(0.82, 1.27, MU)


@pytest.fixture(scope="module")
def disp(params):
    return Dispersion(params)


def _skew_profile():
    xi = np.linspace(-6.0, 8.0, 701)
    return TableProfile(xi, np.exp(-0.5 * (xi - 0.7) ** 2))


# ---------------------------------------------------------------------------
# spectral splits and continuation
# ---------------------------------------------------------------------------

def test_split_even_odd_reconstructs(gaussian):
    # about p_c = 0 (acoustic front) the split gives the even/odd parts of V
    # in eta = p^2: V(p) = F1 - p F2, V(-p) = F1 + p F2
    skew = _skew_profile()
    p = np.array([0.2, 0.8, 1.3])
    v1, v2 = split_about_pstar(skew, 0.0, p**2)
    assert_allclose(v1 - p[:, None] * v2, spectral_vector(skew, 1.0, p), rtol=1e-12)
    assert_allclose(v1 + p[:, None] * v2, spectral_vector(skew, 1.0, -p), rtol=1e-12)
    # even data has no odd part
    _, g2 = split_about_pstar(gaussian, 0.0, p**2)
    assert np.max(np.abs(g2)) < 1e-12
    with pytest.raises(ConfigError):
        split_about_pstar(gaussian, 0.0, np.array([-0.1]))


def test_split_about_pstar_reconstructs(disp, gaussian):
    # about p* (optical front), for even data and for a skewed table
    p_star = disp.critical.p_star
    eta = np.array([0.01, 0.09, 0.25])
    root = np.sqrt(eta)
    for prof in (gaussian, _skew_profile()):
        f1, f2 = split_about_pstar(prof, p_star, eta)
        minus = f1 + root[:, None] * f2
        plus = f1 - root[:, None] * f2
        assert_allclose(minus, spectral_vector(prof, 1.0, p_star - root), rtol=1e-12)
        assert_allclose(plus, spectral_vector(prof, 1.0, p_star + root), rtol=1e-12)
        with pytest.raises(ConfigError):
            split_about_pstar(prof, p_star, -0.2)


def test_three_point_continue_quadratic_exact():
    def quad(z):
        return 1.5 - 0.7 * z + 0.3 * z**2

    z = np.array([0.3, 1.1, 2.4])
    assert_allclose(three_point_continue(quad, z), quad(z), rtol=1e-13)
    # scalar passthrough
    out = three_point_continue(quad, 0.5)
    assert np.ndim(out) == 0
    assert_allclose(out, quad(0.5), rtol=1e-13)
    with pytest.raises(ConfigError):
        three_point_continue(quad, -1.0)


# ---------------------------------------------------------------------------
# stationary-phase data
# ---------------------------------------------------------------------------

def test_acoustic_stationary_structure(params, disp):
    sp = acoustic_stationary(params, 0.25, T)
    p = sp.momenta[0]
    assert abs(disp.omega1_smooth_derivs(p, 1)[1] - 0.25 / T) < 1e-10
    # S = omega_1 t - p |x|, directly
    assert_allclose(
        sp.action, disp.omega1_smooth_derivs(p, 0)[0] * T - p * 0.25, rtol=1e-12
    )
    assert sp.carrier == 0.0
    # mirrored point
    sp_left = acoustic_stationary(params, -0.25, T)
    assert_allclose(sp_left.action, sp.action, rtol=1e-13)
    assert_allclose(sp_left.momenta[0], p, rtol=1e-13)


def test_acoustic_stationary_origin_hits_zone_edge(params, disp):
    sp = acoustic_stationary(params, 0.0, T)
    assert_allclose(sp.momenta[0], np.pi / 2.0, atol=1e-10)
    assert_allclose(sp.action, np.sqrt(2.0 * params.gamma1) * T, rtol=1e-10)


def test_acoustic_action_near_front_limit(params, disp):
    # S -> (2/3) s^{3/2} / sqrt(q t) as the distance s to the front -> 0
    q = disp.dispersion_coefficient
    c = disp.sound_speed
    s = 1e-4 * q * T
    sp = acoustic_stationary(params, c * T - s, T)
    assert_allclose(sp.action * np.sqrt(q * T) / s**1.5, 2.0 / 3.0, rtol=1e-4)


def test_acoustic_action_grows_away_from_front(params):
    xs = [0.4, 0.3, 0.2, 0.1, 0.0]
    actions = [acoustic_stationary(params, x, T).action for x in xs]
    assert np.all(np.diff(actions) > 0)


def test_acoustic_stationary_front_rejection(params, disp):
    c = disp.sound_speed
    with pytest.raises(NumericalError):
        acoustic_stationary(params, c * T, T)
    with pytest.raises(NumericalError):
        acoustic_stationary(params, -c * T - 0.01, T)
    with pytest.raises(ConfigError):
        acoustic_stationary(params, 0.1, 0.0)


def test_optical_stationary_structure(params, disp):
    crit = disp.critical
    sp = optical_stationary(params, 0.15, T)
    p_minus, p_plus = sp.momenta
    assert 0.0 < p_minus < crit.p_star < p_plus < np.pi / 2.0
    # group condition on both roots
    for p_root in sp.momenta:
        assert abs(disp.omega2_derivs(p_root, 1)[1] + 0.15 / T) < 1e-10
    # concave side / convex side of the inflection
    assert disp.omega2_derivs(p_minus, 2)[2] < 0.0 < disp.omega2_derivs(p_plus, 2)[2]
    assert sp.action >= 0.0


def test_optical_phase_spread_identity(params, disp):
    # Psi (integral form) equals half the phase spread Phi(p-) - Phi(p+),
    # and Theta is the mean phase; independent direct evaluation
    x = 0.15
    sp = optical_stationary(params, x, T)
    p_minus, p_plus = sp.momenta
    phi_minus = p_minus * x + disp.omega2_derivs(p_minus, 0)[0] * T
    phi_plus = p_plus * x + disp.omega2_derivs(p_plus, 0)[0] * T
    assert_allclose(phi_minus - phi_plus, 2.0 * sp.action, rtol=1e-12)
    assert_allclose(0.5 * (phi_minus + phi_plus), sp.carrier, rtol=1e-12)


def test_optical_action_near_front_limit(params, disp):
    crit = disp.critical
    s = 1e-4 * crit.q_star * T
    sp = optical_stationary(params, crit.c_star * T - s, T)
    assert_allclose(sp.action * np.sqrt(crit.q_star * T) / s**1.5, 2.0 / 3.0, rtol=1e-3)


def test_optical_stationary_front_rejection(params, disp):
    c_star = disp.critical.c_star
    with pytest.raises(NumericalError):
        optical_stationary(params, c_star * T + 0.01, T)
    with pytest.raises(NumericalError):
        optical_stationary(params, -c_star * T, T)


def _brentq_root(fn, lo, hi):
    """Per-point reference root; an endpoint root (x = 0) is taken as is,
    since ``fn`` there is rounding noise of either sign."""
    f_lo, f_hi = fn(lo), fn(hi)
    if f_lo * f_hi > 0.0:
        return lo if abs(f_lo) < abs(f_hi) else hi
    return brentq(fn, lo, hi, xtol=1e-16, rtol=4.0 * np.finfo(float).eps)


STATIONARY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
_FRACTIONS = st.lists(st.floats(-0.999, 0.999), min_size=1, max_size=12)


@STATIONARY_SETTINGS
@given(frac=_FRACTIONS, t=st.floats(0.05, 1.0))
def test_acoustic_stationary_grid_properties(params, disp, frac, t):
    x = np.array(frac) * disp.sound_speed * t
    sp = acoustic_stationary(params, x, t)
    assert sp.momenta.shape == x.shape + (1,) and sp.action.shape == x.shape
    p = sp.momenta[:, 0]
    assert np.max(np.abs(disp.omega1_smooth_derivs(p, 1)[1] - np.abs(x) / t)) <= 1e-10
    ref = [
        _brentq_root(lambda s, xi=xi: disp.omega1_smooth_derivs(s, 1)[1] - abs(xi) / t, 0.0, np.pi / 2)
        for xi in x
    ]
    assert_allclose(p, ref, rtol=0, atol=1e-12)
    assert np.all(sp.action >= 0.0)
    mirrored = acoustic_stationary(params, -x, t)
    np.testing.assert_array_equal(mirrored.momenta, sp.momenta)
    np.testing.assert_array_equal(mirrored.action, sp.action)
    single = acoustic_stationary(params, x[0], t)
    assert single.momenta.shape == (1,)
    assert_allclose(single.momenta, sp.momenta[0], rtol=4e-16, atol=0)
    assert_allclose(single.action, sp.action[0], rtol=4e-16, atol=0)


@STATIONARY_SETTINGS
@given(frac=_FRACTIONS, t=st.floats(0.05, 1.0))
def test_optical_stationary_grid_properties(params, disp, frac, t):
    crit = disp.critical
    x = np.array(frac) * crit.c_star * t
    sp = optical_stationary(params, x, t)
    assert sp.momenta.shape == x.shape + (2,) and sp.action.shape == x.shape
    speed = disp.omega2_derivs(sp.momenta, 1)[1]
    assert np.max(np.abs(speed + np.abs(x)[:, None] / t)) <= 1e-10
    for xi, (p_minus, p_plus) in zip(x, sp.momenta):
        def fn(s, xi=xi):
            return disp.omega2_derivs(s, 1)[1] + abs(xi) / t

        assert abs(p_minus - _brentq_root(fn, 0.0, crit.p_star)) <= 1e-12
        assert abs(p_plus - _brentq_root(fn, crit.p_star, np.pi / 2)) <= 1e-12
        assert p_minus < crit.p_star < p_plus
    assert np.all(sp.action >= 0.0)
    mirrored = optical_stationary(params, -x, t)
    np.testing.assert_array_equal(mirrored.momenta, sp.momenta)
    np.testing.assert_array_equal(mirrored.action, sp.action)
    single = optical_stationary(params, x[0], t)
    assert single.momenta.shape == (2,)
    assert_allclose(single.momenta, sp.momenta[0], rtol=4e-16, atol=0)
    assert_allclose(single.action, sp.action[0], rtol=1e-15, atol=1e-18)
    assert_allclose(single.carrier, sp.carrier[0], rtol=1e-15, atol=1e-18)


@pytest.mark.parametrize("solver", [acoustic_stationary, optical_stationary])
def test_stationary_nan_input_fails_checks(params, solver):
    # NaN compares false against the front, so the residual check must catch it
    with pytest.raises(NumericalError, match="residual"):
        solver(params, np.array([0.1, np.nan]), T)
    with pytest.raises(NumericalError, match="residual"):
        solver(params, np.nan, T)
    with pytest.raises(ConfigError):
        solver(params, 0.1, np.nan)


def test_stationary_points_validation():
    with pytest.raises(NumericalError):
        StationaryPoints(momenta=(0.3,), action=-1e-3, carrier=0.0)


# ---------------------------------------------------------------------------
# front evaluators
# ---------------------------------------------------------------------------

def test_acoustic_front_value_closed_form(params, disp, gaussian):
    # exactly on the front the even-data value is
    # (mu/(q t))^{1/3} Ai(0) A(0) Vtilde(0): both components equal because
    # A(0) has identical rows
    q = disp.dispersion_coefficient
    c = disp.sound_speed
    cube = (MU / (q * T)) ** (1.0 / 3.0)
    vt0 = spectral_vector(gaussian, 1.0, 0.0)[0].real
    expected = cube * AIRY_AI_ZERO * (disp.modal_matrix(0.0, ACOUSTIC) @ vt0)
    got = acoustic_front_airy(params, gaussian, MU, np.array([c * T]), T)[0]
    assert_allclose(got, expected, rtol=1e-12)
    assert_allclose(got[0], got[1], rtol=1e-12)
    # left front mirrors the right one for even data
    left = acoustic_front_airy(params, gaussian, MU, np.array([-c * T]), T, "left")[0]
    assert_allclose(left, got, rtol=1e-12)


def test_optical_front_matches_hand_assembly(params, disp, gaussian):
    # rebuild the right-front formula from its published pieces
    crit = disp.critical
    omega2_star = disp.omega2_derivs(crit.p_star, 0)[0]
    width = MU ** (2.0 / 3.0) * (crit.q_star * T) ** (1.0 / 3.0)
    cube = (MU / (crit.q_star * T)) ** (1.0 / 3.0)
    x = crit.c_star * T + width * np.array([-1.5, 0.0, 0.8])
    z = -(x - crit.c_star * T) / (crit.q_star * T)
    got = optical_front_airy(params, gaussian, MU, x, T)
    b_star = disp.modal_matrix(crit.p_star, OPTICAL)
    for i, (xi, zi) in enumerate(zip(x, z)):
        if zi >= 0.0:
            f1, f2 = split_about_pstar(gaussian, crit.p_star, np.array([zi]))
        else:
            f1, f2 = (
                three_point_continue(
                    lambda s, j=j: split_about_pstar(
                        gaussian, crit.p_star, np.atleast_1d(-s)
                    )[j][0],
                    np.array([-zi]),
                )
                for j in (0, 1)
            )
        f1, f2 = np.asarray(f1).reshape(2), np.asarray(f2).reshape(2)
        ai, aip = airy_ai_pair((xi - crit.c_star * T) / width)
        combo = b_star @ (f1 * ai + 1j * cube * f2 * aip)
        phase = np.exp(1j * (crit.p_star * xi + omega2_star * T) / MU)
        assert_allclose(got[i], 2.0 * cube * (phase * combo).real, rtol=1e-10)


def test_front_argument_validation(params, gaussian):
    with pytest.raises(ConfigError):
        acoustic_front_airy(params, gaussian, MU, [0.5], T, "sideways")
    with pytest.raises(ConfigError):
        optical_front_airy(params, gaussian, MU, [0.2], 0.0)
    with pytest.raises(RegimeError):
        acoustic_front_airy(params, gaussian, 2.0 * MU, [0.5], T)
    with pytest.raises(ConfigError):
        acoustic_front_airy(params, gaussian, -1.0, [0.5], T)


# ---------------------------------------------------------------------------
# uniform evaluators
# ---------------------------------------------------------------------------

def test_acoustic_uniform_matches_wkb_interior(params, disp, gaussian):
    # independent assembly of the interior asymptotics from the envelope
    # limit A_-(y) -> e^{-i(y - pi/4)}; checks amplitude, phase, and the
    # quarter-pi offset in one stroke
    for x in (0.25, -0.25):
        sp = acoustic_stationary(params, x, T)
        p = sp.momenta[0]
        curv = disp.omega1_smooth_derivs(p, 2)[2]
        amp = (
            disp.modal_matrix(p, ACOUSTIC) @ spectral_vector(gaussian, 1.0, p)[0]
        ) / np.sqrt(T * abs(curv))
        wkb = np.sqrt(2.0 * MU / np.pi) * (
            amp * np.exp(-1j * (sp.action / MU - np.pi / 4.0))
        ).real
        got = acoustic_uniform(params, gaussian, MU, np.array([x]), T)[0]
        scale = np.sqrt(2.0 * MU / np.pi) * np.max(np.abs(amp))
        assert np.max(np.abs(got - wkb)) < 0.02 * scale  # measured 1.8e-3 * scale


def test_optical_uniform_matches_wkb_interior(params, disp, gaussian):
    # same cross-check for the two-point optical form with the max/min
    # envelope pairing: Phi is maximal at p_- on the right side
    for x in (0.15, -0.15):
        sp = optical_stationary(params, x, T)
        b = []
        for p_root in sp.momenta:
            curv = disp.omega2_derivs(p_root, 2)[2]
            b.append(
                (
                    disp.modal_matrix(p_root, OPTICAL)
                    @ spectral_vector(gaussian, 1.0, p_root)[0]
                )
                / np.sqrt(T * abs(curv))
            )
        b_minus, b_plus = b
        b_max, b_min = (b_minus, b_plus) if x >= 0 else (b_plus, b_minus)
        y = sp.action / MU
        combo = b_max * np.exp(1j * (y - np.pi / 4.0)) + b_min * np.exp(
            -1j * (y - np.pi / 4.0)
        )
        wkb = np.sqrt(2.0 * MU / np.pi) * (np.exp(1j * sp.carrier / MU) * combo).real
        got = optical_uniform(params, gaussian, MU, np.array([x]), T)[0]
        scale = np.sqrt(2.0 * MU / np.pi) * (np.abs(b_max) + np.abs(b_min)).max()
        assert np.max(np.abs(got - wkb)) < 0.05 * scale  # measured 1.6e-2 * scale


def test_uniform_even_and_zero_structure(params, disp, gaussian):
    c = disp.sound_speed
    q = disp.dispersion_coefficient
    width = MU ** (2.0 / 3.0) * (q * T) ** (1.0 / 3.0)
    x = np.linspace(-(c * T + 6.0 * width), c * T + 6.0 * width, 41)
    out = acoustic_uniform(params, gaussian, MU, x, T)
    assert out.shape == (41, 2)
    # even data: field even in x
    assert_allclose(out[::-1], out, atol=1e-13)
    # identically zero beyond the continuation margin
    beyond = np.abs(x) > c * T + 5.0 * width
    assert np.count_nonzero(beyond) > 0
    assert np.all(out[beyond] == 0.0)


def _total_field(*args) -> np.ndarray:
    field = shortwave_total(*args)
    return np.stack([field.u, field.v], axis=1)


@pytest.mark.parametrize(
    "evaluate, pieces", [(acoustic_uniform, 3), (optical_uniform, 3), (_total_field, 6)]
)
def test_uniform_takes_one_airy_call(params, disp, gaussian, evaluate, pieces, monkeypatch):
    # the interior and both front bands of each branch share one airy_ai_pair
    # call, and every value is the one a call per piece gives
    reach = max(disp.sound_speed, disp.critical.c_star) * T
    x = np.linspace(-1.2 * reach, 1.2 * reach, 201)
    sizes = []

    def counted(z):
        sizes.append(np.size(z))
        return airy_ai_pair(z)

    monkeypatch.setattr(shortwave, "airy_ai_pair", counted)
    joined = evaluate(params, gaussian, MU, x, T)
    assert len(sizes) == 1
    with_airy = shortwave._with_airy

    def one_call_per_part(parts, assemble):
        return np.empty(0), lambda ai, aip: assemble([with_airy(part) for part in parts])

    monkeypatch.setattr(shortwave, "_joined", one_call_per_part)
    assert np.array_equal(evaluate(params, gaussian, MU, x, T), joined)
    assert len(sizes) == 1 + pieces and sum(sizes[1:]) == sizes[0]


def test_acoustic_windowed_error_vs_quadrature(gaussian):
    # dual-route regression at mu = 0.02 in the front window +-5 widths;
    # a sign or pairing error would push this past O(1)
    mu = 0.02
    p2 = LatticeParams(0.82, 1.27, mu)
    d2 = Dispersion(p2)
    width = mu ** (2.0 / 3.0) * (d2.dispersion_coefficient * T) ** (1.0 / 3.0)
    front = d2.sound_speed * T
    x = np.linspace(front - 5.0 * width, front + 5.0 * width, 101)
    quad = solve_quadrature(p2, gaussian, mu, x, T, "acoustic")
    ref = np.stack([quad.u, quad.v], axis=1)
    got = acoustic_uniform(p2, gaussian, mu, x, T)
    rel = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
    assert rel < 0.12  # measured 0.082


def test_optical_windowed_error_vs_quadrature(gaussian):
    mu = 0.02
    p2 = LatticeParams(0.82, 1.27, mu)
    d2 = Dispersion(p2)
    crit = d2.critical
    width = mu ** (2.0 / 3.0) * (crit.q_star * T) ** (1.0 / 3.0)
    front = crit.c_star * T
    x = np.linspace(front - 5.0 * width, front + 5.0 * width, 101)
    quad = solve_quadrature(p2, gaussian, mu, x, T, "optical")
    ref = np.stack([quad.u, quad.v], axis=1)
    got = optical_uniform(p2, gaussian, mu, x, T)
    rel = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
    assert rel < 1.6  # measured 1.32: first-order front term is O(mu^{1/3})
    # the carrier structure is right: light sites move more than heavy ones
    assert np.max(np.abs(got[:, 1])) > 1.5 * np.max(np.abs(got[:, 0]))


def test_optical_envelope_bound(params, disp, gaussian):
    # |Re(e^{i phi} w)| <= |w|: the field never exceeds its Airy envelope
    crit = disp.critical
    width = MU ** (2.0 / 3.0) * (crit.q_star * T) ** (1.0 / 3.0)
    x = crit.c_star * T + width * np.linspace(-4.0, 4.0, 161)
    cube = (MU / (crit.q_star * T)) ** (1.0 / 3.0)
    z = -(x - crit.c_star * T) / (crit.q_star * T)
    got = optical_front_airy(params, gaussian, MU, x, T)
    b_star = disp.modal_matrix(crit.p_star, OPTICAL)
    ai, aip = airy_ai_pair((x - crit.c_star * T) / width)
    for i, zi in enumerate(z):
        eta = max(zi, 0.0)
        f1, f2 = split_about_pstar(gaussian, crit.p_star, np.array([eta]))
        envelope = 2.0 * cube * np.abs(b_star @ (f1[0] * ai[i] + 1j * cube * f2[0] * aip[i]))
        assert np.all(np.abs(got[i]) <= envelope + 1e-6)


def test_shortwave_total_composition(params, gaussian):
    x = np.linspace(-0.6, 0.6, 41)
    total = shortwave_total(params, gaussian, MU, x, T)
    parts = acoustic_uniform(params, gaussian, MU, x, T) + optical_uniform(
        params, gaussian, MU, x, T
    )
    assert total.method == "shortwave_total"
    assert_allclose(total.u, parts[:, 0], atol=1e-15)
    assert_allclose(total.v, parts[:, 1], atol=1e-15)
    early = shortwave_total(params, gaussian, MU, x, 0.05)
    assert np.all(np.isfinite(early.u)) and np.all(np.isfinite(early.v))


def test_shortwave_finite_at_physical_scale(gaussian):
    h = 2.82e-7
    p_phys = LatticeParams(0.82, 1.27, h)
    disp = Dispersion(p_phys)
    front = disp.critical.c_star * 0.5
    x = np.linspace(-1.2 * front, 1.2 * front, 25)
    field = shortwave_total(p_phys, gaussian, h, x, 0.5)
    assert np.all(np.isfinite(field.u)) and np.all(np.isfinite(field.v))
    assert np.max(np.abs(field.v)) > 0.0


def test_uniform_regime_validation(params, gaussian):
    with pytest.raises(RegimeError):
        acoustic_uniform(params, gaussian, 2.0 * MU, [0.1], T)
    with pytest.raises(RegimeError):
        optical_uniform(params, gaussian, 2.0 * MU, [0.1], T)
    with pytest.raises(RegimeError):
        shortwave_total(params, gaussian, 2.0 * MU, [0.1], T)
    with pytest.raises(ConfigError):
        acoustic_uniform(params, gaussian, MU, [0.1], -0.5)
