"""Short-wave asymptotics: splits, stationary phase, Airy-front evaluators."""

from __future__ import annotations

from functools import cached_property

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
    GaussianProfile,
    NumericalError,
    RegimeError,
    StationaryPoints,
    TableProfile,
    WaveField,
    acoustic_front_airy,
    acoustic_stationary,
    acoustic_uniform,
    airy_ai_pair,
    envelope_amplitude,
    optical_front_airy,
    optical_stationary,
    optical_uniform,
    shortwave_total,
    solve_quadrature,
    spectral_vector,
)
from diatomic_waves import initial_data, shortwave
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


@pytest.fixture(scope="module")
def skew():
    return _skew_profile()


# ---------------------------------------------------------------------------
# spectral splits and continuation
# ---------------------------------------------------------------------------

def _splits(profile, p_c, eta):
    """``(F1, F2)`` about ``p_c`` at the points ``eta``, as the evaluators form them:
    the band data at the momenta of ``shortwave._splits`` from one call of
    ``shortwave.spectral_vector`` (so a test may replace it)."""
    momenta, splits = shortwave._splits(p_c, eta)
    return splits(shortwave.spectral_vector(profile, 1.0, momenta))


def _split(profile, p_c, eta):
    """``(F1, F2)`` about ``p_c`` at one ``eta >= 0``, by their definition from two
    one-point ``spectral_vector`` calls (``eta`` floored at ``1e-12``, as the
    evaluators floor it)."""
    root = np.sqrt(max(eta, 1e-12))
    vm = spectral_vector(profile, 1.0, p_c - root)[0]
    vp = spectral_vector(profile, 1.0, p_c + root)[0]
    return 0.5 * (vm + vp), (vm - vp) / (2.0 * root)


def _continued_split(profile, p_c, eta):
    """``(F1, F2)`` at one ``eta``; for ``eta < 0`` by the explicit stencil
    ``F(eta) = 3 F(0) - 3 F(-eta) + F(-2 eta)``."""
    if eta >= 0.0:
        return _split(profile, p_c, eta)
    f0, f1, f2 = (np.array(_split(profile, p_c, s)) for s in (0.0, -eta, -2.0 * eta))
    return tuple(3.0 * f0 - 3.0 * f1 + f2)


def test_split_even_odd_reconstructs(gaussian):
    # about p_c = 0 (acoustic front) the split gives the even/odd parts of V
    # in eta = p^2: V(p) = F1 - p F2, V(-p) = F1 + p F2
    skew = _skew_profile()
    p = np.array([0.2, 0.8, 1.3])
    v1, v2 = _splits(skew, 0.0, p**2)
    assert_allclose(v1 - p[:, None] * v2, spectral_vector(skew, 1.0, p), rtol=1e-12)
    assert_allclose(v1 + p[:, None] * v2, spectral_vector(skew, 1.0, -p), rtol=1e-12)
    # even data has no odd part
    _, g2 = _splits(gaussian, 0.0, p**2)
    assert np.max(np.abs(g2)) < 1e-12


def test_split_about_pstar_reconstructs(disp, gaussian):
    # about p* (optical front), for even data and for a skewed table
    p_star = disp.critical.p_star
    eta = np.array([0.01, 0.09, 0.25])
    root = np.sqrt(eta)
    for prof in (gaussian, _skew_profile()):
        f1, f2 = _splits(prof, p_star, eta)
        minus = f1 + root[:, None] * f2
        plus = f1 - root[:, None] * f2
        assert_allclose(minus, spectral_vector(prof, 1.0, p_star - root), rtol=1e-12)
        assert_allclose(plus, spectral_vector(prof, 1.0, p_star + root), rtol=1e-12)


@pytest.mark.parametrize("p_c", [0.0, 0.9])
def test_split_continuation_is_exact_for_quadratic_splits(p_c, monkeypatch):
    # band data whose splits about p_c are F1 = a0 + a1 eta + a2 eta^2 and
    # F2 = b0 + b1 eta + b2 eta^2: V(p_c -+ s) = F1(s^2) +- s F2(s^2)
    a = np.array([[1.0 + 0.5j, -0.4 + 0.2j], [0.7 - 0.3j, 0.2j], [-0.9, 0.6 - 0.1j]])
    b = np.array([[0.3 - 0.6j, 0.8], [-0.5j, 0.4 + 0.4j], [0.6 + 0.2j, -0.7 + 0.3j]])

    def quadratic(c, eta):
        eta = np.asarray(eta)[..., None]
        return c[0] + c[1] * eta + c[2] * eta * eta

    def fake(profile, delta, p):
        d = np.asarray(p, dtype=float) - p_c
        return quadratic(a, d * d) - d[..., None] * quadratic(b, d * d)

    monkeypatch.setattr(shortwave, "spectral_vector", fake)
    eta = np.array([-0.4, -0.15, -0.02, -1e-5, 0.0, 1e-5, 0.03, 0.2, 0.5])
    f1, f2 = _splits(None, p_c, eta)
    # Each split at s >= 0 carries the rounding of V, a few eps max|V| in F1
    # and a few eps max|V| / sqrt(max(s, 1e-12)) in F2 (the difference quotient;
    # at s = 0 it is taken over p_c -+ 1e-6, eps / 1e-6 relative); 8 eps covers
    # those and the stencil's own rounding.  The stencil 3 F(0) - 3 F(z) + F(2z)
    # sums three of them, and the floor moves F(0) by |F'(0)| 1e-12 <= max|V| 1e-12.
    eps, vmax = np.finfo(float).eps, np.abs(a).sum(axis=0) + np.abs(b).sum(axis=0)
    z = np.abs(eta)

    def quotient(s):
        return 1.0 / np.sqrt(np.maximum(s, 1e-12))

    for got, c, tail in ((f1, a, lambda s: 1.0), (f2, b, quotient)):
        spread = np.where(eta < 0.0, 3.0 * tail(0.0) + 3.0 * tail(z) + tail(2.0 * z), tail(z))
        bound = (8.0 * eps * spread + 3e-12)[:, None] * vmax
        assert np.all(np.abs(got - quadratic(c, eta)) <= bound)
    # a linear continuation would miss by |c2| eta^2, far above the bound
    assert np.max(np.abs(quadratic(b, eta) - (b[0] + b[1] * eta[:, None]))) > 1e3 * bound.max()


@pytest.mark.parametrize("profile", ["gaussian", "skew"])
def test_split_values_are_their_one_point_calls(disp, gaussian, profile):
    # a mixed-sign grid with repeats and signed zeros: each continued value is
    # built from the same split values a call for its point alone builds
    prof = gaussian if profile == "gaussian" else _skew_profile()
    eta = np.array([0.3, -0.2, 0.0, -1e-14, 1e-14, -0.0, 0.05, -0.2, -0.45, 0.3, 1e-7, -1e-7])
    for p_c in (0.0, disp.critical.p_star):
        f1, f2 = _splits(prof, p_c, eta)
        for i in range(eta.size):
            g1, g2 = _splits(prof, p_c, eta[i : i + 1])
            np.testing.assert_array_equal(g1[0], f1[i])
            np.testing.assert_array_equal(g2[0], f2[i])


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
#: ``|frac| <= 0.999`` of the front, plus exact 0 and ``+-(1 - 10^-k)``, k = 3..7:
#: the uniform forms send points up to ``1 - 1e-5`` of the front to the solvers.
_NEAR_FRONT = (1.0 - 10.0 ** -np.arange(3.0, 8.0)).tolist()
_FRACTIONS = st.lists(
    st.one_of(
        st.floats(-0.999, 0.999),
        st.sampled_from([0.0, *_NEAR_FRONT, *(-f for f in _NEAR_FRONT)]),
    ),
    min_size=1,
    max_size=12,
)


def _root_bound(frac, curvature):
    """Allowed distance from the :func:`_brentq_root` reference: ``1e-12`` for
    ``|frac| <= 0.999``, and ``1e-12 + 16 eps / |omega''(p)|`` closer to the front.

    The residual ``f(p) = omega'(p) -+ |x|/t`` takes values of size <= 1, so its
    computed value carries an absolute rounding error ``delta`` of a few eps; take
    ``delta = 8 eps``.  Every ``p`` with ``|f(p)| <= delta`` is a root to working
    precision, and by the mean value theorem those ``p`` lie within
    ``delta / |f'(p)| = 8 eps / |omega''(p)|`` of the true root.  Both solvers
    stop inside that set, so they agree to twice its half-width.  Near the
    front ``omega''`` vanishes like the distance to it (``omega''(p) ~ 2 q p``,
    acoustic; ``~ 2 q* (p - p*)``, optical), and this bound grows past ``1e-12``.
    """
    if abs(frac) <= 0.999:
        return 1e-12
    return 1e-12 + 16.0 * np.finfo(float).eps / abs(curvature)


@STATIONARY_SETTINGS
@given(frac=_FRACTIONS, t=st.floats(0.05, 1.0))
def test_acoustic_stationary_grid_properties(params, disp, frac, t):
    x = np.array(frac) * disp.sound_speed * t
    sp = acoustic_stationary(params, x, t)
    assert sp.momenta.shape == x.shape + (1,) and sp.action.shape == x.shape
    p = sp.momenta[:, 0]
    assert np.max(np.abs(disp.omega1_smooth_derivs(p, 1)[1] - np.abs(x) / t)) <= 1e-10
    for fi, xi, root in zip(frac, x, p):
        ref = _brentq_root(
            lambda s, xi=xi: disp.omega1_smooth_derivs(s, 1)[1] - abs(xi) / t, 0.0, np.pi / 2
        )
        assert abs(root - ref) <= _root_bound(fi, disp.omega1_smooth_derivs(ref, 2)[2])
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
    for fi, xi, (p_minus, p_plus) in zip(frac, x, sp.momenta):
        def fn(s, xi=xi):
            return disp.omega2_derivs(s, 1)[1] + abs(xi) / t

        for p, lo, hi in ((p_minus, 0.0, crit.p_star), (p_plus, crit.p_star, np.pi / 2)):
            ref = _brentq_root(fn, lo, hi)
            assert abs(p - ref) <= _root_bound(fi, disp.omega2_derivs(ref, 2)[2])
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


@pytest.fixture
def derivative_calls(monkeypatch):
    """Names of the ``omega1_smooth_derivs`` and ``omega2_derivs`` calls made
    while the test runs, nested calls included."""
    calls = []
    for name in ("omega1_smooth_derivs", "omega2_derivs"):
        def counted(self, *args, _name=name, _original=getattr(Dispersion, name), **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Dispersion, name, counted)
    return calls


@pytest.mark.parametrize("solver, branch", [(acoustic_stationary, 0), (optical_stationary, 1)])
def test_stationary_solves_take_few_dispersion_calls(
    params, disp, solver, branch, derivative_calls
):
    # bracketed Newton from the front's cubic model settles every point in a
    # handful of vectorized steps, from the bracket-end roots at x = 0 out to
    # the switch to the front form (60 bisection steps took 123 and 72 calls)
    switch = _edges(disp, T)[branch][0]
    x = switch * np.arange(-200, 201) / 200.0
    solver(params, x, T)
    assert 0 < len(derivative_calls) <= 24


@pytest.mark.parametrize("evaluator, most", [(acoustic_uniform, 17), (optical_uniform, 18)])
def test_uniform_evaluators_reuse_stationary_derivatives(
    params, gaussian, evaluator, most, derivative_calls
):
    # the residual, the optical phase and the interior curvature come from the
    # solve's own order-2 derivative call (re-evaluating them took 19 and 21)
    evaluator(params, gaussian, MU, np.linspace(-0.7, 0.7, 401), T)
    assert 0 < len(derivative_calls) <= most


@pytest.mark.parametrize("solver", [acoustic_stationary, optical_stationary])
def test_stationary_nan_input_fails_checks(params, solver, derivative_calls):
    # NaN compares false against the front, so the residual check must catch it
    with pytest.raises(NumericalError, match="residual"):
        solver(params, np.array([0.1, np.nan]), T)
    with pytest.raises(NumericalError, match="residual"):
        solver(params, np.nan, T)
    with pytest.raises(ConfigError):
        solver(params, 0.1, np.nan)
    # a NaN point is frozen from the start rather than iterated to the cap
    clean = np.array([0.02, 0.05, 0.1])
    derivative_calls.clear()
    solver(params, clean, T)
    calls_clean = len(derivative_calls)
    derivative_calls.clear()
    with pytest.raises(NumericalError, match="residual"):
        solver(params, np.append(clean, np.nan), T)
    assert len(derivative_calls) <= calls_clean


def test_stationary_points_validation():
    with pytest.raises(NumericalError):
        StationaryPoints(momenta=(0.3,), action=-1e-3, carrier=0.0, curvature=(1.0,))
    with pytest.raises(ConfigError, match="curvature shape"):
        StationaryPoints(momenta=[[0.3], [0.4]], action=[0.0, 0.0], carrier=0.0, curvature=(1.0,))


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
        f1, f2 = _continued_split(gaussian, crit.p_star, zi)
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


def _as_array(out) -> np.ndarray:
    """A uniform evaluator's output at one time as an ``(n, 2)`` array."""
    return np.stack([out.u, out.v], axis=1) if isinstance(out, WaveField) else out


def _total_field(*args) -> np.ndarray | list[np.ndarray]:
    field = shortwave_total(*args)
    return [_as_array(f) for f in field] if isinstance(field, list) else _as_array(field)


#: One time, and three unsorted ones: every count below is per call, not per time.
_TIMES = pytest.mark.parametrize("times", [T, (0.25, 0.1, T)], ids=["1 time", "3 times"])


@_TIMES
@pytest.mark.parametrize(
    "evaluate, pieces", [(acoustic_uniform, 3), (optical_uniform, 3), (_total_field, 6)]
)
def test_uniform_takes_one_airy_call(params, disp, gaussian, evaluate, pieces, times, monkeypatch):
    # the interior and both front bands of each branch at every time share one
    # airy_ai_pair call, and every value is the one a call per record gives
    reach = max(disp.sound_speed, disp.critical.c_star) * T
    x = np.linspace(-1.2 * reach, 1.2 * reach, 201)
    sizes = []

    def counted(z):
        sizes.append(np.size(z))
        return airy_ai_pair(z)

    monkeypatch.setattr(shortwave, "airy_ai_pair", counted)
    joined = evaluate(params, gaussian, MU, x, times)
    assert len(sizes) == 1
    airy_sum = shortwave._airy_sum

    def one_call_per_record(size, records):
        return sum((airy_sum(size, [record]) for record in records), np.zeros((size, 2)))

    monkeypatch.setattr(shortwave, "_airy_sum", one_call_per_record)
    assert np.array_equal(evaluate(params, gaussian, MU, x, times), joined)
    assert len(sizes) == 1 + pieces and sum(sizes[1:]) == sizes[0]


def _edges(disp, t):
    """``(switch, outer)`` of the acoustic and of the optical branch at ``t``,
    formed as the uniform evaluators form them."""
    out = []
    for speed, curv in (
        (disp.sound_speed, disp.dispersion_coefficient),
        (disp.critical.c_star, disp.critical.q_star),
    ):
        width = MU ** (2.0 / 3.0) * (curv * t) ** (1.0 / 3.0)
        front = speed * t
        out.append((front - shortwave.FRONT_SWITCH_WIDTHS * width,
                    front + shortwave.CONTINUATION_WIDTHS * width))
    return out


def _front_formula(disp, profile, x, t, side, branch):
    """The front form of the ``_front_airy`` docstring, point by point, and
    its amplitude scale ``n r max |P F1| + n r^2 max |P F2|``."""
    if branch == ACOUSTIC:
        p_c, omega, speed, curv, n = 0.0, 0.0, disp.sound_speed, disp.dispersion_coefficient, 1.0
    else:
        crit = disp.critical
        p_c, speed, curv, n = crit.p_star, crit.c_star, crit.q_star, 2.0
        omega = disp.omega2_derivs(p_c, 0)[0]
    w = MU ** (2.0 / 3.0) * (curv * t) ** (1.0 / 3.0)
    r = (MU / (curv * t)) ** (1.0 / 3.0)
    sign = 1.0 if side == "right" else -1.0
    proj = disp.modal_matrix(p_c, branch)
    values, scale = [], 0.0
    for xi in x:
        y = xi - speed * t if side == "right" else -(xi + speed * t)
        f1, f2 = _continued_split(profile, p_c, -y / (curv * t))
        ai, aip = airy_ai_pair(y / w)
        carrier = np.exp(1j * (p_c * xi + sign * omega * t) / MU)
        values.append(n * r * (carrier * (proj @ (f1 * ai + sign * 1j * r * f2 * aip))).real)
        scale = max(scale, n * r * np.abs(proj @ f1).max() + n * r * r * np.abs(proj @ f2).max())
    return np.array(values), scale


@pytest.mark.parametrize("profile", ["gaussian", "skew"])
def test_uniform_forms_equal_the_envelope_and_front_formulas(params, disp, gaussian, profile):
    # the WKB tests above check these forms to 2-5%; here each piece of the
    # uniform evaluators equals its formula written with envelope_amplitude
    # and airy_ai_pair, to rounding
    prof = gaussian if profile == "gaussian" else _skew_profile()
    (ac_switch, ac_outer), (op_switch, op_outer) = _edges(disp, T)
    root = np.sqrt(2.0 * MU / np.pi)

    x = np.concatenate([[0.25, -0.25], np.linspace(-ac_switch, ac_switch, 50)])
    sp = acoustic_stationary(params, x, T)
    a = []
    for p in sp.momenta[:, 0]:
        curv = disp.omega1_smooth_derivs(p, 2)[2]
        v = spectral_vector(prof, 1.0, p)[0]
        a.append(disp.modal_matrix(p, ACOUSTIC) @ v / np.sqrt(T * abs(curv)))
    a = np.array(a)
    y = sp.action / MU
    env = np.where(x >= 0.0, envelope_amplitude(y, -1), envelope_amplitude(y, +1))
    expected = root * (a * env[:, None]).real
    got = acoustic_uniform(params, prof, MU, x, T)
    assert np.max(np.abs(got - expected)) <= 1e-13 * root * np.abs(a).max()

    x = np.concatenate([[0.15, -0.15], np.linspace(-op_switch, op_switch, 50)])
    sp = optical_stationary(params, x, T)
    b = np.empty((x.size, 2, 2), dtype=complex)
    for i, pair in enumerate(sp.momenta):
        for k, p in enumerate(pair):
            curv = disp.omega2_derivs(p, 2)[2]
            v = spectral_vector(prof, 1.0, p)[0]
            b[i, k] = disp.modal_matrix(p, OPTICAL) @ v / np.sqrt(T * abs(curv))
    right = (x >= 0.0)[:, None]
    b_max = np.where(right, b[:, 0], b[:, 1])
    b_min = np.where(right, b[:, 1], b[:, 0])
    y = sp.action / MU
    combo = b_max * envelope_amplitude(y, +1)[:, None] + b_min * envelope_amplitude(y, -1)[:, None]
    expected = root * (np.exp(1j * sp.carrier / MU)[:, None] * combo).real
    got = optical_uniform(params, prof, MU, x, T)
    assert np.max(np.abs(got - expected)) <= 1e-13 * root * np.abs(b).sum(axis=1).max()

    for evaluate, branch, switch, outer in (
        (acoustic_uniform, ACOUSTIC, ac_switch, ac_outer),
        (optical_uniform, OPTICAL, op_switch, op_outer),
    ):
        # each whole band in one call, against the formula point by point:
        # beyond the front the split F2 at eta = 0 is a difference quotient
        # over p_c -+ 1e-6 (~5e-11 relative rounding), which holds to 1e-13
        # only because every split value is its own point's
        band = np.linspace(switch, outer, 41)[1:]  # (switch, outer]
        for side, xs in (("right", band), ("left", -band)):
            expected, scale = _front_formula(disp, prof, xs, T, side, branch)
            got = evaluate(params, prof, MU, xs, T)
            assert np.max(np.abs(got - expected)) <= 1e-13 * scale


@_TIMES
def test_uniform_records_take_one_spectral_evaluation(params, disp, gaussian, times, monkeypatch):
    """The interior and both front bands of both branches at every time, with
    every continuation stencil point, take their band data from one
    spectral_vector call per shortwave_total call, so two site sums (one per
    sublattice); and every value is the one a call per piece gives."""
    calls, pieces = [], []
    semi_discrete_ft = initial_data.semi_discrete_ft
    spectral_vector = shortwave.spectral_vector
    records = shortwave._records

    def counted(*args, **kwargs):
        calls.append("semi_discrete_ft")
        return semi_discrete_ft(*args, **kwargs)

    def spectral(*args):
        calls.append("spectral_vector")
        return spectral_vector(*args)

    def recorded(profile, given):
        pieces.append(len(given))
        return records(profile, given)

    monkeypatch.setattr(initial_data, "semi_discrete_ft", counted)
    monkeypatch.setattr(shortwave, "spectral_vector", spectral)
    monkeypatch.setattr(shortwave, "_records", recorded)
    reach = max(edge for _, edge in _edges(disp, T))
    x = np.linspace(-1.1 * reach, 1.1 * reach, 401)
    joined = _total_field(params, gaussian, MU, x, times)
    assert pieces == [6]  # the interior and both fronts of each branch, every time in each
    assert calls == ["spectral_vector", "semi_discrete_ft", "semi_discrete_ft"]

    def one_call_per_piece(profile, given):
        return [record for piece in given for record in records(profile, [piece])]

    monkeypatch.setattr(shortwave, "_records", one_call_per_piece)
    calls.clear()
    apart = _total_field(params, gaussian, MU, x, times)
    assert calls.count("spectral_vector") == 6
    np.testing.assert_array_equal(apart, joined)


@_TIMES
def test_shortwave_total_makes_one_dispersion_and_one_solve_per_branch(
    params, gaussian, times, monkeypatch
):
    # one Dispersion, so one critical-point solve, and one stationary-point
    # Newton solve per branch, over every (time, point) pair of the call
    made, solved, solves = [], [], []
    newton = shortwave._newton

    class Counted(Dispersion):
        def __init__(self, *args):
            made.append(self)
            super().__init__(*args)

        @cached_property
        def critical(self):
            solved.append(self)
            return Dispersion.critical.func(self)

    def counted(*args):
        solves.append(args)
        return newton(*args)

    monkeypatch.setattr(shortwave, "Dispersion", Counted)
    monkeypatch.setattr(shortwave, "_newton", counted)
    shortwave_total(params, gaussian, MU, np.linspace(-0.7, 0.7, 133), times)
    assert len(made) == 1 and solved == made
    assert len(solves) == 2


_UNIFORM_EVALUATORS = {
    "acoustic_uniform": acoustic_uniform,
    "optical_uniform": optical_uniform,
    "shortwave_total": shortwave_total,
}


@pytest.mark.parametrize("name", sorted(_UNIFORM_EVALUATORS))
@pytest.mark.parametrize(
    "t, message",
    [
        ([], r"1-D sequence of times, got \[\]"),
        ([[0.1, 0.2]], r"1-D sequence of times, got \[\[0.1, 0.2\]\]"),
        ([0.1, 0.0], r"t > 0, got 0.0"),
        ([0.1, -0.2], r"non-negative, got -0.2"),
        ((0.2, np.nan), r"non-negative, got nan"),
        ([np.inf, 0.1], r"non-negative, got inf"),
        (0.0, r"t > 0, got 0.0"),
        (-np.inf, r"non-negative, got -inf"),
    ],
)
def test_uniform_evaluators_refuse_bad_times(params, gaussian, name, t, message):
    with pytest.raises(ConfigError, match=message):
        _UNIFORM_EVALUATORS[name](params, gaussian, MU, [0.1], t)


@pytest.mark.parametrize("name", sorted(_UNIFORM_EVALUATORS))
def test_one_time_as_float_or_sequence_gives_the_same_bits(params, gaussian, name):
    evaluate, x = _UNIFORM_EVALUATORS[name], np.linspace(-0.7, 0.7, 133)
    alone = evaluate(params, gaussian, MU, x, T)
    assert not isinstance(alone, list)
    for listed in ([T], (T,), np.array([T])):
        (field,) = evaluate(params, gaussian, MU, x, listed)
        np.testing.assert_array_equal(_as_array(field), _as_array(alone))
    np.testing.assert_array_equal(
        _as_array(evaluate(params, gaussian, MU, x, np.float64(T))), _as_array(alone)
    )


@pytest.mark.parametrize("times", [T, [0.3, T, 0.7]])
@pytest.mark.parametrize("name", sorted(_UNIFORM_EVALUATORS))
def test_uniform_evaluators_give_nan_at_a_nan_point(params, gaussian, name, times):
    """A NaN point lies in none of the pieces of the uniform forms; it reads NaN
    at every time, as in the front forms they hand over to, and every other
    point keeps the bits of a call without it."""
    evaluate = _UNIFORM_EVALUATORS[name]
    x = np.array([0.1, np.nan, 0.3])
    fields, alone = (evaluate(params, gaussian, MU, grid, times) for grid in (x, x[[0, 2]]))
    if np.ndim(times) == 0:
        fields, alone = [fields], [alone]
    assert len(fields) == np.size(times)
    for field, clean in zip(fields, alone):
        values = _as_array(field)
        assert np.all(np.isnan(values[1]))
        np.testing.assert_array_equal(values[[0, 2]], _as_array(clean))


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("evaluate", [acoustic_front_airy, optical_front_airy])
def test_front_forms_give_nan_at_a_nan_point_without_a_warning(params, gaussian, evaluate, side):
    """A NaN point's split is NaN: its front form reads NaN there, without the
    "invalid value" warning this suite turns into an error, and every other
    point keeps the bits of a call without it."""
    x = np.array([0.1, np.nan, 0.3])
    field = evaluate(params, gaussian, MU, x, T, side)
    assert np.all(np.isnan(field[1]))
    np.testing.assert_array_equal(field[[0, 2]], evaluate(params, gaussian, MU, x[[0, 2]], T, side))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_one_pass_equals_one_call_per_time(params, disp, skew, data):
    # 1-4 times, unsorted and repeated, on grids holding every time's switch and
    # outer edges of both branches and the next float beyond each outer edge:
    # one call for all times has every time's bits from a call of its own,
    # permuting x permutes every time's field, and each branch's edges are the
    # scalar formula's (_edges), so its field reaches each outer edge and is
    # zero the next float beyond it
    times = data.draw(
        st.lists(st.sampled_from([0.1, 0.25, 0.5]) | st.floats(0.05, 0.6), min_size=1, max_size=4)
    )
    edges = [s * e for t in times for pair in _edges(disp, t) for e in pair for s in (1.0, -1.0)]
    beyond = [
        np.nextafter(s * outer, s * np.inf) for t in times for _, outer in _edges(disp, t)
        for s in (1.0, -1.0)
    ]
    reach = 1.2 * max(edges)
    base = data.draw(st.lists(st.floats(-reach, reach), max_size=20))
    x = np.array(edges + beyond + base)
    perm = np.array(data.draw(st.permutations(range(x.size))))
    profile = data.draw(st.sampled_from([GaussianProfile(), skew]))
    for name, evaluate in _UNIFORM_EVALUATORS.items():
        joined = evaluate(params, profile, MU, x, times)
        moved = evaluate(params, profile, MU, x[perm], times)
        assert len(joined) == len(moved) == len(times)
        for t, field, permuted in zip(times, joined, moved):
            alone = evaluate(params, profile, MU, x, t)
            if isinstance(alone, WaveField):
                assert field.t == alone.t == t and field.method == alone.method
            np.testing.assert_array_equal(_as_array(field), _as_array(alone))
            np.testing.assert_array_equal(_as_array(permuted), _as_array(alone)[perm])
            if name != "shortwave_total":
                outer = _edges(disp, t)[name == "optical_uniform"][1]
                for s in (1.0, -1.0):
                    assert field[x == s * outer].any(axis=1).all()
                    assert not field[x == np.nextafter(s * outer, s * np.inf)].any()


_PUBLIC_EVALUATORS = {
    "acoustic_uniform": acoustic_uniform,
    "optical_uniform": optical_uniform,
    "acoustic_front_right": acoustic_front_airy,
    "acoustic_front_left": lambda *args: acoustic_front_airy(*args, "left"),
    "optical_front_right": optical_front_airy,
    "optical_front_left": lambda *args: optical_front_airy(*args, "left"),
    "shortwave_total": _total_field,
}


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_evaluators_commute_with_permutations(params, disp, data):
    # unsorted grids with repeated points and points exactly at the switch and
    # the outer edge of both branches: every point's value is its own
    t = data.draw(st.sampled_from([0.1, 0.5]))
    edges = [s * e for pair in _edges(disp, t) for e in pair for s in (1.0, -1.0)]
    reach = 1.2 * max(edges)  # beyond both outer edges
    points = st.one_of(st.sampled_from(edges), st.floats(-reach, reach))
    base = data.draw(st.lists(points, min_size=1, max_size=25))
    x = np.array(base + data.draw(st.lists(st.sampled_from(base), max_size=8)))
    perm = np.array(data.draw(st.permutations(range(x.size))))
    fields, gaussian = {}, GaussianProfile()
    for name, evaluate in _PUBLIC_EVALUATORS.items():
        field = evaluate(params, gaussian, MU, x, t)
        moved = evaluate(params, gaussian, MU, x[perm], t)
        np.testing.assert_array_equal(moved, field[perm])
        fields[name] = field
    np.testing.assert_array_equal(
        fields["shortwave_total"], fields["acoustic_uniform"] + fields["optical_uniform"]
    )


@pytest.mark.parametrize("evaluate, edges", [(acoustic_uniform, 0), (optical_uniform, 1)])
def test_one_point_pieces_keep_their_bits_in_one_pass(params, disp, skew, evaluate, edges):
    # x holds each time's outer edges of the branch: alone, a time's front
    # bands hold one point each and its interior at most four, against several
    # in the pass, so a contraction whose bits depend on its row count (a BLAS
    # product of one row is rounded otherwise than of many) would show here;
    # the skewed profile's complex band data make every product count
    times = (0.1, 0.25, 0.5)
    x = np.array([s * _edges(disp, t)[edges][1] for t in times for s in (1.0, -1.0)])
    for t, field in zip(times, evaluate(params, skew, MU, x, times)):
        np.testing.assert_array_equal(field, evaluate(params, skew, MU, x, t))


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
        f1, f2 = _split(gaussian, crit.p_star, eta)
        envelope = 2.0 * cube * np.abs(b_star @ (f1 * ai[i] + 1j * cube * f2 * aip[i]))
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
