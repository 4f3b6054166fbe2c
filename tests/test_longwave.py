"""Long-wave asymptotics: regime triage, amplitude evaluators, residuals."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

import _reference as ref
from diatomic_waves import (
    ConfigError,
    Dispersion,
    LongwaveRegime,
    classify_regime,
    residual_pde_check,
    uas_dalembert,
    uas_gaussian_airy,
    uas_integral,
)


# ---------------------------------------------------------------------------
# regime triage
# ---------------------------------------------------------------------------

def test_classify_regime_three_labels(desk):
    # the governing ratio is q * t * h^2 / mu^3 at t ~ 1
    weak = classify_regime(desk(0.001), 0.05)
    assert weak.regime == "wave_equation"
    assert weak.ratio < 0.1

    mid = classify_regime(desk(0.01), 0.05)
    assert mid.regime == "weak_dispersion"

    strong = classify_regime(desk(0.04), 0.05)
    assert strong.regime == "strong_dispersion"
    assert strong.ratio > 10.0


def test_classify_regime_past_the_float_range(desk):
    # mu**3 overflows or underflows; the ratio is then 0 or inf, not an error
    assert classify_regime(desk(0.008), 1e300).ratio == 0.0
    far = classify_regime(desk(0.008), 1e-300)
    assert far.ratio == np.inf and far.regime == "strong_dispersion"


def test_classify_regime_validation(desk):
    with pytest.raises(ConfigError):
        classify_regime(desk(0.01), 0.05, band=(1.0, 0.5))
    with pytest.raises(ConfigError):
        classify_regime(desk(0.01), -0.05)
    with pytest.raises(ConfigError):
        LongwaveRegime(h=0.01, mu=0.05, ratio=1.0, regime="mystery")


# ---------------------------------------------------------------------------
# integral evaluator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key", sorted(ref.LONGWAVE_AMPLITUDES))
def test_integral_frozen_values(desk, gaussian, key):
    h, mu, t, x = key
    got = uas_integral(desk(h), gaussian, mu, x, t)
    assert_allclose(got, ref.LONGWAVE_AMPLITUDES[key], rtol=1e-9)


def test_integral_initial_time_is_profile(desk, gaussian):
    params = desk(0.01)
    x = np.linspace(-0.15, 0.15, 7)
    got = uas_integral(params, gaussian, 0.05, x, 0.0)
    assert_allclose(got, gaussian.value(x / 0.05), atol=1e-9)


def test_integral_even_in_x(desk, gaussian):
    params = desk(0.02)
    x = np.array([0.1, 0.3, 0.52])
    plus = uas_integral(params, gaussian, 0.2, x, 0.5)
    minus = uas_integral(params, gaussian, 0.2, -x, 0.5)
    assert_allclose(minus, plus, rtol=1e-12)


def test_integral_scalar_returns_float(desk, gaussian):
    out = uas_integral(desk(0.02), gaussian, 0.2, 0.45, 0.5)
    assert isinstance(out, float)


# ---------------------------------------------------------------------------
# closed-form evaluator (gaussian data)
# ---------------------------------------------------------------------------

def test_closed_form_matches_integral(desk, gaussian):
    params = desk(0.008)
    mu, t = 0.04, 0.3
    x = np.linspace(-0.4, 0.4, 81)
    direct = uas_integral(params, gaussian, mu, x, t)
    closed = uas_gaussian_airy(params, mu, x, t)
    assert np.max(np.abs(closed - direct)) < 1e-7


@pytest.mark.parametrize("t", [0.01, 0.1, 0.25, 0.5])
def test_closed_form_equals_integral_to_rounding(desk, gaussian, t):
    # lam = q t h^2 / mu^3 ~ 1e-6 .. 1e-4 here: the exponents 1/(12 lam^2) and
    # a/(2 lam) must not be formed separately, they cancel to -a^2/2
    params = desk(2.5e-4)
    mu = 0.05
    x = np.linspace(-0.7, 0.7, 401)
    closed = uas_gaussian_airy(params, mu, x, t)
    direct = uas_integral(params, gaussian, mu, x, t)
    assert np.max(np.abs(closed - direct)) <= 1e-13


@pytest.mark.parametrize(
    "h, t",
    [(2.5e-4, t) for t in (1e-6, 1e-9, 1e-100, 1e-148, 1e-200, 1e-300)] + [(1e-300, 0.3)],
)
def test_closed_form_tends_to_dalembert_as_lam_vanishes(desk, h, t):
    # down to lam ~ 1e-154 the closed form itself, below it its lam -> 0 limit
    params = desk(h)
    mu = 0.05
    x = np.linspace(-0.7, 0.7, 401)
    ct = Dispersion(params).sound_speed * t
    half_sum = 0.5 * (np.exp(-0.5 * ((x + ct) / mu) ** 2) + np.exp(-0.5 * ((x - ct) / mu) ** 2))
    assert np.max(np.abs(uas_gaussian_airy(params, mu, x, t) - half_sum)) <= 1e-13


def test_closed_form_symmetry_and_validation(desk):
    params = desk(0.008)
    x = np.linspace(0.0, 0.4, 21)
    left = uas_gaussian_airy(params, 0.04, -x, 0.3)
    right = uas_gaussian_airy(params, 0.04, x, 0.3)
    assert_allclose(left, right, rtol=1e-13)
    with pytest.raises(ConfigError):
        uas_gaussian_airy(params, 0.04, x, 0.0)
    with pytest.raises(ConfigError):
        uas_gaussian_airy(params, -0.04, x, 0.3)


def test_closed_form_finite_at_physical_scale(desk):
    # rock-salt-like scales: h ~ 2.8e-7, mu = 80 h; nothing overflows and
    # the trailing (dispersive) side shows the oscillation sign structure
    h = 2.82e-7
    params = desk(h)
    mu = 80.0 * h
    t = 0.5
    disp = Dispersion(params)
    front = disp.sound_speed * t
    width = mu + (disp.dispersion_coefficient * t * h * h) ** (1.0 / 3.0)
    x = front + width * np.linspace(-10.0, 4.0, 401)
    vals = uas_gaussian_airy(params, mu, x, t)
    assert np.all(np.isfinite(vals))
    assert np.max(vals) > 0.1
    trailing = vals[x < front - 3.0 * width]
    assert trailing.size > 10 and np.min(trailing) < 0.0


# ---------------------------------------------------------------------------
# dispersionless reference
# ---------------------------------------------------------------------------

def test_dalembert_basics(desk, gaussian):
    params = desk(0.01)
    mu = 0.05
    x = np.linspace(-0.8, 0.8, 33)
    at_zero = uas_dalembert(params, gaussian, mu, x, 0.0)
    assert_allclose(at_zero, gaussian.value(x / mu), rtol=1e-12)
    c = Dispersion(params).sound_speed
    on_front = uas_dalembert(params, gaussian, mu, c * 0.5, 0.5)
    assert_allclose(on_front, 0.5, atol=1e-12)


def test_dalembert_approximates_integral_in_weak_regime(desk, gaussian):
    # halving h quarters the defect of the dispersionless approximation
    mu, t = 0.1, 0.4
    x = np.linspace(-0.6, 0.6, 61)
    errs = []
    for h in (0.02, 0.01):
        params = desk(h)
        exact = uas_integral(params, gaussian, mu, x, t)
        errs.append(np.max(np.abs(uas_dalembert(params, gaussian, mu, x, t) - exact)))
    assert errs[1] < 0.3 * errs[0]


# ---------------------------------------------------------------------------
# residual diagnostics
# ---------------------------------------------------------------------------

def test_residual_dalembert_solves_wave_equation(desk, gaussian):
    params = desk(0.01)
    mu = 0.05
    x = np.linspace(-0.5, 0.5, 41)

    def field(xx, tt):
        return uas_dalembert(params, gaussian, mu, xx, tt)

    res = residual_pde_check(field, params, mu, x, 0.4, equation="wave")
    assert res < 1e-9


def test_residual_closed_form_solves_dispersive_equation(desk):
    params = desk(0.01)
    mu = 0.05

    def field(xx, tt):
        return uas_gaussian_airy(params, mu, xx, tt)

    x = np.linspace(0.1, 0.6, 41)
    res = residual_pde_check(field, params, mu, x, 0.4, equation="dispersive6")
    assert res < 1e-5


def test_residual_flags_wrong_equation(desk, gaussian):
    # strong dispersion: the dispersionless field visibly violates the
    # sixth-order equation while the closed form satisfies it
    params = desk(0.04)
    mu = 0.05
    x = np.linspace(0.1, 0.6, 41)

    def wrong(xx, tt):
        return uas_dalembert(params, gaussian, mu, xx, tt)

    def right(xx, tt):
        return uas_gaussian_airy(params, mu, xx, tt)

    bad = residual_pde_check(wrong, params, mu, x, 0.4, equation="dispersive6")
    good = residual_pde_check(right, params, mu, x, 0.4, equation="dispersive6")
    assert bad > 100.0 * good
    assert bad > 1e-3


def test_residual_validation(desk):
    params = desk(0.01)

    def zero(xx, tt):
        return np.zeros_like(np.asarray(xx, dtype=float))

    with pytest.raises(ConfigError):
        residual_pde_check(zero, params, 0.05, np.linspace(0, 1, 11), 0.4)
    with pytest.raises(ConfigError):
        residual_pde_check(zero, params, 0.05, np.linspace(0, 1, 11), 0.4, equation="heat")
