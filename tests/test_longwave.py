"""Long-wave asymptotics: regime triage, amplitude evaluators, residuals."""

from __future__ import annotations

import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import _reference as ref
from diatomic_waves import (
    ConfigError,
    Dispersion,
    GaussianProfile,
    LatticeParams,
    LongwaveRegime,
    TableProfile,
    classify_regime,
    residual_pde_check,
    uas_dalembert,
    uas_gaussian_airy,
    uas_integral,
)
from diatomic_waves import longwave
from diatomic_waves import _quadrature as quad
from diatomic_waves._quadrature import synthesize_field


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


# The travelling-frame split, against the formulation it replaced: both
# half-lines through synthesize_field at the rate of the whole line.
FRAME_H, FRAME_MU = 0.002, 0.04
_SKEW_XI = np.linspace(-9.0, 10.0, 175)
SKEW = TableProfile(_SKEW_XI, np.exp(-0.5 * (_SKEW_XI - 0.7) ** 2))


def _whole_line_rate_reference(params, profile, mu, x, t):
    disp = Dispersion(params)
    cut = profile.hat_radius()
    transport = t * disp.sound_speed / mu
    cubic = t * disp.dispersion_coefficient * params.h**2 / (3.0 * mu**3)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    rate = float(np.max(np.abs(x_arr))) / mu + transport + 3.0 * cubic * cut**2
    out = np.zeros(x_arr.size)
    for sign in (1.0, -1.0):
        def kern(p, sign=sign):
            return profile.fourier_hat(sign * p) * np.exp(
                1j * (transport * p - cubic * p**3)
            ) / np.sqrt(2.0 * np.pi)

        out += synthesize_field(kern, 0.0, cut, sign * x_arr / mu, rate).real
    return out


def _frame_grids(t: float) -> dict:
    ct = Dispersion(LatticeParams(0.82, 1.27, FRAME_H)).sound_speed * t
    right = ct + FRAME_MU * np.linspace(-20.0, 5.0, 201)
    return {
        "right": right,
        "left": -right,
        "two_front": np.linspace(-(ct + 0.05), ct + 0.05, 401),
        "ahead": ct + FRAME_MU * np.linspace(8.0, 40.0, 101),  # (ct - x)/mu < 0
        "scalar": ct - 0.5 * FRAME_MU,
    }


@functools.lru_cache(maxsize=None)
def _wave_peak(table: bool, t: float) -> float:
    """Peak of the field on the right front's zoom (at t = 0, the bump)."""
    field = _whole_line_rate_reference(
        LatticeParams(0.82, 1.27, FRAME_H), SKEW if table else GaussianProfile(),
        FRAME_MU, _frame_grids(t)["right"], t,
    )
    return float(np.max(np.abs(field)))


#: Path each frame takes: "far" (the Legendre-Bessel rule), "near" (its own
#: synthesize_field call) or "fold" (one even-fold call for both).  No frame
#: here is far: the t = 2 trailing frames sit at ``|r y|`` from about 320, below
#: the 2,016 from which the rule admits two orders (the NaCl windows below
#: take it).
FRAME_CASES = [
    pytest.param(t, grid, gaussian_paths, table_paths, id=f"t{t:g}-{grid}")
    for t, grid, gaussian_paths, table_paths in (
        (0.0, "right", "fold", "near near"),
        (0.0, "two_front", "fold", "near near"),
        (0.0, "scalar", "fold", "near near"),
        (2.0, "right", "fold", "near near"),
        (2.0, "left", "fold", "near near"),
        (2.0, "two_front", "fold", "near near"),
        (2.0, "ahead", "fold", "near near"),
        (2.0, "scalar", "fold", "near near"),
    )
]


@pytest.mark.parametrize("table", [False, True], ids=["gaussian", "skew_table"])
@pytest.mark.parametrize("t, grid, gaussian_paths, table_paths", FRAME_CASES)
def test_frames_match_whole_line_rate(monkeypatch, t, grid, gaussian_paths, table_paths, table):
    """Each frame sized by its own rate (or taken by the far rule) gives the
    whole-line-rate field to 1e-12 of the wave's peak, on front zooms, the
    two-front grid, ahead of a front, at t = 0 and for a scalar x."""
    profile = SKEW if table else GaussianProfile()
    params = LatticeParams(0.82, 1.27, FRAME_H)
    paths = []
    far_rule = longwave.legendre_bessel_field
    quadrature = longwave.synthesize_field

    def far_spy(*args, **kwargs):
        out = far_rule(*args, **kwargs)
        if out is not None:
            paths.append("far")
        return out

    def near_spy(*args, **kwargs):
        paths.append("fold" if kwargs.get("even_fold") else "near")
        return quadrature(*args, **kwargs)

    monkeypatch.setattr(longwave, "legendre_bessel_field", far_spy)
    monkeypatch.setattr(longwave, "synthesize_field", near_spy)
    x = _frame_grids(t)[grid]
    got = uas_integral(params, profile, FRAME_MU, x, t)
    monkeypatch.undo()
    assert sorted(paths) == sorted((table_paths if table else gaussian_paths).split())
    assert isinstance(got, float) == np.isscalar(x)
    ref = _whole_line_rate_reference(params, profile, FRAME_MU, x, t)
    assert np.max(np.abs(got - ref)) <= 1e-12 * _wave_peak(table, t)


def test_front_zoom_evaluates_few_kernel_points(nacl_params):
    """On a zoom of one front (the long-wave front benchmark's grid), the far
    frame no longer sizes the panels: the whole-line rate evaluated the
    transform at 1,703,952 points."""
    seen = []

    class Counting(GaussianProfile):
        def fourier_hat(self, p):
            seen.append(np.size(p))
            return super().fourier_hat(p)

    mu, t = 80.0 * nacl_params.h, 0.5008247840889459
    x = np.linspace(0.4994252139422566, 0.5011252139422566, 401)
    got = uas_integral(nacl_params, Counting(), mu, x, t)
    assert sum(seen) <= 20_000
    assert np.max(np.abs(got - uas_gaussian_airy(nacl_params, mu, x, t))) <= 1e-12


def test_front_zoom_near_frame_takes_the_chirp_path(nacl_params, monkeypatch):
    """The near frame's grid ``(c t - x) / mu`` sits hundreds of ulps off a
    progression; its residual phase is still far inside what the first-order
    correction keeps exact, so the contraction stays on chirp-z.  Formed as one
    quotient, the offset no longer rounds ``c t / mu`` (about 22,000), and the
    integral meets the closed form to rounding (3.5e-13 with ``ct/mu - x/mu``)."""
    direct = []
    contract_direct = quad._contract_direct
    monkeypatch.setattr(
        quad, "_contract_direct", lambda *args: direct.append(1) or contract_direct(*args)
    )
    mu, t = 80.0 * nacl_params.h, 0.5008247840889459
    x = np.linspace(0.4994252139422566, 0.5011252139422566, 401)
    got = uas_integral(nacl_params, GaussianProfile(), mu, x, t)
    assert not direct
    assert np.max(np.abs(got - uas_gaussian_airy(nacl_params, mu, x, t))) <= 2e-14


def _far_frames(monkeypatch) -> list:
    """Patch ``uas_integral``'s far rule to record ``(kernel, a, b, y, field)``
    of every call, the field None where the rule does not apply."""
    calls = []
    far_rule = longwave.legendre_bessel_field

    def far_spy(kernel, a, b, y, **kwargs):
        out = far_rule(kernel, a, b, y, **kwargs)
        calls.append((kernel, a, b, y, out))
        return out

    monkeypatch.setattr(longwave, "legendre_bessel_field", far_spy)
    return calls


def test_front_zoom_far_frame_takes_the_endpoint_sum(nacl_params, monkeypatch):
    """On the long-wave front benchmark's grid (NaCl, delta = 0.0125, t = 0.5,
    the window ``[ct - 0.0014, ct + 0.0003]``, ``c = 1``) the trailing frame
    sits at ``|r y| >= 1.78e5``, past the endpoint threshold of every order:
    its field comes from one endpoint sum.  It is the sequential ladder's (the
    upward Bessel recurrence on the same Gauss-Legendre coefficients) to
    1e-19: they differ by 6.3e-20 (the wave's peak is 9.0e-6)."""
    endpoint = []
    endpoint_fields = quad._endpoint_fields
    monkeypatch.setattr(
        quad, "_endpoint_fields", lambda *a: endpoint.append(1) or endpoint_fields(*a)
    )
    frames = _far_frames(monkeypatch)
    mu, t = 80.0 * nacl_params.h, 0.5
    x = np.linspace(t - 0.0014, t + 0.0003, 401)
    uas_integral(nacl_params, GaussianProfile(), mu, x, t)
    assert endpoint == [1]
    (kernel, a, b, y, far), (*_, near) = frames
    assert far is not None and near is None
    assert np.max(np.abs(far - ref.legendre_bessel_ladder(kernel, a, b, y)[0])) <= 1e-19


#: ``(n_atoms, t)`` of the NaCl front windows ``mu = n_atoms h``,
#: ``x in [ct - 0.0014 n_atoms / 80, ct + 0.0003 n_atoms / 80]``: the trailing
#: frame sits at ``min |r y|`` from 2,531 (1280, 0.125) to 177,709 (80, 0.5).
NACL_WINDOWS = [(n, t) for n in (80, 160, 320, 640, 1280) for t in (0.125, 0.5)]


@pytest.mark.parametrize("n_atoms, t", NACL_WINDOWS)
def test_nacl_windows_take_the_far_rule(nacl_params, monkeypatch, n_atoms, t):
    """On a zoom of the right-moving front at every NaCl scale from 80 to 1280
    atoms per perturbation width, the far rule returns the trailing frame's
    field and leaves the leading one to the panels, and the integral meets the
    closed form to 1e-12 (2.0e-14 at most, at 640 atoms and t = 0.125)."""
    frames = _far_frames(monkeypatch)
    mu = n_atoms * nacl_params.h
    x = np.linspace(t - 0.0014 * n_atoms / 80, t + 0.0003 * n_atoms / 80, 401)
    got = uas_integral(nacl_params, GaussianProfile(), mu, x, t)
    monkeypatch.undo()
    (*_, trailing), (*_, leading) = frames
    assert trailing is not None and leading is None
    assert np.max(np.abs(got - uas_gaussian_airy(nacl_params, mu, x, t))) <= 1e-12


# ---------------------------------------------------------------------------
# the integral over a sequence of times
# ---------------------------------------------------------------------------

#: The ``longwave_bandsum`` benchmark's lattice, scale and grid: both fronts
#: inside the grid at every time, so every frame folds.
BANDSUM_H, BANDSUM_MU = 2.5e-4, 0.05
BANDSUM_X = np.linspace(-0.7, 0.7, 401)


def test_integral_largest_time_keeps_the_bits_of_its_own_call(desk, gaussian):
    """The folded times share the largest one's ladder, so the largest time's
    field is its own call's bit for bit; a one-element sequence is the float
    call, as a list."""
    params = desk(BANDSUM_H)
    fields = uas_integral(params, gaussian, BANDSUM_MU, BANDSUM_X, (0.1, 0.25, 0.5))
    assert isinstance(fields, list) and len(fields) == 3
    alone = uas_integral(params, gaussian, BANDSUM_MU, BANDSUM_X, 0.5)
    np.testing.assert_array_equal(fields[-1], alone)
    (single,) = uas_integral(params, gaussian, BANDSUM_MU, BANDSUM_X, [0.5])
    np.testing.assert_array_equal(single, alone)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    times=st.lists(st.floats(0.0, 2.5), min_size=1, max_size=4),
    grid=st.sampled_from(["wide", "window"]),
    table=st.booleans(),
)
def test_integral_over_times_matches_one_time_calls(times, grid, table):
    """Every field of a time sequence (unsorted, repeats allowed) is within
    ``atol + rtol * scale`` of its own call, with the default ``atol = 1e-13``,
    ``rtol = 1e-8`` and ``scale`` that call's peak: the target each time's
    ladder meets on its own, as a folded time is converged on its own scale
    on at least the nodes its own call takes.  The wide grid folds every
    time; the window on one front mixes near and folded frames; the
    skew table never folds."""
    params = LatticeParams(0.82, 1.27, FRAME_H)
    profile = SKEW if table else GaussianProfile()
    x = np.linspace(-0.7, 0.7, 81) if grid == "wide" else _frame_grids(2.0)["right"]
    fields = uas_integral(params, profile, FRAME_MU, x, times)
    assert isinstance(fields, list) and len(fields) == len(times)
    for t, field in zip(times, fields):
        alone = uas_integral(params, profile, FRAME_MU, x, t)
        assert np.max(np.abs(field - alone)) <= 1e-13 + 1e-8 * np.max(np.abs(alone))


def test_integral_mixing_near_and_far_frames_keeps_every_bit(nacl_params, monkeypatch):
    """On a window on one front (NaCl at 1280 atoms per width, the window of
    t = 0.125), each time takes its own frames (far, near, or a fold for the
    one time whose frames both miss the far rule), and every field is its own
    call's bit for bit."""
    params, mu = nacl_params, 1280 * nacl_params.h
    x = np.linspace(0.125 - 0.0014 * 16, 0.125 + 0.0003 * 16, 401)
    times = (0.125, 0.0, 0.25, 0.5)
    paths = []
    far_rule, quadrature = longwave.legendre_bessel_field, longwave.synthesize_field

    def far_spy(*args, **kwargs):
        out = far_rule(*args, **kwargs)
        paths.append("far" if out is not None else "-")
        return out

    def near_spy(*args, **kwargs):
        paths.append("fold" if kwargs.get("even_fold") else "near")
        return quadrature(*args, **kwargs)

    monkeypatch.setattr(longwave, "legendre_bessel_field", far_spy)
    monkeypatch.setattr(longwave, "synthesize_field", near_spy)
    fields = uas_integral(params, GaussianProfile(), mu, x, times)
    monkeypatch.undo()
    assert {"far", "near", "fold"} <= set(paths)
    for t, field in zip(times, fields):
        alone = uas_integral(params, GaussianProfile(), mu, x, t)
        np.testing.assert_array_equal(field, alone)


def test_integral_over_times_on_an_empty_or_scalar_grid(desk, gaussian):
    """An empty grid gives one empty array per time, a scalar ``x`` one float
    per time, each its own call's value."""
    params, times = desk(0.02), [0.1, 0.5, 0.3]
    empty = uas_integral(params, gaussian, 0.2, np.array([]), times)
    assert len(empty) == 3
    assert all(isinstance(f, np.ndarray) and f.shape == (0,) for f in empty)
    scalar = uas_integral(params, gaussian, 0.2, 0.45, times)
    assert all(isinstance(f, float) for f in scalar)
    assert scalar[times.index(0.5)] == uas_integral(params, gaussian, 0.2, 0.45, 0.5)
    for t, value in zip(times, scalar):
        alone = uas_integral(params, gaussian, 0.2, 0.45, t)
        assert abs(value - alone) <= 1e-13 + 1e-8 * abs(alone)


@pytest.mark.parametrize(
    "t, says",
    [
        ([], "1-D sequence of times"),
        (np.zeros(0), "1-D sequence of times"),
        ([[0.1, 0.2]], "1-D sequence of times"),
        (np.full((1, 1), 0.1), "1-D sequence of times"),
        (-0.2, "t must be finite and non-negative, got -0.2"),
        ([0.1, -0.1], "t must be finite and non-negative, got -0.1"),
        ([np.nan, 0.1], "t must be finite and non-negative, got nan"),
        ((0.2, np.inf), "t must be finite and non-negative, got inf"),
    ],
)
def test_integral_refuses_bad_times(desk, gaussian, t, says):
    with pytest.raises(ConfigError, match=re.escape(says)):
        uas_integral(desk(0.02), gaussian, 0.2, [0.0], t)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_long_wave_evaluators_refuse_non_finite_x(desk, gaussian, bad):
    """The integral and both closed forms refuse a nan or an infinity in x
    with one message, before any warning (pytest turns those into errors)."""
    params, x = desk(0.002), np.array([0.0, bad, 0.1])
    evaluators = (
        lambda: uas_integral(params, gaussian, 0.04, x, 0.3),
        lambda: uas_gaussian_airy(params, 0.04, x, 0.3),
        lambda: uas_dalembert(params, gaussian, 0.04, x, 0.3),
    )
    for evaluate in evaluators:
        with pytest.raises(ConfigError, match=re.escape(f"x must be finite, got {bad!r}")):
            evaluate()


def test_folded_times_share_one_synthesize_call(monkeypatch, desk, gaussian):
    """Every time of a sequence folds on the bandsum grid: one synthesize_field
    call serves them all, with one column per time."""
    shapes = []
    quadrature = longwave.synthesize_field

    def spy(kernel, *args, **kwargs):
        shapes.append(np.shape(kernel(np.linspace(0.0, 1.0, 16))))
        return quadrature(kernel, *args, **kwargs)

    monkeypatch.setattr(longwave, "synthesize_field", spy)
    uas_integral(desk(BANDSUM_H), gaussian, BANDSUM_MU, BANDSUM_X, (0.1, 0.25, 0.5))
    assert shapes == [(16, 3, 1)]


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
