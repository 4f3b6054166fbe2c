"""Airy evaluator: frozen-table accuracy, ODE residual, envelope functions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose
from scipy import special

import _reference as ref
from diatomic_waves import airy
from diatomic_waves import (
    AIRY_AI_PRIME_ZERO,
    AIRY_AI_ZERO,
    ConfigError,
    airy_ai,
    airy_ai_pair,
    airy_ai_prime,
    airy_ai_scaled,
    envelope_amplitude,
)


def test_origin_values_match_closed_form():
    ai0, aip0 = airy_ai_pair(0.0)
    assert_allclose(ai0, ref.AIRY_TABLE[0.0][0], atol=1e-13)
    assert_allclose(aip0, ref.AIRY_TABLE[0.0][1], atol=1e-13)
    assert_allclose(AIRY_AI_ZERO, ref.AIRY_TABLE[0.0][0], atol=1e-15)
    assert_allclose(AIRY_AI_PRIME_ZERO, ref.AIRY_TABLE[0.0][1], atol=1e-15)


def test_values_against_frozen_table():
    z = np.array(sorted(ref.AIRY_TABLE))
    ai_ref = np.array([ref.AIRY_TABLE[v][0] for v in sorted(ref.AIRY_TABLE)])
    aip_ref = np.array([ref.AIRY_TABLE[v][1] for v in sorted(ref.AIRY_TABLE)])
    ai, aip = airy_ai_pair(z)
    assert_allclose(ai, ai_ref, rtol=1e-11, atol=1e-13)
    assert_allclose(aip, aip_ref, rtol=1e-11, atol=1e-13)
    # scalar front-ends agree with the pair
    assert airy_ai(1.3) == ai[list(sorted(ref.AIRY_TABLE)).index(1.3)]
    assert airy_ai_prime(1.3) == aip[list(sorted(ref.AIRY_TABLE)).index(1.3)]


def test_branch_switch_is_seamless():
    # the two branches meeting at the switchover must agree after removing
    # the function's own first-order variation over the 2-eps interval
    # (Ai'' = z Ai supplies the slope of Ai')
    eps = 1e-9
    for z0 in (7.4, -7.4):
        below = airy_ai_pair(z0 - eps)
        above = airy_ai_pair(z0 + eps)
        ai_mid, aip_mid = airy_ai_pair(z0)
        jump_ai = (above[0] - below[0]) - 2.0 * eps * aip_mid
        jump_aip = (above[1] - below[1]) - 2.0 * eps * z0 * ai_mid
        assert abs(jump_ai) < 5e-11
        assert abs(jump_aip) < 5e-11


def test_ode_residual_finite_differences():
    # |Ai''(z) - z Ai(z)| via central differences, absolute residual
    z = np.linspace(-20.0, 5.0, 301)
    eps = 1e-3
    ai_m = airy_ai(z - eps)
    ai_0 = airy_ai(z)
    ai_p = airy_ai(z + eps)
    residual = (ai_m - 2.0 * ai_0 + ai_p) / eps**2 - z * ai_0
    assert np.max(np.abs(residual)) <= 1e-4


def test_derivative_consistency():
    # FD quotient amplifies the evaluator's absolute noise by 1/(2 eps),
    # so the comparison needs an absolute floor alongside the 1e-6 target
    z = np.linspace(-15.0, 8.0, 47)
    eps = 1e-6
    fd = (airy_ai(z + eps) - airy_ai(z - eps)) / (2.0 * eps)
    assert_allclose(fd, airy_ai_prime(z), rtol=1e-6, atol=1e-8)


def test_positive_axis_decay_monotone():
    z = np.linspace(5.0, 50.0, 200)
    ai = airy_ai(z)
    assert np.all(ai > 0.0)
    assert np.all(np.diff(ai) < 0.0)


def test_scaled_variant():
    # relative floor ~1.5e-10 right at the series/asymptotic crossover
    # (z ~ 6), far below it elsewhere
    z = np.array(sorted(ref.AIRY_SCALED_TABLE))
    expected = np.array([ref.AIRY_SCALED_TABLE[v] for v in sorted(ref.AIRY_SCALED_TABLE)])
    assert_allclose(airy_ai_scaled(z), expected, rtol=1e-9)
    # overflow-free far beyond the plain evaluator's range
    assert np.isfinite(airy_ai_scaled(1e6))
    with pytest.raises(ConfigError):
        airy_ai_scaled(-0.5)


def test_scaled_consistency_with_plain():
    # the two evaluators use different branches on z in (6, 7.4), where
    # they agree to the branches' common accuracy, not to round-off
    z = np.linspace(0.0, 8.0, 17)
    expected = airy_ai(z) * np.exp((2.0 / 3.0) * z**1.5)
    assert_allclose(airy_ai_scaled(z), expected, rtol=1e-8)


def _table(table: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    z = np.array(sorted(table))
    return z, np.array([table[v][0] for v in z]), np.array([table[v][1] for v in z])


def _phase_conditioned_bound(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Absolute error bounds for (Ai, Ai') at large |z|: 8 eps zeta times the
    envelope.  On z < 0 a relative rounding of zeta = (2/3)|z|^{3/2} moves the
    phase by eps * zeta; on z > 0 the envelope carries e^{-zeta}."""
    x = np.abs(z)
    zeta = (2.0 / 3.0) * x**1.5
    decay = np.where(z > 0.0, 0.5 * np.exp(-zeta), 1.0)
    scale = 8.0 * np.finfo(float).eps * zeta * decay / np.sqrt(np.pi)
    return scale * x**-0.25, scale * x**0.25


def test_values_at_library_accuracy():
    z, ai_ref, aip_ref = _table(ref.AIRY_TABLE)
    ai, aip = airy_ai_pair(z)
    assert_allclose(ai, ai_ref, rtol=1e-13, atol=1e-15)
    assert_allclose(aip, aip_ref, rtol=1e-13, atol=1e-15)
    zs = np.array(sorted(ref.AIRY_SCALED_TABLE))
    expected = np.array([ref.AIRY_SCALED_TABLE[v] for v in zs])
    assert_allclose(airy_ai_scaled(zs), expected, rtol=1e-14)


def test_far_range_against_frozen_table():
    z, ai_ref, aip_ref = _table(ref.AIRY_FAR_TABLE)
    assert z.min() <= -1e7 and z.max() >= 1e7  # past scipy's range on both sides
    ai, aip = airy_ai_pair(z)
    bound_ai, bound_aip = _phase_conditioned_bound(z)
    assert np.all(np.abs(ai - ai_ref) <= bound_ai)
    assert np.all(np.abs(aip - aip_ref) <= bound_aip)


def test_tail_switch_sides_match_mpmath():
    switch = airy._TAIL_SWITCH
    for side in (-1.0, 1.0):
        inner = np.nextafter(side * switch, 0.0)
        z = np.array([inner, side * switch])  # library, then tail
        ai, aip = airy_ai_pair(z)
        bound_ai, bound_aip = _phase_conditioned_bound(z)
        for k in range(2):
            expected = ref.AIRY_FAR_TABLE[z[k]]
            assert abs(ai[k] - expected[0]) <= bound_ai[k]
            assert abs(aip[k] - expected[1]) <= bound_aip[k]
    # one ulp below the switch moves the scaled value by ~1e-16 relative
    for z in (np.nextafter(switch, 0.0), switch):
        assert_allclose(airy_ai_scaled(z), ref.AIRY_SCALED_TABLE[switch], rtol=1e-14)


# ---------------------------------------------------------------------------
# the numpy kernels: series, Gauss-Laguerre ladder, their switches
# ---------------------------------------------------------------------------

_EPS = np.finfo(float).eps


def _envelope(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale of (Ai, Ai'): ``x^{-+1/4} / sqrt(pi)`` with ``x = max(|z|, 1)``, times
    ``e^{-zeta} / 2`` on ``z > 0``."""
    x = np.maximum(np.abs(z), 1.0)
    decay = np.where(z > 0.0, 0.5 * np.exp(-(2.0 / 3.0) * np.abs(z) ** 1.5), 1.0)
    return decay * x**-0.25 / np.sqrt(np.pi), decay * x**0.25 / np.sqrt(np.pi)


def _bound(z: np.ndarray, ulps) -> tuple[np.ndarray, np.ndarray]:
    """``_phase_conditioned_bound`` plus ``ulps`` eps of the envelope."""
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 * inf at z = 0
        phase_ai, phase_aip = (np.nan_to_num(b) for b in _phase_conditioned_bound(z))
    env_ai, env_aip = _envelope(z)
    return phase_ai + ulps * _EPS * env_ai, phase_aip + ulps * _EPS * env_aip


def _scipy_ulps(z: np.ndarray) -> np.ndarray:
    """Envelope ulps allowed against scipy: 8, but 256 on ``0 < z < 3.5``, where
    ``scipy.special.airy`` and ``airye`` are themselves off by up to ~190 ulps
    of the envelope against 40-digit mpmath (this evaluator: 19)."""
    return np.where((z > 0.0) & (z < 3.5), 256.0, 8.0)


#: the whole range below the tail, and more often the switches near the origin
_FINITE_Z = st.one_of(st.floats(-1e4, 1e4), st.floats(-25.0, 25.0))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(z=hnp.arrays(np.float64, st.integers(1, 40), elements=_FINITE_Z))
def test_pair_against_scipy(z):
    ai, aip = airy_ai_pair(z)
    ref_ai, ref_aip, _, _ = special.airy(z)
    bound_ai, bound_aip = _bound(z, _scipy_ulps(z))
    # past z ~ 104 both underflow: their difference is below the smallest normal
    assert np.all(np.abs(ai - ref_ai) <= np.maximum(bound_ai, 1e-300))
    assert np.all(np.abs(aip - ref_aip) <= np.maximum(bound_aip, 1e-300))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(z=hnp.arrays(np.float64, st.integers(1, 40), elements=st.one_of(st.floats(0.0, 1e4), st.floats(0.0, 25.0))))
def test_scaled_against_scipy(z):
    scale = 0.5 * np.maximum(z, 1.0) ** -0.25 / np.sqrt(np.pi)  # the envelope without e^{-zeta}
    got = airy_ai_scaled(z)
    assert np.all(np.abs(got - special.airye(z)[0]) <= _scipy_ulps(z) * _EPS * scale)


def _branch(z: float) -> tuple:
    """What serves ``z``: the series, or the integrals' Gauss-Laguerre rung."""
    if airy._SERIES_LOW < z < airy._SERIES_HIGH:
        return ("series",)
    edges = airy._DECAYING_EDGES if z > 0.0 else airy._OSCILLATING_EDGES
    zeta = (2.0 / 3.0) * np.abs(np.array([z])) ** 1.5
    return ("integral", z > 0.0, int(edges.searchsorted(zeta, side="right")[0]))


def _switch_pairs() -> list[tuple[float, float]]:
    """The frozen switch points: each branch's first float, then its neighbour."""
    zs = list(ref.AIRY_SWITCH_TABLE)
    return list(zip(zs[::2], zs[1::2]))


def test_frozen_switch_points_bracket_every_switch():
    pairs = _switch_pairs()
    for first, other in pairs:
        assert other == np.nextafter(first, 0.0)
        assert _branch(first) != _branch(other)
    # every switch below the tail is frozen: the two series ends and each rung step
    steps = 2 + np.count_nonzero(airy._DECAYING_EDGES) + np.count_nonzero(airy._OSCILLATING_EDGES)
    assert len({(_branch(a), _branch(b)) for a, b in pairs}) == len(pairs) == steps


def test_switch_points_match_mpmath():
    z = np.array(list(ref.AIRY_SWITCH_TABLE))
    ai_ref, aip_ref, scaled_ref = (np.array(col, dtype=float) for col in zip(*ref.AIRY_SWITCH_TABLE.values()))
    ai, aip = airy_ai_pair(z)
    bound_ai, bound_aip = _bound(z, 8.0)
    assert np.all(np.abs(ai - ai_ref) <= bound_ai)
    assert np.all(np.abs(aip - aip_ref) <= bound_aip)
    pos = z > 0.0
    assert_allclose(airy_ai_scaled(z[pos]), scaled_ref[pos], rtol=8.0 * _EPS)


def test_switches_are_seamless():
    # one ulp either side of each switch, after the function's own first-order
    # change, the two branches agree to a few ulps of the envelope
    for first, other in _switch_pairs():
        z = np.array([first, other])
        ai, aip = airy_ai_pair(z)
        dz = first - other
        bound_ai, bound_aip = _bound(z[:1], 4.0)
        assert abs(ai[0] - ai[1] - dz * aip[1]) <= bound_ai[0]
        assert abs(aip[0] - aip[1] - dz * first * ai[1]) <= bound_aip[0]
        if first > 0.0:
            scaled = airy_ai_scaled(z)
            assert_allclose(scaled[0], scaled[1], rtol=4.0 * _EPS)


def test_values_do_not_depend_on_the_array():
    # each point is summed alone, so a value is the same in any array and as a scalar
    z = np.array(list(ref.AIRY_SWITCH_TABLE) + [-40.0, -2.0, -0.3, 0.0, 0.7, 2.2, 9.0, 30.0])
    ai, aip = airy_ai_pair(z)
    for k in range(z.size):
        assert airy_ai_pair(float(z[k])) == (ai[k], aip[k])
        assert np.array_equal(airy_ai_pair(z[k:][::-1])[0][-1:], ai[k : k + 1])


def test_large_calls_run_in_blocks():
    # the many-node ends of both integrals: about 0.1 GB of work arrays in one piece
    import tracemalloc

    z = np.concatenate([np.linspace(1.6, 2.2, 60000), np.linspace(-3.6, -3.4, 60000)]).reshape(2, -1)
    tracemalloc.start()
    try:
        ai, aip = airy_ai_pair(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ai.shape == aip.shape == z.shape
    assert peak < 20e6  # 12 MB in blocks of 2048 points
    flat = z.ravel()
    for i in range(0, flat.size, 9973):
        assert airy_ai_pair(flat[i : i + 5])[0].tolist() == ai.ravel()[i : i + 5].tolist()


def test_nan_in_nan_out():
    ai, aip = airy_ai_pair(np.nan)
    assert np.isnan(ai) and np.isnan(aip)
    z = np.array([-2e6, np.nan, 0.0, np.nan, 2e6])
    ai, aip = airy_ai_pair(z)
    assert np.array_equal(np.isnan(ai), np.isnan(z))
    assert np.array_equal(np.isnan(aip), np.isnan(z))
    assert np.isnan(airy_ai_scaled(np.nan))


# ---------------------------------------------------------------------------
# envelope amplitudes A_pm
# ---------------------------------------------------------------------------

def test_envelope_frozen_values():
    for y, expected in ref.ENVELOPE_PLUS_TABLE.items():
        got = envelope_amplitude(y, +1)
        assert_allclose(got.real, expected.real, rtol=1e-11, atol=1e-13)
        assert_allclose(got.imag, expected.imag, rtol=1e-11, atol=1e-13)


def test_envelope_conjugate_pair():
    y = np.array([0.2, 1.0, 7.5, 80.0])
    plus = envelope_amplitude(y, +1)
    minus = envelope_amplitude(y, -1)
    assert_allclose(plus, np.conj(minus), rtol=1e-14)


def test_envelope_wkb_matching():
    # |A_pm(y) - e^{pm i (y - pi/4)}| = O(1/y): fitted log-log slope
    y = np.geomspace(10.0, 500.0, 12)
    for sign in (+1, -1):
        err = np.abs(
            envelope_amplitude(y, sign) - np.exp(sign * 1j * (y - np.pi / 4.0))
        )
        slope = np.polyfit(np.log(y), np.log(err), 1)[0]
        assert slope <= -0.9
        assert np.max(err * y) < 1.0  # fitted constant C stays small


def test_envelope_phase_at_large_y():
    got = np.angle(envelope_amplitude(30.0, +1))
    expected = np.mod(30.0 - np.pi / 4.0, 2.0 * np.pi)
    diff = np.mod(got - expected + np.pi, 2.0 * np.pi) - np.pi
    assert abs(diff) < 0.05


def test_envelope_modulus_tends_to_one():
    y = np.array([50.0, 200.0, 1000.0])
    mods = np.abs(envelope_amplitude(y, -1))
    assert_allclose(mods, 1.0, atol=2e-2)
    assert abs(mods[-1] - 1.0) < abs(mods[0] - 1.0)


def test_envelope_argument_validation():
    with pytest.raises(ConfigError):
        envelope_amplitude(0.0, +1)
    with pytest.raises(ConfigError):
        envelope_amplitude(-1.0, -1)
    with pytest.raises(ConfigError):
        envelope_amplitude(1.0, 2)
