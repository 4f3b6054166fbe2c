"""Reference solvers: exact chain propagation and band quadrature."""

from __future__ import annotations

import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import eigh_tridiagonal

import _reference as ref
from _diagnostics import residual_pde_check
from diatomic_waves import (
    BoundaryError,
    ChainSizeError,
    ConfigError,
    GaussianProfile,
    LatticeParams,
    TableProfile,
    WaveField,
    acoustic_front_airy,
    acoustic_uniform,
    classify_regime,
    compare_fields,
    integrate_lattice,
    optical_front_airy,
    optical_uniform,
    read_fields_csv,
    shortwave_total,
    solve_quadrature,
    uas_dalembert,
    uas_gaussian_airy,
    uas_integral,
    write_fields_csv,
)
from diatomic_waves import initial_data, oracles
from diatomic_waves._quadrature import synthesize_field
from diatomic_waves.dispersion import ACOUSTIC, OPTICAL, Dispersion
from diatomic_waves.initial_data import spectral_vector


# ---------------------------------------------------------------------------
# band quadrature
# ---------------------------------------------------------------------------

EMPTY_GRID_EVALUATORS = {
    "uas_integral": lambda p, g, x: uas_integral(p, g, 0.05, x, 0.3),
    "solve_quadrature": lambda p, g, x: solve_quadrature(p, g, 0.05, x, 0.3).u,
    "uas_gaussian_airy": lambda p, g, x: uas_gaussian_airy(p, 0.05, x, 0.3),
    "uas_dalembert": lambda p, g, x: uas_dalembert(p, g, 0.05, x, 0.3),
    "shortwave_total": lambda p, g, x: shortwave_total(p, g, 0.01, x, 0.3).u,
}


@pytest.mark.parametrize("name", sorted(EMPTY_GRID_EVALUATORS))
def test_empty_grid_gives_empty_field(name):
    field = EMPTY_GRID_EVALUATORS[name](LatticeParams(0.82, 1.27, 0.01), GaussianProfile(), np.array([]))
    assert np.shape(field) == (0,)


@pytest.mark.parametrize("key", sorted(ref.BAND_SOLUTION))
def test_quadrature_frozen_values(desk, gaussian, key):
    h, mu, t, x = key
    field = solve_quadrature(desk(h), gaussian, mu, np.array([x]), t)
    expected_u, expected_v = ref.BAND_SOLUTION[key]
    assert_allclose(field.u[0], expected_u, rtol=1e-9)
    assert_allclose(field.v[0], expected_v, rtol=1e-9)
    assert field.method == "quadrature_full"
    assert field.t == t


def test_band_cut_against_whole_band_mpmath(desk, gaussian):
    """At delta = 0.05 the quadrature integrates |p| <= 7.7 of a band of
    |p| <= 31.4; the frozen value integrates all of it in mpmath."""
    (key,) = [k for k in ref.BAND_SOLUTION if k[0] / k[1] < 0.1]
    h, mu, t, x = key
    field = solve_quadrature(desk(h), gaussian, mu, np.array([x]), t)
    expected_u, expected_v = ref.BAND_SOLUTION[key]
    assert abs(field.u[0] - expected_u) <= 1e-13
    assert abs(field.v[0] - expected_v) <= 1e-13


# ---------------------------------------------------------------------------
# band cut of the quadrature
# ---------------------------------------------------------------------------

def _whole_band_quadrature(params, profile, mu, x, t, mode="full", atol=1e-13):
    """Reference for the band cut: ``solve_quadrature``'s synthesis as one
    ``synthesize_field`` call over the whole band ``|p| <= pi / (2 delta)``."""
    delta = params.h / mu
    edge = np.pi / (2.0 * delta)
    disp = Dispersion(params)
    speed = disp.critical.c_star if mode == "optical" else disp.sound_speed
    rate = (float(np.max(np.abs(x), initial=0.0)) + t * speed) / mu

    def kern(p):
        s = delta * p
        vt = spectral_vector(profile, delta, p)
        out = np.zeros_like(vt)
        if mode in ("full", "acoustic"):
            phase = np.exp(1j * disp.omega1(s) * (t / params.h))
            out += np.einsum("nij,nj->ni", disp.modal_matrix(s, ACOUSTIC), vt) * phase[:, None]
        if mode in ("full", "optical"):
            phase = np.exp(1j * disp.omega2(s) * (t / params.h))
            out += np.einsum("nij,nj->ni", disp.modal_matrix(s, OPTICAL), vt) * phase[:, None]
        return (delta / np.pi) * out

    field = synthesize_field(
        kern, 0.0 if profile.is_even else -edge, edge, x / mu, rate,
        atol=atol, even_fold=profile.is_even,
    )
    return field[:, 0].real, field[:, 1].real


CUT_X = np.linspace(-0.7, 0.7, 141)


@pytest.mark.parametrize("t", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("mode", ["full", "acoustic", "optical"])
@pytest.mark.parametrize("delta", [0.05, 0.01, 0.005])
def test_band_cut_matches_whole_band(desk, gaussian, delta, mode, t):
    mu = 0.05
    params = desk(delta * mu)
    field = solve_quadrature(params, gaussian, mu, CUT_X, t, mode)
    u, v = _whole_band_quadrature(params, gaussian, mu, CUT_X, t, mode)
    assert np.max(np.abs(field.u - u)) <= 1e-13
    assert np.max(np.abs(field.v - v)) <= 1e-13


def _skew_table():
    xi = np.linspace(-8.0, 9.0, 171)
    return TableProfile(xi, np.exp(-0.5 * (xi - 0.5) ** 2) * (1.0 + 0.3 * np.tanh(xi)))


@pytest.mark.parametrize(
    "case", ["delta1-gaussian", "delta1-table", "delta0.05-table", "atol0-gaussian"]
)
def test_band_cut_keeps_whole_band_bit_for_bit(desk, gaussian, case):
    """Where the band is narrower than the cut radius (delta = 1), where no
    bound is known (a table) and at atol = 0, nothing is cut."""
    delta = 1.0 if case.startswith("delta1") else 0.05
    profile = _skew_table() if case.endswith("table") else gaussian
    atol = 0.0 if case.startswith("atol0") else 1e-13
    mu = 0.05
    params = desk(delta * mu)
    x = np.linspace(-0.3, 0.3, 61)
    field = solve_quadrature(params, profile, mu, x, 0.25, atol=atol)
    u, v = _whole_band_quadrature(params, profile, mu, x, 0.25, atol=atol)
    assert np.array_equal(field.u, u)
    assert np.array_equal(field.v, v)


@pytest.mark.parametrize("t", [0.25, 0.5])
@pytest.mark.parametrize("mode", ["full", "acoustic"])
def test_band_cut_nodes_on_bandsum_grid(desk, gaussian, monkeypatch, mode, t):
    """The long-wave band-sum benchmark's lattice (delta = 0.005): the whole
    band took up to 36,096 kernel nodes per call."""
    nodes = []

    def counting(profile, delta, p):
        nodes.append(np.size(p))
        return spectral_vector(profile, delta, p)

    monkeypatch.setattr(oracles, "spectral_vector", counting)
    solve_quadrature(desk(2.5e-4), gaussian, 0.05, np.linspace(-0.7, 0.7, 401), t, mode)
    assert 0 < sum(nodes) <= 1000


def test_band_cut_with_atol_past_the_mass(desk, gaussian):
    """An atol above the data's whole L1 mass cuts the band to nothing: the
    field is 0, which is within atol of the solution."""
    params = desk(2.5e-4)
    assert initial_data._band_limits(gaussian, 0.005, 1e3) == (0.0, 0.0)
    field = solve_quadrature(params, gaussian, 0.05, np.linspace(-0.7, 0.7, 41), 0.25, atol=10.0)
    assert np.all(np.isfinite(field.u)) and np.all(np.isfinite(field.v))
    assert np.max(np.abs(field.u)) <= 10.0 and np.max(np.abs(field.v)) <= 10.0


def test_quadrature_initial_time_is_interpolant(desk, gaussian):
    # at t = 0 the modal projectors sum to the identity, so the synthesis
    # collapses to the band-limited interpolant of each sublattice, which
    # takes the initial samples at that sublattice's sites (x = n h)
    params = desk(0.05)
    n = np.arange(-4, 5)
    field = solve_quadrature(params, gaussian, 0.05, n * 0.05, 0.0)
    samples = gaussian.value(n.astype(float))
    assert_allclose(field.u[n % 2 == 0], samples[n % 2 == 0], atol=1e-6)
    assert_allclose(field.v[n % 2 == 1], samples[n % 2 == 1], atol=1e-6)


def test_full_is_acoustic_plus_optical(desk, gaussian):
    params = desk(0.05)
    x = np.linspace(-0.3, 0.3, 13)
    t = 0.2
    full = solve_quadrature(params, gaussian, 0.05, x, t, "full")
    acoustic = solve_quadrature(params, gaussian, 0.05, x, t, "acoustic")
    optical = solve_quadrature(params, gaussian, 0.05, x, t, "optical")
    assert acoustic.method == "quadrature_acoustic"
    assert optical.method == "quadrature_optical"
    assert_allclose(acoustic.u + optical.u, full.u, atol=1e-10)
    assert_allclose(acoustic.v + optical.v, full.v, atol=1e-10)


def test_quadrature_table_profile_matches_gaussian(desk, gaussian):
    xi = np.linspace(-8.5, 8.5, 1401)
    table = TableProfile(xi, gaussian.value(xi))
    params = desk(0.05)
    x = np.linspace(-0.2, 0.2, 7)
    a = solve_quadrature(params, gaussian, 0.05, x, 0.15)
    b = solve_quadrature(params, table, 0.05, x, 0.15)
    assert_allclose(b.u, a.u, atol=5e-7)
    assert_allclose(b.v, a.v, atol=5e-7)


def test_quadrature_validation(desk, gaussian):
    params = desk(0.05)
    with pytest.raises(ConfigError):
        solve_quadrature(params, gaussian, 0.05, [0.0], -0.1)
    with pytest.raises(ConfigError):
        solve_quadrature(params, gaussian, 0.05, [0.0], 0.1, "sideways")
    with pytest.raises(ConfigError):
        solve_quadrature(params, gaussian, -0.05, [0.0], 0.1)


@pytest.mark.parametrize("t", [[], np.zeros(0), [[0.1, 0.2]], np.full((1, 1), 0.1)])
def test_quadrature_refuses_empty_or_2d_times(desk, gaussian, t):
    with pytest.raises(ConfigError, match="1-D sequence of times"):
        solve_quadrature(desk(0.05), gaussian, 0.05, [0.0], t)


@pytest.mark.parametrize("t", [[0.1, -0.1], [np.nan, 0.1], (0.2, np.inf)])
def test_quadrature_refuses_a_bad_time_in_a_sequence(desk, gaussian, t):
    with pytest.raises(ConfigError, match="finite and non-negative"):
        solve_quadrature(desk(0.05), gaussian, 0.05, [0.0], t)


def test_largest_time_keeps_the_bits_of_its_own_call(desk, gaussian):
    """On the short-wave grid the times share the ladder of the largest one,
    whose field is its own call's bit for bit; a one-element sequence is the
    float call, as a list."""
    params, x = desk(0.01), np.linspace(-0.7, 0.7, 401)
    fields = solve_quadrature(params, gaussian, 0.01, x, (0.1, 0.25, 0.5))
    assert isinstance(fields, list) and [f.t for f in fields] == [0.1, 0.25, 0.5]
    alone = solve_quadrature(params, gaussian, 0.01, x, 0.5)
    assert isinstance(alone, WaveField)
    for field in (fields[-1], *solve_quadrature(params, gaussian, 0.01, x, [0.5])):
        assert field.method == alone.method and field.t == alone.t
        np.testing.assert_array_equal(field.u, alone.u)
        np.testing.assert_array_equal(field.v, alone.v)


#: A table of a Gaussian centred at 0.7: an odd part, so no fold.
_SKEW_KNOTS = np.linspace(-9.0, 10.0, 175)
_SKEW_TABLE = TableProfile(_SKEW_KNOTS, np.exp(-0.5 * (_SKEW_KNOTS - 0.7) ** 2))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    times=st.lists(st.floats(0.0, 0.6), min_size=1, max_size=4).map(sorted),
    mode=st.sampled_from(["full", "acoustic", "optical"]),
    delta=st.sampled_from([0.05, 1.0]),
    even=st.booleans(),
)
def test_time_sequence_matches_one_time_calls(times, mode, delta, even):
    """Every field of a sorted time sequence is within ``atol + rtol scale`` of
    its own call, ``scale`` that field's peak: each time is converged on its
    own scale, on at least the nodes its own call takes."""
    mu = 0.01 if delta == 1.0 else 0.05
    params = LatticeParams(0.82, 1.27, delta * mu)
    profile = GaussianProfile() if even else _SKEW_TABLE
    x = np.linspace(-0.7, 0.7, 81)
    fields = solve_quadrature(params, profile, mu, x, times, mode)
    assert [f.t for f in fields] == times
    for t, field in zip(times, fields):
        alone = solve_quadrature(params, profile, mu, x, t, mode)
        scale = max(np.max(np.abs(alone.u)), np.max(np.abs(alone.v)))
        diff = max(np.max(np.abs(field.u - alone.u)), np.max(np.abs(field.v - alone.v)))
        assert diff <= 1e-13 + 1e-8 * scale


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    modes=st.lists(st.sampled_from(["full", "acoustic", "optical"]), min_size=1, max_size=3),
    times=st.lists(st.floats(0.0, 0.6), min_size=1, max_size=3),
    delta=st.sampled_from([0.05, 1.0]),
    even=st.booleans(),
)
def test_mode_sequence_matches_one_mode_calls(modes, times, delta, even):
    """Each entry of a mode sequence (any order, subset or repeat) is its
    one-mode call's result over the same times: bit for bit where the sequence
    uses that mode's own speed, else within ``atol + rtol peak``.

    Bits: the ladder takes the sound speed unless every mode is optical, so a
    full or acoustic entry, and an optical one in an all-optical sequence,
    sits on its own call's panels; its values are formed by its own call's
    operations in their order, and on these grids every group passes at the
    doubling its own call stops at.

    Bound, for an optical entry on the finer sound-speed ladder: let ``e(n)``
    be the error of ``n`` panels.  The own call stops at ``2 n_o`` panels after
    a change ``d = |F(2 n_o) - F(n_o)| <= tau = atol + rtol scale``, ``scale``
    the largest ``|f|`` of the group.  The panels converge geometrically,
    ``e(2 n) <= e(n) / rho``, so ``e(n_o) <= d + e(2 n_o)`` gives ``e(2 n_o) <=
    tau / (rho - 1)``; the sequence stops past ``2 n_o`` panels, whose error is
    no larger.  The two differ by at most ``2 tau / (rho - 1)``, which is at
    most ``atol + rtol peak`` (``peak`` the largest real ``|u|``, ``|v|``, so
    ``peak <= scale``) once ``rho >= 1 + 2 scale / peak``; a 16-point panel
    gains far more than that per doubling once it resolves the phase.  What
    is left is the rounding of two contractions on different nodes, which
    ``atol`` covers where the optical peak is small."""
    mu = 0.01 if delta == 1.0 else 0.05
    params = LatticeParams(0.82, 1.27, delta * mu)
    profile = GaussianProfile() if even else _SKEW_TABLE
    x = np.linspace(-0.7, 0.7, 81)
    results = solve_quadrature(params, profile, mu, x, times, modes)
    assert isinstance(results, list) and len(results) == len(modes)
    for mode, fields in zip(modes, results):
        alone = solve_quadrature(params, profile, mu, x, times, mode)
        assert [(f.method, f.t) for f in fields] == [(f.method, f.t) for f in alone]
        if mode != "optical" or set(modes) == {"optical"}:
            for field, own in zip(fields, alone):
                np.testing.assert_array_equal(field.u, own.u)
                np.testing.assert_array_equal(field.v, own.v)
            continue
        for field, own in zip(fields, alone):
            peak = max(np.max(np.abs(own.u)), np.max(np.abs(own.v)))
            diff = max(np.max(np.abs(field.u - own.u)), np.max(np.abs(field.v - own.v)))
            assert diff <= 1e-13 + 1e-8 * peak


def test_symmetric_band_keeps_the_acoustic_kink_on_a_panel_edge(monkeypatch):
    """A non-even profile integrates ``[-b, b]``, and the acoustic branch's
    ``|sin(delta p)|`` has a kink at p = 0.  A band with ``a = -b`` starts on
    an even panel count, so p = 0 is a panel edge: at a rate whose start
    count is odd (63) the call builds one level of 64 panels and returns it,
    within ``atol + rtol * scale`` of a level four times finer."""
    from diatomic_waves import _quadrature as quad

    calls, levels = [], []
    synthesize, panel_nodes = oracles.synthesize_field, quad.panel_nodes

    def recorded(kernel, a, b, y, rate, **options):
        field = synthesize(kernel, a, b, y, rate, **options)
        calls.append((kernel, a, b, y, rate, field))
        return field

    def level(*args):
        levels.append(args[2])
        return panel_nodes(*args)

    monkeypatch.setattr(oracles, "synthesize_field", recorded)
    monkeypatch.setattr(quad, "panel_nodes", level)
    params = LatticeParams(0.82, 1.27, 0.1 * 0.05)  # delta = 0.1
    solve_quadrature(params, _SKEW_TABLE, 0.05, np.linspace(-0.7, 0.7, 41), 0.3, "acoustic")
    (kernel, a, b, y, rate, field), = calls
    start = quad.oscillation_panels(rate, a, b)
    assert a == -b and start % 2 == 1  # the case tests something
    assert levels == [start + 1]
    fine = 4 * (start + 1)
    p, _ = panel_nodes(a, b, fine)
    values = kernel(p).reshape(p.size, -1)
    reference = quad._contract(values, p, quad._panel_level(a, b, fine), y, False)
    scale = np.max(np.abs(field))
    assert np.max(np.abs(field.reshape(reference.shape) - reference)) <= 1e-13 + 1e-8 * scale


@pytest.mark.parametrize(
    "modes, branches",
    [(["acoustic", "full"], 2), (["optical", "full", "acoustic"], 2), (["acoustic"] * 2, 1)],
)
def test_mode_sequence_is_one_band_pass(modes, branches, monkeypatch):
    """A mode sequence is one synthesize_field call whose one level, which
    checks itself, evaluates the band data once and each branch's modal
    matrix once, for every mode."""
    from diatomic_waves import _quadrature as quad

    calls, levels, spectral, modal = [], [], [], []
    synthesize, panel_nodes = oracles.synthesize_field, quad.panel_nodes
    band_data, modal_matrix = oracles.spectral_vector, Dispersion.modal_matrix

    def counted(*args, **kwargs):
        calls.append(args)
        return synthesize(*args, **kwargs)

    def level(*args):
        levels.append(args[2])
        return panel_nodes(*args)

    def vector(*args):
        spectral.append(np.size(args[2]))
        return band_data(*args)

    def matrix(self, s, branch):
        modal.append(branch)
        return modal_matrix(self, s, branch)

    monkeypatch.setattr(oracles, "synthesize_field", counted)
    monkeypatch.setattr(quad, "panel_nodes", level)
    monkeypatch.setattr(oracles, "spectral_vector", vector)
    monkeypatch.setattr(Dispersion, "modal_matrix", matrix)
    params = LatticeParams(0.82, 1.27, 0.01)
    results = solve_quadrature(
        params, GaussianProfile(), 0.01, np.linspace(-0.7, 0.7, 201), (0.1, 0.3), modes
    )
    assert [[f.method for f in fields] for fields in results] == [
        [f"quadrature_{mode}"] * 2 for mode in modes
    ]
    assert len(calls) == 1 and len(levels) == 1
    assert spectral == [quad._ORDER * n_panels for n_panels in levels]
    assert len(modal) == branches * len(levels)


@pytest.mark.parametrize(
    "mode, named",
    [
        ("sideways", "got 'sideways'"),
        ([], "got []"),
        (np.array([], dtype=str), "got array([]"),
        (np.array([["full", "optical"]]), "got array([['full', 'optical']]"),
        ([["full"]], "got [['full']]"),
        (["full", 3], "got 3 in ['full', 3]"),
        ((None,), "got None in (None,)"),
        (["acoustic", "sideways"], "got 'sideways' in ['acoustic', 'sideways']"),
        (None, "got None"),
        (2, "got 2"),
    ],
)
def test_quadrature_refuses_bad_modes(desk, gaussian, mode, named):
    """Bad mode input is a ConfigError that names the bad value, never a
    TypeError; a plain string keeps the one-mode message."""
    with pytest.raises(ConfigError, match=re.escape(named)) as err:
        solve_quadrature(desk(0.05), gaussian, 0.05, [0.0], 0.1, mode)
    if isinstance(mode, str):
        assert str(err.value) == f"mode must be one of ('full', 'acoustic', 'optical'), got {mode!r}"


# ---------------------------------------------------------------------------
# lattice integration
# ---------------------------------------------------------------------------

def test_ode_matches_quadrature(desk, gaussian):
    # two independent routes to the same solution: exact propagation of
    # the chain's equations of motion vs direct mode synthesis
    h = 0.05
    params = desk(h)
    states, energy = integrate_lattice(params, gaussian, h, [0.1, 0.25])
    assert energy.drift <= 1e-8
    assert energy.initial > 0.0
    for state in states:
        quad = solve_quadrature(params, gaussian, h, state.x, state.t)
        even = state.even_mask
        err_u = np.max(np.abs(quad.u[even] - state.displacement[even]))
        err_v = np.max(np.abs(quad.v[~even] - state.displacement[~even]))
        assert max(err_u, err_v) <= 1e-6


def test_ode_initial_instant_matches_samples(desk, gaussian):
    h = 0.05
    states, _ = integrate_lattice(desk(h), gaussian, h, [1e-7])
    state = states[0]
    assert_allclose(state.displacement, gaussian.value(state.xi), atol=1e-12)
    # started from rest: velocities still first-order small
    assert np.max(np.abs(state.velocity)) < 1e-4


def test_staggered_field_view(desk, gaussian):
    h = 0.05
    states, _ = integrate_lattice(desk(h), gaussian, h, [0.1])
    state = states[0]
    field = state.to_staggered_field()
    assert field.method == "ode"
    assert np.all(np.diff(field.x) > 0)
    even_idx = np.flatnonzero(state.even_mask)[:-1]
    assert_allclose(field.u, state.displacement[even_idx])
    assert_allclose(field.v, state.displacement[even_idx + 1])


def test_ode_times_validation(desk, gaussian):
    params = desk(0.05)
    with pytest.raises(ConfigError):
        integrate_lattice(params, gaussian, 0.05, [0.2, 0.1])
    with pytest.raises(ConfigError):
        integrate_lattice(params, gaussian, 0.05, [-0.1, 0.2])
    with pytest.raises(ConfigError):
        integrate_lattice(params, gaussian, 0.05, [])


def test_ode_boundary_guard(desk, gaussian, monkeypatch):
    monkeypatch.setattr(oracles, "_CHAIN_MARGIN", 0.0)
    monkeypatch.setattr(oracles, "_BOUNDARY_TOL", 0.0)
    with pytest.raises(BoundaryError, match="reached the ends of the returned window"):
        integrate_lattice(desk(0.05), gaussian, 0.05, [0.1])


def test_boundary_guard_scales_with_the_data(desk):
    """The motion is linear: data scaled by 2^20 move exactly 2^20 times as far,
    to the bit, and the guard scales with them (an absolute 1e-10 saw the
    rounding noise of the scaled ends, 2.2e-10 at t = 0.3, as a reached end)."""
    xi = np.linspace(-6.0, 6.0, 141)
    w = np.exp(-0.5 * xi * xi)
    params, scale = desk(0.002), 2.0**20
    states, energy = integrate_lattice(params, TableProfile(xi, w), 0.04, [0.3, 1.0])
    scaled, scaled_energy = integrate_lattice(params, TableProfile(xi, scale * w), 0.04, [0.3, 1.0])
    for state, big in zip(states, scaled):
        np.testing.assert_array_equal(big.displacement, scale * state.displacement)
        np.testing.assert_array_equal(big.velocity, scale * state.velocity)
    np.testing.assert_array_equal(scaled_energy.energy, scale * scale * energy.energy)
    assert scaled_energy.drift == energy.drift


def test_zero_data_stay_at_rest_with_no_drift(desk):
    # the drift was 0 / 0: nan, and a RuntimeWarning, an error under this suite's filters
    xi = np.linspace(-6.0, 6.0, 141)
    states, energy = integrate_lattice(desk(0.002), TableProfile(xi, np.zeros_like(xi)), 0.04, [0.3])
    assert energy.initial == 0.0 and energy.drift == 0.0
    assert not np.any(states[0].displacement) and not np.any(states[0].velocity)


def test_front_widths_bound_the_airy_tail():
    """Half the Airy mass past ``_FRONT_WIDTHS`` (9.46), the tail a front of
    peak 1 keeps there, is within 3 % below ``_BOUNDARY_TOL``."""
    from scipy.integrate import quad
    from scipy.special import airy

    tail = 0.5 * quad(lambda u: airy(u)[0], oracles._FRONT_WIDTHS, np.inf)[0]
    assert 0.97 * oracles._BOUNDARY_TOL <= tail <= oracles._BOUNDARY_TOL


def test_chain_holds_the_front_at_a_large_mass_ratio():
    """delta = 1, gamma2 / gamma1 = 14.9, mu = 0.02, t = 0.5: five Airy scales
    ahead of the front, the chain's ends saw 1.86e-10 on 153 sites; sized by
    ``_FRONT_WIDTHS`` it has 181 and the guard holds."""
    params = LatticeParams(2.0, 29.75, 0.02)
    (state,), energy = integrate_lattice(params, GaussianProfile(), 0.02, [0.5])
    assert state.index.size == 181
    assert energy.drift <= 1e-12


@pytest.mark.parametrize("t", [0.5, 1.0])
@pytest.mark.parametrize("ratio", [15.0, 17.5, 20.0])
@pytest.mark.parametrize("gamma1", [0.1, 0.5, 1.0, 1.6, 1.9, 2.0])
def test_chain_holds_the_front_at_the_domain_edges(gamma1, ratio, t):
    """The oracle tests' domain at its widest fronts: delta = 1, mu = 0.02,
    large mass ratios and the latest times, swept on a fixed grid."""
    integrate_lattice(LatticeParams(gamma1, gamma1 * ratio, 0.02), GaussianProfile(), 0.02, [t])


def test_ode_input_guards(desk, gaussian):
    params = desk(0.05)
    for mu, times in ((np.nan, [0.1]), (np.inf, [0.1]), (0.05, [np.nan]), (0.05, [0.1, np.inf])):
        with pytest.raises(ConfigError):
            integrate_lattice(params, gaussian, mu, times)
    # the chain for t = 1e6 would need ~4e7 sites: refused before allocating
    start = time.perf_counter()
    with pytest.raises(ChainSizeError):
        integrate_lattice(params, gaussian, 0.05, [1e6])
    assert time.perf_counter() - start < 1.0


_FIELD_ENTRY_POINTS = {
    "solve_quadrature": solve_quadrature,
    "uas_integral": uas_integral,
    "uas_gaussian_airy": lambda p, g, mu, x, t: uas_gaussian_airy(p, mu, x, t),
    "uas_dalembert": uas_dalembert,
    "acoustic_front_airy": acoustic_front_airy,
    "optical_front_airy": optical_front_airy,
    "acoustic_uniform": acoustic_uniform,
    "optical_uniform": optical_uniform,
    "shortwave_total": shortwave_total,
}


@pytest.mark.parametrize("bad", ["t=nan", "t=inf", "mu=nan"])
@pytest.mark.parametrize("entry", sorted(_FIELD_ENTRY_POINTS))
def test_field_entry_points_reject_non_finite(desk, gaussian, entry, bad):
    # delta = 1 with finite inputs is valid for every entry point
    kwargs = {"mu": 0.01, "t": 0.25}
    name, value = bad.split("=")
    kwargs[name] = float(value)
    with pytest.raises(ConfigError):
        _FIELD_ENTRY_POINTS[entry](desk(0.01), gaussian, kwargs["mu"], [0.1], kwargs["t"])


@pytest.mark.parametrize(
    "t, says",
    [
        ([], "got []"),
        (np.zeros(0), "got array([]"),
        ([[0.1, 0.2]], "got [[0.1, 0.2]]"),
        ([0.2, np.nan], "nan"),
        ((np.inf, 0.1), "inf"),
    ],
)
@pytest.mark.parametrize("entry", sorted(_FIELD_ENTRY_POINTS))
def test_field_entry_points_refuse_bad_time_sequences(desk, gaussian, entry, t, says):
    """Every field entry point takes one time or a 1-D sequence of them; an
    empty or 2-D sequence, or one holding a non-finite time, raises
    ``ConfigError`` naming it, not a numpy error."""
    with pytest.raises(ConfigError, match=re.escape(says)):
        _FIELD_ENTRY_POINTS[entry](desk(0.01), gaussian, 0.01, [0.1], t)


#: The entry points whose forms need ``t > 0``; the others take ``t >= 0``,
#: and ``uas_dalembert`` any finite ``t``.
_POSITIVE_TIME_ENTRY_POINTS = {
    "uas_gaussian_airy", "acoustic_front_airy", "optical_front_airy", "acoustic_uniform",
    "optical_uniform", "shortwave_total",
}


@pytest.mark.parametrize("entry", sorted(_FIELD_ENTRY_POINTS))
def test_field_entry_points_refuse_the_times_their_forms_refuse(desk, gaussian, entry):
    """In a sequence, a zero time is refused where the form needs ``t > 0`` and
    a negative one everywhere but in ``uas_dalembert``, each by a
    ``ConfigError`` naming it; an accepted sequence gives one output per time."""
    evaluate = _FIELD_ENTRY_POINTS[entry]
    for t, refused in (
        ([0.1, 0.0], entry in _POSITIVE_TIME_ENTRY_POINTS),
        ([0.1, -0.2], entry != "uas_dalembert"),
    ):
        if refused:
            with pytest.raises(ConfigError, match=re.escape(f"{t[1]!r}")):
                evaluate(desk(0.01), gaussian, 0.01, [0.1], t)
        else:
            assert len(evaluate(desk(0.01), gaussian, 0.01, [0.1], t)) == 2


def test_ode_matches_quadrature_longwave(desk, gaussian):
    # delta = 0.005: ~8k sites, out of reach of a time-stepping oracle
    h, mu = 2.5e-4, 0.05
    params = desk(h)
    states, energy = integrate_lattice(params, gaussian, mu, [0.25, 0.5])
    assert states[0].index.size > 8000
    assert energy.drift <= 1e-8
    for state in states:
        quad = solve_quadrature(params, gaussian, mu, state.x, state.t)
        even = state.even_mask
        err_u = np.max(np.abs(quad.u[even] - state.displacement[even]))
        err_v = np.max(np.abs(quad.v[~even] - state.displacement[~even]))
        assert max(err_u, err_v) <= 1e-5


# ---------------------------------------------------------------------------
# the held-end chain of tests/_reference.py against dense linear algebra
# (21-site chain)
# ---------------------------------------------------------------------------

G1, G2 = 0.82 / 0.05**2, 1.27 / 0.05**2
N_HALF = 10  # 2 * N_HALF + 1 = 21 sites, heavy at both ends


def _dense_interior():
    """Stiffness of the 19 interior sites, mass-symmetrized: diagonal 2 g_j,
    off-diagonal -sqrt(g1 g2)."""
    g = np.where(np.arange(1, 2 * N_HALF) % 2 == 0, G1, G2)
    return g, 2.0 * g, np.full(g.size - 1, -np.sqrt(G1 * G2))


def test_chain_modes_match_tridiagonal_eigenvalues():
    _, diag, off = _dense_interior()
    omega_opt, omega_ac, _, _ = ref.chain_modes(G1, G2, N_HALF)
    blocks = np.concatenate([omega_opt**2, omega_ac**2, [2.0 * G2]])
    expected = eigh_tridiagonal(diag, off, eigvals_only=True)
    assert_allclose(np.sort(blocks), expected, rtol=1e-13, atol=1e-12 * expected[-1])


def test_chain_modes_keep_low_acoustic_modes():
    # the long-wave signal rides on the lowest acoustic modes, whose eigenvalue
    # is ~1e-7 of the optical one on a 8k-site chain; 40-digit reference
    import mpmath

    mpmath.mp.dps = 40
    n = 4000
    omega_opt, omega_ac, _, _ = ref.chain_modes(G1, G2, n)
    for m in (1, 2, 3, n // 2, n - 1):
        c = mpmath.cos(mpmath.pi * m / (2 * n))
        root = mpmath.sqrt((mpmath.mpf(G1) - G2) ** 2 + 4 * c**2 * G1 * G2)
        lam_plus, lam_minus = float(G1 + G2 + root), float(mpmath.mpf(G1) + G2 - root)
        assert omega_opt[m - 1] ** 2 == pytest.approx(lam_plus, rel=1e-14, abs=0)
        assert omega_ac[m - 1] ** 2 == pytest.approx(lam_minus, rel=1e-13, abs=0)


def test_propagation_matches_dense_cosine():
    rng = np.random.default_rng(7)
    w0 = rng.standard_normal(2 * N_HALF + 1)  # nonzero ends: static part exercised
    g, diag, off = _dense_interior()
    stiff = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    lam, q = np.linalg.eigh(stiff)
    omega = np.sqrt(lam)
    # equilibrium with the ends held: the discrete Laplacian of x_eq vanishes
    lap = (np.diag(np.full(g.size, 2.0)) - np.diag(np.ones(g.size - 1), 1)
           - np.diag(np.ones(g.size - 1), -1))
    rhs = np.zeros(g.size)
    rhs[0], rhs[-1] = w0[0], w0[-1]
    x_eq = np.linalg.solve(lap, rhs)
    y0 = q.T @ ((w0[1:-1] - x_eq) / np.sqrt(g))
    times = np.array([1e-3, 0.03, 0.4, 2.0])
    for t, (w, v) in zip(times, ref.propagate_held_ends(w0, G1, G2, times)):
        w_ref = x_eq + np.sqrt(g) * (q @ (np.cos(omega * t) * y0))
        v_ref = np.sqrt(g) * (q @ (-omega * np.sin(omega * t) * y0))
        assert (w[0], w[-1]) == (w0[0], w0[-1])
        assert (v[0], v[-1]) == (0.0, 0.0)
        assert_allclose(w[1:-1], w_ref, rtol=0, atol=1e-12)
        assert_allclose(v[1:-1], v_ref, rtol=0, atol=1e-12 * np.max(np.abs(v_ref)))


@pytest.mark.parametrize("kind", [1, 2])
def test_sine_transform_matches_scipy(kind):
    """The reference ``dst`` against ``scipy.fft.dst``/``idst`` (``norm="ortho"``)
    at every length from 1 to 1025: each is an orthonormal map, so the gap is a
    few eps of ``|x|``."""
    from scipy.fft import dst, idst

    rng = np.random.default_rng(kind)
    for n in range(1, 1026):
        x = rng.standard_normal(n)
        tol = 8.0 * np.finfo(float).eps * np.linalg.norm(x)
        assert np.max(np.abs(ref.dst(x, kind) - dst(x, type=kind, norm="ortho"))) <= tol
        back = ref.dst(x, kind, inverse=True)
        assert np.max(np.abs(back - idst(x, type=kind, norm="ortho"))) <= tol
        assert_allclose(ref.dst(ref.dst(x, kind), kind, inverse=True), x, rtol=0, atol=tol)


ORACLE_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@ORACLE_SETTINGS
@given(
    gamma1=st.floats(0.1, 2.0),
    ratio=st.floats(1.01, 20.0),
    delta=st.floats(0.1, 1.0),
    mu=st.floats(0.02, 0.2),
    t=st.floats(0.01, 0.5),
)
def test_exact_oracle_invariants(gamma1, ratio, delta, mu, t):
    params = LatticeParams(gamma1, gamma1 * ratio, delta * mu)
    states, energy = integrate_lattice(params, GaussianProfile(), mu, [t, 2.0 * t])
    assert energy.drift <= 1e-12
    for state in states:
        w = state.displacement
        assert np.all(state.index == -state.index[::-1])
        assert_allclose(w, w[::-1], rtol=0, atol=1e-12 * np.max(np.abs(w)))


@ORACLE_SETTINGS
@given(
    gamma1=st.floats(0.1, 2.0),
    ratio=st.floats(1.01, 20.0),
    delta=st.floats(0.1, 1.0),
    t=st.floats(1e-14, 1e-10),
)
def test_exact_oracle_tiny_time_returns_samples(gamma1, ratio, delta, t):
    mu = 0.05
    params = LatticeParams(gamma1, gamma1 * ratio, delta * mu)
    profile = GaussianProfile()
    (state,), _ = integrate_lattice(params, profile, mu, [t])
    assert_allclose(state.displacement, profile.value(state.xi), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# the ring of integrate_lattice on its own terms and against the held-end chain
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cells", [12, 13])
def test_ring_matches_dense_cosine(cells):
    """The ring of ``cells`` cells against ``numpy.linalg.eigh`` of its
    mass-symmetrized circulant stiffness: diagonal ``2 g_j``, ``-sqrt(g1 g2)``
    between neighbours, the last site joined to the first."""
    rng = np.random.default_rng(cells)
    w0 = rng.standard_normal(2 * cells)
    g = np.where(np.arange(2 * cells) % 2 == 0, G1, G2)
    stiff = np.diag(2.0 * g)
    for j in range(2 * cells):
        k = (j + 1) % (2 * cells)
        stiff[j, k] = stiff[k, j] = -np.sqrt(G1 * G2)
    lam, q = np.linalg.eigh(stiff)
    omega = np.sqrt(np.clip(lam, 0.0, None))  # the translation mode is 0 up to rounding
    y0 = q.T @ (w0 / np.sqrt(g))
    times = np.array([1e-3, 0.03, 0.4, 2.0])
    for t, (w, v) in zip(times, oracles._propagate(w0, G1, G2, times)):
        w_ref = np.sqrt(g) * (q @ (np.cos(omega * t) * y0))
        v_ref = np.sqrt(g) * (q @ (-omega * np.sin(omega * t) * y0))
        assert_allclose(w, w_ref, rtol=0, atol=1e-12)
        assert_allclose(v, v_ref, rtol=0, atol=1e-12 * np.max(np.abs(v_ref)))


def test_ring_modes_keep_low_acoustic_modes():
    # as for the held-end chain: the lowest acoustic eigenvalues of a ring of
    # 4000 cells, ~1e-7 of the optical ones, against a 40-digit reference
    import mpmath

    mpmath.mp.dps = 40
    cells = 4000
    _, _, _, omega_opt, omega_ac = oracles._ring_modes(G1, G2, cells)
    for m in (1, 2, 3, cells // 4, cells // 2):
        c = mpmath.cos(mpmath.pi * m / cells)  # cos(theta / 2), theta = 2 pi m / N
        root = mpmath.sqrt((mpmath.mpf(G1) - G2) ** 2 + 4 * c**2 * G1 * G2)
        lam_plus, lam_minus = float(G1 + G2 + root), float(mpmath.mpf(G1) + G2 - root)
        assert omega_opt[m] ** 2 == pytest.approx(lam_plus, rel=1e-14, abs=0)
        assert omega_ac[m] ** 2 == pytest.approx(lam_minus, rel=1e-13, abs=0)


def test_ring_length_is_fast_on_the_zoom(nacl_params, gaussian, monkeypatch):
    """On the ``longwave_front`` zoom (NaCl, ``mu = 80 h``, t = 0.5008) the ring
    has ``N >= n + 1`` cells, ``N`` 2·3·5·7·11-smooth, so no transform takes
    pocketfft's Bluestein path.  The propagation itself is skipped."""
    ring = []

    def at_rest(w0, g1, g2, times):
        ring.append(w0.size // 2)
        for _ in times:
            yield np.zeros(w0.size), np.zeros(w0.size)

    monkeypatch.setattr(oracles, "_propagate", at_rest)
    (state,), _ = integrate_lattice(nacl_params, gaussian, 80 * nacl_params.h, [0.5008])
    (cells,) = ring
    n = int(state.index[-1])
    assert state.index.size == 2 * n + 1 > 3_000_000
    assert cells >= n + 1
    rest_of = cells
    for prime in (2, 3, 5, 7, 11):
        while rest_of % prime == 0:
            rest_of //= prime
    assert rest_of == 1, f"N = {cells} has a prime factor above 11"


@ORACLE_SETTINGS
@given(
    gamma1=st.floats(0.1, 2.0),
    ratio=st.floats(1.01, 20.0),
    delta=st.floats(0.005, 1.0),
    mu=st.floats(0.02, 0.2),
    times=st.lists(st.floats(0.01, 0.5), min_size=1, max_size=3, unique=True).map(sorted),
)
def test_ring_matches_held_end_chain(gamma1, ratio, delta, mu, times):
    """The ring against the held-end chain of ``tests/_reference.py`` from the
    same samples, on the returned sites ``-n .. n``.

    Rounding, in the 2-norm (which bounds every site) per chain, ``u = eps / 2``:

    * transforms: an FFT of length ``L`` is off by at most ``~7 u log2 L`` of
      its input's norm (Higham, *Accuracy and Stability of Numerical
      Algorithms*, Thm 24.2).  Each chain takes a forward and an inverse
      transform of ``L <= 2 (2n + 1)`` points, and the maps between its
      sublattice and modal amplitudes amplify by at most ``1 + sqrt(gamma2 /
      gamma1)``: ``16 u log2 L (1 + sqrt(gamma2 / gamma1)) |w0|``;
    * phases: each ``Omega`` carries a few ``u`` of relative rounding, so
      ``cos(Omega t)`` is off by ``4 u Omega t`` at most per mode, and
      ``sum Omega^2 |y|^2 = 2 E`` in mass-scaled modal amplitudes ``y``, ``E``
      the initial energy; back on the sites, ``sqrt(g2) = sqrt(gamma2) / h``
      bounds the scaling: ``8 u t sqrt(2 E gamma2) / h``.

    The displacement bound is twice the sum (two chains).  The velocity
    multiplies every amplitude by ``Omega <= Omega_max = sqrt(2 (gamma1 +
    gamma2)) / h`` and ``Omega sin(Omega t)`` adds ``4 u Omega`` per mode:
    ``Omega_max`` times the displacement bound plus ``16 u sqrt(2 E gamma2) /
    h``.

    Beyond rounding, the two differ where the wave has reached the window's
    ends, below the guard's tolerance.  Both ends are heavy, so by images the
    held chain departs from the infinite lattice at a site by the lattice's
    field as far beyond the nearer end, and the ring by the field across the
    seam; the tail ahead of a front falls away from it, so each is at most
    ``edge``, the largest value on the two sites at either end of the window
    (``integrate_lattice``'s guard).  Each site may differ by ``2 edge`` more,
    of the displacement or of the velocity.  Apart from that the largest
    displacement gap is held to ``1e-12`` of the field's peak.
    """
    profile = GaussianProfile()
    gamma2 = gamma1 * ratio
    params = LatticeParams(gamma1, gamma2, delta * mu)
    h = params.h
    states, energy = integrate_lattice(params, profile, mu, times)
    index = states[0].index
    w0 = profile.value(index * delta)
    held = ref.propagate_held_ends(w0, gamma1 / h**2, gamma2 / h**2, np.asarray(times))
    u = np.finfo(float).eps / 2.0
    spread = np.sqrt(2.0 * energy.initial * gamma2) / h
    omega_max = np.sqrt(2.0 * (gamma1 + gamma2)) / h
    transforms = 16.0 * u * np.log2(2 * index.size) * (1.0 + np.sqrt(ratio)) * np.linalg.norm(w0)
    ends = [0, 1, -2, -1]
    for state, (w, v) in zip(states, held):
        bound = 2.0 * (transforms + 8.0 * u * state.t * spread)
        edge = 2.0 * np.max(np.abs(state.displacement[ends]))
        gap = np.max(np.abs(state.displacement - w))
        assert gap <= bound + edge
        assert gap <= 1e-12 * np.max(np.abs(w)) + edge
        edge_v = 2.0 * np.max(np.abs(state.velocity[ends]))
        bound_v = omega_max * bound + 16.0 * u * spread
        assert np.max(np.abs(state.velocity - v)) <= bound_v + edge_v


# ---------------------------------------------------------------------------
# the scale mu
# ---------------------------------------------------------------------------

_MU_ENTRY_POINTS = {
    "classify_regime": lambda params, profile, mu: classify_regime(params, mu),
    "uas_integral": lambda params, profile, mu: uas_integral(params, profile, mu, [0.1], 0.5),
    "uas_gaussian_airy": lambda params, profile, mu: uas_gaussian_airy(params, mu, [0.1], 0.5),
    "uas_dalembert": lambda params, profile, mu: uas_dalembert(params, profile, mu, [0.1], 0.5),
    "residual_pde_check": lambda params, profile, mu: residual_pde_check(
        lambda x, t: np.zeros_like(x), params, mu, np.linspace(-1.0, 1.0, 41), 0.5
    ),
    "integrate_lattice": lambda params, profile, mu: integrate_lattice(params, profile, mu, [0.5]),
    "solve_quadrature": lambda params, profile, mu: solve_quadrature(
        params, profile, mu, [0.1], 0.5
    ),
    "acoustic_front_airy": lambda params, profile, mu: acoustic_front_airy(
        params, profile, mu, [0.1], 0.5
    ),
    "optical_front_airy": lambda params, profile, mu: optical_front_airy(
        params, profile, mu, [0.1], 0.5
    ),
    "acoustic_uniform": lambda params, profile, mu: acoustic_uniform(
        params, profile, mu, [0.1], 0.5
    ),
    "optical_uniform": lambda params, profile, mu: optical_uniform(
        params, profile, mu, [0.1], 0.5
    ),
    "shortwave_total": lambda params, profile, mu: shortwave_total(params, profile, mu, [0.1], 0.5),
}


@pytest.mark.parametrize("mu", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("name", sorted(_MU_ENTRY_POINTS))
def test_entry_points_refuse_a_bad_mu(desk, gaussian, name, mu):
    """Every entry point that takes ``mu`` refuses a zero, negative or
    non-finite one with the same message (the short-wave evaluators through
    their delta = 1 check)."""
    message = re.escape(f"mu must be positive and finite, got {mu!r}")
    with pytest.raises(ConfigError, match=f"^{message}$"):
        _MU_ENTRY_POINTS[name](desk(0.01), gaussian, mu)


# ---------------------------------------------------------------------------
# field containers and comparisons
# ---------------------------------------------------------------------------

def _toy_field(n=11, t=0.3, method="ode"):
    x = np.linspace(-1.0, 1.0, n)
    return WaveField(x=x, u=np.cos(x), v=np.sin(x), t=t, method=method)


def test_wave_field_validation():
    x = np.linspace(0, 1, 5)
    with pytest.raises(ConfigError):
        WaveField(x=x, u=np.zeros(4), v=np.zeros(5), t=0.1, method="ode")


def test_compare_fields_identical_is_zero():
    a = _toy_field()
    b = _toy_field(method="quadrature_full")
    result = compare_fields(a, b)
    assert result.l_inf == 0.0
    assert result.l2 == 0.0
    assert result.rel_l_inf == 0.0
    assert result.ref_peak == pytest.approx(1.0)
    assert result.n_points == 11


def test_compare_fields_window():
    a = _toy_field(n=101)
    shifted = WaveField(x=a.x, u=a.u + 1e-3, v=a.v, t=a.t, method="x")
    windowed = compare_fields(a, shifted, window=(-0.1, 0.1))
    assert windowed.n_points < 101
    assert windowed.l_inf == pytest.approx(1e-3)
    with pytest.raises(ConfigError):
        compare_fields(a, shifted, window=(5.0, 6.0))


def test_compare_fields_mismatch_errors():
    a = _toy_field()
    other_grid = _toy_field(n=13)
    with pytest.raises(ConfigError):
        compare_fields(a, other_grid)
    other_t = _toy_field(t=0.4)
    with pytest.raises(ConfigError):
        compare_fields(a, other_t)


def test_compare_fields_tests_distinct_grids():
    """One grid array is shared untested; an equal but distinct array still
    passes the grid test, and a shifted one still fails it."""
    a = _toy_field()
    same = WaveField(x=a.x, u=a.u + 1e-3, v=a.v, t=a.t, method="x")
    equal = WaveField(x=a.x.copy(), u=same.u, v=a.v, t=a.t, method="x")
    assert compare_fields(a, same) == compare_fields(a, equal)
    assert compare_fields(a, equal).l_inf == pytest.approx(1e-3)
    shifted = WaveField(x=a.x + 1e-6, u=a.u, v=a.v, t=a.t, method="x")
    with pytest.raises(ConfigError, match="share one x grid"):
        compare_fields(a, shifted)


def test_fields_csv_round_trip(tmp_path):
    fields = [_toy_field(t=0.1), _toy_field(t=0.2, method="quadrature_full")]
    header = {"mu": "0.05", "profile": "gaussian"}
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_fields_csv(path_a, fields, header)
    write_fields_csv(path_b, fields, header)
    assert path_a.read_bytes() == path_b.read_bytes()  # byte-determinism

    loaded, loaded_header = read_fields_csv(path_a)
    assert loaded_header == header
    assert len(loaded) == 2
    for orig, back in zip(fields, loaded):
        assert back.method == orig.method
        assert back.t == orig.t
        assert_allclose(back.x, orig.x, rtol=0, atol=0)
        assert_allclose(back.u, orig.u, rtol=0, atol=0)
        assert_allclose(back.v, orig.v, rtol=0, atol=0)


def test_fields_csv_keeps_shortest_round_trip_bytes(tmp_path):
    """Rows are the shortest-round-trip ``repr`` of each float64 value, as
    ``float(value)`` per element gives it: negative zero, subnormals and
    17-digit values included."""
    x = np.array([-0.0, 5e-324, 0.1 + 0.2, -1.2345678901234567e-300, 2.0**-1074 * 3])
    u = np.array([2.2250738585072014e-308, -0.0, 1.0 / 3.0, 1e22, -2.0**-1030])
    v = np.array([np.nextafter(1.0, 2.0), 123456789.12345679, 0.0, -5e-324, 9007199254740993.0])
    fields = [WaveField(x, u, v, 0.30000000000000004, "ode"), WaveField(v, x, u, -0.0, "uas")]
    path = tmp_path / "f.csv"
    write_fields_csv(path, fields, {"mu": "0.05"})
    rows = ["# mu = 0.05", "x,u,v,method,t"] + [
        f"{float(xi)!r},{float(ui)!r},{float(vi)!r},{f.method},{float(f.t)!r}"
        for f in fields
        for xi, ui, vi in zip(f.x, f.u, f.v)
    ]
    assert path.read_bytes() == ("\n".join(rows) + "\n").encode()
    assert b"-0.0," in path.read_bytes() and b"5e-324" in path.read_bytes()
