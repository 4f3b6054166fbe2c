"""Reference solvers: exact chain propagation and band quadrature."""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import eigh_tridiagonal

import _reference as ref
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
    with pytest.raises(BoundaryError, match="reached the fixed ends"):
        integrate_lattice(desk(0.05), gaussian, 0.05, [0.1])


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
# exact modal propagation against dense linear algebra (21-site chain)
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
    omega_opt, omega_ac, _, _ = oracles._chain_modes(G1, G2, N_HALF)
    blocks = np.concatenate([omega_opt**2, omega_ac**2, [2.0 * G2]])
    expected = eigh_tridiagonal(diag, off, eigvals_only=True)
    assert_allclose(np.sort(blocks), expected, rtol=1e-13, atol=1e-12 * expected[-1])


def test_chain_modes_keep_low_acoustic_modes():
    # the long-wave signal rides on the lowest acoustic modes, whose eigenvalue
    # is ~1e-7 of the optical one on a 8k-site chain; 40-digit reference
    import mpmath

    mpmath.mp.dps = 40
    n = 4000
    omega_opt, omega_ac, _, _ = oracles._chain_modes(G1, G2, n)
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
    for t, (w, v) in zip(times, oracles._propagate(w0, G1, G2, times)):
        w_ref = x_eq + np.sqrt(g) * (q @ (np.cos(omega * t) * y0))
        v_ref = np.sqrt(g) * (q @ (-omega * np.sin(omega * t) * y0))
        assert (w[0], w[-1]) == (w0[0], w0[-1])
        assert (v[0], v[-1]) == (0.0, 0.0)
        assert_allclose(w[1:-1], w_ref, rtol=0, atol=1e-12)
        assert_allclose(v[1:-1], v_ref, rtol=0, atol=1e-12 * np.max(np.abs(v_ref)))


@pytest.mark.parametrize("kind", [1, 2])
def test_sine_transform_matches_scipy(kind):
    """``_dst`` against ``scipy.fft.dst``/``idst`` (``norm="ortho"``) at every
    length from 1 to 1025: each is an orthonormal map, so the gap is a few
    eps of ``|x|``."""
    from scipy.fft import dst, idst

    rng = np.random.default_rng(kind)
    for n in range(1, 1026):
        x = rng.standard_normal(n)
        tol = 8.0 * np.finfo(float).eps * np.linalg.norm(x)
        assert np.max(np.abs(oracles._dst(x, kind) - dst(x, type=kind, norm="ortho"))) <= tol
        back = oracles._dst(x, kind, inverse=True)
        assert np.max(np.abs(back - idst(x, type=kind, norm="ortho"))) <= tol
        assert_allclose(oracles._dst(oracles._dst(x, kind), kind, inverse=True), x, rtol=0, atol=tol)


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
