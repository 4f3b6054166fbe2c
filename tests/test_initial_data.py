"""Profiles, semi-discrete transforms, spectral gaps."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

import _reference as ref
from _diagnostics import poisson_gap
from diatomic_waves import (
    ChainSizeError,
    ConfigError,
    GaussianProfile,
    LatticeParams,
    TableProfile,
    load_profile_table,
    semi_discrete_ft,
    solve_quadrature,
    spectral_vector,
)
from diatomic_waves import initial_data
from diatomic_waves._quadrature import panel_nodes, synthesize_field


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_gaussian_self_dual(gaussian):
    xi = np.linspace(-3.0, 3.0, 13)
    assert_allclose(gaussian.value(xi), np.exp(-0.5 * xi**2), rtol=1e-15)
    assert_allclose(gaussian.fourier_hat(xi), np.exp(-0.5 * xi**2), rtol=1e-15)
    assert gaussian.value(0.0) == 1.0
    assert_allclose(gaussian.fourier_hat(2.0), np.exp(-2.0), rtol=1e-15)
    assert gaussian.is_even
    r = gaussian.support_radius()
    assert np.exp(-0.5 * r * r) <= gaussian.cutoff * (1.0 + 1e-12)


def _gaussian_tail(r: float) -> float:
    """``int_{|p| >= r} e^{-p^2/2} dp`` by adaptive quadrature (relative 1e-13)."""
    return 2.0 * quad(lambda p: math.exp(-0.5 * p * p), r, math.inf, epsabs=0.0, epsrel=1e-13)[0]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(log_tail=st.floats(-300.0, 0.0))
def test_gaussian_hat_l1_radius_bounds_the_tail(log_tail):
    """The closed-form radius leaves at most ``tail`` outside it (to quad's
    1e-12 relative accuracy), and is the smallest such radius to 1e-6."""
    tail = 10.0**log_tail
    r = GaussianProfile().hat_l1_radius(tail)
    assert _gaussian_tail(r) <= tail * (1.0 + 1e-12)
    assert _gaussian_tail(r * (1.0 - 1e-6)) > tail


def test_gaussian_hat_l1_radius_where_the_inverse_underflows(gaussian):
    # tail / sqrt(2 pi) / 2 rounds to 0: no bound, no cut
    assert gaussian.hat_l1_radius(5e-324) == math.inf
    assert math.isfinite(gaussian.hat_l1_radius(1e-305))


def test_hat_l1_radius_limits(gaussian):
    assert gaussian.hat_l1_radius(0.0) == math.inf
    assert gaussian.hat_l1_radius(math.nan) == math.inf
    assert gaussian.hat_l1_radius(math.sqrt(2.0 * math.pi)) == 0.0
    assert gaussian.hat_l1_radius(1e3) == 0.0
    xi = np.linspace(-8.5, 8.5, 341)
    assert TableProfile(xi, gaussian.value(xi)).hat_l1_radius(1.0) == math.inf


def test_table_profile_matches_gaussian(gaussian):
    xi = np.linspace(-8.5, 8.5, 1201)
    table = TableProfile(xi, gaussian.value(xi))
    assert table.is_even
    probe = np.linspace(-4.0, 4.0, 41)
    assert_allclose(table.value(probe), gaussian.value(probe), atol=2e-10)
    p = np.linspace(-3.0, 3.0, 21)
    assert_allclose(table.fourier_hat(p), gaussian.fourier_hat(p), atol=1e-8)
    # outside the tabulated interval the profile is identically zero
    assert table.value(9.0) == 0.0


def _spline_table(name: str) -> TableProfile:
    """The tables of ``tests/tools/regen_references.py::spline_tables``,
    built from the same float64 numbers."""
    if name == "uniform":
        xs = [(k - 60) / 10 for k in range(141)]
        centre = 1.0
    else:
        xs = [-6.0 + 14.0 * (k / 129) + 1.5 * math.sin(2.0 * math.pi * (k / 129)) for k in range(130)]
        centre = 0.7
    ws = [math.exp(-0.5 * (x - centre) * (x - centre)) for x in xs]
    return TableProfile(np.array(xs), np.array(ws))


@pytest.mark.parametrize("name", ["uniform", "graded"])
def test_table_transform_matches_exact_spline_integral(name):
    # frozen 50-digit mp.quad of each cubic of the natural spline, from p = 0
    # through the series/recurrence switch at |p d| = 1 and the alias peak to 4096
    table = _spline_table(name)
    cases = {p: v for (n, p), v in ref.SPLINE_TRANSFORMS.items() if n == name}
    p = np.array(sorted(cases))
    got = table.fourier_hat(p)
    assert np.max(np.abs(got - np.array([cases[q] for q in p]))) <= 1e-15
    np.testing.assert_array_equal(table.fourier_hat(-p), np.conj(got))
    assert table.fourier_hat(0.5) == got[p == 0.5][0]  # scalar in, scalar out


def test_table_transform_memory_does_not_grow_with_momentum():
    # the transform used to build quadrature nodes for max|p| at every p
    table = _spline_table("uniform")
    p = np.linspace(0.0, 512.0, 256)
    tracemalloc.start()
    try:
        table.fourier_hat(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_table_profile_validation():
    with pytest.raises(ConfigError):
        TableProfile(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.5, 0.1]))
    with pytest.raises(ConfigError):
        TableProfile(np.array([0.0, 1.0, 1.0, 2.0]), np.array([1.0, 0.5, 0.4, 0.1]))
    with pytest.raises(ConfigError):
        TableProfile(np.array([0.0, 1.0, 2.0, 3.0]), np.array([1.0, np.nan, 0.4, 0.1]))


def test_load_profile_table(tmp_path, gaussian):
    xi = np.linspace(-6.0, 6.0, 241)
    path = tmp_path / "profile.csv"
    rows = ["xi,w"] + [
        f"{float(x)!r},{float(w)!r}" for x, w in zip(xi, gaussian.value(xi))
    ]
    path.write_text("\n".join(rows) + "\n")
    prof = load_profile_table(path)
    assert_allclose(prof.value(1.3), gaussian.value(1.3), atol=1e-9)

    bad = tmp_path / "bad.csv"
    bad.write_text("xi,w\n0.0,1.0\noops,not-a-number\n1.0,0.5\n2.0,0.1\n")
    with pytest.raises(ConfigError):
        load_profile_table(bad)

    short = tmp_path / "short.csv"
    short.write_text("0.0,1.0\n1.0,0.5\n")
    with pytest.raises(ConfigError):
        load_profile_table(short)


# ---------------------------------------------------------------------------
# semi-discrete transforms
# ---------------------------------------------------------------------------

#: The long-wave keys (delta < 0.5) hold values down to 1.5e-10 (p = 7.5, delta = 0.005), where
#: the site sum's rounding, 2.5e-14, is 1.7e-4 of the value; they are pinned further below.
_SITE_SUM_KEYS = sorted(k for k in ref.GAUSSIAN_SUBLATTICE_SUMS if k[0] >= 0.5)
_LONG_WAVE_KEYS = sorted(k for k in ref.GAUSSIAN_SUBLATTICE_SUMS if k[0] < 0.5)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@pytest.mark.parametrize("key", _SITE_SUM_KEYS)
def test_semi_discrete_ft_frozen(gaussian, key):
    delta, p, component = key
    got = semi_discrete_ft(gaussian, delta, p, component)
    assert_allclose(got.real, ref.GAUSSIAN_SUBLATTICE_SUMS[key], rtol=1e-13)
    assert got.imag == 0.0  # even profile folds to an exactly real cosine sum


def test_semi_discrete_ft_truncated_trig_form(gaussian):
    # at delta = 1 the even sum is ~ 1 + 2 e^{-2} cos(2p) and the odd sum
    # ~ 2 e^{-1/2} cos(p) + 2 e^{-9/2} cos(3p), to the next lattice term
    p = np.linspace(-1.5, 1.5, 7)
    even = semi_discrete_ft(gaussian, 1.0, p, 1).real
    odd = semi_discrete_ft(gaussian, 1.0, p, 2).real
    assert_allclose(even, 1.0 + 2.0 * np.exp(-2.0) * np.cos(2.0 * p), atol=1e-3)
    assert_allclose(
        odd,
        2.0 * np.exp(-0.5) * np.cos(p)
        + 2.0 * np.exp(-4.5) * np.cos(3.0 * p)
        + 2.0 * np.exp(-12.5) * np.cos(5.0 * p),
        atol=1e-9,
    )


def test_semi_discrete_ft_symmetries(gaussian):
    delta = 0.5
    p = np.linspace(0.1, 2.9, 11)
    for component in (1, 2):
        plus = semi_discrete_ft(gaussian, delta, p, component)
        minus = semi_discrete_ft(gaussian, delta, -p, component)
        assert_allclose(minus, np.conj(plus), rtol=1e-14)
    # period/antiperiod under p -> p + pi/delta
    shift = np.pi / delta
    assert_allclose(
        semi_discrete_ft(gaussian, delta, p + shift, 1),
        semi_discrete_ft(gaussian, delta, p, 1),
        rtol=0,
        atol=1e-13,
    )
    assert_allclose(
        semi_discrete_ft(gaussian, delta, p + shift, 2),
        -semi_discrete_ft(gaussian, delta, p, 2),
        rtol=0,
        atol=1e-13,
    )


def test_semi_discrete_ft_asymmetric_profile_is_complex():
    xi = np.linspace(-6.0, 8.0, 701)
    skew = TableProfile(xi, np.exp(-0.5 * (xi - 0.7) ** 2))
    assert not skew.is_even
    val = semi_discrete_ft(skew, 0.5, 0.9, 1)
    assert abs(val.imag) > 1e-3
    assert_allclose(
        semi_discrete_ft(skew, 0.5, -0.9, 1), np.conj(val), rtol=1e-12
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    skew=st.booleans(),
    delta=st.sampled_from([1.0, 0.5, 0.1]),
    base=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=40),
    data=st.data(),
)
def test_each_value_is_its_one_point_call(skew, delta, base, data):
    """Every element of the site sums is, to the bit, the sum at that p
    alone, whatever the array's size, order or repeats; so is the band data
    at delta = 1, where they are the site sums.  The short-wave fronts rely
    on it to evaluate all their stencil points in one call."""
    if skew:
        xi = np.linspace(-6.0, 8.0, 701)
        profile = TableProfile(xi, np.exp(-0.5 * (xi - 0.7) ** 2))
    else:
        profile = GaussianProfile()
    p = np.array(base + data.draw(st.lists(st.sampled_from(base), max_size=64 - len(base))))
    p = p[np.array(data.draw(st.permutations(range(p.size))))]
    for component in (1, 2):
        alone = [semi_discrete_ft(profile, delta, q, component) for q in p]
        np.testing.assert_array_equal(semi_discrete_ft(profile, delta, p, component), alone)
    if delta == 1.0:
        alone = [spectral_vector(profile, 1.0, q)[0] for q in p]
        np.testing.assert_array_equal(spectral_vector(profile, 1.0, p), alone)


def test_spectral_vector_shapes(gaussian):
    vec = spectral_vector(gaussian, 1.0, 0.4)
    assert vec.shape == (1, 2)
    assert_allclose(vec[0, 0], ref.GAUSSIAN_SUBLATTICE_SUMS[(1.0, 0.4, 1)], rtol=1e-13)
    assert_allclose(vec[0, 1], ref.GAUSSIAN_SUBLATTICE_SUMS[(1.0, 0.4, 2)], rtol=1e-13)
    arr = spectral_vector(gaussian, 1.0, np.linspace(0, 1, 5))
    assert arr.shape == (5, 2)


@pytest.mark.parametrize("key", _LONG_WAVE_KEYS)
def test_long_wave_band_data_frozen(gaussian, key):
    # 50-digit site sums at delta = 0.05 and 0.005, inside the quadrature's cut:
    # the image sum holds them to rtol 1e-13, the site sum to its rounding
    delta, p, component = key
    expected = ref.GAUSSIAN_SUBLATTICE_SUMS[key]
    got = spectral_vector(gaussian, delta, p)[0, component - 1]
    assert_allclose(got.real, expected, rtol=1e-13)
    assert got.imag == 0.0
    site = semi_discrete_ft(gaussian, delta, p, component)
    assert abs(site.real - expected) <= 1e-13 * _SQRT_2PI / (2.0 * delta)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    log_delta=st.floats(-3.0, 0.0),
    u=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8),
)
def test_image_sum_matches_site_sum(log_delta, u):
    """Both columns of the Poisson image sums, truncated where every dropped image
    lies beyond ``hat_radius``, are the site sums to 1e-13 of their scale
    ``sqrt(2 pi) / (2 delta)`` anywhere in the reduced band, also where the
    dispatcher keeps the site sum."""
    gaussian = GaussianProfile()
    delta = 10.0**log_delta
    p = np.array(u) * np.pi / (2.0 * delta)
    k_max = math.ceil((np.max(np.abs(p)) + gaussian.hat_radius()) * delta / math.pi)
    images = initial_data._image_sums(gaussian, delta, p, k_max)
    band = spectral_vector(gaussian, delta, p)
    assert images.shape == band.shape == p.shape + (2,)
    scale = _SQRT_2PI / (2.0 * delta)
    for component in (1, 2):
        site = semi_discrete_ft(gaussian, delta, p, component)
        assert np.max(np.abs(images[:, component - 1] - site)) <= 1e-13 * scale
        assert np.max(np.abs(band[:, component - 1] - site)) <= 1e-13 * scale


class _CountingHat(GaussianProfile):
    """Gaussian that counts its ``fourier_hat`` calls."""

    calls = 0

    def fourier_hat(self, p):
        self.calls += 1
        return super().fourier_hat(p)


@pytest.mark.parametrize("delta", [0.005, 0.5])
def test_image_path_evaluates_each_image_once(delta):
    # one pass over the 2 K + 1 images serves both sublattice sums
    profile = _CountingHat()
    p = np.linspace(0.0, np.pi / (2.0 * delta), 33)
    k_max = initial_data._image_order(profile, delta, p)
    assert k_max is not None and k_max >= 1
    spectral_vector(profile, delta, p)
    assert profile.calls == 2 * k_max + 1


def test_band_data_path(gaussian, monkeypatch):
    # tables and the Gaussian at delta = 1 (9 images against 6 folded sites) keep
    # the site sum; the Gaussian at delta << 1 takes its band data from the images
    calls = []
    site_sum = initial_data.semi_discrete_ft

    def counting(profile, delta, p, component):
        calls.append(delta)
        return site_sum(profile, delta, p, component)

    monkeypatch.setattr(initial_data, "semi_discrete_ft", counting)
    xi = np.linspace(-8.5, 8.5, 341)
    table = TableProfile(xi, gaussian.value(xi))
    p = np.linspace(-3.0, 3.0, 7)
    spectral_vector(table, 0.05, p)
    assert calls == [0.05, 0.05]
    spectral_vector(gaussian, 1.0, p)
    assert calls[2:] == [1.0, 1.0]
    spectral_vector(gaussian, 0.05, p)
    spectral_vector(gaussian, 0.005, p)
    assert len(calls) == 4


def _refuses(call) -> bool:
    try:
        call()
    except ChainSizeError:
        return True
    return False


def test_band_data_refuse_the_site_sums_size(gaussian):
    # ChainSizeError at the site count where semi_discrete_ft refuses, though the image
    # path never builds the sites: a sum spans half = ceil(r / (2 delta) + 1) sites each
    # side, refused once 2 half + 2 > _MAX_SITES, i.e. once r / (2 delta) > _MAX_SITES / 2 - 2
    limit = gaussian.support_radius() / (2.0 * (initial_data._MAX_SITES // 2 - 2))
    deltas = [limit * (1.0 - 1e-12), limit, limit * (1.0 + 1e-12), 8e-303, 1e-3]
    refused = [_refuses(lambda: semi_discrete_ft(gaussian, d, 0.5, 1)) for d in deltas]
    assert refused[0] and refused[3] and not refused[2] and not refused[4]
    assert [_refuses(lambda: spectral_vector(gaussian, d, 0.5)) for d in deltas] == refused


@pytest.mark.parametrize("even", [True, False])
def test_spectral_vector_accepts_2d_momenta(gaussian, even):
    # p of any shape is summed in flattened order: the optical stationary
    # pair arrives as an (n, 2) array, panel nodes may arrive as (n, 16)
    xi = np.linspace(-6.0, 8.0, 701)
    profile = gaussian if even else TableProfile(xi, np.exp(-0.5 * (xi - 0.7) ** 2))
    pairs = np.array([[0.1, 0.9], [0.4, 1.3], [1.5, 0.2]])
    panels = panel_nodes(-1.5, 1.5, 4)[0].reshape(4, 16)
    for p in (pairs, panels):
        got = spectral_vector(profile, 1.0, p)
        assert got.shape == p.shape + (2,)
        np.testing.assert_array_equal(got, spectral_vector(profile, 1.0, p.ravel()).reshape(got.shape))
        for component in (1, 2):
            np.testing.assert_array_equal(
                semi_discrete_ft(profile, 1.0, p, component),
                semi_discrete_ft(profile, 1.0, p.ravel(), component).reshape(p.shape),
            )


def test_semi_discrete_component_validation(gaussian):
    with pytest.raises(ConfigError):
        semi_discrete_ft(gaussian, 1.0, 0.3, 3)


# ---------------------------------------------------------------------------
# band-limited reconstruction: the exact quadrature at t = 0
# ---------------------------------------------------------------------------

# At t = 0 the modal projectors sum to the identity, so solve_quadrature returns
# the Kotelnikov-Whittaker-Shannon interpolant of each sublattice's samples,
# ``(delta / pi) Re int_B S_c(p) e^{i p xi} dp`` at ``xi = x / mu``: ``u`` from
# the even sites, ``v`` from the odd ones.
_MU = 0.05


def _initial_field(delta: float, xi, **kw):
    params = LatticeParams(gamma1=0.82, gamma2=1.27, h=delta * _MU)
    return solve_quadrature(params, GaussianProfile(), _MU, _MU * np.asarray(xi), 0.0, **kw)


def test_kws_reproduces_lattice_samples(gaussian):
    # the reconstruction is exact at the sites of its own sublattice
    field = _initial_field(1.0, [0.0, 2.0, 1.0, -3.0])
    assert_allclose(field.u[:2], [1.0, np.exp(-2.0)], atol=1e-8)
    assert_allclose(field.v[2:], [np.exp(-0.5), np.exp(-4.5)], atol=1e-8)


def test_kws_between_sites_converges(gaussian):
    # off-lattice the band-limited interpolant approaches W as delta -> 0
    probe = np.array([0.31, 1.77])
    exact = gaussian.value(probe)
    err = [float(np.max(np.abs(_initial_field(d, probe).u - exact))) for d in (1.0, 0.5, 0.25)]
    assert err[1] < 0.2 * err[0]
    assert err[2] < 1e-6


@pytest.mark.parametrize("component", [1, 2])
@pytest.mark.parametrize("delta", [0.05, 0.01])
def test_kws_band_cut_matches_whole_band(gaussian, delta, component):
    """The quadrature integrates a cut band; the whole-band call, written out
    here, differs by at most the ``(delta / pi) atol`` of its quadrature plus the
    rounding of a unit-size field.  solve_quadrature's ``atol`` applies to the
    field itself, so it is given that same ``(delta / pi) 1e-13``."""
    xi = np.linspace(-4.0, 4.0, 81)
    edge = np.pi / (2.0 * delta)
    atol = (delta / np.pi) * 1e-13
    gain = 2.0 + np.sqrt(1.27 / 0.82)  # the cut solve_quadrature takes, see its docstring
    cut = initial_data._band_limits(gaussian, delta, 0.5 * atol * np.pi / (delta * gain))[1]
    assert cut < 0.5 * edge
    rate = 4.0 + gaussian.support_radius() + 2.0 * delta
    def kern(p):
        return semi_discrete_ft(gaussian, delta, p, component)

    whole = synthesize_field(kern, 0.0, edge, xi, rate, even_fold=True)
    field = _initial_field(delta, xi, atol=atol)
    got = field.u if component == 1 else field.v
    assert np.max(np.abs(got - (delta / np.pi) * whole.real)) <= (delta / np.pi) * 1e-13 + 1e-15


# ---------------------------------------------------------------------------
# spectral gaps
# ---------------------------------------------------------------------------

def test_poisson_gap_decays_superpolynomially(gaussian):
    reports = [poisson_gap(gaussian, d, n_grid=301) for d in (0.5, 0.25)]
    gaps = [max(r.gap_even, r.gap_odd, r.gap_between) for r in reports]
    # halving delta must beat any fixed power: delta^4 would give 16x
    assert gaps[1] < gaps[0] / 100.0
    assert gaps[0] < 0.5


def test_poisson_gap_tiny_at_small_delta(gaussian):
    report = poisson_gap(gaussian, 0.01, n_grid=101)
    assert report.gap_even < 1e-12
    assert report.gap_odd < 1e-12
    assert report.gap_between < 1e-12


@pytest.mark.parametrize("delta", [0.5, 0.25, 0.2])
def test_poisson_gap_is_the_nearest_alias_image(gaussian, delta):
    """Where aliasing is above rounding, ``poisson_gap`` reads the Poisson
    image term itself.  Each sublattice sum minus the continuum term is
    ``P sum_{k != 0} (+-1)^k e^{-(p + k pi/delta)^2/2}`` with ``P =
    sqrt(2 pi)/(2 delta)``, largest at the band edge ``e = pi/(2 delta)``,
    where the ``k = -+1`` image sits at ``|q| = e``: each gap is ``T1 = P
    e^{-e^2/2}`` (``gap_between``, from the odd ``k`` only, ``2 T1``).  The
    next images sit at ``|q| >= 3 e``; their sum is below ``T3 = 4 P
    e^{-9 e^2/2}`` (two of them, doubled for the rest).  The site sum adds its
    own floor: rounding, ``16 eps P``, and the sites it drops below the
    cutoff, ``2 cutoff / (1 - e^{-2 delta R})`` with ``R`` the support
    radius.  At delta = 0.2 that floor is 17% of ``T1 = 2.5e-13``, while the
    gate at delta = 0.01 only sees rounding."""
    report = poisson_gap(gaussian, delta, n_grid=301)  # odd: the grid holds both edges
    edge = np.pi / (2.0 * delta)
    scale = np.sqrt(2.0 * np.pi) / (2.0 * delta)
    one_image = scale * np.exp(-0.5 * edge**2)
    next_images = 4.0 * scale * np.exp(-4.5 * edge**2)
    dropped = 2.0 * gaussian.cutoff / (1.0 - np.exp(-2.0 * delta * gaussian.support_radius()))
    bound = next_images + 16.0 * np.finfo(float).eps * scale + dropped
    assert abs(report.gap_even - one_image) <= bound
    assert abs(report.gap_odd - one_image) <= bound
    assert abs(report.gap_between - 2.0 * one_image) <= 2.0 * bound
    assert bound < 0.2 * one_image


def test_poisson_gap_order_one_at_unit_delta(gaussian):
    # delta = 1: the two sublattice sums genuinely differ from the
    # continuum transform (this is what makes the regime distinct)
    report = poisson_gap(gaussian, 1.0, n_grid=201)
    assert report.gap_between > 0.3
    assert max(report.gap_even, report.gap_odd) > 0.3
