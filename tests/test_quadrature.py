"""Chirp-z exponential sums against the direct sums they replace."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diatomic_waves import GaussianProfile, TableProfile, semi_discrete_ft
from diatomic_waves import _quadrature as quad
from diatomic_waves import initial_data
from diatomic_waves.errors import QuadratureError

#: Largest panel level any workload or test builds today (the long-wave front).
LARGEST_LEVEL_NODES = 70_930 * 16

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def _weighted_kernel(p: np.ndarray, w: np.ndarray, columns: int, seed: int) -> np.ndarray:
    """Smooth complex kernel values times weights, shape ``(len(p), columns)``."""
    rng = np.random.default_rng(seed)
    out = np.empty((p.size, columns), dtype=complex)
    for c in range(columns):
        width, freq, shift = rng.uniform(0.5, 3.0), rng.uniform(-4.0, 4.0), rng.uniform(-1, 1)
        out[:, c] = np.exp(-0.5 * ((p - shift) / width) ** 2 + 1j * freq * p) * w
    return out


@st.composite
def uniform_grids(draw) -> np.ndarray:
    """Uniform grids: ascending or descending, through 0 or not, 1 to 60 points."""
    m = draw(st.integers(1, 60))
    if draw(st.booleans()):  # contains x = 0
        dx = draw(st.floats(0.01, 1.0)) * draw(st.sampled_from((1.0, -1.0)))
        return dx * (np.arange(m) - draw(st.integers(0, m - 1)))
    start = draw(st.floats(-20.0, 20.0))
    stop = draw(st.floats(-20.0, 20.0))
    return np.linspace(start, stop, m)


@SETTINGS
@given(
    x=uniform_grids(),
    a=st.floats(-10.0, 10.0),
    width=st.floats(0.1, 10.0),
    n_panels=st.integers(1, 40),
    even_fold=st.booleans(),
    columns=st.sampled_from((1, 2)),
    seed=st.integers(0, 2**16),
)
@example(  # one point
    x=np.array([0.7]), a=-2.0, width=5.0, n_panels=3, even_fold=False, columns=1, seed=0
)
@example(  # one point, at 0
    x=np.array([0.0]), a=0.0, width=5.0, n_panels=3, even_fold=True, columns=2, seed=1
)
@example(  # two points
    x=np.array([-3.0, 4.0]), a=0.0, width=5.0, n_panels=9, even_fold=True, columns=1, seed=2
)
@example(  # descending
    x=np.linspace(6.0, -6.0, 25), a=-3.0, width=6.0, n_panels=20, even_fold=False, columns=2, seed=3
)
@example(  # through 0
    x=0.25 * np.arange(-8, 9), a=0.0, width=9.0, n_panels=40, even_fold=True, columns=2, seed=4
)
def test_chirp_z_matches_direct_sum(x, a, width, n_panels, even_fold, columns, seed):
    p, w = quad.panel_nodes(a, a + width, n_panels)
    g = _weighted_kernel(p, w, columns, seed)
    assert quad._progression(x[:, None]) is not None
    assert quad._panel_columns(p) is not None  # so the chirp-z path is the one tested
    fast = quad._contract(g, p, x, even_fold)
    direct = quad._contract_direct(g, p, x, even_fold)
    assert fast.shape == direct.shape == (x.size, columns)
    assert np.max(np.abs(fast - direct)) <= 1e-12 * np.sum(np.abs(g))


@pytest.mark.parametrize("even_fold", [False, True])
def test_non_uniform_grid_takes_the_direct_path(even_fold):
    rng = np.random.default_rng(7)
    x = np.sort(rng.uniform(-5.0, 5.0, 41))
    p, w = quad.panel_nodes(0.0, 6.0, 12)
    g = _weighted_kernel(p, w, 2, 3)
    assert quad._progression(x[:, None]) is None
    assert np.array_equal(
        quad._contract(g, p, x, even_fold), quad._contract_direct(g, p, x, even_fold)
    )


def test_progression_rejects_non_arithmetic_and_non_finite():
    x = np.linspace(-1.0, 1.0, 11)
    x[5] += 1e-9
    assert quad._progression(x[:, None]) is None
    assert quad._progression(np.array([[0.0], [np.nan], [2.0]])) is None
    assert quad._panel_columns(np.linspace(0.0, 1.0, 17)) is None  # not whole panels


def test_front_size_contraction_matches_direct_sum():
    """70,930 panels x 401 points, the long-wave front workload's last level.

    The kernel's phase is stationary at an interior grid point, as at a
    front, so errors in the output phases add up instead of cancelling.
    """
    mu = 80 * 2.82e-7
    x = np.linspace(0.5 - 0.0014, 0.5 + 0.0003, 401) / mu
    p, w = quad.panel_nodes(0.0, 8.03, 70_930)
    g = (np.exp(-0.5 * p * p + 1j * (-x[301] * p + 0.03 * p**3)) * w)[:, None]
    fast = quad._contract(g, p, x, True)
    sample = np.unique(np.r_[np.linspace(0, x.size - 1, 8).astype(int), 300, 301])
    direct = quad._contract_direct(g, p, x[sample], True)
    assert np.max(np.abs(direct)) > 0.5  # the stationary point is sampled
    assert np.max(np.abs(fast[sample] - direct)) <= 1e-12 * np.sum(np.abs(g))


def _spy_chirp(monkeypatch) -> list:
    """Record the panel count of every chirp-z transform semi_discrete_ft builds."""
    calls = []
    chirp_z = initial_data._chirp_z

    def spy(n, m, step):
        calls.append(m)
        return chirp_z(n, m, step)

    monkeypatch.setattr(initial_data, "_chirp_z", spy)
    return calls


def _summed_sites(profile, delta: float, component: int) -> int:
    """Sites semi_discrete_ft sums for an even profile (the positive half)."""
    return int(np.count_nonzero(initial_data._sublattice_sites(profile, delta, component) > 0))


@pytest.mark.parametrize("delta", [0.005, 0.1, 1.0])
@pytest.mark.parametrize("component", [1, 2])
def test_strided_semi_discrete_ft_matches_blocked_sum(delta, component, monkeypatch):
    gaussian = GaussianProfile()
    edge = np.pi / (2.0 * delta)
    chirps = _spy_chirp(monkeypatch)
    # at least 300 panels, and enough node-site terms for the chirp-z path
    sites = _summed_sites(gaussian, delta, component)
    n_panels = max(300, -(-initial_data._CHIRP_MIN_TERMS // (quad._ORDER * sites)))
    for a in (0.0, -edge):
        p, _ = quad.panel_nodes(a, edge, n_panels)
        assert quad._panel_columns(p) is not None
        chirps.clear()
        fast = semi_discrete_ft(gaussian, delta, p, component)
        assert chirps == [n_panels]  # the chirp-z path is the one tested
        # one extra node breaks the panel stride, so this is the blocked sum
        blocked = semi_discrete_ft(gaussian, delta, np.append(p, 0.0), component)[:-1]
        scale = np.sum(gaussian.value(np.arange(-2000, 2001) * delta))
        assert np.max(np.abs(fast - blocked)) <= 1e-12 * scale
        assert np.all(fast.imag == 0.0)
        assert np.all(blocked.imag == 0.0)


@pytest.mark.parametrize("n_panels", [1, 2, 31, "below", "above"])
@pytest.mark.parametrize("delta", [0.005, 1.0])
def test_few_panels_take_the_blocked_sum(n_panels, delta, monkeypatch):
    """Panel-strided p takes chirp-z exactly when p.size times the summed
    sites reaches _CHIRP_MIN_TERMS; below that (the front band's single
    panel included) it is summed as any other p, without a transform.
    "below"/"above" are the panel counts on either side of the threshold."""
    gaussian = GaussianProfile()
    chirps = _spy_chirp(monkeypatch)
    for component in (1, 2):
        sites = _summed_sites(gaussian, delta, component)
        below = (initial_data._CHIRP_MIN_TERMS - 1) // (quad._ORDER * sites)
        m = {"below": below, "above": below + 1}.get(n_panels, n_panels)
        p, _ = quad.panel_nodes(-0.3, 1.2, m)
        assert quad._panel_columns(p) is not None
        chirps.clear()
        strided = semi_discrete_ft(gaussian, delta, p, component)
        if m > below:
            assert chirps == [m]
            continue
        assert chirps == []
        blocked = semi_discrete_ft(gaussian, delta, np.append(p, 0.0), component)[:-1]
        assert np.array_equal(strided, blocked)


def test_strided_semi_discrete_ft_of_asymmetric_profile(monkeypatch):
    xi = np.linspace(-6.0, 8.0, 701)
    skew = TableProfile(xi, np.exp(-0.5 * (xi - 0.7) ** 2))
    chirps = _spy_chirp(monkeypatch)
    p, _ = quad.panel_nodes(-np.pi, np.pi, 256)  # 4096 nodes x 19-20 sites
    for component in (1, 2):
        chirps.clear()
        fast = semi_discrete_ft(skew, 0.5, p, component)
        assert chirps == [256]
        blocked = semi_discrete_ft(skew, 0.5, np.append(p, 0.0), component)[:-1]
        assert np.max(np.abs(fast - blocked)) <= 1e-12 * np.sum(np.abs(skew.value(xi)))
        assert np.max(np.abs(fast.imag)) > 1e-3


def test_uniform_grid_is_verified_on_every_point(monkeypatch):
    """A uniform grid is checked on all points and returned as verified; a
    non-uniform one on probes, then contracted once more in full."""
    x = np.linspace(-3.0, 3.0, 101)
    x_bent = x.copy()
    x_bent[50] += 1e-7
    sizes = []
    contract = quad._contract

    def spy(g, p, x, even_fold):
        sizes.append(x.size)
        return contract(g, p, x, even_fold)

    def kernel(p):
        return np.exp(-0.5 * p * p)

    monkeypatch.setattr(quad, "_contract", spy)
    uniform = quad.synthesize_field(kernel, 0.0, 9.0, x, 3.0, even_fold=True)
    assert sizes == [101, 101]
    sizes.clear()
    bent = quad.synthesize_field(kernel, 0.0, 9.0, x_bent, 3.0, even_fold=True)
    assert sizes == [33, 33, 101]
    exact = np.sqrt(2.0 * np.pi) * np.exp(-0.5 * x * x)
    keep = np.arange(x.size) != 50
    assert np.max(np.abs(uniform - exact)) < 1e-12
    assert np.max(np.abs(uniform[keep] - bent[keep])) < 1e-13


def test_node_count_guard_fails_before_building_the_level():
    assert quad._MAX_NODES >= 4 * LARGEST_LEVEL_NODES
    calls = []

    def kernel(p):
        calls.append(p.size)
        return np.ones_like(p)

    with pytest.raises(QuadratureError, match="quadrature nodes"):
        quad.synthesize_field(kernel, 0.0, 8.0, np.linspace(0.0, 1.0, 5), 1e9)
    assert calls == []
