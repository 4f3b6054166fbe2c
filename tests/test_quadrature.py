"""Chirp-z exponential sums against the direct sums they replace."""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import spherical_jn

from diatomic_waves import (
    Dispersion,
    GaussianProfile,
    LatticeParams,
    TableProfile,
    semi_discrete_ft,
    solve_quadrature,
    uas_integral,
)
from diatomic_waves import _quadrature as quad
from diatomic_waves import initial_data
from diatomic_waves.errors import ConfigError, QuadratureError

from _reference import legendre_bessel_ladder

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


def test_next_fast_len_matches_scipy():
    """The numpy chirp-z pads to the 11-smooth lengths scipy.fft would choose:
    every length to 3000, then a spread to 2e6."""
    from scipy.fft import next_fast_len

    lengths = [*range(1, 3001), *range(3001, 2 * 10**6, 9973), 2**20 + 1, 2 * 10**6]
    assert [quad._next_fast_len(n) for n in lengths] == [next_fast_len(n) for n in lengths]


@SETTINGS
@given(
    x=uniform_grids(),
    a=st.floats(-10.0, 10.0),
    width=st.floats(0.1, 10.0),
    n_panels=st.integers(1, 40),
    even_fold=st.booleans(),
    real=st.booleans(),
    columns=st.sampled_from((1, 2)),
    seed=st.integers(0, 2**16),
)
@example(  # one point
    x=np.array([0.7]), a=-2.0, width=5.0, n_panels=3, even_fold=False, real=False, columns=1,
    seed=0,
)
@example(  # one point, at 0
    x=np.array([0.0]), a=0.0, width=5.0, n_panels=3, even_fold=True, real=False, columns=2, seed=1
)
@example(  # two points
    x=np.array([-3.0, 4.0]), a=0.0, width=5.0, n_panels=9, even_fold=True, real=True, columns=1,
    seed=2,
)
@example(  # descending
    x=np.linspace(6.0, -6.0, 25), a=-3.0, width=6.0, n_panels=20, even_fold=False, real=True,
    columns=2, seed=3,
)
@example(  # through 0
    x=0.25 * np.arange(-8, 9), a=0.0, width=9.0, n_panels=40, even_fold=True, real=False,
    columns=2, seed=4,
)
@example(  # many panels on an off-centre band, a grid far from 0
    x=np.linspace(100.0, 140.0, 41), a=-30.0, width=60.0, n_panels=4000, even_fold=False,
    real=False, columns=2, seed=5,
)
@example(  # the same, folded
    x=np.linspace(100.0, 140.0, 41), a=-30.0, width=60.0, n_panels=4000, even_fold=True,
    real=False, columns=1, seed=6,
)
def test_chirp_z_matches_direct_sum(x, a, width, n_panels, even_fold, real, columns, seed):
    p, w = quad.panel_nodes(a, a + width, n_panels)
    g = _weighted_kernel(p, w, columns, seed)
    if real:
        g = g.real.copy()
    assert quad._progression(x[:, None]) is not None
    assert quad._output_grid(x, float(np.max(np.abs(p)))) is not None
    assert quad._panel_columns(p) is not None  # so the chirp-z path is the one tested
    fast = quad._contract(g, p, x, even_fold)
    direct = quad._contract_direct(g, p, x, even_fold)
    assert fast.shape == direct.shape == (x.size, columns)
    assert np.max(np.abs(fast - direct)) <= 1e-12 * np.sum(np.abs(g))


@pytest.mark.parametrize("uniform", [True, False])
def test_even_fold_contracts_the_real_part(uniform):
    """The fold's weight ``2 cos(p x)`` is real, so both paths contract
    ``Re g``: a complex ``g``, its real part and that plus ``0j`` give the
    same bits, with no imaginary part."""
    x = np.linspace(-5.0, 7.0, 61)
    if not uniform:
        x[30] += 1e-3
    p, w = quad.panel_nodes(0.0, 8.0, 37)
    g = _weighted_kernel(p, w, 2, 11)
    assert (quad._output_grid(x, 8.0) is not None) == uniform
    folded = quad._contract(g, p, x, True)
    assert np.array_equal(folded, quad._contract(g.real.copy(), p, x, True))
    assert np.array_equal(folded, quad._contract(g.real + 0j, p, x, True))
    assert np.all(folded.imag == 0.0)


@pytest.mark.parametrize("columns", [1, 2, 7])
@pytest.mark.parametrize("even_fold, real", [(False, False), (True, False), (True, True)])
def test_contraction_is_one_transform_pair(columns, even_fold, real, monkeypatch):
    """Below ``_BLOCK_ELEMENTS`` all 16 local-node columns, of any width, go
    through one forward FFT, their 16 chirps with them, and their sum through
    one inverse FFT."""
    shapes = _spy_transforms(monkeypatch)
    p, w = quad.panel_nodes(-1.0, 6.0, 50)
    g = _weighted_kernel(p, w, columns, 5)
    quad._contract(g.real.copy() if real else g, p, np.linspace(-3.0, 3.0, 41), even_fold)
    assert len(shapes["fft"]) == 1 and len(shapes["ifft"]) == 1


def _spy_transforms(monkeypatch) -> dict[str, list]:
    """Record the shape of the input of every forward and inverse FFT."""
    shapes = {"fft": [], "ifft": []}
    for name, seen in shapes.items():
        def spy(a, *args, _seen=seen, _original=getattr(np.fft, name), **kwargs):
            _seen.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, spy)
    return shapes


@pytest.mark.parametrize("block, groups", [(1, 16), (2000, 4), (3000, 3)])
@pytest.mark.parametrize("even_fold", [False, True])
def test_column_groups_keep_the_bits(block, groups, even_fold, monkeypatch):
    """A smaller block splits the 16 columns into groups, one forward
    transform each and none past the block unless a single column is; their
    spectra are added in the same order, and one inverse transform follows,
    so the sums keep their bits.  The same holds for the site sums of
    semi_discrete_ft."""
    p, w = quad.panel_nodes(-1.0, 6.0, 50)
    x = np.linspace(-3.0, 3.0, 41)
    g = _weighted_kernel(p, w, 2, 5)
    whole = quad._contract(g, p, x, even_fold)
    gaussian = GaussianProfile()
    q, _ = quad.panel_nodes(0.0, 40.0, 400)
    sums = semi_discrete_ft(gaussian, 0.1, q, 1)
    monkeypatch.setattr(quad, "_BLOCK_ELEMENTS", block)
    shapes = _spy_transforms(monkeypatch)
    assert np.array_equal(quad._contract(g, p, x, even_fold), whole)
    assert len(shapes["fft"]) == groups and len(shapes["ifft"]) == 1
    # a column's block: its chirp and the kernel's two columns with their copies
    column = (1 + 2 * 2) * quad._next_fast_len(50 + 41 - 1)
    assert max(np.prod(shape) for shape in shapes["fft"]) <= max(block, column)
    assert np.array_equal(semi_discrete_ft(gaussian, 0.1, q, 1), sums)


@pytest.mark.parametrize("columns", [1, 3])
@pytest.mark.parametrize("block", [None, 1])
def test_inverse_transform_rows_are_the_kernel_width(columns, block, monkeypatch):
    """The 16 local-node columns are added before the inverse transform, so
    it runs once on as many rows as the kernel has columns (twice that with
    a frame's residual), whatever the grouping of the forward transforms."""
    if block is not None:
        monkeypatch.setattr(quad, "_BLOCK_ELEMENTS", block)
    mu, ct = 2.256e-05, 0.5008247840889459
    frame = (ct - np.linspace(0.4994252139422566, 0.5011252139422566, 401)) / mu
    p, w = quad.panel_nodes(0.0, 8.5, 60)
    g = _weighted_kernel(p, w, columns, 7)
    shapes = _spy_transforms(monkeypatch)
    for x, width in ((np.linspace(-70.0, 70.0, 401), columns), (frame, 2 * columns)):
        shapes["ifft"].clear()
        quad._contract(g, p, x, False)
        assert [shape[0] for shape in shapes["ifft"]] == [width]


@pytest.mark.parametrize("columns", [1, 2])
@pytest.mark.parametrize("even_fold", [False, True])
def test_exact_grids_transform_half_the_rows(columns, even_fold, monkeypatch):
    """A ``linspace`` grid sits within rounding of its progression, so the
    sum of the 16 columns of a ``w``-column kernel is inverse-transformed on
    ``w`` rows; a frame ``(c t - x) / mu`` keeps its first-order residual and
    on ``2 w``, the kernel and its copy weighted by the nodes.  Both hold
    the bound of test_chirp_z_matches_direct_sum.  The site sums' columns,
    panel nodes, are exact too and transform 16 rows."""
    mu, ct = 2.256e-05, 0.5008247840889459
    frame = (ct - np.linspace(0.4994252139422566, 0.5011252139422566, 401)) / mu
    p, w = quad.panel_nodes(0.0, 8.5, 60)
    g = _weighted_kernel(p, w, columns, 5)
    rows = []
    ifft = np.fft.ifft

    def spy(a, *args, **kwargs):
        rows.append(a.shape[0])
        return ifft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", spy)
    for x, width in ((np.linspace(-70.0, 70.0, 401), 1), (frame, 2)):
        rows.clear()
        fast = quad._contract(g, p, x, even_fold)
        assert rows == [width * columns]
        direct = quad._contract_direct(g, p, x, even_fold)
        assert np.max(np.abs(fast - direct)) <= 1e-12 * np.sum(np.abs(g))
    rows.clear()
    q, _ = quad.panel_nodes(0.0, 40.0, 400)
    semi_discrete_ft(GaussianProfile(), 0.1, q, 1)
    assert rows == [quad._ORDER]


def test_even_fold_of_complex_kernel_is_its_real_part():
    """The fold integrates ``Re kernel`` against ``2 cos(p x)``, which is
    ``Re F``: for ``e^{-(1/2 - i a) p^2}`` that is the real part of
    ``sqrt(pi / (1/2 - i a)) e^{-x^2 / (2 - 4 i a)}``."""
    a, cut = 0.7, 9.0
    x = np.linspace(-4.0, 4.0, 81)

    def kernel(p):
        return np.exp(-(0.5 - 1j * a) * p * p)

    folded = quad.synthesize_field(kernel, 0.0, cut, x, 4.0 + 2.0 * a * cut, even_fold=True)
    exact = np.sqrt(np.pi / (0.5 - 1j * a)) * np.exp(-x * x / (2.0 - 4j * a))
    assert np.max(np.abs(exact.imag)) > 0.1  # the dropped part is not small
    assert np.max(np.abs(folded.real - exact.real)) <= 1e-12
    assert np.all(folded.imag == 0.0)


@pytest.mark.parametrize("even_fold", [False, True])
def test_non_uniform_grid_takes_the_direct_path(even_fold):
    rng = np.random.default_rng(7)
    x = np.sort(rng.uniform(-5.0, 5.0, 41))
    p, w = quad.panel_nodes(0.0, 6.0, 12)
    g = _weighted_kernel(p, w, 2, 3)
    assert quad._progression(x[:, None]) is None
    assert quad._output_grid(x, 6.0) is None
    assert np.array_equal(
        quad._contract(g, p, x, even_fold), quad._contract_direct(g, p, x, even_fold)
    )


def test_progression_rejects_non_arithmetic_and_non_finite():
    x = np.linspace(-1.0, 1.0, 11)
    x[5] += 1e-9
    assert quad._progression(x[:, None]) is None
    assert quad._progression(np.array([[0.0], [np.nan], [2.0]])) is None
    assert quad._panel_columns(np.linspace(0.0, 1.0, 17)) is None  # not whole panels


def test_travelling_frame_grid_is_uniform_by_its_residual_phase():
    """``(c t - x) / mu`` on the long-wave front zoom (NaCl, mu = 80 h, seed 1):
    hundreds of ulps off a progression, so the ulp test of the panel columns
    refuses it, but its residual phase ``max|p| max|r|`` is ~2e-11, which the
    first-order correction keeps exact; a residual phase past 1e-8 is refused."""
    mu, ct = 2.256e-05, 0.5008247840889459
    y = (ct - np.linspace(0.4994252139422566, 0.5011252139422566, 401)) / mu
    p, w = quad.panel_nodes(0.0, 8.5, 60)
    assert quad._progression(y[:, None]) is None
    assert quad._output_grid(y, 8.5) is not None
    g = _weighted_kernel(p, w, 1, 5)
    fast = quad._contract(g, p, y, False)
    assert np.max(np.abs(fast - quad._contract_direct(g, p, y, False))) <= 1e-13 * np.sum(np.abs(g))
    bent = np.linspace(-1.0, 1.0, 11)
    bent[5] += 2e-9
    assert quad._output_grid(bent, 4.0) is not None
    assert quad._output_grid(bent, 6.0) is None
    assert quad._output_grid(np.array([0.0, np.nan, 2.0]), 1.0) is None


def test_front_size_contraction_matches_direct_sum(monkeypatch):
    """70,930 panels x 401 points, the long-wave front workload's last level.

    The kernel's phase is stationary at an interior grid point, as at a
    front, so errors in the output phases add up instead of cancelling.
    No transform block passes ``_BLOCK_ELEMENTS``, and the 16 columns are
    summed before one inverse transform.
    """
    mu = 80 * 2.82e-7
    x = np.linspace(0.5 - 0.0014, 0.5 + 0.0003, 401) / mu
    p, w = quad.panel_nodes(0.0, 8.03, 70_930)
    g = (np.exp(-0.5 * p * p + 1j * (-x[301] * p + 0.03 * p**3)) * w)[:, None]
    shapes = _spy_transforms(monkeypatch)
    fast = quad._contract(g, p, x, True)
    assert len(shapes["ifft"]) == 1
    assert max(np.prod(shape) for shape in shapes["fft"] + shapes["ifft"]) <= quad._BLOCK_ELEMENTS
    sample = np.unique(np.r_[np.linspace(0, x.size - 1, 8).astype(int), 300, 301])
    direct = quad._contract_direct(g, p, x[sample], True)
    assert np.max(np.abs(direct)) > 0.5  # the stationary point is sampled
    assert np.max(np.abs(fast[sample] - direct)) <= 1e-12 * np.sum(np.abs(g))


def _traced_peak_mb(call) -> float:
    """Peak of the memory numpy and Python allocate during ``call()``, in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("even_fold", [True, False])
def test_contraction_memory_does_not_grow_with_the_nodes(even_fold):
    """One chirp-z contraction of 2^17 panels (16 MB of nodes) on 401 points
    peaks below 16 MB: the uniformity check and ``max|p|`` build no
    node-sized temporary, and one column's block at a time is formed,
    transformed and multiplied in place, into one reused buffer."""
    p, w = quad.panel_nodes(0.0, 8.0, 1 << 17)
    g = (np.exp(-0.5 * p * p) * w)[:, None]
    if not even_fold:
        g = g + 0j
    x = np.linspace(20.0, 30.0, 401)
    assert quad._panel_columns(p) is not None  # so the chirp-z path is the one measured
    assert _traced_peak_mb(lambda: quad._contract(g, p, x, even_fold)) < 16.0


def test_progression_checks_every_row(monkeypatch):
    """The uniformity check goes through the rows in blocks and reads every
    one of them: a node off its panel column, or a nan, in any block
    refuses the chirp-z path."""
    monkeypatch.setattr(quad, "_BLOCK_ELEMENTS", 4 * 16)  # 4 panels a block
    p, _ = quad.panel_nodes(0.0, 8.0, 21)
    assert quad._panel_columns(p) is not None
    for node in (3, 100, 170, p.size - 1):
        for bad in (p[node] + 1e-12, np.nan):
            q = p.copy()
            q[node] = bad
            assert quad._panel_columns(q) is None


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

    # 1e9: the first level is past the cap; 5e5: its 6.37M nodes fit, but the
    # 12.7M-node doubling that must verify it does not, so neither is built
    for rate, message in ((1e9, "quadrature nodes"), (5e5, "needs 12732416 quadrature nodes")):
        with pytest.raises(QuadratureError, match=message):
            quad.synthesize_field(kernel, 0.0, 8.0, np.linspace(0.0, 1.0, 5), rate)
    assert calls == []


@pytest.mark.parametrize(
    "rate, message",
    [
        (1e9, "needs 25464790912 quadrature nodes"),
        (1e14, "needs 2546479089470336 quadrature nodes"),
        (np.inf, "oscillation rate inf is not finite"),
        (np.nan, "oscillation rate nan is not finite"),
    ],
)
def test_refusal_names_the_node_count_it_needs(rate, message):
    """Past the cap the refusal names the verifying doubling's true node
    count (not the cap), and a non-finite rate is refused as such; either
    way no level is built and the kernel is never called."""
    calls = []

    def kernel(p):
        calls.append(p.size)
        return np.ones_like(p)

    with pytest.raises(QuadratureError, match=message):
        quad.synthesize_field(kernel, 0.0, 8.0, np.linspace(0.0, 1.0, 5), rate)
    assert calls == []


class _CountingGaussian(GaussianProfile):
    """Gaussian that counts its evaluations: every quadrature kernel in the
    package reads the profile through one of these two methods."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def value(self, xi):
        self.calls += 1
        return super().value(xi)

    def fourier_hat(self, p):
        self.calls += 1
        return super().fourier_hat(p)


_DESK_FINE = LatticeParams(gamma1=0.82, gamma2=1.27, h=0.002)
_EVALUATORS = {
    "solve_quadrature": lambda prof, **kw: solve_quadrature(
        _DESK_FINE, prof, 0.04, np.linspace(-0.5, 0.5, 41), 0.3, **kw
    ),
    "uas_integral": lambda prof, **kw: uas_integral(
        _DESK_FINE, prof, 0.04, np.linspace(-0.5, 0.5, 41), 0.3, **kw
    ),
    "synthesize_field": lambda prof, **kw: quad.synthesize_field(
        prof.fourier_hat, 0.0, 8.0, np.linspace(-2.0, 2.0, 41), 10.0, **kw
    ),
}
_BAD_NUMERICS = [
    ("nodes_per_cycle", -5.0),
    ("nodes_per_cycle", 0.0),
    ("nodes_per_cycle", np.inf),
    ("nodes_per_cycle", np.nan),
    ("rtol", -1e-8),
    ("rtol", np.nan),
    ("rtol", np.inf),
    ("atol", -1.0),
    ("atol", np.inf),
    ("max_doublings", 0),
    ("max_doublings", -3),
    ("max_doublings", 2.5),
]


@pytest.mark.parametrize(
    "name, key, value",
    [(name, key, value) for name in _EVALUATORS for key, value in _BAD_NUMERICS],
)
def test_nonsense_numerics_raise_before_any_kernel_call(name, key, value):
    """A node density that is not finite and positive, a tolerance that is
    negative or not finite, or a doubling budget that is not an integer >= 1
    is refused up front by the library, not only by the CLI: no field comes
    back and the profile is never evaluated."""
    profile = _CountingGaussian()
    with pytest.raises(ConfigError, match=key):
        _EVALUATORS[name](profile, **{key: value})
    assert profile.calls == 0


def test_empty_grid_calls_no_kernel():
    def kernel(p):
        raise AssertionError("kernel called on an empty grid")

    for rule in (quad.synthesize_field, quad.legendre_bessel_field):
        args = (1.0,) if rule is quad.synthesize_field else ()
        out = rule(kernel, 0.0, 8.0, np.array([]), *args)
        assert out.shape == (0,) and out.dtype == complex


# ---------------------------------------------------------------------------
# Legendre-Bessel (Filon) rule for frames far from their front
# ---------------------------------------------------------------------------

#: Dispersion coefficient of the desk lattice at h = 0.002, and a skewed
#: spline table whose transform radius (16) lets the rule apply at
#: moderate offsets.
_FRAME_H = 0.002
_FRAME_Q = Dispersion(LatticeParams(0.82, 1.27, _FRAME_H)).dispersion_coefficient
_SKEW_XI = np.linspace(-9.0, 10.0, 175)
_SKEW = TableProfile(_SKEW_XI, np.exp(-0.5 * (_SKEW_XI - 0.7) ** 2))


def _frame_kernel(profile, sign: float, t: float, mu: float):
    """A travelling frame's kernel ``What(sign p) e^{-i cubic p^3} / sqrt(2 pi)``."""
    cubic = t * _FRAME_Q * _FRAME_H**2 / (3.0 * mu**3)

    def kernel(p):
        return profile.fourier_hat(sign * p) * np.exp(-1j * cubic * p**3) / np.sqrt(2.0 * np.pi)

    return kernel, 3.0 * cubic * profile.hat_radius() ** 2


#: Travelling-frame cases: a Gaussian or skewed table profile, any time and
#: width, far ahead of or behind the front, either branch sign.
_FRAME_CASES = dict(
    table=st.booleans(),
    t=st.floats(0.0, 2.0),
    mu=st.floats(0.03, 0.1),
    log_offset=st.floats(0.0, 1.0),
    width=st.floats(0.0, 20.0),
    m=st.integers(1, 40),
    ahead=st.booleans(),
    sign=st.sampled_from((1.0, -1.0)),
)
_FRAME_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def _frame_case(table, t, mu, log_offset, width, m, ahead, sign):
    """``(kernel, cut, y, spread)``: a frame's kernel on ``[0, cut]``, its grid
    40 to 160 (table) or 5000 (Gaussian) from the front, and its cubic rate."""
    profile = _SKEW if table else GaussianProfile()
    kernel, spread = _frame_kernel(profile, sign, t, mu)
    offset = 40.0 * (4.0 if table else 125.0) ** log_offset
    y = (-1.0 if ahead else 1.0) * (offset + np.linspace(0.0, width, m))
    return kernel, profile.hat_radius(), y, spread


@_FRAME_SETTINGS
@given(**_FRAME_CASES)
def test_legendre_bessel_matches_quadrature_at_the_frame_rate(
    table, t, mu, log_offset, width, m, ahead, sign
):
    """Far from its front the Filon rule gives what the panel quadrature
    gives at that frame's own rate, on either side of the front."""
    kernel, cut, y, spread = _frame_case(table, t, mu, log_offset, width, m, ahead, sign)
    far = quad.legendre_bessel_field(kernel, 0.0, cut, y)
    assert far is not None
    ref = quad.synthesize_field(kernel, 0.0, cut, y, float(np.max(np.abs(y))) + spread)
    assert np.max(np.abs(far - ref)) <= 1e-13


def _assert_matches_ladder(kernel, a: float, b: float, y: np.ndarray) -> None:
    """The one-recurrence rule against the sequential per-order ladder: None
    exactly where the ladder gives None, else convergence at the same order
    (the rule cut to that order converges, cut below it does not) and values
    within ``8 eps r sum|c_n| max|j_n|`` of the ladder's, ``c_n = 2 i^n a_n``
    the coefficients of the ``j_n`` the two sum in different orders."""
    want, k, coef = legendre_bessel_ladder(kernel, a, b, y)
    got = quad.legendre_bessel_field(kernel, a, b, y)
    if want is None:
        assert got is None
        return
    assert got is not None
    orders = quad._LB_ORDERS[: quad._LB_ORDERS.index(k) + 1]
    with mock.patch.object(quad, "_LB_ORDERS", orders):
        assert quad.legendre_bessel_field(kernel, a, b, y) is not None
    with mock.patch.object(quad, "_LB_ORDERS", orders[:-1]):
        assert quad.legendre_bessel_field(kernel, a, b, y) is None
    half = 0.5 * (b - a)
    j_max = max(float(np.max(np.abs(spherical_jn(n, half * y)))) for n in range(k))
    bound = 8.0 * np.finfo(float).eps * half * np.sum(np.abs(coef)) * j_max
    assert np.max(np.abs(got - want)) <= bound


@_FRAME_SETTINGS
@given(**_FRAME_CASES)
def test_legendre_bessel_matches_the_sequential_ladder_on_frames(
    table, t, mu, log_offset, width, m, ahead, sign
):
    kernel, cut, y, _ = _frame_case(table, t, mu, log_offset, width, m, ahead, sign)
    _assert_matches_ladder(kernel, 0.0, cut, y)


#: ``(kernel, y, order)``: the ladder's order of convergence, or None.
_LADDER_CASES = [
    # smooth, all four orders admitted
    (lambda p: np.exp(-0.5 * p * p + 0.01j * p**3), np.linspace(1e4, 1.001e4, 9), 64),
    (lambda p: np.exp(300j * p), np.linspace(1e4, 1.001e4, 9), None),  # unresolved
    (lambda p: np.exp(-0.5 * p * p), np.array([30.0, 1e4]), None),  # one order admitted
]


@pytest.mark.parametrize(
    "kernel, y, order", _LADDER_CASES, ids=["converges-at-64", "unresolved", "one-order"]
)
def test_legendre_bessel_matches_the_sequential_ladder(kernel, y, order):
    assert legendre_bessel_ladder(kernel, 0.0, 8.0, y)[1] == order
    _assert_matches_ladder(kernel, 0.0, 8.0, y)


def test_legendre_bessel_refuses_where_its_guard_fails():
    """Order k needs min |(b - a) x / 2| > 2 k: below 64 the kernel is never
    called, and between 64 and 128 the 32-point result has nothing to be
    checked against, so it is not returned."""
    calls = []

    def kernel(p):
        calls.append(p.size)
        return np.exp(-0.5 * p * p)

    for y in (np.linspace(-50.0, 50.0, 11), np.array([16.0, 1e4])):  # min omega 0, 64
        assert quad.legendre_bessel_field(kernel, 0.0, 8.0, y) is None
    assert calls == []
    assert quad.legendre_bessel_field(kernel, 0.0, 8.0, np.array([30.0, 1e4])) is None
    assert calls == [32]
    assert quad.legendre_bessel_field(kernel, 0.0, 8.0, np.array([np.nan, 1e4])) is None


def test_legendre_bessel_refuses_an_unresolved_kernel():
    """A kernel that degree 255 cannot resolve gives None, not a value,
    even where the guard holds for every order."""
    calls = []

    def kernel(p):
        calls.append(p.size)
        return np.exp(300j * p)

    y = np.linspace(1e4, 1.001e4, 9)
    assert quad.legendre_bessel_field(kernel, 0.0, 8.0, y) is None
    assert calls == [32, 64, 128, 256]
    resolved = quad.legendre_bessel_field(lambda p: np.exp(3j * p), 0.0, 8.0, y)
    exact = (np.exp(8j * (3.0 + y)) - 1.0) / (1j * (3.0 + y))
    assert np.max(np.abs(resolved - exact)) <= 1e-14  # exact's phase 8 y rounds


@pytest.mark.parametrize(
    "kernel",
    [lambda p: np.exp(-0.5 * p * p), lambda p: np.exp(300j * p)],
    ids=["converges-at-64", "all-four-orders"],
)
def test_legendre_bessel_memory_stays_bounded(kernel):
    """On 2^16 points the far rule peaks within twice the 6.1 MB of the
    sequential per-order ladder: its partial sums and recurrence state span
    the grid, but the Bessel rows come in 4096-point chunks; a grid-wide
    ``(34, m)`` block of rows (17.8 MB) alone would pass the bound."""
    y = np.linspace(1e4, 2e4, 1 << 16)
    assert _traced_peak_mb(lambda: quad.legendre_bessel_field(kernel, 0.0, 8.0, y)) <= 12.2


@pytest.mark.parametrize("k", quad._LB_ORDERS)
def test_gauss_legendre_rule_matches_leggauss(k):
    """The Newton-built rule has ``leggauss``'s nodes to 4 ulps, in the same
    ascending, symmetric order, and integrates ``P_n``, ``n < 2 k``, to
    ``16 eps``: 2 for ``n = 0``, else 0 (``leggauss``'s own weights miss
    that by up to 1.3e-14 at these orders)."""
    s, w = quad._gauss_legendre(k)
    nodes, _ = np.polynomial.legendre.leggauss(k)
    assert np.all(np.abs(s - nodes) <= 4 * np.spacing(np.abs(nodes)))
    assert np.all(np.diff(s) > 0) and np.array_equal(s, -s[::-1])
    moments = w @ np.polynomial.legendre.legvander(s, 2 * k - 1)
    assert abs(moments[0] - 2.0) <= 16 * np.finfo(float).eps
    assert np.max(np.abs(moments[1:])) <= 16 * np.finfo(float).eps


def test_legendre_bessel_needs_no_eigensolver(monkeypatch):
    """With the eigensolver behind ``leggauss`` refusing every call and the
    rules' cache emptied, every Legendre-Bessel check above still passes."""

    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolver was called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    quad._legendre_projection.cache_clear()
    try:
        test_legendre_bessel_matches_quadrature_at_the_frame_rate()
        test_legendre_bessel_matches_the_sequential_ladder_on_frames()
        for case in _LADDER_CASES:
            test_legendre_bessel_matches_the_sequential_ladder(*case)
        test_legendre_bessel_refuses_where_its_guard_fails()
        test_legendre_bessel_refuses_an_unresolved_kernel()
        assert quad._legendre_projection.cache_info().currsize == len(quad._LB_ORDERS)
    finally:
        quad._legendre_projection.cache_clear()


# ---------------------------------------------------------------------------
# Grouped (3-D) kernels: several fields on one panel ladder
# ---------------------------------------------------------------------------


def _grouped_kernel(groups: list[str], calls: list[int]):
    """A ``(n, len(groups), 1)`` kernel: ``"big"`` a Gaussian of peak 1 that
    the first level resolves, ``"small"`` a Lorentzian of peak 1e-6 and
    width 0.1 that the first levels do not."""
    values = {
        "big": lambda p: np.exp(-0.5 * p * p),
        "small": lambda p: 1e-6 * 0.01 / (0.01 + p * p),
    }

    def kernel(p):
        calls.append(p.size)
        return np.stack([values[g](p) for g in groups], axis=1)[:, :, None]

    return kernel


def test_each_group_converges_against_its_own_scale():
    """A small group that is not yet resolved holds the ladder back on its own
    scale: the pair takes the levels of its slowest group, and each group's
    values are those of its own call.  One check over both groups would stop
    at the big group's level, since the small group's change is far below
    ``rtol`` times the big group's peak (``atol = 0`` makes both targets
    relative)."""
    x = np.linspace(-3.0, 3.0, 61)
    alone = {}
    for group in ("big", "small"):
        calls = []
        kernel = _grouped_kernel([group], calls)
        alone[group] = quad.synthesize_field(kernel, -8.0, 8.0, x, 3.0, atol=0.0)[:, 0], calls
    assert len(alone["small"][1]) > len(alone["big"][1])  # the case tests something
    calls = []
    kernel = _grouped_kernel(["big", "small"], calls)
    both = quad.synthesize_field(kernel, -8.0, 8.0, x, 3.0, atol=0.0)
    assert both.shape == (x.size, 2, 1)
    assert calls == alone["small"][1]
    np.testing.assert_array_equal(both[:, 1], alone["small"][0])
    big_scale = float(np.max(np.abs(alone["big"][0])))
    assert np.max(np.abs(both[:, 0] - alone["big"][0])) <= 1e-8 * big_scale


def test_grouped_kernel_stall_names_the_unconverged_group():
    """When no level settles a group, the refusal reports that group's change
    and scale, not the largest group's."""
    kernel = _grouped_kernel(["big", "small"], [])
    with pytest.raises(QuadratureError, match=r"\* 3\.\d+e-07$"):
        quad.synthesize_field(
            kernel, -8.0, 8.0, np.linspace(-3.0, 3.0, 61), 3.0, atol=0.0, max_doublings=1
        )


@pytest.mark.parametrize("times", [(0.3,), (0.1, 0.3, 0.5)])
def test_times_share_one_kernel_call_and_inverse_transform_per_level(times, monkeypatch):
    """``solve_quadrature`` over ``T`` times evaluates the band data once per
    panel level, and each level is one contraction, whose one inverse FFT
    runs on the ``2 T`` columns of the ``T`` fields."""
    from diatomic_waves import oracles

    levels, spectral, rows = [], [], []
    panel_nodes, spectral_vector, ifft = quad.panel_nodes, oracles.spectral_vector, np.fft.ifft

    def level(*args):
        levels.append(args)
        return panel_nodes(*args)

    def band_data(*args):
        spectral.append(np.size(args[2]))
        return spectral_vector(*args)

    def inverse(a, *args, **kwargs):
        rows.append(a.shape[0])
        return ifft(a, *args, **kwargs)

    monkeypatch.setattr(quad, "panel_nodes", level)
    monkeypatch.setattr(oracles, "spectral_vector", band_data)
    monkeypatch.setattr(np.fft, "ifft", inverse)
    params = LatticeParams(0.82, 1.27, 0.01)
    fields = solve_quadrature(params, GaussianProfile(), 0.01, np.linspace(-0.7, 0.7, 201), times)
    assert [f.t for f in fields] == list(times)
    assert len(levels) >= 2
    assert spectral == [quad._ORDER * n_panels for _, _, n_panels in levels]
    assert rows == [2 * len(times)] * len(levels)
