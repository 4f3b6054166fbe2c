"""Initial displacement profiles and their lattice/continuum transforms.

The initial condition is a localized displacement ``W`` applied to both
sublattices at rest (zero initial velocity), sampled at lattice sites
``xi_n = n * delta`` in units of the profile width.  This module owns:

* profile objects (analytic Gaussian, or tabulated with natural cubic
  spline interpolation), exposing values and continuum Fourier data;
* the semi-discrete Fourier transforms of the even-site and odd-site
  samples over the reduced band ``B = [-pi/(2 delta), pi/(2 delta)]``;
* reconstruction of the profile from its band data (an exact
  interpolation identity at lattice sites);
* the spectral "gap" diagnostics quantifying how fast the discrete sums
  approach the continuum transform as ``delta -> 0``.

Conventions.  The continuum transform is unitary-angular:
``what(p) = (1/sqrt(2 pi)) * int W(xi) exp(-i p xi) dxi`` so the standard
Gaussian ``exp(-xi^2/2)`` is self-dual.  The semi-discrete sums are plain
site sums ``sum_n W(xi_n) exp(-i p xi_n)`` over one sublattice; by the
Poisson summation formula they approach ``(1/delta) sqrt(pi/2) what(p)``
inside the band, up to aliases that vanish faster than any power of
``delta`` for smooth rapidly-decaying profiles.
"""

from __future__ import annotations

import abc
import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline

from ._quadrature import (
    _chirp_z,
    _exp_sum,
    _panel_columns,
    oscillation_panels,
    panel_nodes,
    synthesize_field,
)
from .errors import ChainSizeError, ConfigError, QuadratureError

__all__ = [
    "InitialProfile",
    "GaussianProfile",
    "TableProfile",
    "load_profile_table",
    "semi_discrete_ft",
    "spectral_vector",
    "kws_interpolate",
    "GapReport",
    "poisson_gap",
]

_HALF_SQRT_2PI = np.sqrt(np.pi / 2.0)

#: Most lattice sites a sublattice sum or the time-domain chain may span;
#: each chain site costs 24 bytes per snapshot, so one stays near 100 MB.
_MAX_SITES = 2**22

# Node-site terms (p.size x summed sites) from which semi_discrete_ft sums
# panel-strided p by chirp-z: ~1-2 ms nearly whatever the size, against
# ~p.size x sites for the blocked sum.  Measured break-even (Gaussian, 2-vCPU
# x86): ~4e4-1e5 terms at delta = 0.005-0.1, above 2e5 at delta = 1 (6-7 sites).
_CHIRP_MIN_TERMS = 2**16


class InitialProfile(abc.ABC):
    """A localized initial displacement ``W(xi)`` in profile-width units."""

    #: values below this threshold are treated as zero when truncating
    cutoff: float

    @property
    @abc.abstractmethod
    def is_even(self) -> bool:
        """True if ``W(-xi) = W(xi)`` (enables folded quadrature paths)."""

    @abc.abstractmethod
    def value(self, xi) -> np.ndarray:
        """Profile values, vectorized over ``xi``."""

    @abc.abstractmethod
    def fourier_hat(self, p) -> np.ndarray:
        """Continuum transform ``(1/sqrt(2 pi)) int W e^{-i p xi} d xi``."""

    @abc.abstractmethod
    def support_radius(self) -> float:
        """Radius beyond which ``|W| < cutoff``."""

    @abc.abstractmethod
    def hat_radius(self) -> float:
        """Radius beyond which ``|fourier_hat| < cutoff``."""


class GaussianProfile(InitialProfile):
    """Standard Gaussian bump ``W(xi) = exp(-xi^2 / 2)`` (self-dual)."""

    def __init__(self, cutoff: float = 1e-14):
        if not 0.0 < cutoff < 1e-2:
            raise ConfigError(f"cutoff must lie in (0, 1e-2), got {cutoff!r}")
        self.cutoff = cutoff
        self._radius = float(np.sqrt(-2.0 * np.log(cutoff)))

    @property
    def is_even(self) -> bool:
        return True

    def value(self, xi):
        xi = np.asarray(xi, dtype=float)
        return np.exp(-0.5 * xi * xi)

    def fourier_hat(self, p):
        p = np.asarray(p, dtype=float)
        return np.exp(-0.5 * p * p)

    def support_radius(self) -> float:
        return self._radius

    def hat_radius(self) -> float:
        return self._radius


class TableProfile(InitialProfile):
    """Profile given by samples, interpolated with a natural cubic spline.

    Outside the tabulated interval the profile is identically zero, so
    tables should decay to (near) zero at both ends.
    """

    def __init__(self, xi: np.ndarray, values: np.ndarray, cutoff: float = 1e-14):
        xi = np.asarray(xi, dtype=float)
        values = np.asarray(values, dtype=float)
        if xi.ndim != 1 or xi.size < 4:
            raise ConfigError("profile table needs at least 4 points")
        if xi.shape != values.shape:
            raise ConfigError("profile table columns have mismatched lengths")
        if not np.all(np.isfinite(xi)) or not np.all(np.isfinite(values)):
            raise ConfigError("profile table contains non-finite entries")
        if np.any(np.diff(xi) <= 0.0):
            raise ConfigError("profile table abscissae must be strictly increasing")
        if not 0.0 < cutoff < 1e-2:
            raise ConfigError(f"cutoff must lie in (0, 1e-2), got {cutoff!r}")
        self.cutoff = cutoff
        self._xi = xi
        self._values = values
        self._spline = CubicSpline(xi, values, bc_type="natural")
        self._radius = float(max(abs(xi[0]), abs(xi[-1])))
        # evenness: symmetric grid and mirrored values within tolerance
        scale = float(np.max(np.abs(values))) or 1.0
        self._even = bool(
            np.allclose(xi, -xi[::-1], rtol=0.0, atol=1e-12 * self._radius)
            and np.allclose(values, values[::-1], rtol=0.0, atol=1e-12 * scale)
        )

    @property
    def is_even(self) -> bool:
        return self._even

    def value(self, xi):
        xi = np.asarray(xi, dtype=float)
        out = np.zeros_like(xi, dtype=float)
        inside = (xi >= self._xi[0]) & (xi <= self._xi[-1])
        if np.any(inside):
            out[inside] = self._spline(xi[inside])
        return out

    def fourier_hat(self, p):
        scalar = np.isscalar(p) or np.ndim(p) == 0
        p_arr = np.atleast_1d(np.asarray(p, dtype=float))
        rate = float(np.max(np.abs(p_arr))) if p_arr.size else 1.0
        base = max(1, oscillation_panels(rate, self._xi[0], self._xi[-1], min_panels=1))
        per_knot = max(1, int(np.ceil(base / max(1, self._xi.size - 1))))
        out = self._hat_fixed(p_arr, per_knot)
        check = self._hat_fixed(p_arr, 2 * per_knot)
        err = float(np.max(np.abs(out - check)))
        scale = float(np.max(np.abs(check))) or 1.0
        if err > 1e-13 + 1e-10 * scale:
            raise QuadratureError(
                f"table-profile transform not converged: change {err:.2e}"
            )
        return check[0] if scalar else check

    def _hat_fixed(self, p: np.ndarray, panels_per_interval: int) -> np.ndarray:
        nodes_list = []
        weights_list = []
        for lo, hi in zip(self._xi[:-1], self._xi[1:]):
            n, w = panel_nodes(lo, hi, panels_per_interval)
            nodes_list.append(n)
            weights_list.append(w)
        nodes = np.concatenate(nodes_list)
        weights = np.concatenate(weights_list)
        wv = weights * self._spline(nodes)
        out = np.empty(p.shape, dtype=complex)
        for start in range(0, p.size, 4096):
            blk = p[start : start + 4096]
            out[start : start + 4096] = (
                np.exp(-1j * blk[:, None] * nodes[None, :]) @ wv
            )
        return out / np.sqrt(2.0 * np.pi)

    def support_radius(self) -> float:
        return self._radius

    def hat_radius(self) -> float:
        # scan outward until the transform magnitude stays below cutoff
        scale = float(np.max(np.abs(self._values))) or 1.0
        p_hi = 4.0
        while p_hi < 4096.0:
            probe = np.linspace(0.75 * p_hi, p_hi, 16)
            if np.max(np.abs(self.fourier_hat(probe))) < self.cutoff * scale:
                return float(p_hi)
            p_hi *= 2.0
        return float(p_hi)


def load_profile_table(path: str | Path, cutoff: float = 1e-14) -> TableProfile:
    """Read a two-column CSV ``xi,w`` (with optional header) into a profile."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read profile table {path}: {exc}") from None
    xi, values = [], []
    for row in rows:
        if not row or row[0].lstrip().startswith("#"):
            continue
        try:
            a, b = float(row[0]), float(row[1])
        except (ValueError, IndexError):
            # tolerate a single header line
            if not xi:
                continue
            raise ConfigError(f"malformed profile table row: {row!r}") from None
        xi.append(a)
        values.append(b)
    if len(xi) < 4:
        raise ConfigError(f"profile table {path} has fewer than 4 usable rows")
    return TableProfile(np.asarray(xi), np.asarray(values), cutoff=cutoff)


def _sublattice_sites(profile: InitialProfile, delta: float, component: int) -> np.ndarray:
    r = profile.support_radius() + 2.0 * delta
    half = np.ceil(r / (2.0 * delta))
    if not 2.0 * half + 2.0 <= _MAX_SITES:  # a nan fails too
        raise ChainSizeError(
            f"the profile spans about {2.0 * half:.3g} sites of a sublattice "
            f"(limit {_MAX_SITES}); decrease mu"
        )
    k_max = int(half)
    if component == 1:  # even sites 2k
        return 2.0 * delta * np.arange(-k_max, k_max + 1)
    if component == 2:  # odd sites 2k+1, symmetric about 0
        return delta * (2.0 * np.arange(-k_max - 1, k_max + 1) + 1.0)
    raise ConfigError(f"component must be 1 (even sites) or 2 (odd sites), got {component!r}")


def semi_discrete_ft(profile: InitialProfile, delta: float, p, component: int) -> np.ndarray:
    """Sublattice sum ``sum_n W(xi_n) exp(-i p xi_n)`` (n even or odd).

    Vectorized over ``p`` of any shape; always returns a complex array of
    shape ``p.shape`` (exactly real for even profiles, where the folded
    cosine form is used).  ``p`` is summed in flattened order; the sites
    are uniform, so panel-strided ``p`` (quadrature nodes) is summed by
    chirp-z transforms once ``p.size`` times the number of summed sites
    reaches ``_CHIRP_MIN_TERMS``, any other ``p`` by a blocked direct sum.
    """
    p_arr = np.asarray(p, dtype=float).ravel()
    xi = _sublattice_sites(profile, delta, component)
    vals = profile.value(xi)
    if profile.is_even:
        w0 = float(vals[np.abs(xi) < 0.5 * delta].sum())  # site at xi = 0, if present
        pos = xi > 0.0
        xi, vals = xi[pos], 2.0 * vals[pos]
    columns = _panel_columns(p_arr) if p_arr.size * xi.size >= _CHIRP_MIN_TERMS else None
    if columns is not None:
        # Roles swapped: the sites are the summed grid and each local-node
        # column of p an output grid; exp(-i p xi) = exp(i (-xi) p).
        p0, dp = columns
        p_cols = p_arr.reshape(-1, p0.size)
        m = p_cols.shape[0]
        steps = np.arange(m) * dp
        transform = _chirp_z(xi.size, m, -2.0 * delta * dp)
        out = np.empty((m, p0.size), dtype=complex)
        for c, start in enumerate(p0):
            resid = (p_cols[:, c] - start) - steps
            sums = _exp_sum(transform, vals[:, None], -xi, -xi[0], start, steps, resid)
            out[:, c] = sums[:, 0]
        out = out.ravel()
        if profile.is_even:
            out = (out.real + w0).astype(complex)
    else:
        out = np.empty(p_arr.shape, dtype=complex)
        for start in range(0, p_arr.size, 8192):
            blk = p_arr[start : start + 8192]
            if profile.is_even:
                out[start : start + 8192] = np.cos(blk[:, None] * xi[None, :]) @ vals + w0
            else:
                out[start : start + 8192] = np.exp(-1j * blk[:, None] * xi[None, :]) @ vals
    if np.isscalar(p) or np.ndim(p) == 0:
        return out[0]
    return out.reshape(np.shape(p))


def spectral_vector(profile: InitialProfile, delta: float, p) -> np.ndarray:
    """Stacked band data ``(even-site sum, odd-site sum)``, shape ``p.shape + (2,)``."""
    p_arr = np.atleast_1d(np.asarray(p, dtype=float))
    out = np.empty(p_arr.shape + (2,), dtype=complex)
    out[..., 0] = semi_discrete_ft(profile, delta, p_arr, 1)
    out[..., 1] = semi_discrete_ft(profile, delta, p_arr, 2)
    return out


def kws_interpolate(
    profile: InitialProfile,
    delta: float,
    xi,
    component: int = 1,
    *,
    rtol: float = 1e-8,
) -> np.ndarray:
    """Reconstruct the profile from its band data (sampling-theorem form).

    ``W_rec(xi) = (delta/pi) Re int_B Wtilde_c(p) exp(i p xi) dp`` over the
    reduced band ``B = [-pi/(2 delta), pi/(2 delta)]``.  At sublattice
    sites this reproduces the samples exactly; in between it is the
    band-limited interpolant, converging to ``W`` as ``delta -> 0``.
    """
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    edge = np.pi / (2.0 * delta)
    rate = float(np.max(np.abs(xi_arr))) + profile.support_radius() + 2.0 * delta

    def kern(p: np.ndarray) -> np.ndarray:
        return semi_discrete_ft(profile, delta, p, component)

    a = 0.0 if profile.is_even else -edge  # an even profile folds onto [0, edge]
    field = synthesize_field(kern, a, edge, xi_arr, rate, rtol=rtol, even_fold=profile.is_even)
    out = (delta / np.pi) * field.real
    if np.isscalar(xi) or np.ndim(xi) == 0:
        return float(out[0])
    return out


@dataclass(frozen=True)
class GapReport:
    """Sup-norm distances between band data and the continuum transform.

    ``gap_even``/``gap_odd``: distance of each sublattice sum from
    ``(1/delta) sqrt(pi/2) what(p)`` over the reduced band.
    ``gap_between``: distance between the two sublattice sums.
    All three vanish faster than any power of ``delta`` for smooth
    rapidly-decaying profiles.
    """

    delta: float
    gap_even: float
    gap_odd: float
    gap_between: float


def poisson_gap(profile: InitialProfile, delta: float, n_grid: int = 1001) -> GapReport:
    """Measure the spectral gaps on a uniform grid over the reduced band."""
    edge = np.pi / (2.0 * delta)
    p = np.linspace(-edge, edge, n_grid)
    s_even = semi_discrete_ft(profile, delta, p, 1)
    s_odd = semi_discrete_ft(profile, delta, p, 2)
    continuum = (_HALF_SQRT_2PI / delta) * profile.fourier_hat(p)
    return GapReport(
        delta=delta,
        gap_even=float(np.max(np.abs(s_even - continuum))),
        gap_odd=float(np.max(np.abs(s_odd - continuum))),
        gap_between=float(np.max(np.abs(s_even - s_odd))),
    )
