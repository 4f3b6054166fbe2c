"""Initial displacement profiles and their lattice/continuum transforms.

The initial condition is a localized displacement ``W`` applied to both
sublattices at rest (zero initial velocity), sampled at lattice sites
``xi_n = n * delta`` in units of the profile width.  This module owns:

* profile objects (analytic Gaussian, or tabulated with natural cubic
  spline interpolation), exposing values and continuum Fourier data;
* the semi-discrete Fourier transforms of the even-site and odd-site
  samples over the reduced band ``B = [-pi/(2 delta), pi/(2 delta)]``, and
  the band data the quadrature integrates.

Conventions.  The continuum transform is unitary-angular:
``what(p) = (1/sqrt(2 pi)) * int W(xi) exp(-i p xi) dxi`` so the standard
Gaussian ``exp(-xi^2/2)`` is self-dual.  The semi-discrete sums are plain
site sums ``sum_n W(xi_n) exp(-i p xi_n)`` over one sublattice.  By the
Poisson summation formula each equals ``(sqrt(2 pi) / (2 delta)) sum_k
(+-1)^k what(p + k pi / delta)`` (sign ``(-1)^k`` on the odd sites), so inside
the band it approaches ``(1/delta) sqrt(pi/2) what(p)`` up to aliases that
vanish faster than any power of ``delta`` for smooth rapidly-decaying
profiles.  :func:`semi_discrete_ft` is always the site sum; the band data
of :func:`spectral_vector` take the Gaussian's sums from the few images
instead wherever they are fewer than the sites.
"""

from __future__ import annotations

import abc
import csv
import math
from pathlib import Path

import numpy as np

# synthesize_field is no longer called here; the binding stays because
# perfbench/test_perfbench.py checks that its tracer patches it in this module.
from ._quadrature import _abs_max, _site_sums
from ._quadrature import synthesize_field  # noqa: F401
from .errors import ChainSizeError, ConfigError

__all__ = [
    "InitialProfile",
    "GaussianProfile",
    "TableProfile",
    "load_profile_table",
    "semi_discrete_ft",
    "spectral_vector",
]

_SQRT_2PI = np.sqrt(2.0 * np.pi)

#: Most lattice sites a sublattice sum or the time-domain ring may span.
#: One time of ``integrate_lattice`` on the ``longwave_front`` zoom (NaCl,
#: ``n_atoms = 80``, t = 0.5008: a ring of 3,556,224 sites) peaks at 299 MB
#: under ``tracemalloc``, about 84 bytes per site.
_MAX_SITES = 2**22

# Node-site terms (p.size x summed sites) from which semi_discrete_ft sums
# panel-strided p by chirp-z: ~1-2 ms nearly whatever the size, against
# ~p.size x sites for the blocked sum.  Measured break-even (Gaussian, 2-vCPU
# x86): ~4e4-1e5 terms at delta = 0.005-0.1, above 2e5 at delta = 1 (6-7 sites).
_CHIRP_MIN_TERMS = 2**16

# theta^k coefficients (row k, odd rows without their -i) of m_j (column j), see fourier_hat
_K = np.arange(22)[:, None]
_FACTORIAL = np.array([float(math.factorial(k)) for k in range(22)])[:, None]
_MOMENT_SERIES = (-1.0) ** (_K // 2) / (_FACTORIAL * (_K + np.arange(4) + 1.0))

class InitialProfile(abc.ABC):
    """A localized initial displacement ``W(xi)`` in profile-width units."""

    #: values below this threshold (one for every profile) are treated as zero when truncating
    cutoff = 1e-14

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
        """Radius where ``|fourier_hat|`` is truncated (see :meth:`TableProfile.hat_radius`)."""

    @abc.abstractmethod
    def hat_l1_radius(self, tail: float) -> float:
        """A radius ``r`` with ``int_{|p| >= r} |fourier_hat(p)| dp <= tail`` (the
        smallest, up to rounding), or ``inf`` where no bound is known."""


class GaussianProfile(InitialProfile):
    """Standard Gaussian bump ``W(xi) = exp(-xi^2 / 2)`` (self-dual)."""

    _radius = float(np.sqrt(-2.0 * np.log(InitialProfile.cutoff)))  # W(_radius) = cutoff

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

    def hat_l1_radius(self, tail: float) -> float:
        """The root ``r`` of ``int_{|p| >= r} e^{-p^2/2} dp = sqrt(2 pi) erfc(r / sqrt(2)) = tail``,
        raised by 16 ulps to cover its rounding; 0 once ``tail`` reaches the whole mass
        ``sqrt(2 pi)``, ``inf`` once ``a = tail / sqrt(2 pi)`` is subnormal.

        Newton's method on ``log erfc(x) = log a``, ``x = r / sqrt(2)``, from ``sqrt(-log a)``,
        above the root as ``erfc(x) <= e^{-x^2}``: ``log erfc`` is concave, so every step stays
        above it until rounding stops them.  Below ``x = 1/2`` it is taken as ``log1p(-erf x)``,
        which keeps its relative accuracy as ``x -> 0``.
        """
        if not tail > 0.0:  # also nan
            return np.inf
        if tail >= _SQRT_2PI:
            return 0.0
        share = tail / _SQRT_2PI
        if share < np.finfo(float).tiny:  # erfc(x) and e^{-x^2} would lose their digits
            return np.inf
        target, x = math.log(share), math.sqrt(-math.log(share))
        for _ in range(64):
            value = math.erfc(x)
            log_value = math.log1p(-math.erf(x)) if x < 0.5 else math.log(value)
            # d/dx log erfc(x) = -2 e^{-x^2} / (sqrt(pi) erfc(x))
            step = (log_value - target) * value * math.sqrt(math.pi) / (2.0 * math.exp(-x * x))
            if not step < 0.0:
                break
            x += step
        return float(math.sqrt(2.0) * x * (1.0 + 16.0 * np.finfo(float).eps))


class TableProfile(InitialProfile):
    """Profile given by samples, interpolated with a natural cubic spline.

    Outside the tabulated interval the profile is identically zero, so
    tables should decay to (near) zero at both ends: end values ``W_0``,
    ``W_n`` leave a transform tail up to ``(|W_0| + |W_n|) / (sqrt(2 pi) |p|)``,
    above the cutoff out to ``p ~ (|W_0| + |W_n|) / (sqrt(2 pi) cutoff max|W|)``
    (~1800 for a unit Gaussian on [-6, 8] centred at 1, ends 2.3e-11).
    """

    def __init__(self, xi: np.ndarray, values: np.ndarray):
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
        self._xi = xi
        self._values = values
        # imported here: only tables need the spline module, a heavy import
        from scipy.interpolate import CubicSpline

        self._spline = CubicSpline(xi, values, bc_type="natural")
        self._gaps = np.diff(xi)
        # spline.c[3 - j] is w_j; per interval, w_j d^(j+1) and the series of their sum
        self._weights = self._spline.c[::-1] * self._gaps ** np.arange(1, 5)[:, None]
        self._series = _MOMENT_SERIES @ self._weights
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
        """Exact transform of the spline: on ``[xi_i, xi_i + d]`` its cubic ``sum_j w_j s^j``
        gives ``e^{-i p xi_i} sum_j w_j d^{j+1} m_j(p d)``, ``m_j(theta) = int_0^1 u^j
        e^{-i theta u} du``, by its series below ``|theta| = 1`` and above by the recurrence
        ``m_j = (j m_{j-1} - e^{-i theta}) / (i theta)`` (``j m_{j-1}`` is 1 at j = 0)."""
        p_arr = np.atleast_1d(np.asarray(p, dtype=float))
        out = np.empty(p_arr.shape, dtype=complex)
        rows = max(1, 2**16 // self._gaps.size)  # blocks of about 1 MB per array
        for start in range(0, p_arr.size, rows):
            blk = p_arr[start : start + rows, None]
            theta = blk * self._gaps
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                inv, e = -1j / theta, np.exp(-1j * theta)  # 1/(i theta); 0 takes the series
                m, cubic = 1.0, 0.0
                for j in range(4):
                    m = (max(j, 1) * m - e) * inv
                    cubic = cubic + self._weights[j] * m
                small = np.any(np.abs(theta) < 1.0, axis=1)  # the rows that need the series
                th = theta[small]
                th2, (even, odd) = th * th, self._series[-2:]
                for k in range(self._series.shape[0] - 4, -1, -2):
                    even, odd = even * th2 + self._series[k], odd * th2 + self._series[k + 1]
                cubic[small] = np.where(np.abs(th) < 1.0, even - 1j * th * odd, cubic[small])
            out[start : start + rows] = (np.exp(-1j * (blk * self._xi[:-1])) * cubic).sum(axis=1)
        out /= np.sqrt(2.0 * np.pi)
        return out[0] if np.ndim(p) == 0 else out

    def support_radius(self) -> float:
        return self._radius

    def hat_radius(self) -> float:
        """First ``p`` of 4, 8, ..., 2048 whose 16-point window ``[0.75 p, p]`` is below
        ``cutoff * max|W|``, else 4096; no bound: the spline's alias peaks near ``2 pi k / step``
        fall as ``k^-4`` (Gaussian on 361 knots over [-9, 9]: 16, ``|What(123.65)| = 9.3e-9``)."""
        scale = float(np.max(np.abs(self._values))) or 1.0
        p_hi = 4.0
        while p_hi < 4096.0:
            probe = np.linspace(0.75 * p_hi, p_hi, 16)
            if np.max(np.abs(self.fourier_hat(probe))) < self.cutoff * scale:
                return float(p_hi)
            p_hi *= 2.0
        return float(p_hi)

    def hat_l1_radius(self, tail: float) -> float:
        """``inf``: no bound on the transform's tail is known for a spline table."""
        return np.inf


def load_profile_table(path: str | Path) -> TableProfile:
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
    return TableProfile(np.asarray(xi), np.asarray(values))


def _half_span(profile: InitialProfile, delta: float) -> float:
    """Sites on each side of 0 that a sublattice sum spans; ChainSizeError past ``_MAX_SITES``."""
    half = np.ceil((profile.support_radius() + 2.0 * delta) / (2.0 * delta))
    if not 2.0 * half + 2.0 <= _MAX_SITES:  # a nan fails too
        raise ChainSizeError(
            f"the profile spans about {2.0 * half:.3g} sites of a sublattice "
            f"(limit {_MAX_SITES}); decrease mu"
        )
    return float(half)


def _sublattice_sites(profile: InitialProfile, delta: float, component: int) -> np.ndarray:
    k_max = int(_half_span(profile, delta))
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
    are uniform, so once ``p.size`` times the number of summed sites reaches
    ``_CHIRP_MIN_TERMS``, panel-strided ``p`` (quadrature nodes) is summed by
    ``_quadrature._site_sums``, one chirp-z transform per local-node column,
    and any other ``p`` by a blocked direct sum.  That sum reduces each row on
    its own (``einsum``, not a BLAS product, whose blocking depends on the
    row count), so each of its values is the one a call at that ``p`` alone
    gives, to the bit.
    """
    p_arr = np.asarray(p, dtype=float).ravel()
    xi = _sublattice_sites(profile, delta, component)
    vals = profile.value(xi)
    if profile.is_even:
        w0 = float(vals[np.abs(xi) < 0.5 * delta].sum())  # site at xi = 0, if present
        pos = xi > 0.0
        xi, vals = xi[pos], 2.0 * vals[pos]
    out = None
    if p_arr.size * xi.size >= _CHIRP_MIN_TERMS:  # exp(-i p xi) = exp(i (-xi) p)
        out = _site_sums(vals, -xi, -2.0 * delta, p_arr)
    if out is not None:
        if profile.is_even:
            out = (out.real + w0).astype(complex)
    else:
        out = np.empty(p_arr.shape, dtype=complex)
        for start in range(0, p_arr.size, 8192):
            blk = p_arr[start : start + 8192]
            if profile.is_even:
                terms = np.cos(blk[:, None] * xi[None, :])
                out[start : start + 8192] = np.einsum("ij,j->i", terms, vals) + w0
            else:
                terms = np.exp(-1j * blk[:, None] * xi[None, :])
                out[start : start + 8192] = np.einsum("ij,j->i", terms, vals)
    if np.isscalar(p) or np.ndim(p) == 0:
        return out[0]
    return out.reshape(np.shape(p))


def _image_order(profile: InitialProfile, delta: float, p: np.ndarray) -> int | None:
    """Images ``K`` of the Poisson dual of the sublattice sums at ``p``, or None for the site sum.

    ``K = ceil((max|p| + hat_radius) / (pi / delta))``: the images ``|k| > K`` lie beyond
    ``hat_radius``, as the sites the site sum drops lie beyond ``support_radius``.  Tables keep
    the site sum (their ``hat_radius`` is a scan that bounds nothing, and ``fourier_hat`` costs
    far more than a site term), and so does any ``p`` whose ``2 K + 1`` images are no fewer than
    the Gaussian's folded sites.  A Gaussian past the site sum's size limit is refused here.
    """
    if not isinstance(profile, GaussianProfile):
        return None
    half = _half_span(profile, delta)
    k_max = np.ceil((_abs_max(p) + profile.hat_radius()) * delta / np.pi)
    return int(k_max) if 2.0 * k_max + 1.0 < half else None  # nan, inf: site sum


def _image_sums(profile: InitialProfile, delta: float, p: np.ndarray, k_max: int) -> np.ndarray:
    """``(sqrt(2 pi) / (2 delta)) sum_{|k| <= k_max} s_k What(p + k pi / delta)``, the Poisson
    dual of both sublattice sums, shape ``p.shape + (2,)``: ``s_k = 1`` (even sites) and
    ``(-1)^k`` (odd sites), each image evaluated once for both."""
    out = np.zeros(p.shape + (2,), dtype=complex)
    for k in range(-k_max, k_max + 1):
        image = profile.fourier_hat(p + k * (np.pi / delta))
        out[..., 0] += image
        out[..., 1] += -image if k % 2 else image
    return (_SQRT_2PI / (2.0 * delta)) * out


def spectral_vector(profile: InitialProfile, delta: float, p) -> np.ndarray:
    """Stacked band data ``(even-site sum, odd-site sum)``, shape ``p.shape + (2,)``.

    Each is the sublattice sum of :func:`semi_discrete_ft`.  For the Gaussian it is
    taken from the Poisson dual, ``(sqrt(2 pi) / (2 delta)) sum_{|k| <= K} (+-1)^k
    What(p + k pi / delta)``, truncated where every dropped image lies beyond
    ``hat_radius``; at ``delta << 1`` that is one live image against hundreds of sites.
    Tables, and grids where the images are no fewer than the summed sites (the Gaussian
    at ``delta = 1``), keep the site sum.  Either path refuses a profile that spans more
    than ``_MAX_SITES`` sites with :class:`~diatomic_waves.errors.ChainSizeError`.
    """
    p_arr = np.atleast_1d(np.asarray(p, dtype=float))
    k_max = _image_order(profile, delta, p_arr)
    if k_max is not None:
        return _image_sums(profile, delta, p_arr, k_max)
    return np.stack([semi_discrete_ft(profile, delta, p_arr, c) for c in (1, 2)], axis=-1)


def _band_limits(profile: InitialProfile, delta: float, allowed: float) -> tuple[float, float]:
    """Limits ``(a, b)`` of a band integral of the sublattice sums, cut where the data vanish.

    By Poisson summation both sums are ``(sqrt(2 pi) / (2 delta)) sum_k (+-1)^k
    What(p + k pi / delta)``.  For ``cut <= edge = pi / (2 delta)`` the alias images of
    ``cut <= |p| <= edge`` are disjoint and lie in ``|q| >= cut``, so dropping that part of
    the band lowers ``int |S| dp`` of either sum by at most ``(sqrt(2 pi) / (2 delta))
    int_{|q| >= cut} |What|``.  ``b`` is the smaller of ``edge`` and the radius
    (:meth:`InitialProfile.hat_l1_radius`) that keeps this at or below ``allowed``; ``a``
    is 0 for an even profile (the band folds onto ``[0, b]``), else ``-b``.  Where no
    bound is known, or ``allowed`` is 0, ``b`` is ``edge`` exactly.
    """
    edge = np.pi / (2.0 * delta)
    cut = min(edge, profile.hat_l1_radius(allowed * 2.0 * delta / _SQRT_2PI))
    return (0.0 if profile.is_even else -cut), cut
