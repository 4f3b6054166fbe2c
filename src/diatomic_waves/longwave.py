"""Long-wavelength (``delta << 1``) asymptotics of the lattice field.

When the site spacing is much finer than the excitation width, the two
displacement components collapse onto a single scalar amplitude carried
by the acoustic branch (the optical branch only contributes an
``O(delta^2)`` correction), and the acoustic phase reduces to the cubic
model ``omega ~ c k - q h^2 k^3 / 3``.  This module evaluates that
scalar amplitude three ways:

* :func:`uas_integral` -- the reduced single-mode oscillatory integral,
  sound for any ``delta << 1``;
* :func:`uas_gaussian_airy` -- its closed Gaussian/Airy form, which is
  an exact identity (not an extra approximation) for the Gaussian bump;
* :func:`uas_dalembert` -- the non-dispersive d'Alembert limit reached
  when ``h^2 << mu^3``.

Which evaluator is honest depends on the accumulated cubic phase, of
order ``t * h^2 / mu^3``; :func:`classify_regime` reports that ratio and
the band the CLI uses to label it.  :func:`residual_pde_check` verifies
any smooth evaluator against the governing continuum equation by
high-order finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._quadrature import synthesize_field
from ._stencils import fd_weights
from .airy import airy_ai, airy_ai_scaled
from .dispersion import Dispersion, LatticeParams
from .errors import ConfigError
from .initial_data import InitialProfile

__all__ = [
    "LongwaveRegime",
    "classify_regime",
    "uas_integral",
    "uas_gaussian_airy",
    "uas_dalembert",
    "residual_pde_check",
]

_SQRT_HALF_PI = float(np.sqrt(np.pi / 2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
_TINY = np.finfo(float).tiny

#: Default ``h^2 / mu^3`` band classified as weak dispersion.
DEFAULT_REGIME_BAND = (0.1, 10.0)


@dataclass(frozen=True)
class LongwaveRegime:
    """Dispersion regime of a lattice/excitation scale pair.

    ``ratio = h**2 / mu**3`` measures the cubic phase correction
    accumulated per unit time relative to plain transport.
    """

    h: float
    mu: float
    ratio: float
    regime: str

    def __post_init__(self) -> None:
        if self.regime not in ("wave_equation", "weak_dispersion", "strong_dispersion"):
            raise ConfigError(f"unknown regime label {self.regime!r}")


def classify_regime(
    params: LatticeParams, mu: float, band: tuple[float, float] = DEFAULT_REGIME_BAND
) -> LongwaveRegime:
    """Classify ``h^2 / mu^3`` against the weak-dispersion ``band``.

    Below the band the cubic term is negligible over O(1) times
    (``wave_equation``); inside it both transport and dispersion matter
    (``weak_dispersion``); above it the long-wave reduction itself
    breaks down (``strong_dispersion``) and callers should use the
    full-band or short-wave evaluators instead.
    """
    if not (np.isfinite(mu) and mu > 0.0):
        raise ConfigError(f"mu must be positive and finite, got {mu!r}")
    if not 0.0 < band[0] < band[1]:
        raise ConfigError(f"regime band must satisfy 0 < lo < hi, got {band!r}")
    with np.errstate(over="ignore", divide="ignore"):  # mu**3 past the float range
        ratio = float(np.float64(params.h) ** 2 / np.float64(mu) ** 3)
    if ratio < band[0]:
        regime = "wave_equation"
    elif ratio <= band[1]:
        regime = "weak_dispersion"
    else:
        regime = "strong_dispersion"
    return LongwaveRegime(h=params.h, mu=mu, ratio=ratio, regime=regime)


def _scalar_in(x) -> bool:
    return np.isscalar(x) or np.ndim(x) == 0


def uas_integral(
    params: LatticeParams,
    profile: InitialProfile,
    mu: float,
    x,
    t: float,
    *,
    rtol: float = 1e-8,
    atol: float = 1e-13,
    nodes_per_cycle: float = 10.0,
    max_doublings: int = 6,
):
    """Reduced single-mode amplitude by direct quadrature.

    ``U_as(x, t) = (1/sqrt(2 pi)) Re int_R What(p) e^{i p x / mu}
    exp[i t (c |p| / mu - q h^2 p^2 |p| / (3 mu^3))] dp``

    The integrand has a kink at ``p = 0`` from ``|p|``, so the line is
    split there and each half-line is integrated separately; the tail is
    truncated where ``|What|`` falls below the profile cutoff.  Both
    displacement components equal this amplitude up to ``O(delta^2)``.
    """
    if not (np.isfinite(mu) and mu > 0.0):
        raise ConfigError(f"mu must be positive and finite, got {mu!r}")
    if not (np.isfinite(t) and t >= 0.0):
        raise ConfigError(f"t must be finite and non-negative, got {t!r}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    disp = Dispersion(params)
    c = disp.sound_speed
    q = disp.dispersion_coefficient
    cut = profile.hat_radius()
    transport = t * c / mu
    with np.errstate(over="ignore"):  # mu**3 past the float range: no cubic phase
        cubic = float(t * q * params.h**2 / (3.0 * np.float64(mu) ** 3))
    rate = float(np.max(np.abs(x_arr))) / mu + transport + 3.0 * cubic * cut**2

    def phase(p: np.ndarray) -> np.ndarray:
        return np.exp(1j * (transport * p - cubic * p**3))

    def kern(p: np.ndarray) -> np.ndarray:
        return _INV_SQRT_2PI * profile.fourier_hat(p) * phase(p)

    kw = dict(rtol=rtol, atol=atol, nodes_per_cycle=nodes_per_cycle, max_doublings=max_doublings)
    # The + half-line.  An even real profile has What real and even, so the
    # - half-line folds onto it with a 2 cos(p x / mu) weight.
    out = synthesize_field(kern, 0.0, cut, x_arr / mu, rate, even_fold=profile.is_even, **kw).real
    if not profile.is_even:
        def kern_neg(p: np.ndarray) -> np.ndarray:
            return _INV_SQRT_2PI * profile.fourier_hat(-p) * phase(p)

        minus = synthesize_field(kern_neg, 0.0, cut, -x_arr / mu, rate, **kw)
        out = out + minus.real
    if _scalar_in(x):
        return float(out[0])
    return out


def uas_gaussian_airy(params: LatticeParams, mu: float, x, t: float):
    """Closed Gaussian/Airy form of :func:`uas_integral` for the Gaussian bump.

    ``U_as = sqrt(pi/2) * lam^{-1/3} * e^{1/(12 lam^2)} * [T(a_+) + T(a_-)]``
    with ``lam = q t h^2 / mu^3``, ``a_+- = (x + c t) / mu`` and
    ``-(x - c t) / mu``, and
    ``T(a) = e^{-a/(2 lam)} Ai(-lam^{-1/3} (a - 1/(4 lam)))``.

    Where the Airy argument ``z`` is non-negative the product uses the
    scaled tail ``Ai(z) e^{(2/3) z^{3/2}}``, and with ``r = sqrt(1 - 4 lam a)``
    the three exponents combine exactly into
    ``1/(12 lam^2) - a/(2 lam) - (2/3) z^{3/2} = -(2/3) a^2 (1 + 2r) / (1 + r)^2``,
    which has no cancellation (it is ``-a^2/2`` at ``r = 1``).  Once
    ``lam^2`` underflows the form is at its ``lam -> 0`` limit to rounding,
    the d'Alembert half-sum ``(e^{-a_+^2/2} + e^{-a_-^2/2}) / 2``.
    """
    if not (np.isfinite(mu) and mu > 0.0):
        raise ConfigError(f"mu must be positive and finite, got {mu!r}")
    if not (np.isfinite(t) and t > 0.0):
        raise ConfigError(
            f"the Airy closed form needs a finite t > 0 (got t={t!r}); "
            "use uas_integral for early times"
        )
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    disp = Dispersion(params)
    c = disp.sound_speed
    q = disp.dispersion_coefficient
    with np.errstate(over="ignore"):
        lam = float(q * t * np.float64(params.h) ** 2 / np.float64(mu) ** 3)
    if not np.isfinite(lam):
        raise ConfigError(f"lam = q t h^2 / mu^3 overflows (t={t!r}, mu={mu!r})")

    def term(a: np.ndarray) -> np.ndarray:
        log_pre = np.log(_SQRT_HALF_PI) - np.log(lam) / 3.0
        z = -((a - 0.25 / lam) / np.cbrt(lam))
        out = np.empty_like(a)
        grow = z >= 0.0
        if np.any(grow):
            ag = a[grow]
            r = np.sqrt(np.maximum(1.0 - 4.0 * lam * ag, 0.0))
            expo = log_pre - (2.0 / 3.0) * ag**2 * (1.0 + 2.0 * r) / (1.0 + r) ** 2
            out[grow] = np.exp(expo) * airy_ai_scaled(z[grow])
        if np.any(~grow):
            ad = a[~grow]
            expo = log_pre + (1.0 - 6.0 * lam * ad) / (12.0 * lam * lam)  # 4 lam a > 1
            out[~grow] = np.exp(expo) * airy_ai(z[~grow])
        return out

    ct = c * t
    a_plus, a_minus = (x_arr + ct) / mu, -(x_arr - ct) / mu
    if lam * lam < _TINY:
        out = 0.5 * (np.exp(-0.5 * a_plus**2) + np.exp(-0.5 * a_minus**2))
    else:
        out = term(a_plus) + term(a_minus)
    if _scalar_in(x):
        return float(out[0])
    return out


def uas_dalembert(params: LatticeParams, profile: InitialProfile, mu: float, x, t: float):
    """Non-dispersive limit: half-sum of the two translated profiles.

    ``U_as(x, t) = (W((x + c t)/mu) + W((x - c t)/mu)) / 2``; exact for
    the plain wave equation, hence accurate to ``O(t h^2/mu^3)`` in the
    ``wave_equation`` regime.
    """
    if not (np.isfinite(mu) and mu > 0.0):
        raise ConfigError(f"mu must be positive and finite, got {mu!r}")
    if not np.isfinite(t):
        raise ConfigError(f"t must be finite, got {t!r}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    ct = Dispersion(params).sound_speed * t
    out = 0.5 * (
        profile.value((x_arr + ct) / mu) + profile.value((x_arr - ct) / mu)
    )
    if _scalar_in(x):
        return float(out[0])
    return out


def residual_pde_check(
    field_fn: Callable[[np.ndarray, float], np.ndarray],
    params: LatticeParams,
    mu: float,
    x_grid,
    t: float,
    *,
    equation: str = "dispersive6",
    dx: float | None = None,
    dt: float | None = None,
) -> float:
    """Normalized finite-difference residual of a continuum evaluator.

    ``equation="wave"`` tests ``U_tt = c^2 U_xx``; ``"dispersive6"``
    tests the sixth-order model
    ``U_tt = c^2 U_xx + (2/3) c q h^2 U_4x + (1/9) q^2 h^4 U_6x``
    (whose symbol is the exact square of the cubic phase ``c k - q h^2
    k^3 / 3``).  Spatial derivatives use 13-point central stencils and
    the time derivative a 7-point stencil, sampled by extra calls to
    ``field_fn``; the sup-norm residual is normalized by the larger of
    the ``U_tt`` and ``c^2 U_xx`` scales so the result is dimensionless.
    """
    if equation not in ("wave", "dispersive6"):
        raise ConfigError(f"equation must be 'wave' or 'dispersive6', got {equation!r}")
    if not (np.isfinite(mu) and mu > 0.0):
        raise ConfigError(f"mu must be positive and finite, got {mu!r}")
    x_arr = np.atleast_1d(np.asarray(x_grid, dtype=float))
    disp = Dispersion(params)
    c = disp.sound_speed
    q = disp.dispersion_coefficient
    if dx is None:
        width = mu
        if t > 0.0:
            width = min(width, params.h ** (2.0 / 3.0) * (q * t) ** (1.0 / 3.0))
        dx = width / 8.0
    if dt is None:
        dt = dx / (2.0 * c)
        if t > 0.0:
            dt = min(dt, t / 8.0)

    x_off = np.arange(-6, 7)
    t_off = np.arange(-3, 4)
    space = np.stack([field_fn(x_arr + j * dx, t) for j in x_off])
    times = np.stack([field_fn(x_arr, t + k * dt) for k in t_off])

    u_tt = (fd_weights(t_off, 2) @ times) / dt**2
    u_xx = (fd_weights(x_off, 2) @ space) / dx**2
    residual = u_tt - c**2 * u_xx
    if equation == "dispersive6":
        u_4x = (fd_weights(x_off, 4) @ space) / dx**4
        u_6x = (fd_weights(x_off, 6) @ space) / dx**6
        residual = (
            residual
            - (2.0 / 3.0) * c * q * params.h**2 * u_4x
            - (1.0 / 9.0) * q**2 * params.h**4 * u_6x
        )
    scale = max(float(np.max(np.abs(u_tt))), float(c**2 * np.max(np.abs(u_xx))))
    if scale == 0.0:
        raise ConfigError("field is identically zero on the grid; nothing to check")
    return float(np.max(np.abs(residual)) / scale)
