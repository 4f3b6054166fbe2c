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
the band the CLI uses to label it.  (The tests check these evaluators
against the governing continuum equation by finite differences.)
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ._quadrature import _check_mu, _check_numerics, _check_times, _finite_grid
from ._quadrature import legendre_bessel_field, synthesize_field
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
]

_SQRT_HALF_PI = float(np.sqrt(np.pi / 2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
_TINY = np.finfo(float).tiny

#: The ``h^2 / mu^3`` band classified as weak dispersion.
REGIME_BAND = (0.1, 10.0)


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


def classify_regime(params: LatticeParams, mu: float) -> LongwaveRegime:
    """Classify ``h^2 / mu^3`` against the weak-dispersion :data:`REGIME_BAND` ``[0.1, 10]``.

    Below the band the cubic term is negligible over O(1) times
    (``wave_equation``); inside it both transport and dispersion matter
    (``weak_dispersion``); above it the long-wave reduction itself
    breaks down (``strong_dispersion``) and callers should use the
    full-band or short-wave evaluators instead.
    """
    _check_mu(mu)
    with np.errstate(over="ignore", divide="ignore"):  # mu**3 past the float range
        ratio = float(np.float64(params.h) ** 2 / np.float64(mu) ** 3)
    if ratio < REGIME_BAND[0]:
        regime = "wave_equation"
    elif ratio <= REGIME_BAND[1]:
        regime = "weak_dispersion"
    else:
        regime = "strong_dispersion"
    return LongwaveRegime(h=params.h, mu=mu, ratio=ratio, regime=regime)


def _per_time(x, t, outs: list):
    """``outs``, one array per time, as floats for a scalar ``x``; a list for a
    sequence ``t``, its one output for one time."""
    if np.ndim(x) == 0:
        outs = [float(out[0]) for out in outs]
    return outs if np.ndim(t) else outs[0]


def uas_integral(
    params: LatticeParams,
    profile: InitialProfile,
    mu: float,
    x,
    t,
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
    split there into two travelling frames, each an integral over
    ``[0, cut]`` with the cubic phase ``e^{-i cubic p^3}``: the + half-line
    is the left-moving wave, ``What(p)`` at offset ``y = (ct + x)/mu``, and
    the - half-line (``p -> -p``) the right-moving one, ``What(-p)`` at
    ``y = (ct - x)/mu``.  Each frame is sized by its own rate
    ``max|y| + 3 cubic cut^2``, so a window on one front does not pay for
    the other front's offset:

    * a frame far from its front on the whole grid goes to
      :func:`~diatomic_waves._quadrature.legendre_bessel_field`, whose cost
      does not depend on ``y``; its guard ``min |y| cut / 2 >= k (k - 1) / 2``
      (for Legendre order ``k``, on at least two orders) and its own
      convergence check decide where it applies;
    * any other frame is a :func:`synthesize_field` call on its own grid
      ``y``, formed as ``(c t +- x) / mu`` so the front is not moved by the
      rounding of ``c t / mu``;
    * when both frames are of that kind and the profile is even, one
      folded call on ``x/mu`` at the larger rate serves both.

    ``t`` is one time, which gives one array (a float for a scalar ``x``),
    or a 1-D sequence of times, which gives a list in its order.  Each time
    tries its own two frames.  The times whose frames both fold share one
    folded call: its panel levels are sized by the largest of them, each
    level evaluates ``What`` once and then one phase column per time, and
    each time is judged on its own.  A folded time below the largest thus
    sits on at least as many nodes as its own call would, and differs from
    it at rounding level; the largest time, and one time alone, keep the
    bits of their own call.  The other times take their frames one time at
    a time.  The price is memory, O(T n) for ``n`` final nodes of the
    folded call.

    The tail is truncated at ``profile.hat_radius()``.  For a table that
    radius comes from a windowed scan, and whatever of ``What`` lies past
    it is dropped (the spline's alias peaks near ``2 pi k / step``; see
    :meth:`TableProfile.hat_radius`).  Both displacement components equal
    this amplitude up to ``O(delta^2)``.

    Raises ``ConfigError`` for an empty or 2-D ``t``, a negative or
    non-finite time or ``mu``, out-of-range numerics, or a nan or an
    infinity in ``x``.
    """
    _check_mu(mu)
    times = _check_times(t)
    _check_numerics(rtol, atol, nodes_per_cycle, max_doublings)  # far frames skip synthesize_field
    x_arr = _finite_grid(x)
    disp = Dispersion(params)
    c = disp.sound_speed
    q = disp.dispersion_coefficient
    cut = profile.hat_radius()
    kw = dict(rtol=rtol, atol=atol, nodes_per_cycle=nodes_per_cycle, max_doublings=max_doublings)

    def kern(sign: float, cubic: float) -> Callable[[np.ndarray], np.ndarray]:
        """``What(sign p) e^{-i cubic p^3} / sqrt(2 pi)``."""
        return lambda p: _INV_SQRT_2PI * profile.fourier_hat(sign * p) * np.exp(
            -1j * (cubic * p**3)
        )

    outs: list[np.ndarray | None] = []
    folded = []  # (index, transport, cubic, rate) of each time both of whose frames fold
    for time in times.tolist():
        transport = time * c / mu
        with np.errstate(over="ignore"):  # mu**3 past the float range: no cubic phase
            cubic = float(time * q * params.h**2 / (3.0 * np.float64(mu) ** 3))
        spread = 3.0 * cubic * cut**2
        # (ct +- x)/mu formed as one quotient: ct/mu +- x/mu would round terms
        # of size ct/mu and move the front by ~eps ct/mu.
        offsets = {sign: (c * time + sign * x_arr) / mu for sign in (1.0, -1.0)}
        frames = {
            sign: legendre_bessel_field(kern(sign, cubic), 0.0, cut, y, rtol=rtol, atol=atol)
            for sign, y in offsets.items()
        }
        if profile.is_even and frames[1.0] is None and frames[-1.0] is None:
            rate = float(np.max(np.abs(x_arr), initial=0.0)) / mu + transport + spread
            folded.append((len(outs), transport, cubic, rate))
            outs.append(None)
            continue
        out = np.zeros(x_arr.size)
        for sign, field in frames.items():
            if field is None:
                rate = float(np.max(np.abs(offsets[sign]), initial=0.0)) + spread
                field = synthesize_field(kern(sign, cubic), 0.0, cut, offsets[sign], rate, **kw)
            out += field.real
        outs.append(out)
    if folded:
        # What is real and even, so the - half-line folds onto the + one with a
        # 2 cos(p x / mu) weight, at the largest time's rate: What once per
        # level, then one phase column per time.
        def folded_kern(p: np.ndarray) -> np.ndarray:
            what = _INV_SQRT_2PI * profile.fourier_hat(p)
            out = np.empty((p.size, len(folded), 1), dtype=complex)
            for k, (_, transport, cubic, _) in enumerate(folded):
                out[:, k, 0] = what * np.exp(1j * (transport * p - cubic * p**3))
            return out

        rate = max(f[3] for f in folded)
        field = synthesize_field(folded_kern, 0.0, cut, x_arr / mu, rate, even_fold=True, **kw)
        field = field.reshape(x_arr.size, len(folded))  # an empty grid comes back 1-D
        for k, (i, *_) in enumerate(folded):
            outs[i] = field[:, k].real
    return _per_time(x, t, outs)


def _check_airy_time(t: float) -> None:
    """Raise ``ConfigError`` unless ``t`` is finite and ``> 0``, as the closed form needs."""
    if not (np.isfinite(t) and t > 0.0):
        raise ConfigError(
            f"the Airy closed form needs a finite t > 0 (got t={t!r}); "
            "use uas_integral for early times"
        )


def uas_gaussian_airy(params: LatticeParams, mu: float, x, t):
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

    ``t`` is one time or a 1-D sequence of them, as in :func:`uas_integral`;
    each time keeps the bits of its own call.  ``ConfigError`` for an empty or
    2-D ``t``, a time not finite and ``> 0``, or a nan or an infinity in ``x``.
    """
    _check_mu(mu)
    times = _check_times(t, _check_airy_time)
    x_arr = _finite_grid(x)
    disp = Dispersion(params)
    c = disp.sound_speed
    q = disp.dispersion_coefficient

    def term(a: np.ndarray, lam: float) -> np.ndarray:
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

    outs = []
    for time in times.tolist():
        with np.errstate(over="ignore"):
            lam = float(q * time * np.float64(params.h) ** 2 / np.float64(mu) ** 3)
        if not np.isfinite(lam):
            raise ConfigError(f"lam = q t h^2 / mu^3 overflows (t={time!r}, mu={mu!r})")
        ct = c * time
        a_plus, a_minus = (x_arr + ct) / mu, -(x_arr - ct) / mu
        if lam * lam < _TINY:
            outs.append(0.5 * (np.exp(-0.5 * a_plus**2) + np.exp(-0.5 * a_minus**2)))
        else:
            outs.append(term(a_plus, lam) + term(a_minus, lam))
    return _per_time(x, t, outs)


def _check_finite_time(t: float) -> None:
    """Raise ``ConfigError`` unless ``t`` is finite, as the d'Alembert form needs."""
    if not np.isfinite(t):
        raise ConfigError(f"t must be finite, got {t!r}")


def uas_dalembert(params: LatticeParams, profile: InitialProfile, mu: float, x, t):
    """Non-dispersive limit: half-sum of the two translated profiles.

    ``U_as(x, t) = (W((x + c t)/mu) + W((x - c t)/mu)) / 2``; exact for
    the plain wave equation, hence accurate to ``O(t h^2/mu^3)`` in the
    ``wave_equation`` regime.  ``t`` is as in :func:`uas_gaussian_airy`, but
    any finite time; a nan or an infinity in ``t`` or ``x`` raises ``ConfigError``.
    """
    _check_mu(mu)
    times = _check_times(t, _check_finite_time)
    x_arr = _finite_grid(x)
    c = Dispersion(params).sound_speed
    outs = [
        0.5 * (profile.value((x_arr + c * time) / mu) + profile.value((x_arr - c * time) / mu))
        for time in times.tolist()
    ]
    return _per_time(x, t, outs)
