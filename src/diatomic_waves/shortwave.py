"""Short-wave (``delta = 1``) asymptotics of the two lattice modes.

When the excitation width matches the lattice step, both branches carry
O(1) energy and the field splits into an acoustic part moving at speed
``c`` and an optical part whose front moves at the critical group speed
``c* = -omega_2'(p*)``.  Each part admits two asymptotic evaluators in
the small parameter ``mu = h``:

* *front Airy* forms, valid in an ``O(mu^{2/3})`` neighbourhood of the
  front, built from spectral splits about the critical momentum (``0``
  acoustic, ``p*`` optical) and the Airy kernel;
* *uniform* forms, valid from the interior up to the front, built from
  stationary-phase data and the envelope amplitudes ``A_pm(y)`` (which
  reduce to WKB away from the front and to the front Airy forms at it).

Public evaluators dispatch between them: interior points use the
uniform form, a band around the front uses the front form (with the
quadratic three-point continuation of the spectral amplitudes beyond
the front), and points beyond the continuation margin return zero.

The uniform optical form is assembled as
``sqrt(2 mu / pi) Re e^{i Theta / mu} [ b(p_max) A_plus(Psi/mu)
+ b(p_min) A_minus(Psi/mu) ]`` where ``p_max``/``p_min`` are the
stationary points with the larger/smaller phase value.  This pairing
reproduces the stationary-phase (WKB) limit on both half-lines with the
correct ``exp(-/+ i pi/4)`` factors and is continuous at ``x = 0`` for
even data; spelling both half-lines this way avoids tracking the four
sign conventions of the two printed per-side formulas separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .airy import _envelope_parts, airy_ai_pair
from .dispersion import ACOUSTIC, OPTICAL, Dispersion, LatticeParams
from .errors import ConfigError, NumericalError, RegimeError
from .initial_data import InitialProfile, spectral_vector
from .oracles import WaveField

__all__ = [
    "StationaryPoints",
    "split_about_pstar",
    "three_point_continue",
    "acoustic_stationary",
    "optical_stationary",
    "acoustic_front_airy",
    "acoustic_uniform",
    "optical_front_airy",
    "optical_uniform",
    "shortwave_total",
]

#: Quadratic-extrapolation stencil ``f(z) = c0 f(0) + c1 f(-z) + c2 f(-2z)``.
STENCIL = (3.0, -3.0, 1.0)

#: Switch from the uniform form to the front form at ``front - 0.01 width``.
#: The stationary-point machinery stays numerically stable essentially up
#: to the front, and the interior uniform forms are one asymptotic order
#: more accurate than the front forms, so the front band is kept thin.
FRONT_SWITCH_WIDTHS = 0.01

#: Evaluate the front form out to ``front + 5 widths``; zero beyond.
CONTINUATION_WIDTHS = 5.0

_Z_FLOOR = 1e-12
_ROOT_RESIDUAL = 1e-10
#: Halvings of a stationary bracket (width <= pi/2): 2^-60 pi/2 = 1.4e-18
#: in momentum, far below what the residual bound and the amplitudes resolve.
_BISECTIONS = 60
_GL_PSI_NODES, _GL_PSI_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _require_unit_delta(params: LatticeParams, mu: float) -> None:
    if not (np.isfinite(mu) and mu > 0.0):
        raise ConfigError(f"mu must be positive and finite, got {mu!r}")
    if abs(params.h - mu) > 1e-9 * mu:
        raise RegimeError(
            f"short-wave evaluators require delta = h/mu = 1, got "
            f"h={params.h!r}, mu={mu!r}; use the band quadrature or the "
            "long-wave evaluators for delta != 1"
        )


def _require_positive_time(t: float) -> None:
    if not (np.isfinite(t) and t > 0.0):
        raise ConfigError(f"short-wave asymptotics require finite t > 0, got {t!r}")


# ---------------------------------------------------------------------------
# Spectral splits and continuation
# ---------------------------------------------------------------------------

def split_about_pstar(
    profile: InitialProfile, p_star: float, eta
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric/antisymmetric split about the critical momentum.

    ``F1(eta) = (V(p* - sqrt eta) + V(p* + sqrt eta)) / 2`` and
    ``F2(eta) = (V(p* - sqrt eta) - V(p* + sqrt eta)) / (2 sqrt eta)``
    (minus side first, matching the front formulas that consume them), so
    ``V(p* -+ sqrt eta) = F1 +- sqrt(eta) F2``.  At ``p* = 0`` these are the
    even/odd parts of ``V`` in ``eta = p^2``.  Requires ``eta >= 0``.
    """
    eta_arr = np.atleast_1d(np.asarray(eta, dtype=float))
    if np.any(eta_arr < 0.0):
        raise ConfigError("split_about_pstar needs eta >= 0")
    root = np.sqrt(np.maximum(eta_arr, _Z_FLOOR))
    vm = spectral_vector(profile, 1.0, p_star - root)
    vp = spectral_vector(profile, 1.0, p_star + root)
    f1 = 0.5 * (vm + vp)
    f2 = (vm - vp) / (2.0 * root[..., None])
    return f1, f2


def three_point_continue(f: Callable[[np.ndarray], np.ndarray], z):
    """Quadratic extrapolation of ``f`` (defined for ``z <= 0``) to ``z > 0``.

    ``f(z) ~= 3 f(0) - 3 f(-z) + f(-2z)`` (:data:`STENCIL`), exact for
    polynomials of degree <= 2.
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z_arr < 0.0):
        raise ConfigError("three_point_continue expects z >= 0 (continuation side)")
    c0, c1, c2 = STENCIL
    out = (
        c0 * np.asarray(f(np.zeros_like(z_arr)))
        + c1 * np.asarray(f(-z_arr))
        + c2 * np.asarray(f(-2.0 * z_arr))
    )
    if np.isscalar(z) or np.ndim(z) == 0:
        return out[0]
    return out


def _split_with_continuation(
    split: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    z: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a ``z >= 0`` split on a mixed-sign grid.

    Negative arguments use :func:`three_point_continue` mirrored,
    ``g(z) = c0 g(0) + c1 g(-z) + c2 g(-2z)`` (with ``z < 0``, so the
    sample points ``-z`` and ``-2z`` are on the defined side).
    """
    pos = z >= 0.0
    v1 = np.empty(z.shape + (2,), dtype=complex)
    v2 = np.empty_like(v1)
    if np.any(pos):
        v1[pos], v2[pos] = split(z[pos])
    if np.any(~pos):
        v1[~pos], v2[~pos] = three_point_continue(lambda s: split(-s), -z[~pos])
    return v1, v2


# ---------------------------------------------------------------------------
# Stationary-point machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StationaryPoints:
    """Stationary-phase data of one mode at the points ``x`` at one ``t``.

    ``momenta`` has shape ``x.shape + (1,)`` holding ``p`` for the
    acoustic mode, or ``x.shape + (2,)`` holding ``(p_minus, p_plus)``
    straddling ``p*`` for the optical mode; ``action`` (shape ``x.shape``)
    is the non-negative Airy phase (``S`` acoustic, ``Psi`` optical) and
    ``carrier`` the optical mean phase ``Theta`` (zero for acoustic).
    """

    momenta: np.ndarray
    action: np.ndarray
    carrier: np.ndarray

    def __post_init__(self) -> None:
        if not np.all(self.action >= 0.0):
            raise NumericalError(
                f"negative action (min {float(np.min(self.action))!r}): a point lies "
                "beyond the continuation region"
            )


def _bisect(fn: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Elementwise root of ``fn``, decreasing through zero on each ``[lo, hi]``.

    Without a sign change a bracket collapses onto an endpoint; the
    caller's residual check rejects that unless the root is the endpoint
    (as at ``x = 0``, where ``fn`` there is rounding noise of either sign).
    """
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        above = fn(mid) > 0.0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return 0.5 * (lo + hi)


def _reject_beyond_front(x: np.ndarray, front: float, branch: str, speed: str) -> None:
    beyond = np.abs(x) >= front
    if np.any(beyond):
        raise NumericalError(
            f"x={float(x[beyond][0])!r} is on or beyond the {branch} front |x| = {speed} = "
            f"{front!r}; use {branch}_front_airy there"
        )


def acoustic_stationary(params: LatticeParams, x, t: float) -> StationaryPoints:
    """Acoustic stationary momentum ``p`` solving ``omega_1'(p) = |x| / t``.

    The group speed of the smooth acoustic branch decreases from ``c``
    at ``p = 0`` to ``0`` at the zone edge ``p = pi/2``, so there is a
    unique root for ``|x| < c t`` (``p -> pi/2`` as ``x -> 0``), found for
    every point of ``x`` (scalar or array) at once by bisection.  The
    stored action ``S = omega_1(p) t - p |x|`` is computed in the
    cancellation-free Legendre form ``t m(p) + p (t omega_1'(p) - |x|)``.
    """
    _require_positive_time(t)
    disp = Dispersion(params)
    x_arr = np.asarray(x, dtype=float)
    _reject_beyond_front(x_arr, disp.sound_speed * t, "acoustic", "c t")
    ax = np.abs(x_arr)
    target = ax / t

    def residual_fn(p: np.ndarray) -> np.ndarray:
        return disp.omega1_smooth_derivs(p, 1)[1] - target

    p = _bisect(residual_fn, np.zeros_like(ax), np.full_like(ax, np.pi / 2.0))
    omega1_p = disp.omega1_smooth_derivs(p, 1)[1]
    residual = np.max(np.abs(omega1_p - target), initial=0.0)
    if not residual <= _ROOT_RESIDUAL:
        raise NumericalError(f"acoustic stationary residual {residual:.3e} > {_ROOT_RESIDUAL}")
    action = t * disp.legendre_omega1(p) + p * (t * omega1_p - ax)
    return StationaryPoints(momenta=p[..., None], action=action, carrier=np.zeros_like(action))


def optical_stationary(params: LatticeParams, x, t: float) -> StationaryPoints:
    """Optical stationary pair ``p_- < p* < p_+`` with phases ``Theta, Psi``.

    Both momenta solve ``omega_2'(p) = -|x| / t`` (the optical group
    speed runs from 0 at the zone centre through ``-c*`` at ``p*`` back
    to 0 at the zone edge); they exist for ``|x| < c* t`` and are found
    for every point of ``x`` (scalar or array) at once by bisection on
    ``[0, p*]`` and ``[p*, pi/2]``.  With the side phase
    ``Phi(p) = p x + omega_2(p) t`` (``x >= 0``) or
    ``p x - omega_2(p) t`` (``x < 0``), the stored values are
    ``Theta = (Phi(p_+) + Phi(p_-)) / 2`` and the non-negative
    ``Psi = -(t/2) * int_{p_-}^{p_+} (p_+ - s) omega_2''(s) ds``
    (equal to half the phase spread ``|Phi(p_max) - Phi(p_min)|``,
    evaluated as an integral to stay accurate as ``p_+- -> p*``).
    """
    _require_positive_time(t)
    disp = Dispersion(params)
    crit = disp.critical
    x_arr = np.asarray(x, dtype=float)
    _reject_beyond_front(x_arr, crit.c_star * t, "optical", "c* t")
    target = (-np.abs(x_arr) / t)[..., None]
    # omega_2' falls on [0, p*] and rises on [p*, pi/2]; the sign flip makes
    # the residual decreasing on both brackets.
    flip = np.array([1.0, -1.0])
    shape = x_arr.shape + (2,)

    def residual_fn(p: np.ndarray) -> np.ndarray:
        return flip * (disp.omega2_derivs(p, 1)[1] - target)

    momenta = _bisect(
        residual_fn,
        np.broadcast_to((0.0, crit.p_star), shape),
        np.broadcast_to((crit.p_star, np.pi / 2.0), shape),
    )
    residual = np.max(np.abs(residual_fn(momenta)), initial=0.0)
    if not residual <= _ROOT_RESIDUAL:
        raise NumericalError(f"optical stationary residual {residual:.3e} > {_ROOT_RESIDUAL}")
    p_minus, p_plus = momenta[..., 0], momenta[..., 1]

    # Psi = -(t/2) int_{p-}^{p+} (p+ - s) w2''(s) ds  by 32-node Gauss-Legendre.
    half = 0.5 * (p_plus - p_minus)
    mid = 0.5 * (p_plus + p_minus)
    nodes = mid[..., None] + half[..., None] * _GL_PSI_NODES
    w2dd = disp.omega2_derivs(nodes, 2)[2]
    psi = -0.5 * t * half * (((p_plus[..., None] - nodes) * w2dd) @ _GL_PSI_WEIGHTS)

    sgn = np.where(x_arr >= 0.0, 1.0, -1.0)[..., None]
    phi = momenta * x_arr[..., None] + sgn * disp.omega2_derivs(momenta, 0)[0] * t
    theta = 0.5 * (phi[..., 1] + phi[..., 0])
    return StationaryPoints(momenta=momenta, action=psi, carrier=theta)


# ---------------------------------------------------------------------------
# Front Airy evaluators
# ---------------------------------------------------------------------------

def _joined(parts: list, assemble: Callable[[list], np.ndarray]) -> tuple:
    """One part ``(z, finish)`` made of ``parts`` laid end to end; its ``finish``
    finishes each of them and hands their values, in order, to ``assemble``."""
    cuts = np.cumsum([z.size for z, _ in parts])[:-1]
    z = np.concatenate([z for z, _ in parts] + [np.empty(0)])

    def finish(ai: np.ndarray, aip: np.ndarray) -> np.ndarray:
        pieces = zip(parts, np.split(ai, cuts), np.split(aip, cuts))
        return assemble([part_finish(a, ap) for (_, part_finish), a, ap in pieces])

    return z, finish


def _with_airy(part: tuple) -> np.ndarray:
    """``finish(Ai(z), Ai'(z))`` of a part ``(z, finish)``, from one
    :func:`~diatomic_waves.airy.airy_ai_pair` call.

    A call costs a few dozen numpy operations whatever its size, so each
    evaluator returns its Airy arguments with the function that finishes it,
    and :func:`shortwave_total` joins a time's evaluators into one call.  Each
    value is the one a call of its own would give (:mod:`~diatomic_waves.airy`
    sums every point alone).
    """
    z, finish = part
    return finish(*airy_ai_pair(z)) if z.size else finish(z, z)


def _front_airy(
    params: LatticeParams,
    profile: InitialProfile,
    mu: float,
    x,
    t: float,
    front: str,
    branch: int,
) -> tuple[np.ndarray, Callable[[np.ndarray, np.ndarray], np.ndarray]]:
    """Airy form of one branch near its front, about its critical momentum ``p_c``,
    as a part for :func:`_with_airy`.

    The branch enters through its front speed ``s``, curvature ``k``,
    ``omega = omega(p_c)``, projector ``P = P(p_c)`` and weight ``n``
    (acoustic: ``c``, ``q``, ``p_c = 0``, ``omega_1(0) = 0``, ``A(0)``, 1;
    optical: ``c*``, ``q*``, ``p*``, ``omega_2(p*)``, ``B(p*)``, 2 for the
    pair ``+-p*``).  With ``y = x - s t``, ``w = mu^{2/3} (k t)^{1/3}`` and
    ``r = (mu/(k t))^{1/3}``, the right front is
    ``n r Re{ e^{i (p_c x + omega t)/mu} P [F1 Ai(y/w) + i r F2 Ai'(y/w)] }``
    with the splits ``F1``, ``F2`` about ``p_c`` at ``-y/(k t)``, continued
    by the three-point rule beyond the front.  The left front takes
    ``y = -(x + s t)``, ``p_c x - omega t`` and ``-i`` on the ``Ai'`` term.
    The field has shape ``(len(x), 2)`` (heavy, light components).
    """
    _require_unit_delta(params, mu)
    _require_positive_time(t)
    if front not in ("left", "right"):
        raise ConfigError(f"front must be 'left' or 'right', got {front!r}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    disp = Dispersion(params)
    if branch == ACOUSTIC:  # the carrier is 1
        p_c, omega_c, weight = 0.0, 0.0, 1.0
        speed, curv = disp.sound_speed, disp.dispersion_coefficient
    else:
        crit = disp.critical
        p_c, speed, curv, weight = crit.p_star, crit.c_star, crit.q_star, 2.0
        omega_c = float(disp.omega2_derivs(p_c, 0)[0])
    width = mu ** (2.0 / 3.0) * (curv * t) ** (1.0 / 3.0)
    cube = (mu / (curv * t)) ** (1.0 / 3.0)
    if front == "right":
        z = -(x_arr - speed * t) / (curv * t)
        ai_arg = (x_arr - speed * t) / width
        phase = (p_c * x_arr + omega_c * t) / mu
        deriv_sign = +1.0
    else:
        z = (x_arr + speed * t) / (curv * t)
        ai_arg = -(x_arr + speed * t) / width
        phase = (p_c * x_arr - omega_c * t) / mu
        deriv_sign = -1.0
    f1, f2 = _split_with_continuation(lambda s: split_about_pstar(profile, p_c, s), z)

    def finish(ai: np.ndarray, aip: np.ndarray) -> np.ndarray:
        combo = f1 * ai[:, None] + deriv_sign * 1j * cube * f2 * aip[:, None]
        carrier = np.exp(1j * phase)
        projected = np.einsum("ij,nj->ni", disp.modal_matrix(p_c, branch), combo)
        return weight * cube * (carrier[:, None] * projected).real

    return ai_arg, finish


def acoustic_front_airy(
    params: LatticeParams,
    profile: InitialProfile,
    mu: float,
    x,
    t: float,
    front: str = "right",
) -> np.ndarray:
    """Airy representation of the acoustic mode near a front ``x = +-ct``.

    :func:`_front_airy` about ``p_c = 0``: speed ``c``, curvature ``q``,
    projector ``A(0)``, carrier 1 and weight 1.  The splits about 0 are the
    even/odd parts of the spectral vector in ``p^2``.  Returns shape ``(n, 2)``
    (heavy, light components).
    """
    return _with_airy(_front_airy(params, profile, mu, x, t, front, ACOUSTIC))


def optical_front_airy(
    params: LatticeParams,
    profile: InitialProfile,
    mu: float,
    x,
    t: float,
    front: str = "right",
) -> np.ndarray:
    """Airy-envelope representation of the optical mode near ``x = +-c*t``.

    :func:`_front_airy` about ``p*``: speed ``c*``, curvature ``q*``,
    projector ``B(p*)``, carrier ``e^{i (p* x +- omega_2(p*) t)/mu}`` (right
    front ``+``) and weight 2.  The output oscillates at the carrier
    wavelength ``~ mu / p*`` under an Airy envelope.  Returns shape ``(n, 2)``.
    """
    return _with_airy(_front_airy(params, profile, mu, x, t, front, OPTICAL))


# ---------------------------------------------------------------------------
# Uniform evaluators
# ---------------------------------------------------------------------------

def _uniform(
    x_arr: np.ndarray,
    t: float,
    *,
    front_speed: float,
    width: float,
    interior_fn: Callable[[np.ndarray], tuple],
    front_fn: Callable[[np.ndarray, str], tuple],
) -> tuple:
    """Interior / front-band / outside values on a grid, as one part for
    :func:`_with_airy` joined from those ``interior_fn`` and ``front_fn`` return."""
    front = front_speed * t
    switch = front - FRONT_SWITCH_WIDTHS * width
    outer = front + CONTINUATION_WIDTHS * width
    interior = np.abs(x_arr) <= switch
    right_band = (x_arr > switch) & (x_arr <= outer)
    left_band = (x_arr < -switch) & (x_arr >= -outer)
    masks, parts = [], []
    if np.any(interior):
        masks.append(interior)
        parts.append(interior_fn(x_arr[interior]))
    for band, side in ((right_band, "right"), (left_band, "left")):
        if np.any(band):
            masks.append(band)
            parts.append(front_fn(x_arr[band], side))

    def assemble(values: list) -> np.ndarray:
        out = np.zeros(x_arr.shape + (2,), dtype=float)
        for mask, value in zip(masks, values):
            out[mask] = value
        return out

    return _joined(parts, assemble)


def acoustic_uniform(
    params: LatticeParams,
    profile: InitialProfile,
    mu: float,
    x,
    t: float,
) -> np.ndarray:
    """Uniform acoustic evaluator on the whole line.

    ``sqrt(2 mu / pi) Re[ A(p) Vtilde(p) A_pm(S/mu) ] / sqrt(t |omega_1''(p)|)``
    at the stationary momentum (``A_minus`` right of the origin,
    ``A_plus`` left; both sides meet continuously at ``x = 0``), handed
    over to :func:`acoustic_front_airy` from ``FRONT_SWITCH_WIDTHS``
    envelope widths inside the front ``|x| = c t`` and zero beyond
    ``CONTINUATION_WIDTHS`` widths outside it.  Returns shape ``(n, 2)``.
    """
    return _with_airy(_acoustic_uniform(params, profile, mu, x, t))


def _acoustic_uniform(
    params: LatticeParams,
    profile: InitialProfile,
    mu: float,
    x,
    t: float,
) -> tuple:
    """:func:`acoustic_uniform` as a part for :func:`_with_airy`."""
    _require_unit_delta(params, mu)
    _require_positive_time(t)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    disp = Dispersion(params)
    q = disp.dispersion_coefficient
    width = mu ** (2.0 / 3.0) * (q * t) ** (1.0 / 3.0)

    def interior(xs: np.ndarray) -> tuple:
        sp = acoustic_stationary(params, xs, t)
        p = sp.momenta[:, 0]
        curv = disp.omega1_smooth_derivs(p, 2)[2]
        amp = np.einsum(
            "nij,nj->ni", disp.modal_matrix(p, ACOUSTIC), spectral_vector(profile, 1.0, p)
        ) / np.sqrt(t * np.abs(curv))[:, None]
        z, envelope = _envelope_parts(sp.action / mu, +1)

        def finish(ai: np.ndarray, aip: np.ndarray) -> np.ndarray:
            a_plus = envelope(ai, aip)
            env = np.where(xs >= 0.0, a_plus.conj(), a_plus)  # A_minus = conj(A_plus)
            return np.sqrt(2.0 * mu / np.pi) * (amp * env[:, None]).real

        return z, finish

    return _uniform(
        x_arr,
        t,
        front_speed=disp.sound_speed,
        width=width,
        interior_fn=interior,
        front_fn=lambda xs, side: _front_airy(params, profile, mu, xs, t, side, ACOUSTIC),
    )


def optical_uniform(
    params: LatticeParams,
    profile: InitialProfile,
    mu: float,
    x,
    t: float,
) -> np.ndarray:
    """Uniform optical evaluator on the whole line.

    ``sqrt(2 mu / pi) Re{ e^{i Theta/mu} [ b(p_max) A_plus(Psi/mu)
    + b(p_min) A_minus(Psi/mu) ] }`` with
    ``b(p) = B(p) Vtilde(p) / sqrt(t |omega_2''(p)|)`` at the stationary
    pair, handed over to :func:`optical_front_airy` from
    ``FRONT_SWITCH_WIDTHS`` envelope widths inside ``|x| = c* t`` and
    zero beyond ``CONTINUATION_WIDTHS`` widths outside it.  Returns shape
    ``(n, 2)``.
    """
    return _with_airy(_optical_uniform(params, profile, mu, x, t))


def _optical_uniform(
    params: LatticeParams,
    profile: InitialProfile,
    mu: float,
    x,
    t: float,
) -> tuple:
    """:func:`optical_uniform` as a part for :func:`_with_airy`."""
    _require_unit_delta(params, mu)
    _require_positive_time(t)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    disp = Dispersion(params)
    crit = disp.critical
    width = mu ** (2.0 / 3.0) * (crit.q_star * t) ** (1.0 / 3.0)

    def interior(xs: np.ndarray) -> tuple:
        sp = optical_stationary(params, xs, t)
        p = sp.momenta  # (n, 2): p_minus, p_plus
        curv = disp.omega2_derivs(p, 2)[2]
        b = np.einsum(
            "nkij,nkj->nki", disp.modal_matrix(p, OPTICAL), spectral_vector(profile, 1.0, p)
        ) / np.sqrt(t * np.abs(curv))[..., None]
        # Phi is maximal at p_minus for x >= 0 and at p_plus for x < 0; the
        # maximum pairs with A_plus (stationary phase: local max -> e^{-i pi/4}).
        right = (xs >= 0.0)[:, None]
        b_max = np.where(right, b[:, 0], b[:, 1])
        b_min = np.where(right, b[:, 1], b[:, 0])
        z, envelope = _envelope_parts(sp.action / mu, +1)

        def finish(ai: np.ndarray, aip: np.ndarray) -> np.ndarray:
            a_plus = envelope(ai, aip)[:, None]
            combo = b_max * a_plus + b_min * a_plus.conj()  # A_minus = conj(A_plus)
            carrier = np.exp(1j * sp.carrier / mu)[:, None]
            return np.sqrt(2.0 * mu / np.pi) * (carrier * combo).real

        return z, finish

    return _uniform(
        x_arr,
        t,
        front_speed=crit.c_star,
        width=width,
        interior_fn=interior,
        front_fn=lambda xs, side: _front_airy(params, profile, mu, xs, t, side, OPTICAL),
    )


def shortwave_total(
    params: LatticeParams,
    profile: InitialProfile,
    mu: float,
    x,
    t: float,
) -> WaveField:
    """Sum of the uniform acoustic and optical evaluators as a field.

    The slow acoustic profile carries the bulk displacement; the optical
    part superposes a fast carrier oscillation under an Airy envelope
    near ``|x| = c* t``.  Both take their Airy values from one call.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    parts = [
        _acoustic_uniform(params, profile, mu, x_arr, t),
        _optical_uniform(params, profile, mu, x_arr, t),
    ]
    total = _with_airy(_joined(parts, lambda fields: fields[0] + fields[1]))
    return WaveField(
        x=x_arr,
        u=total[:, 0],
        v=total[:, 1],
        t=float(t),
        method="shortwave_total",
    )
