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

Every form is linear in ``(Ai(z), Ai'(z))``: a piece of a field is a record
``(at, z, c_ai, c_aip)`` of grid indices, Airy arguments and ``(n, 2)``
complex coefficients, worth ``Re(c_ai Ai(z) + c_aip Ai'(z))`` at ``at``.  The
evaluators build records, and :func:`_airy_sum` turns a list of them into a
field with one Airy call.  The pieces of a call (interior and both front
bands of each branch) first name the momenta at which they need the band
data, and :func:`_records` evaluates all of them in one ``spectral_vector``
call.

Every public evaluator, front or uniform, takes ``t`` as one time or as a 1-D
sequence of times (one time gives one result, a sequence a list in its order).
A sequence is one pass on the grid ``x`` repeated once per time, each point
with its own time (:func:`_stacked`): one ``spectral_vector`` call and one
Airy call for every time, and for the uniform forms one stationary solve per
branch.  No step mixes points, so each time's field has the bits of its own
call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._quadrature import _check_mu, _check_times, _gauss_legendre
from .airy import _envelope_root, airy_ai_pair
from .dispersion import ACOUSTIC, OPTICAL, Dispersion, LatticeParams
from .errors import ConfigError, NumericalError, RegimeError
from .initial_data import InitialProfile, spectral_vector
from .oracles import WaveField

__all__ = [
    "StationaryPoints",
    "acoustic_stationary",
    "optical_stationary",
    "acoustic_front_airy",
    "acoustic_uniform",
    "optical_front_airy",
    "optical_uniform",
    "shortwave_total",
]

#: Switch from the uniform form to the front form at ``front - 0.01 width``.
#: The stationary-point machinery stays numerically stable essentially up
#: to the front, and the interior uniform forms are one asymptotic order
#: more accurate than the front forms, so the front band is kept thin.
FRONT_SWITCH_WIDTHS = 0.01

#: Evaluate the front form out to ``front + 5 widths``; zero beyond.
CONTINUATION_WIDTHS = 5.0

_Z_FLOOR = 1e-12
_ROOT_RESIDUAL = 1e-10
#: Iteration cap of the stationary-point Newton solve.  Halving alone would
#: shrink a bracket (width <= pi/2) to 2^-60 pi/2 = 1.4e-18 in that many steps.
_NEWTON_CAP = 60
#: A point stops once its residual is at rounding level or its step is this short.
_RESIDUAL_FLOOR = 4.0 * np.finfo(float).eps
_STEP_FLOOR = 1e-13
_GL_PSI_NODES, _GL_PSI_WEIGHTS = _gauss_legendre(32)


def _require_unit_delta(params: LatticeParams, mu: float) -> None:
    _check_mu(mu)
    if abs(params.h - mu) > 1e-9 * mu:
        raise RegimeError(
            f"short-wave evaluators require delta = h/mu = 1, got "
            f"h={params.h!r}, mu={mu!r}; use the band quadrature or the "
            "long-wave evaluators for delta != 1"
        )


def _require_positive_time(t) -> None:
    """``ConfigError`` naming the first time of ``t`` (one time or an array) that
    is not finite and positive."""
    times = np.asarray(t, dtype=float)
    bad = ~(np.isfinite(times) & (times > 0.0))
    if np.any(bad):
        raise ConfigError(
            f"short-wave asymptotics require finite t > 0, got {float(times[bad][0])!r}"
        )


# ---------------------------------------------------------------------------
# Spectral splits and continuation
# ---------------------------------------------------------------------------

def _splits(p_c: float, eta: np.ndarray) -> tuple[np.ndarray, Callable]:
    """The splits ``(F1, F2)`` about the critical momentum ``p_c`` at the points ``eta``,
    as ``(momenta, splits)``: the momenta at which they need the band data ``V`` and the
    function that takes ``V`` there (``spectral_vector`` values, shape
    ``momenta.shape + (2,)``) to ``(F1, F2)``.

    ``F1(eta) = (V(p_c - sqrt eta) + V(p_c + sqrt eta)) / 2`` and
    ``F2(eta) = (V(p_c - sqrt eta) - V(p_c + sqrt eta)) / (2 sqrt eta)`` for ``eta >= 0``
    (minus side first, matching the front formulas that consume them), so
    ``V(p_c -+ sqrt eta) = F1 +- sqrt(eta) F2``.  A point ``eta < 0`` is continued by the
    quadratic rule ``F(eta) = 3 F(0) - 3 F(-eta) + F(-2 eta)``, exact to degree 2.

    The momenta hold every point, ``0`` and both stencil points of every continued
    point.  The site sums of :func:`~diatomic_waves.initial_data.spectral_vector` give
    each momentum the value it has alone, however they are evaluated together, so every
    split is the one a call of its own would give.  ``eta`` is floored at ``1e-12``:
    ``F2(0)`` is a difference quotient over ``p_c -+ 1e-6``, with a rounding of about
    ``eps / 1e-6`` relative.  A nan point gets nan splits, without a warning.
    """
    pos = eta >= 0.0
    z = -eta[~pos]
    n, m = np.count_nonzero(pos), z.size
    root = np.sqrt(np.maximum(np.concatenate((eta[pos], [0.0], z, 2.0 * z)), _Z_FLOOR))

    def splits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        vm, vp = v
        out = np.empty((2,) + eta.shape + (2,), dtype=complex)
        with np.errstate(invalid="ignore"):  # a nan point's root is nan, and so is its F2
            odd = (vm - vp) / (2.0 * root[:, None])
        for f, w in zip(out, (0.5 * (vm + vp), odd)):
            f[pos] = w[:n]
            f[~pos] = 3.0 * w[n] - 3.0 * w[n + 1 : n + 1 + m] + w[n + 1 + m :]
        return out[0], out[1]

    return np.stack((p_c - root, p_c + root)), splits


# ---------------------------------------------------------------------------
# Stationary-point machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StationaryPoints:
    """Stationary-phase data of one mode at the points ``x``, each at its time ``t``.

    ``momenta`` has shape ``x.shape + (1,)`` holding ``p`` for the
    acoustic mode, or ``x.shape + (2,)`` holding ``(p_minus, p_plus)``
    straddling ``p*`` for the optical mode; ``action`` (shape ``x.shape``)
    is the non-negative Airy phase (``S`` acoustic, ``Psi`` optical),
    ``carrier`` the optical mean phase ``Theta`` (zero for acoustic) and
    ``curvature`` the branch's ``omega''`` at each momentum (shape of
    ``momenta``; the smooth ``omega_1''`` for acoustic).
    """

    momenta: np.ndarray
    action: np.ndarray
    carrier: np.ndarray
    curvature: np.ndarray

    def __post_init__(self) -> None:
        shapes = np.shape(self.curvature), np.shape(self.momenta)
        if shapes[0] != shapes[1]:
            raise ConfigError("curvature shape {} differs from momenta shape {}".format(*shapes))
        if not np.all(self.action >= 0.0):
            raise NumericalError(
                f"negative action (min {float(np.min(self.action))!r}): a point lies "
                "beyond the continuation region"
            )


def _newton(derivs: Callable, target, sign, p, lo, hi) -> np.ndarray:
    """Elementwise root of ``f = sign (g - target)``, decreasing on each ``[lo, hi]``.

    ``derivs(p)`` returns ``(g, g')`` from one call; ``p`` is the starting
    guess, inside the closed bracket.  Each Newton iterate replaces the
    bracket end of its own sign.  A step that leaves the closed bracket goes
    to the end it crossed the first time (the root may sit on a bracket end,
    as at ``x = 0``, and the residual test stops it there) and to the
    bracket's midpoint after that.  A point stops once ``|f| <= 4 eps`` or
    its step is at most ``_STEP_FLOOR``, and only its own values decide that,
    so its root does not depend on the other points.  NaN points never move;
    the caller's residual check rejects them, as it rejects a point whose
    bracket held no sign change.  Returns the roots, flattened.
    """
    p, lo, hi, target, sign = (
        np.array(a, dtype=float).ravel() for a in np.broadcast_arrays(p, lo, hi, target, sign)
    )
    crossed = np.zeros(p.shape, dtype=bool)
    live = np.flatnonzero(~np.isnan(p))
    for _ in range(_NEWTON_CAP):
        if not live.size:
            break
        q = p[live]
        g, slope = derivs(q)
        f = sign[live] * (g - target[live])
        a = np.where(f > 0.0, q, lo[live])
        b = np.where(f < 0.0, q, hi[live])
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = q - (g - target[live]) / slope
        out = ~((a <= nxt) & (nxt <= b))
        first = out & ~crossed[live]
        end = np.where(nxt > b, b, a)
        nxt = np.where(out, np.where(first, end, 0.5 * (a + b)), nxt)
        settled = np.abs(f) <= _RESIDUAL_FLOOR
        p[live] = np.where(settled, q, nxt)
        lo[live], hi[live] = a, b
        crossed[live] |= out
        live = live[~(settled | (np.abs(nxt - q) <= _STEP_FLOOR))]
    return p


def _dispersion(params: LatticeParams | Dispersion) -> Dispersion:
    """``params`` itself when it is a :class:`Dispersion` already (so its
    critical point is solved once), else a new one."""
    return params if isinstance(params, Dispersion) else Dispersion(params)


def _reject_beyond_front(x: np.ndarray, front: np.ndarray, branch: str, speed: str) -> None:
    beyond = np.abs(x) >= front
    if np.any(beyond):
        raise NumericalError(
            f"x={float(x[beyond][0])!r} is on or beyond the {branch} front |x| = {speed} = "
            f"{float(front[beyond][0])!r}; use {branch}_front_airy there"
        )


def _points(x, t) -> tuple[np.ndarray, np.ndarray]:
    """``x`` and ``t`` as float arrays broadcast against each other."""
    return np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))


def acoustic_stationary(params: LatticeParams | Dispersion, x, t) -> StationaryPoints:
    """Acoustic stationary momentum ``p`` solving ``omega_1'(p) = |x| / t``.

    The group speed of the smooth acoustic branch decreases from ``c``
    at ``p = 0`` to ``0`` at the zone edge ``p = pi/2``, so there is a
    unique root for ``|x| < c t`` (``p -> pi/2`` as ``x -> 0``), found for
    every point of ``x`` (scalar or array) at once by bracketed Newton
    iteration on ``[0, pi/2]`` (:func:`_newton`), started from the front's
    cubic model ``omega_1' = c - q p^2``.  ``t`` is one time or an array of
    times that broadcasts against ``x``, one per point.  ``params`` may be a
    :class:`Dispersion` to reuse.  The stored action
    ``S = omega_1(p) t - p |x|`` is computed in the cancellation-free
    Legendre form ``t m(p) + p (t omega_1'(p) - |x|)``.
    """
    _require_positive_time(t)
    disp = _dispersion(params)
    x_arr, t = _points(x, t)
    _reject_beyond_front(x_arr, disp.sound_speed * t, "acoustic", "c t")
    ax = np.abs(x_arr)
    target = ax / t
    guess = np.sqrt(np.maximum(disp.sound_speed - target, 0.0) / disp.dispersion_coefficient)
    p = _newton(
        lambda s: disp.omega1_smooth_derivs(s, 2)[1:],
        target, 1.0, np.minimum(guess, np.pi / 2.0), 0.0, np.pi / 2.0,
    ).reshape(ax.shape)
    _, omega1_p, omega1_pp = disp.omega1_smooth_derivs(p, 2)
    residual = np.max(np.abs(omega1_p - target), initial=0.0)
    if not residual <= _ROOT_RESIDUAL:
        raise NumericalError(f"acoustic stationary residual {residual:.3e} > {_ROOT_RESIDUAL}")
    action = t * disp.legendre_omega1(p) + p * (t * omega1_p - ax)
    return StationaryPoints(
        momenta=p[..., None], action=action, carrier=np.zeros_like(action),
        curvature=omega1_pp[..., None],
    )


def optical_stationary(params: LatticeParams | Dispersion, x, t) -> StationaryPoints:
    """Optical stationary pair ``p_- < p* < p_+`` with phases ``Theta, Psi``.

    Both momenta solve ``omega_2'(p) = -|x| / t`` (the optical group
    speed runs from 0 at the zone centre through ``-c*`` at ``p*`` back
    to 0 at the zone edge); they exist for ``|x| < c* t`` and are found
    for every point of ``x`` (scalar or array) at once by bracketed Newton
    iteration on ``[0, p*]`` and ``[p*, pi/2]`` (:func:`_newton`), started
    from the front's cubic model ``omega_2' = -c* + q* (p - p*)^2``.
    ``t`` is one time or an array of times that broadcasts against ``x``.
    ``params`` may be a :class:`Dispersion` to reuse, with its ``p*``.
    With the side phase
    ``Phi(p) = p x + omega_2(p) t`` (``x >= 0``) or
    ``p x - omega_2(p) t`` (``x < 0``), the stored values are
    ``Theta = (Phi(p_+) + Phi(p_-)) / 2`` and the non-negative
    ``Psi = -(t/2) * int_{p_-}^{p_+} (p_+ - s) omega_2''(s) ds``
    (equal to half the phase spread ``|Phi(p_max) - Phi(p_min)|``,
    evaluated as an integral to stay accurate as ``p_+- -> p*``).
    """
    _require_positive_time(t)
    disp = _dispersion(params)
    crit = disp.critical
    x_arr, t = _points(x, t)
    _reject_beyond_front(x_arr, crit.c_star * t, "optical", "c* t")
    target = (-np.abs(x_arr) / t)[..., None]
    # omega_2' falls on [0, p*] and rises on [p*, pi/2]; the sign flip makes
    # the residual decreasing on both brackets.
    flip = np.array([1.0, -1.0])
    shape = x_arr.shape + (2,)
    lo, hi = np.array([0.0, crit.p_star]), np.array([crit.p_star, np.pi / 2.0])
    shift = np.sqrt(np.maximum(crit.c_star + target, 0.0) / crit.q_star)
    momenta = _newton(
        lambda s: disp.omega2_derivs(s, 2)[1:],
        target, flip, np.clip(crit.p_star - flip * shift, lo, hi), lo, hi,
    ).reshape(shape)
    omega2, omega2_p, omega2_pp = disp.omega2_derivs(momenta, 2)
    residual = np.max(np.abs(omega2_p - target), initial=0.0)
    if not residual <= _ROOT_RESIDUAL:
        raise NumericalError(f"optical stationary residual {residual:.3e} > {_ROOT_RESIDUAL}")
    p_minus, p_plus = momenta[..., 0], momenta[..., 1]

    # Psi = -(t/2) int_{p-}^{p+} (p+ - s) w2''(s) ds  by 32-node Gauss-Legendre.
    half = 0.5 * (p_plus - p_minus)
    mid = 0.5 * (p_plus + p_minus)
    nodes = mid[..., None] + half[..., None] * _GL_PSI_NODES
    w2dd = disp.omega2_derivs(nodes, 2)[2]
    # einsum, not a BLAS product, so a point's sum does not depend on the batch size
    psi = -0.5 * t * half * np.einsum("...k,k->...", (p_plus[..., None] - nodes) * w2dd,
                                      _GL_PSI_WEIGHTS)

    sgn = np.where(x_arr >= 0.0, 1.0, -1.0)[..., None]
    phi = momenta * x_arr[..., None] + sgn * omega2 * t[..., None]
    theta = 0.5 * (phi[..., 1] + phi[..., 0])
    return StationaryPoints(momenta=momenta, action=psi, carrier=theta, curvature=omega2_pp)


# ---------------------------------------------------------------------------
# Airy records
# ---------------------------------------------------------------------------

def _airy_sum(size: int, records: list) -> np.ndarray:
    """The ``(size, 2)`` field of ``records``, from one
    :func:`~diatomic_waves.airy.airy_ai_pair` call.

    A record ``(at, z, c_ai, c_aip)`` adds ``Re(c_ai Ai(z) + c_aip Ai'(z))``
    (coefficients of shape ``(n, 2)``) at the grid indices ``at``.  A call
    costs a few dozen numpy operations whatever its size, so the evaluators
    only build records and :func:`shortwave_total` sums both branches' in one
    call.  Each value is the one a call of its own would give
    (:mod:`~diatomic_waves.airy` sums every point alone).
    """
    out = np.zeros((size, 2))
    if records:
        at, z, c_ai, c_aip = (np.concatenate(column) for column in zip(*records))
        ai, aip = airy_ai_pair(z)
        np.add.at(out, at, (c_ai * ai[:, None] + c_aip * aip[:, None]).real)
    return out


def _records(profile: InitialProfile, pieces: list) -> list:
    """Airy records (see :func:`_airy_sum`) of ``pieces``, from one
    :func:`~diatomic_waves.initial_data.spectral_vector` call.

    A piece ``(at, momenta, finish)`` holds grid indices, the momenta at which
    its form needs the band data, and the function that takes the data there
    (shape ``momenta.shape + (2,)``) to its record's ``(z, c_ai, c_aip)``.
    """
    if not pieces:
        return []
    v = spectral_vector(profile, 1.0, np.concatenate([piece[1].ravel() for piece in pieces]))
    records, start = [], 0
    for at, momenta, finish in pieces:
        stop = start + momenta.size
        records.append((at, *finish(v[start:stop].reshape(momenta.shape + (2,)))))
        start = stop
    return records


# ---------------------------------------------------------------------------
# Front Airy evaluators
# ---------------------------------------------------------------------------

def _front(disp: Dispersion, branch: int) -> tuple[float, float, float, float, float]:
    """``(p_c, omega, s, k, n)`` of one branch's fronts: its critical momentum,
    the frequency there, the front speed, the curvature and the weight.

    Acoustic: ``0``, ``omega_1(0) = 0`` (the carrier is 1), ``c``, ``q`` and 1.
    Optical: ``p*``, ``omega_2(p*)``, ``c*``, ``q*`` and 2 for the pair ``+-p*``.
    """
    if branch == ACOUSTIC:
        return 0.0, 0.0, disp.sound_speed, disp.dispersion_coefficient, 1.0
    crit = disp.critical
    return crit.p_star, float(disp.omega2_derivs(crit.p_star, 0)[0]), crit.c_star, crit.q_star, 2.0


def _front_scales(mu: float, curv: float, times) -> tuple[np.ndarray, np.ndarray]:
    """The envelope width ``w = mu^{2/3} (k t)^{1/3}`` and ``r = (mu / (k t))^{1/3}``
    of a front of curvature ``k`` at each of ``times``, formed one time at a time in
    Python floats: numpy's vector power rounds some values otherwise than the scalar
    one, and the band edges ``s t -+ c w`` are to be the scalar formula's."""
    times = [float(t) for t in times]
    width = [mu ** (2.0 / 3.0) * (curv * t) ** (1.0 / 3.0) for t in times]
    return np.array(width), np.array([(mu / (curv * t)) ** (1.0 / 3.0) for t in times])


def _front_airy(
    disp: Dispersion, mu: float, x: np.ndarray, t: np.ndarray, scales: tuple,
    side: str, branch: int, front: tuple,
) -> tuple[np.ndarray, Callable]:
    """The Airy form of one branch near its front (:func:`_front`) on ``side``,
    at the points ``x``, each at its time ``t`` with its ``(w, r)`` of
    :func:`_front_scales` in ``scales``, as a piece ``(momenta, finish)`` of
    :func:`_records`.

    With ``(p_c, omega, s, k, n) = front``, ``P = P(p_c)``, ``y = x - s t``,
    ``w = mu^{2/3} (k t)^{1/3}`` and ``r = (mu/(k t))^{1/3}``, the right front is
    ``n r Re{ e^{i (p_c x + omega t)/mu} P [F1 Ai(y/w) + i r F2 Ai'(y/w)] }``
    with the splits ``F1``, ``F2`` (:func:`_splits`) about ``p_c`` at
    ``-y/(k t)``, continued beyond the front.  The left front takes
    ``y = -(x + s t)``, ``p_c x - omega t`` and ``-i`` on the ``Ai'`` term.
    """
    p_c, omega_c, speed, curv, weight = front
    width, cube = scales
    if side == "right":
        y, phase, deriv_sign = x - speed * t, (p_c * x + omega_c * t) / mu, 1.0
    else:
        y, phase, deriv_sign = -(x + speed * t), (p_c * x - omega_c * t) / mu, -1.0
    momenta, splits = _splits(p_c, -y / (curv * t))
    projector = disp.modal_matrix(p_c, branch)
    carrier = (weight * cube * np.exp(1j * phase))[:, None]

    def finish(v: np.ndarray) -> tuple:
        # einsum, not a BLAS product, so a point's value does not depend on the batch size
        f1, f2 = (np.einsum("ij,nj->ni", projector, f) for f in splits(v))
        c_aip = (deriv_sign * 1j * cube)[:, None] * carrier * f2
        return y / width, carrier * f1, c_aip

    return momenta, finish


def acoustic_front_airy(
    params: LatticeParams,
    profile: InitialProfile,
    mu: float,
    x,
    t,
    front: str = "right",
) -> np.ndarray | list[np.ndarray]:
    """Airy representation of the acoustic mode near a front ``x = +-ct``.

    :func:`_front_airy` about ``p_c = 0``: speed ``c``, curvature ``q``,
    projector ``A(0)``, carrier 1 and weight 1.  The splits about 0 are the
    even/odd parts of the spectral vector in ``p^2``.  Returns shape ``(n, 2)``
    (heavy, light components) for one time ``t``, and a list of them for a
    1-D sequence of times.
    """
    return _front_fields(params, profile, mu, x, t, front, ACOUSTIC)


def optical_front_airy(
    params: LatticeParams,
    profile: InitialProfile,
    mu: float,
    x,
    t,
    front: str = "right",
) -> np.ndarray | list[np.ndarray]:
    """Airy-envelope representation of the optical mode near ``x = +-c*t``.

    :func:`_front_airy` about ``p*``: speed ``c*``, curvature ``q*``,
    projector ``B(p*)``, carrier ``e^{i (p* x +- omega_2(p*) t)/mu}`` (right
    front ``+``) and weight 2.  The output oscillates at the carrier
    wavelength ``~ mu / p*`` under an Airy envelope.  Returns shape ``(n, 2)``
    for one time ``t``, and a list of them for a 1-D sequence of times.
    """
    return _front_fields(params, profile, mu, x, t, front, OPTICAL)


# ---------------------------------------------------------------------------
# Uniform evaluators
# ---------------------------------------------------------------------------

def _interior(disp: Dispersion, mu: float, x: np.ndarray, t: np.ndarray, branch: int) -> tuple:
    """The interior form ``sqrt(2 mu / pi) Re[c_+ A_plus(y) + c_- A_minus(y)]`` of one
    branch at the points ``x``, each at its time ``t``, ``y`` its action over ``mu``, as
    a piece ``(momenta, finish)`` of :func:`_records`: the momenta are the stationary
    points.

    With ``A_pm = sqrt(pi) (w Ai(-w^4) +- i Ai'(-w^4) / w)``, ``w = (3y/2)^{1/6}``,
    the coefficients are ``c_ai = sqrt(2 mu) w (c_+ + c_-)`` and
    ``c_aip = sqrt(2 mu) i (c_+ - c_-) / w``.  With the amplitude ``a(p) =
    P(p) Vtilde(p) / sqrt(t |omega''(p)|)``, acoustic ``c_- = a(p)`` right of the
    origin and ``c_+ = a(p)`` left; optical ``c_+ = e^{i Theta/mu} a(p_max)`` and
    ``c_- = e^{i Theta/mu} a(p_min)``.
    """
    right = (x >= 0.0)[:, None]
    sp = (acoustic_stationary if branch == ACOUSTIC else optical_stationary)(disp, x, t)
    p = sp.momenta  # (n, 1) acoustic p, (n, 2) optical p_minus, p_plus
    projector = disp.modal_matrix(p, branch)

    def finish(v: np.ndarray) -> tuple:
        amp = np.einsum("nkij,nkj->nki", projector, v)
        amp /= np.sqrt(t[:, None] * np.abs(sp.curvature))[..., None]
        if branch == ACOUSTIC:
            c_plus, c_minus = np.where(right, 0.0, amp[:, 0]), np.where(right, amp[:, 0], 0.0)
        else:
            # Phi is maximal at p_minus for x >= 0 and at p_plus for x < 0; the
            # maximum pairs with A_plus (stationary phase: local max -> e^{-i pi/4}).
            carrier = np.exp(1j * sp.carrier / mu)[:, None]
            c_plus = carrier * np.where(right, amp[:, 0], amp[:, 1])
            c_minus = carrier * np.where(right, amp[:, 1], amp[:, 0])
        w = _envelope_root(sp.action / mu)
        scale = np.sqrt(2.0 * mu)
        c_ai = (scale * w)[:, None] * (c_plus + c_minus)
        return -(w**4), c_ai, (scale * 1j) * (c_plus - c_minus) / w[:, None]

    return p, finish


def _stacked_records(
    disp: Dispersion, profile: InitialProfile, mu: float, x: np.ndarray, times: np.ndarray,
    branches: tuple, side: str | None,
) -> list:
    """Records of the forms of ``branches`` at every time of ``times`` on the
    stacked grid ``tile(x, T)`` (index ``k n + i`` holds ``x[i]`` at ``times[k]``):
    the front form on ``side`` at every point, or for no ``side`` the uniform form.

    The uniform form of a branch is the interior form up to
    ``FRONT_SWITCH_WIDTHS`` envelope widths inside its front, the front form
    from there to ``CONTINUATION_WIDTHS`` widths beyond it on each side, and
    none (zero) further out; the edges are formed per time and repeated over
    its points.  Every piece of every branch and time takes its band data from
    one spectral evaluation (:func:`_records`)."""
    n = x.size
    stack = np.repeat(np.arange(times.size), n)
    xs, ts = np.tile(x, times.size), times[stack]
    pieces = []
    for branch in branches:
        front = _front(disp, branch)
        _, _, speed, curv, _ = front
        width, cube = _front_scales(mu, curv, times)
        if side is None:
            switch = (speed * times - FRONT_SWITCH_WIDTHS * width)[stack]
            outer = (speed * times + CONTINUATION_WIDTHS * width)[stack]
            inside = np.flatnonzero(np.abs(xs) <= switch)
            if inside.size:
                pieces.append((inside, *_interior(disp, mu, xs[inside], ts[inside], branch)))
            right, left = (xs > switch) & (xs <= outer), (xs < -switch) & (xs >= -outer)
            bands = {"right": right, "left": left}
        else:
            bands = {side: np.full(xs.shape, True)}
        for band_side, band in bands.items():
            at = np.flatnonzero(band)
            if at.size:
                scales = (width[stack[at]], cube[stack[at]])
                piece = _front_airy(disp, mu, xs[at], ts[at], scales, band_side, branch, front)
                pieces.append((at, *piece))
    return _records(profile, pieces)


def _stacked(
    params: LatticeParams, profile: InitialProfile, mu: float, x, t, branches: tuple,
    side: str | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(x, times, fields)``: the grid, the checked times and the ``(T, n, 2)`` sum
    of the forms of ``branches`` (:func:`_stacked_records`) on it at each time,
    from one Airy call."""
    _require_unit_delta(params, mu)
    times = _check_times(t)
    _require_positive_time(times)
    x_arr = np.asarray(x, dtype=float).ravel()
    records = _stacked_records(Dispersion(params), profile, mu, x_arr, times, branches, side)
    fields = _airy_sum(times.size * x_arr.size, records).reshape(times.size, x_arr.size, 2)
    fields[:, np.isnan(x_arr)] = np.nan  # NaN x: in no uniform piece, NaN as in the front forms
    return x_arr, times, fields


def _front_fields(
    params: LatticeParams, profile: InitialProfile, mu: float, x, t, side: str, branch: int
) -> np.ndarray | list[np.ndarray]:
    """The front form of ``branch`` on ``side``, as :func:`acoustic_front_airy` returns it."""
    if side not in ("left", "right"):
        raise ConfigError(f"front must be 'left' or 'right', got {side!r}")
    _, _, fields = _stacked(params, profile, mu, x, t, (branch,), side)
    return list(fields) if np.ndim(t) else fields[0]


def acoustic_uniform(
    params: LatticeParams,
    profile: InitialProfile,
    mu: float,
    x,
    t,
) -> np.ndarray | list[np.ndarray]:
    """Uniform acoustic evaluator on the whole line.

    ``sqrt(2 mu / pi) Re[ A(p) Vtilde(p) A_pm(S/mu) ] / sqrt(t |omega_1''(p)|)``
    at the stationary momentum (``A_minus`` right of the origin,
    ``A_plus`` left; both sides meet continuously at ``x = 0``), handed
    over to :func:`acoustic_front_airy` from ``FRONT_SWITCH_WIDTHS``
    envelope widths inside the front ``|x| = c t`` and zero beyond
    ``CONTINUATION_WIDTHS`` widths outside it.  Returns shape ``(n, 2)``
    for one time ``t``, and a list of them for a 1-D sequence of times.
    """
    _, _, fields = _stacked(params, profile, mu, x, t, (ACOUSTIC,))
    return list(fields) if np.ndim(t) else fields[0]


def optical_uniform(
    params: LatticeParams,
    profile: InitialProfile,
    mu: float,
    x,
    t,
) -> np.ndarray | list[np.ndarray]:
    """Uniform optical evaluator on the whole line.

    ``sqrt(2 mu / pi) Re{ e^{i Theta/mu} [ b(p_max) A_plus(Psi/mu)
    + b(p_min) A_minus(Psi/mu) ] }`` with
    ``b(p) = B(p) Vtilde(p) / sqrt(t |omega_2''(p)|)`` at the stationary
    pair, handed over to :func:`optical_front_airy` from
    ``FRONT_SWITCH_WIDTHS`` envelope widths inside ``|x| = c* t`` and
    zero beyond ``CONTINUATION_WIDTHS`` widths outside it.  Returns shape
    ``(n, 2)`` for one time ``t``, and a list of them for a 1-D sequence
    of times.
    """
    _, _, fields = _stacked(params, profile, mu, x, t, (OPTICAL,))
    return list(fields) if np.ndim(t) else fields[0]


def shortwave_total(
    params: LatticeParams,
    profile: InitialProfile,
    mu: float,
    x,
    t,
) -> WaveField | list[WaveField]:
    """Sum of the uniform acoustic and optical evaluators as a field.

    The slow acoustic profile carries the bulk displacement; the optical
    part superposes a fast carrier oscillation under an Airy envelope
    near ``|x| = c* t``.  Both branches' records share one spectral
    evaluation and one Airy call.  One time ``t`` gives one field, a 1-D
    sequence of times a list of fields in its order.
    """
    x_arr, times, totals = _stacked(params, profile, mu, x, t, (ACOUSTIC, OPTICAL))
    fields = [
        WaveField(x=x_arr, u=total[:, 0], v=total[:, 1], t=float(time), method="shortwave_total")
        for time, total in zip(times, totals)
    ]
    return fields if np.ndim(t) else fields[0]
