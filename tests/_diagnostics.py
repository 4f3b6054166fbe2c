"""Diagnostics that check the package from outside: no command computes them.

* :func:`fd_weights` -- Fornberg's finite-difference stencil weights;
* :func:`residual_pde_check` -- the continuum-equation residual of a
  long-wave evaluator (acceptance criterion 9);
* :class:`GapReport` and :func:`poisson_gap` -- how far the sublattice sums
  of :func:`diatomic_waves.semi_discrete_ft` sit from the continuum
  transform (criterion 7);
* :func:`airy_ai_prime` -- ``Ai'`` alone (criterion 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from diatomic_waves import Dispersion, InitialProfile, LatticeParams, airy_ai_pair, semi_discrete_ft
from diatomic_waves._quadrature import _check_mu
from diatomic_waves.errors import ConfigError

_HALF_SQRT_2PI = np.sqrt(np.pi / 2.0)


def fd_weights(offsets, order: int) -> np.ndarray:
    """Weights ``w`` with ``f^(order)(0) ~= sum_j w[j] f(offsets[j])``.

    ``offsets`` are distinct node positions relative to the evaluation
    point (not yet scaled by any step size; callers divide the result by
    ``step**order``).
    """
    x = np.asarray(offsets, dtype=float)
    n = x.size
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    if order >= n:
        raise ValueError(f"{n} nodes cannot resolve derivative order {order}")
    c = np.zeros((n, order + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0]
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = x[i]
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order]


def residual_pde_check(
    field_fn: Callable[[np.ndarray, float], np.ndarray],
    params: LatticeParams,
    mu: float,
    x_grid,
    t: float,
    *,
    equation: str = "dispersive6",
) -> float:
    """Normalized finite-difference residual of a continuum evaluator.

    ``equation="wave"`` tests ``U_tt = c^2 U_xx``; ``"dispersive6"``
    tests the sixth-order model
    ``U_tt = c^2 U_xx + (2/3) c q h^2 U_4x + (1/9) q^2 h^4 U_6x``
    (whose symbol is the exact square of the cubic phase ``c k - q h^2
    k^3 / 3``).  Spatial derivatives use 13-point central stencils and
    the time derivative a 7-point stencil, sampled by extra calls to
    ``field_fn``.  The space step is an eighth of the narrower of ``mu``
    and the Airy width ``h^{2/3} (q t)^{1/3}``; the time step is half the
    time the sound takes to cross it, and at most ``t / 8``.  The sup-norm
    residual is normalized by the larger of the ``U_tt`` and ``c^2 U_xx``
    scales so the result is dimensionless.
    """
    if equation not in ("wave", "dispersive6"):
        raise ConfigError(f"equation must be 'wave' or 'dispersive6', got {equation!r}")
    _check_mu(mu)
    x_arr = np.atleast_1d(np.asarray(x_grid, dtype=float))
    disp = Dispersion(params)
    c = disp.sound_speed
    q = disp.dispersion_coefficient
    width = mu
    if t > 0.0:
        width = min(width, params.h ** (2.0 / 3.0) * (q * t) ** (1.0 / 3.0))
    dx = width / 8.0
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


def airy_ai_prime(z):
    """``Ai'(z)`` for real ``z`` (see :func:`diatomic_waves.airy_ai_pair`)."""
    return airy_ai_pair(z)[1]
