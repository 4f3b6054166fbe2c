"""Airy function of the first kind: ``scipy.special`` plus a short tail.

The wave fronts of the lattice are universally described by ``Ai`` and its
derivative: the long-wave closed form and the short-wave front and uniform
forms all go through this module.

Evaluation strategy
-------------------
* ``|z| < _TAIL_SWITCH`` (``1e4``) — ``scipy.special.airy`` for ``Ai`` and
  ``Ai'``, ``scipy.special.airye`` for the scaled ``Ai e^{(2/3) z^{3/2}}``.
* ``|z| >= _TAIL_SWITCH`` — the large-argument expansions of DLMF §9.7
  (9.7.5 for the scaled ``Ai``, 9.7.9, 9.7.10) with the fixed terms
  ``k = 0..2``; unscaled, ``Ai = 0`` and ``Ai' = -0`` on the decaying
  side.  At the switch ``zeta = (2/3) |z|^{3/2} ~ 6.7e5``, so the first
  dropped term ``u_3 / zeta^3`` is ~1e-19: the sum is exact to rounding.

Why the tail exists: scipy (1.17) returns NaN for ``|z| >~ 1.07e6``, and
the long-wave closed form goes past that on fine lattices (``z ~ 1.8e6``
at ``h = 2.5e-4``, ``mu = 0.05``, ``t = 0.1``).  On the oscillating side
the phase ``zeta`` is rounded like any float, so there ``Ai`` and ``Ai'``
carry an absolute error of a few ``eps * zeta`` times their amplitude,
which is the conditioning of the function, not of the sum.

A NaN argument gives NaN.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from .errors import ConfigError

__all__ = [
    "AIRY_AI_ZERO",
    "AIRY_AI_PRIME_ZERO",
    "airy_ai",
    "airy_ai_prime",
    "airy_ai_pair",
    "airy_ai_scaled",
    "envelope_amplitude",
]

# Ai(0) = 3^(-2/3) / Gamma(2/3), Ai'(0) = -3^(-1/3) / Gamma(1/3)
AIRY_AI_ZERO = 0.35502805388781723926
AIRY_AI_PRIME_ZERO = -0.25881940379280679841

# |z| from which the asymptotic tail replaces scipy.special.
_TAIL_SWITCH = 1e4

_SQRT_PI = 1.7724538509055160273

# u_k, v_k of DLMF 9.7.2 for k = 0, 1, 2.
_U1, _U2 = 5.0 / 72.0, 385.0 / 10368.0
_V1, _V2 = -7.0 / 72.0, -455.0 / 10368.0


def _decaying_tail(z: np.ndarray) -> np.ndarray:
    """``Ai * e^{zeta}`` for ``z >= _TAIL_SWITCH`` (DLMF 9.7.5)."""
    r = 1.0 / ((2.0 / 3.0) * z**1.5)
    return (1.0 - _U1 * r + _U2 * r * r) / (2.0 * _SQRT_PI * z**0.25)


def _oscillating_tail(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(Ai, Ai')`` for ``z <= -_TAIL_SWITCH`` (DLMF 9.7.9-10)."""
    x = -z
    zeta = (2.0 / 3.0) * x**1.5
    r = 1.0 / zeta
    cw, sw = np.cos(zeta - 0.25 * np.pi), np.sin(zeta - 0.25 * np.pi)
    x4 = x**0.25
    ai = (cw * (1.0 - _U2 * r * r) + sw * _U1 * r) / (_SQRT_PI * x4)
    aip = x4 * (sw * (1.0 - _V2 * r * r) - cw * _V1 * r) / _SQRT_PI
    return ai, aip


def airy_ai_pair(z) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate ``(Ai(z), Ai'(z))`` elementwise for real ``z``.

    Scalar input returns scalar outputs.
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    ai, aip, _, _ = special.airy(z_arr)
    pos = z_arr >= _TAIL_SWITCH
    neg = z_arr <= -_TAIL_SWITCH
    # e^{-(2/3) z^{3/2}} underflows to 0 from the switch on (z^{3/2} >= 1e6)
    ai[pos], aip[pos] = 0.0, -0.0
    if np.any(neg):
        ai[neg], aip[neg] = _oscillating_tail(z_arr[neg])
    if np.isscalar(z) or np.ndim(z) == 0:
        return float(ai[0]), float(aip[0])
    return ai, aip


def airy_ai(z):
    """``Ai(z)`` for real ``z`` (see :func:`airy_ai_pair`)."""
    return airy_ai_pair(z)[0]


def airy_ai_prime(z):
    """``Ai'(z)`` for real ``z`` (see :func:`airy_ai_pair`)."""
    return airy_ai_pair(z)[1]


def airy_ai_scaled(z):
    """``Ai(z) * exp((2/3) z^{3/2})`` for ``z >= 0``, overflow-free.

    Used by the long-wave closed form, whose prefactor carries a large
    positive exponent that cancels the Airy decay analytically.
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z_arr < 0.0):
        raise ConfigError("airy_ai_scaled requires z >= 0")
    out = special.airye(z_arr)[0]
    big = z_arr >= _TAIL_SWITCH
    if np.any(big):
        out[big] = _decaying_tail(z_arr[big])
    if np.isscalar(z) or np.ndim(z) == 0:
        return float(out[0])
    return out


def envelope_amplitude(y, sign: int = +1):
    """Front-transition amplitude ``A_{+/-}(y)`` for ``y > 0``.

    ``A_{+/-}(y) = sqrt(pi) [ (3y/2)^{1/6} Ai(-(3y/2)^{2/3})
    +/- i (3y/2)^{-1/6} Ai'(-(3y/2)^{2/3}) ]``.

    It interpolates between the oscillatory interior (``|A| -> 1`` as
    ``y -> inf``, matching a pure phase ``exp(-/+ i(y - pi/4))``) and the
    Airy-function front.
    """
    if sign not in (+1, -1):
        raise ConfigError(f"sign must be +1 or -1, got {sign!r}")
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    if np.any(y_arr <= 0.0):
        raise ConfigError("envelope_amplitude requires y > 0")
    w = (1.5 * y_arr) ** (1.0 / 6.0)
    ai, aip = airy_ai_pair(-(w ** 4))
    out = _SQRT_PI * (w * ai + sign * 1j * aip / w)
    if np.isscalar(y) or np.ndim(y) == 0:
        return complex(out[0])
    return out
