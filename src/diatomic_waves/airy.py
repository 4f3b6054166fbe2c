"""Airy function of the first kind, from numpy alone.

The wave fronts of the lattice are universally described by ``Ai`` and its
derivative: the long-wave closed form and the short-wave front and uniform
forms all go through this module.

Evaluation strategy (``x = |z|``, ``zeta = (2/3) x^{3/2}``)
-----------------------------------------------------------
* ``-3.5 < z < 1.6`` — the Maclaurin series ``Ai = sum a_n z^n`` with
  ``a_{n+3} = a_n / ((n + 2)(n + 3))`` (from ``Ai'' = z Ai``), to ``z^53``.
* ``1.6 <= z < 1e4`` — the Laplace integral of ``K_{1/3}`` (DLMF 9.6.1,
  10.32.8): ``Ai e^{zeta} = x^{-1/4} F / (2 sqrt(pi))`` and
  ``Ai' e^{zeta} = -x^{1/4} (F + G / (6 zeta)) / (2 sqrt(pi))`` with
  ``F, G = int_0^inf u^{-1/6} e^{-u} (1 + u / (2 zeta))^{-1/6, -7/6} du
  / Gamma(5/6)``.  ``G / (6 zeta)`` is what ``F``'s derivative in ``zeta``
  adds, so the one rule of weight ``u^{-1/6} e^{-u}`` gives ``Ai'`` too.
* ``-1e4 < z <= -3.5`` — the same integrals at ``zeta -> i zeta``, through
  the connection formula ``Ai(-x) = 2 Re[e^{i pi/3} Ai(x e^{i pi/3})]`` (DLMF
  §9.2), in real arithmetic: with ``phi = zeta - pi/4``,
  ``Ai = x^{-1/4} Re[e^{-i phi} F] / sqrt(pi)`` and
  ``Ai' = x^{1/4} Re[i e^{-i phi} (F - i G / (6 zeta))] / sqrt(pi)``.
* ``|z| >= 1e4`` — the large-argument expansions of DLMF §9.7 (9.7.5 for
  the scaled ``Ai``, 9.7.9, 9.7.10) with the fixed terms ``k = 0..2``;
  unscaled, ``Ai = 0`` and ``Ai' = -0`` on the decaying side.  At the
  switch ``zeta ~ 6.7e5``, so the first dropped term ``u_3 / zeta^3`` is
  ~1e-19: the sum is exact to rounding.

The integrals are generalized Gauss-Laguerre sums.  Their nodes are the
eigenvalues of the Jacobi matrix (``numpy.linalg.eigvalsh``) and their
weights come from its recurrence, built once per process.  The integrand is
singular at ``u = -2 zeta`` (``z > 0``) or ``u = 2 i zeta`` (``z < 0``), so
the nodes needed fall as ``zeta`` grows, and a ladder of four rules uses 40
nodes from the series' ends, 16 from ``zeta`` 3.81 / 5.71
(``z > 0`` / ``z < 0``), 8 from 10.8 / 12.9 and 4 from 64.1 / 62.1.  Each
rung starts where its truncation error, against the integrals at 30
digits, has fallen below one ulp of ``F`` and of the sum that ``Ai'``
takes.  Each point is summed alone, so its value does not depend on the
array it came in, and long arrays are taken 2048 points at a time.

Accuracy against 40-digit mpmath on ``|z| < 50``, in units of the
envelope ``x^{-1/4} / sqrt(pi)`` (``Ai``) or ``x^{1/4} / sqrt(pi)`` (``Ai'``),
times ``e^{-zeta} / 2`` on ``z > 0``: at most 4.0e-14 (``scipy.special``:
4.8e-14).  That is the conditioning of the function, not of the sums: a
relative rounding of ``zeta`` moves the phase by ``eps * zeta`` on
``z < 0`` and ``e^{-zeta}`` by as much on ``z > 0``.  Below ``|z| = 3.5`` the
error is at most 19 ulps of the envelope (``scipy.special``: 96), and the
scaled ``Ai`` is within 13 ulps everywhere (``scipy.special.airye``: 172
near ``z = 2``).

The scaled ``Ai`` is ``Ai e^{zeta}`` for ``z >= 0`` and the bits of ``Ai`` for
``z < 0``, so one call serves both sides of a turning point.  NaN gives NaN.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import ConfigError

__all__ = [
    "AIRY_AI_ZERO",
    "AIRY_AI_PRIME_ZERO",
    "airy_ai",
    "airy_ai_pair",
    "airy_ai_scaled",
    "envelope_amplitude",
]

# Ai(0) = 3^(-2/3) / Gamma(2/3), Ai'(0) = -3^(-1/3) / Gamma(1/3)
AIRY_AI_ZERO = 0.35502805388781723926
AIRY_AI_PRIME_ZERO = -0.25881940379280679841

# |z| from which the asymptotic tail replaces the integrals.
_TAIL_SWITCH = 1e4

#: The Maclaurin series serves _SERIES_LOW < z < _SERIES_HIGH.
_SERIES_LOW, _SERIES_HIGH = -3.5, 1.6

#: Gauss-Laguerre rungs: the rule of _LADDER_NODES[i] nodes serves zeta from
#: edges[i - 1] up to edges[i], with one edge table per sign of z.
_LADDER_NODES = (40, 16, 8, 4)
_DECAYING_EDGES = np.array([3.81, 10.8, 64.1])
_OSCILLATING_EDGES = np.array([5.71, 12.9, 62.1])

#: Points evaluated together: up to 106 series terms or 40 nodes each, so the
#: work arrays stay within a few MB whatever the size of the call.
_BLOCK = 2048

_SQRT_PI = 1.7724538509055160273

# u_k, v_k of DLMF 9.7.2 for k = 0, 1, 2.
_U1, _U2 = 5.0 / 72.0, 385.0 / 10368.0
_V1, _V2 = -7.0 / 72.0, -455.0 / 10368.0


def _series_coefficients() -> np.ndarray:
    """``a_n`` of ``Ai = sum a_n z^n`` (column 0) and ``(n + 1) a_{n+1}`` of
    ``Ai'`` (column 1) for ``n = 1 .. 53``, as a ``(53, 2, 1)`` array: at
    ``|z| = 3.5`` the first term dropped is below 1e-18."""
    degree = 53
    a = [AIRY_AI_ZERO, AIRY_AI_PRIME_ZERO, 0.0]
    for n in range(degree - 1):
        a.append(a[n] / ((n + 2) * (n + 3)))
    a = np.array(a)
    n = np.arange(1, degree + 1)
    return np.stack([a[n], (n + 1) * a[n + 1]], axis=1)[:, :, None]


_SERIES = _series_coefficients()
_SERIES_AT_ZERO = np.array([[AIRY_AI_ZERO], [AIRY_AI_PRIME_ZERO]])


def _maclaurin(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(Ai, Ai')`` for ``_SERIES_LOW < z < _SERIES_HIGH``."""
    powers = z[None].repeat(_SERIES.shape[0], axis=0)
    np.multiply.accumulate(powers, axis=0, out=powers)
    # summed over the leading axis, term after term for every point alike, so
    # a value never depends on the array it came in
    ai, aip = np.add.reduce(_SERIES * powers[:, None], axis=0) + _SERIES_AT_ZERO
    return ai, aip


@cache
def _laguerre_ladder() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every rung's Gauss-Laguerre rule of weight ``u^{-1/6} e^{-u}``, rung after
    rung along the columns of one array (nodes in row 0, weights summing to 1 in
    row 1), with each rung's first column and size.

    The nodes are the eigenvalues of the Jacobi matrix, the weights ``1 / sum_k
    p_k(u)^2`` over the orthonormal polynomials of its recurrence.  Eigenvectors
    would give the weights too, but ``numpy.linalg.eigh`` of the 40-node matrix
    takes ~16 ms with two OpenBLAS threads (0.3 ms with one), and its small
    weights are only accurate to an ulp of the largest."""
    alpha = -1.0 / 6.0
    rules = []
    for n in _LADDER_NODES:
        diag = 2.0 * np.arange(n) + alpha + 1.0
        k = np.arange(1.0, n)
        off = np.sqrt(k * (k + alpha))
        u = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        p_prev, p, total = np.zeros(n), np.ones(n), np.ones(n)
        for j in range(n - 1):
            p_prev, p = p, ((u - diag[j]) * p - (off[j - 1] if j else 0.0) * p_prev) / off[j]
            total += p * p
        rules.append(np.stack([u, 1.0 / total]))
    sizes = np.array(_LADDER_NODES)
    out = (np.concatenate(rules, axis=1), np.cumsum(sizes) - sizes, sizes)
    for a in out:
        a.setflags(write=False)
    return out


def _nodes(zeta: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every point's rung laid end to end: ``s = u / (2 zeta)``, the weights,
    ``1 / (2 zeta)`` per node, and where each point's run of nodes starts."""
    rules, start, size = _laguerre_ladder()
    rung = edges.searchsorted(zeta, side="right")
    counts = size[rung]
    first = counts.cumsum() - counts
    u, w = rules.take((start[rung] - first).repeat(counts) + np.arange(first[-1] + counts[-1]), axis=1)
    half = (0.5 / zeta).repeat(counts)
    return u * half, w, half, first


def _laplace_decaying(x: np.ndarray, scaled: bool) -> tuple[np.ndarray, np.ndarray]:
    """``(Ai, Ai')`` at ``z = x >= _SERIES_HIGH``, times ``e^{zeta}`` if ``scaled``."""
    zeta = (2.0 / 3.0) * x**1.5
    s, w, _, first = _nodes(zeta, _DECAYING_EDGES)
    s += 1.0
    terms = np.empty((2, s.size))
    np.power(s, -1.0 / 6.0, out=terms[0])
    terms[0] *= w
    np.divide(terms[0], s, out=terms[1])
    f, g = np.add.reduceat(terms, first, axis=1)
    x4 = x**0.25
    scale = 0.5 / _SQRT_PI if scaled else (0.5 / _SQRT_PI) * np.exp(-zeta)
    return f * (scale / x4), (f + g / (6.0 * zeta)) * (-scale * x4)


def _laplace_oscillating(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(Ai, Ai')`` at ``z = -x <= _SERIES_LOW``, from
    ``(1 - i s)^{-1/6} = (1 + s^2)^{-1/12} e^{i atan(s) / 6}``."""
    zeta = (2.0 / 3.0) * x**1.5
    s, w, half, first = _nodes(zeta, _OSCILLATING_EDGES)
    s2 = s * s
    s2 += 1.0
    r = s2 ** (-1.0 / 12.0)
    r *= w
    sine = np.sin(np.arctan(s) * (1.0 / 6.0))
    terms = np.empty((4, s.size))
    fr, fi, gr, gi = terms
    # the angle is below pi / 12, so the cosine has no cancellation
    np.multiply(r, np.sqrt(1.0 - sine * sine), out=fr)
    np.multiply(r, sine, out=fi)
    # G / (6 zeta) summed directly: (1 - i s)^{-7/6} = (1 - i s)^{-1/6} (1 + i s) / (1 + s^2)
    a = half / (3.0 * s2)
    np.multiply(fr - fi * s, a, out=gr)
    np.multiply(fi + fr * s, a, out=gi)
    f_re, f_im, g_re, g_im = np.add.reduceat(terms, first, axis=1)
    # H = F - i G / (6 zeta)
    h_re, h_im = f_re + g_im, f_im - g_re
    phase = zeta - 0.25 * np.pi
    cw, sw = np.cos(phase), np.sin(phase)
    x4 = x**0.25
    return (f_re * cw + f_im * sw) / (_SQRT_PI * x4), (h_re * sw - h_im * cw) * (x4 / _SQRT_PI)


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


def _evaluate(z: np.ndarray, scaled: bool) -> tuple[np.ndarray, np.ndarray]:
    """``(Ai, Ai')`` of every real ``z``, each by its branch; if ``scaled``, times
    ``e^{zeta}`` for ``z >= 0`` (the bits of the unscaled pair for ``z < 0``),
    with no ``Ai'`` from the tail switch on."""
    if z.size > _BLOCK:
        flat = z.ravel()
        ai, aip = np.empty_like(flat), np.empty_like(flat)
        for i in range(0, flat.size, _BLOCK):
            ai[i : i + _BLOCK], aip[i : i + _BLOCK] = _evaluate(flat[i : i + _BLOCK], scaled)
        return ai.reshape(z.shape), aip.reshape(z.shape)
    far_low, far_high = z <= -_TAIL_SWITCH, z >= _TAIL_SWITCH
    low = (z <= _SERIES_LOW) & ~far_low
    high = (z >= _SERIES_HIGH) & ~far_high
    series = ~(low | high | far_low | far_high)  # NaN too
    ai, aip = np.empty_like(z), np.empty_like(z)
    if series.any():
        zs = z[series]
        a, ap = _maclaurin(zs)
        if scaled:  # e^0 = 1 for z < 0, where Ai does not decay
            factor = np.exp((2.0 / 3.0) * np.maximum(zs, 0.0) ** 1.5)
            a, ap = a * factor, ap * factor
        ai[series], aip[series] = a, ap
    if low.any():
        ai[low], aip[low] = _laplace_oscillating(-z[low])
    if high.any():
        ai[high], aip[high] = _laplace_decaying(z[high], scaled)
    if far_low.any():
        ai[far_low], aip[far_low] = _oscillating_tail(z[far_low])
    if scaled:
        ai[far_high], aip[far_high] = _decaying_tail(z[far_high]), np.nan
    else:  # e^{-(2/3) z^{3/2}} underflows to 0 from the switch on (z^{3/2} >= 1e6)
        ai[far_high], aip[far_high] = 0.0, -0.0
    return ai, aip


def airy_ai_pair(z) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate ``(Ai(z), Ai'(z))`` elementwise for real ``z``.

    Scalar input returns scalar outputs.
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    ai, aip = _evaluate(z_arr, scaled=False)
    if np.isscalar(z) or np.ndim(z) == 0:
        return float(ai[0]), float(aip[0])
    return ai, aip


def airy_ai(z):
    """``Ai(z)`` for real ``z`` (see :func:`airy_ai_pair`)."""
    return airy_ai_pair(z)[0]


def airy_ai_scaled(z):
    """``Ai(z) * exp((2/3) max(z, 0)^{3/2})`` for real ``z``, overflow-free; for
    ``z < 0`` the bits of :func:`airy_ai`.

    Used by the long-wave closed form, whose prefactor carries a large
    positive exponent that cancels the Airy decay analytically.
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    out = _evaluate(z_arr, scaled=True)[0]
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
    w = _envelope_root(y)
    ai, aip = airy_ai_pair(-(w**4))
    out = _SQRT_PI * (w * ai + sign * 1j * aip / w)
    if np.isscalar(y) or np.ndim(y) == 0:
        return complex(out[0])
    return out


def _envelope_root(y) -> np.ndarray:
    """``w = (3y/2)^{1/6}`` of every ``y > 0``: ``A_{+/-}(y) = sqrt(pi) (w Ai(-w^4)
    +/- i Ai'(-w^4) / w)``."""
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    if np.any(y_arr <= 0.0):
        raise ConfigError("envelope_amplitude requires y > 0")
    return (1.5 * y_arr) ** (1.0 / 6.0)
