"""Composite Gauss-Legendre synthesis of oscillatory band integrals.

All continuum fields in this package are inverse transforms of the form

    F(x) = integral_a^b  kernel(p) * exp(i p x) dp

with a smooth (often complex, vector-valued) kernel and a phase whose
local frequency is bounded by a known ``rate``.  They are evaluated with
composite 16-point Gauss-Legendre panels sized from the oscillation rate.
Each level checks itself, with an error estimate made from its own kernel
values (:func:`_level_error`): the phase's part is a bound on the 16-point
rule's error on ``P_k(s) e^{i omega s}`` from the Legendre expansion of
the phase, and the kernel's Legendre coefficients past degree 15 are
extrapolated from the decay of its degrees 8 to 15 (Trefethen,
*Approximation Theory and Approximation Practice*, ch. 19; Aurentz and
Trefethen, "Chopping a Chebyshev series", ACM TOMS 43, 2017).  The first
level that passes is returned; a level that fails is doubled.

The panels have equal width, so each of the 16 local Gauss-Legendre
nodes forms a uniform grid across panels: :func:`panel_nodes` lays out
column ``c`` as the exact progression ``p0[c] + j dp``.  On a uniform output
grid the node-by-point contraction is therefore a sum of 16 chirp-z
transforms (Rabiner-Schafer-Rader 1969; Bluestein 1970), costing
``O((N + M) log(N + M))`` instead of ``O(N M)``.  Each level is built
once: :func:`synthesize_field` hands :func:`_contract` the level's
``(p0, dp)`` and its 16 column weights with the unweighted kernel values,
so the contraction neither re-tests the nodes nor forms a weighted copy of
the values; each column's weight goes into that column's phase row of
``N / 16`` entries.  Each column's output
phase goes into its own copy of the chirp, so the 16 are added in the
frequency domain: one forward FFT of the columns and their chirps (in
groups past 4 MiB a block) and one inverse FFT of the sum, whose phases
stay of the size of ``dp dx (N / 16 + M)``.  An output grid that is a
progression only up to residuals above rounding of its span (a travelling
frame ``(c t - x) / mu``) also transforms a copy of the kernel weighted by
the nodes, which applies the residuals to first order; a ``linspace`` grid
does not, and its transforms are half as wide.  Any other grid is
contracted directly, once per level: the estimate holds at every point,
so no probe subset is needed.  :func:`_site_sums` computes the sublattice
sums of :mod:`diatomic_waves.initial_data` with the same Bluestein set-up: the
sites are the uniform summed grid, and each of the 16 columns of
panel-strided momenta is an output grid of its own, transformed on its own.

A kernel may return groups of columns, ``(n, g, m)``: the fields of one
band at ``g`` times, say, which share their nodes and differ only in a
phase factor.  They share panel levels sized by the largest rate, one
kernel call and one contraction of all ``g m`` columns per level, and each
group's estimate is judged against that group's own scale.

For kernels that are even functions of ``p`` the integral over a
symmetric band folds exactly onto ``[0, b]`` with a ``2 cos(p x)``
weight, halving the work; callers opt in via ``even_fold=True`` and pass
the half-band ``[0, b]``.  The weight is real, so the fold integrates
``Re kernel`` and returns ``Re F``, all its callers keep.

Panels sized from the rate cost ``O(rate)`` nodes, which is waste when
every output point sits far from the band's stationary points, as for
the trailing frame of a travelling wave.  There
:func:`legendre_bessel_field` expands the kernel alone in Legendre
polynomials and integrates each term against ``exp(i p x)`` exactly
(a Filon-type rule), so its cost does not depend on ``x``.  Its
Gauss-Legendre rules, like the panels' 16-point rule and the short-wave
32-point one, come from Newton's method (:func:`_gauss_legendre`), without
an eigensolver, and its Legendre matrices from the three-term recurrence:
``numpy.polynomial`` is never imported.
Each order's sum is the finite endpoint sum of repeated integration by
parts, from the polynomial's derivatives at both ends.  Order ``k`` is
admitted only where ``min |r x|`` (``r`` the band's half-width) is at least
``k (k - 1) / 2``; there the sum's terms fall at least as ``1 / j!``, and a
tail bound stops it after ``J`` of them (5 on a far travelling frame at
``r x = 1.78e5``, at most 19), so it costs ``O(J m)`` on ``m`` points.  With
fewer than two orders admitted the rule returns None, leaving the grid to
:func:`synthesize_field`.  Every matrix product in it is real: the
projection of complex kernel values, as one complex operand, cost a complex
matrix-vector product of milliseconds (and a spinning BLAS thread) where
the real one takes microseconds.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt, log, log2
from typing import Callable

import numpy as np

from .errors import ConfigError, QuadratureError

__all__ = ["panel_nodes", "oscillation_panels", "synthesize_field", "legendre_bessel_field"]

_ORDER = 16
_MIN_PANELS = 8

#: Largest panel level :func:`synthesize_field` builds; past it the rate is
#: out of reach in memory and time, so the call fails instead of hanging.
_MAX_NODES = 1 << 23

#: 2 pi = _TWO_PI_HI + _TWO_PI_LO; the first has 29 significant bits, so
#: ``n * _TWO_PI_HI`` is exact for ``n < 2**24`` (Cody-Waite reduction).
_TWO_PI_HI = 421657428 / 2**26
_TWO_PI_LO = 3.968374318722162e-09

#: Deviation from an arithmetic progression, in units of ``eps * max|a|``,
#: that still counts as uniform (``linspace`` and scaling stay within it).
_UNIFORM_ULPS = 8.0

#: Largest ``max|p| * max|r|`` for an output grid's residuals ``r`` from a
#: progression: :func:`_contract` applies the phase ``p r`` to first order, so
#: its neglected second-order term stays below ``5e-17`` of each term.
_RESIDUAL_PHASE = 1e-8

#: Legendre orders :func:`legendre_bessel_field` tries, each checked
#: against the one before.
_LB_ORDERS = (32, 64, 128, 256)

#: Output points :func:`legendre_bessel_field` sums at once, so its block of
#: Horner sums stays fixed while the grid grows.
_LB_CHUNK = 4096

#: Terms of the endpoint sum of :func:`legendre_bessel_field` tabulated: at its
#: threshold the bound on term ``j`` is ``1 / j!`` of the first, which is below
#: ``eps / 2`` from ``j = 19`` on.
_LB_TERMS = 20

#: ``i**n`` for ``n % 4``, exactly.
_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])

#: Complex elements (4 MiB) of a chirp-z block that more columns may not pass.
_BLOCK_ELEMENTS = 1 << 18


def _gauss_legendre(k: int) -> tuple[np.ndarray, np.ndarray]:
    """``k``-point Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    The nodes come from Newton's method on ``P_k``, started at
    ``cos(pi (i - 1/4) / (k + 1/2))``, and the weights from
    ``2 / ((1 - s^2) P_k'(s)^2)``, with ``P_k`` and ``P_{k-1}`` from the
    three-term recurrence: no LAPACK eigensolver runs, as in ``leggauss``,
    nor the start-up of its BLAS threads.  Both are made symmetric in ``s``.
    """
    s = np.cos(np.pi * (np.arange(k, 0, -1) - 0.25) / (k + 0.5))
    for _ in range(100):
        prev, cur = np.ones(k), s.copy()
        for n in range(1, k):  # (n + 1) P_{n+1} = (2 n + 1) s P_n - n P_{n-1}
            prev, cur = cur, ((2 * n + 1) * s * cur - n * prev) / (n + 1)
        slope = k * (s * cur - prev) / (s * s - 1.0)  # P_k'
        step = cur / slope
        s -= step
        if np.max(np.abs(step)) <= np.finfo(float).eps:
            break
    w = 2.0 / ((1.0 - s * s) * slope * slope)
    return 0.5 * (s - s[::-1]), 0.5 * (w + w[::-1])


def _legendre_vander(s: np.ndarray, k: int) -> np.ndarray:
    """``V[j, n] = P_n(s[j])`` for ``n < k``, by the three-term recurrence
    ``n P_n = (2 n - 1) s P_{n-1} - (n - 1) P_{n-2}`` in the order of
    operations of ``numpy.polynomial.legendre.legvander``, so bit-equal to it."""
    v = np.empty((k, s.size))
    v[0] = 1.0
    if k > 1:
        v[1] = s
    for n in range(2, k):
        v[n] = (v[n - 1] * s * (2 * n - 1) - v[n - 2] * (n - 1)) / n
    return v.T


_GL_NODES, _GL_WEIGHTS = _gauss_legendre(_ORDER)

#: Takes a panel's 16 values to the Legendre coefficients ``c_0 ... c_15`` of
#: their interpolant, ``c_k = (k + 1/2) sum_i W_i P_k(s_i) f_i`` (exact, as
#: ``P_k f`` has degree at most 30).  Built here rather than by
#: :func:`_legendre_projection`, whose cache holds the far rule's orders.
_PANEL_PROJECTION = (np.arange(_ORDER) + 0.5)[:, None] * (
    _legendre_vander(_GL_NODES, _ORDER) * _GL_WEIGHTS[:, None]
).T

#: Orders ``l = 64 ... 1`` of the phase's Legendre series, and ``log((2 l -
#: 1)!! / 4)`` less ``log 2`` at ``l = 64``: :func:`_phase_weights` reads
#: ``4 u_l = exp(l log omega - shift)``, ``u_l = omega^l / (2 l - 1)!!``,
#: with ``u_64`` counted twice.
_PHASE_ORDERS = np.arange(64.0, 0.0, -1.0)
_PHASE_SHIFT = np.cumsum(np.log(2.0 * _PHASE_ORDERS[::-1] - 1.0))[::-1] - np.log(4.0)
_PHASE_SHIFT[0] -= np.log(2.0)

#: Coefficients at most this many ulps of their column's largest are rounding
#: (the projection's row ``k`` sums to at most ``2 k + 1 <= 31`` times a
#: value's ulp), and :func:`_level_error` counts them as resolved.
_PLATEAU_ULPS = 32.0

#: Largest ratio of successive coefficients :func:`_level_error` extrapolates
#: with: a tail that does not decay counts as about 16 more terms at its
#: level, a finite estimate that a tiny tail still passes.
_TAIL_RATIO = 15.0 / 16.0

#: ``r^1 ... r^16`` and ``r^17 / (1 - r)`` at the steps ``r = (j / 64)
#: _TAIL_RATIO``, ``j = 0 ... 64``: times the phase weights of orders
#: 16 ... 32, the tail sums :func:`_level_error` reads.
_TAIL_STEPS = 64
_TAIL_POWERS = np.power.outer(
    np.arange(_TAIL_STEPS + 1) * (_TAIL_RATIO / _TAIL_STEPS), np.arange(1, 18)
)
_TAIL_POWERS[:, -1] /= 1.0 - _TAIL_POWERS[:, 0]
_TAIL_FOURTHS = _TAIL_POWERS[:, 3].copy()  # r^4 at each step


def _panel_level(a: float, b: float, n_panels: int) -> tuple[np.ndarray, float, np.ndarray]:
    """``(p0, dp, wc)`` of ``n_panels`` composite 16-point GL panels on [a, b]:
    node ``c`` of panel ``j`` is ``p0[c] + j dp`` and has weight ``wc[c]``, with
    ``p0 = a + half (1 + s)``, ``dp = 2 half`` and ``wc = half W`` for the
    Gauss-Legendre nodes ``s`` and weights ``W`` and ``half = (b - a) / (2 n_panels)``."""
    half = 0.5 * ((b - a) / n_panels)
    return a + half * (1.0 + _GL_NODES), 2.0 * half, half * _GL_WEIGHTS


def panel_nodes(a: float, b: float, n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of ``n_panels`` composite 16-point GL panels on [a, b],
    panel by panel: column ``c`` of ``nodes.reshape(-1, 16)`` is the exact
    progression ``p0[c] + j dp`` of :func:`_panel_level`."""
    if n_panels < 1:
        raise ValueError(f"n_panels must be >= 1, got {n_panels}")
    p0, dp, wc = _panel_level(a, b, n_panels)
    nodes = p0 + dp * np.arange(n_panels, dtype=float)[:, None]
    return nodes.ravel(), np.tile(wc, n_panels)


def oscillation_panels(rate: float, a: float, b: float, nodes_per_cycle: float = 10.0) -> int:
    """Panel count so the densest oscillation gets ``nodes_per_cycle`` nodes, at least 8.

    ``rate`` is the maximum of ``|d(phase)/dp|`` over the band; one cycle
    spans ``2 pi / rate``.  The count is not capped: :func:`synthesize_field`
    refuses a level past ``_MAX_NODES`` and names what it would need.
    """
    if not np.isfinite(rate):
        raise QuadratureError(f"oscillation rate {rate!r} is not finite")
    cycles = abs(rate) * (b - a) / (2.0 * np.pi)
    need = cycles * nodes_per_cycle / _ORDER
    if need <= _MIN_PANELS:
        return _MIN_PANELS
    return int(np.ceil(need))


def _abs_max(a: np.ndarray) -> float:
    """``max|a|``, 0 for an empty ``a`` and nan if ``a`` holds one, without
    building ``abs(a)``."""
    return max(float(np.max(a, initial=0.0)), -float(np.min(a, initial=0.0)))


def _progression(a: np.ndarray) -> tuple[np.ndarray, float] | None:
    """``(start, step)`` if every column of the 2-D array ``a`` is
    ``a[i] = start + i * step`` (one common step) to a few ulps of ``max|a|``,
    else None.  Every row is checked, in blocks of at most ``_BLOCK_ELEMENTS``
    values, so no temporary grows with ``a``."""
    n = a.shape[0]
    if n == 0:
        return None
    start = a[0]
    step = float(np.mean(a[-1] - a[0])) / (n - 1) if n > 1 else 0.0
    tol = _UNIFORM_ULPS * np.finfo(float).eps * _abs_max(a)
    rows = max(1, _BLOCK_ELEMENTS // a.shape[1])
    for lo in range(0, n, rows):
        dev = start + step * np.arange(lo, min(lo + rows, n))[:, None]
        np.subtract(a[lo : lo + rows], dev, out=dev)
        if not np.max(np.abs(dev, out=dev)) <= tol:  # also refuses nan
            return None
    return start, step


def _residual(r: np.ndarray, span: float) -> np.ndarray | None:
    """``r``, a grid's residuals from its progression, or None where
    ``max|r| <= _UNIFORM_ULPS * eps * span``: below rounding of the span,
    so :func:`_contract` and :func:`_site_sums` need not apply them."""
    return r if _abs_max(r) > _UNIFORM_ULPS * np.finfo(float).eps * span else None


def _output_grid(
    x: np.ndarray, p_max: float
) -> tuple[float, float, np.ndarray, np.ndarray | None] | None:
    """``(x0, dx, steps, r)`` if the 1-D grid ``x`` is ``x0 + steps``,
    ``steps = i dx``, up to residuals with ``p_max * max|r| <= _RESIDUAL_PHASE``,
    else None; ``r`` is None where :func:`_residual` drops them.

    The test is on the phase the residuals carry, not on ulps of ``max|x|``:
    a grid formed as ``(c t - x) / mu`` sits hundreds of ulps off a
    progression, which the first-order correction still makes exact.  The
    test holds for every ``p_max`` below the one it passed, so
    :func:`synthesize_field` makes it once, at the band's ``max(|a|, |b|)``,
    and hands the result to the contraction of each level it builds.
    """
    n = x.size
    if n == 0:
        return None
    step = float(x[-1] - x[0]) / (n - 1) if n > 1 else 0.0
    dev = float(np.max(np.abs(x - (x[0] + step * np.arange(n)))))
    if not p_max * dev <= _RESIDUAL_PHASE:  # also refuses nan
        return None
    x0 = float(x[0])
    steps = np.arange(n) * step
    return x0, step, steps, _residual((x - x0) - steps, abs(float(x[-1]) - x0))


def _panel_columns(p: np.ndarray) -> tuple[np.ndarray, float] | None:
    """``(p0, dp)`` if ``p`` is panel-strided, else None.

    Panel-strided means a flat array of whole equal-width panels in the
    layout of :func:`panel_nodes`: column ``c`` of ``p.reshape(-1, 16)``
    is the arithmetic progression ``p0[c] + i * dp``.
    """
    if p.ndim != 1 or p.size == 0 or p.size % _ORDER:
        return None
    return _progression(p.reshape(-1, _ORDER))


def _cis(theta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``exp(i theta)`` for real ``theta``, without a complex ``exp``, into
    ``out`` if given."""
    if out is None:
        out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _chirp(half: float, k: np.ndarray) -> np.ndarray:
    """The phase ``half k^2`` modulo 2 pi, for integer-valued ``k``.

    ``half * k^2`` can exceed the phases of the sum itself by orders of
    magnitude, so it is reduced before rounding: ``half`` is split so that
    its leading part times ``k^2`` is exact, and that product is reduced
    with the two-part 2 pi.  The result is within a few units of pi.
    """
    k2 = k * k
    shift = int(np.frexp(half)[1]) - 53 + int(np.max(k2, initial=0.0)).bit_length()
    lead = np.ldexp(np.round(np.ldexp(half, -shift)), shift)
    t = lead * k2
    n = np.round(t / (2.0 * np.pi))
    return (t - n * _TWO_PI_HI) - n * _TWO_PI_LO + (half - lead) * k2


def _cis_ramp(theta: np.ndarray, start: float, count: int) -> np.ndarray:
    """``exp(i theta[c] (start + q))`` for ``q < count``, shape ``(theta.size, count)``.

    With ``start + q = (start + b u) + v``, ``0 <= v < b`` and ``b`` about
    ``sqrt(count)``, it is the product of two tables of about ``sqrt(count)``
    points, ``exp(i theta (start + b u))`` and ``exp(i theta v)``, instead of
    a cosine and a sine per element; each value is within a few roundings of
    ``exp(i theta (start + q))``.
    """
    b = isqrt(max(count - 1, 0)) + 1
    hi = _cis(theta[:, None] * (start + b * np.arange(-(-count // b))))
    lo = _cis(theta[:, None] * np.arange(b))
    return (hi[:, :, None] * lo[:, None, :]).reshape(theta.size, -1)[:, :count]


@lru_cache(maxsize=None)
def _next_fast_len(n: int) -> int:
    """Smallest ``2^a 3^b 5^c 7^d 11^e >= n``: the lengths pocketfft, behind
    ``numpy.fft``, transforms fastest (``scipy.fft.next_fast_len`` for complex data)."""
    best = 1 << max(n - 1, 0).bit_length()
    p11 = 1
    while p11 < best:
        p7 = p11
        while p7 < best:
            p5 = p7
            while p5 < best:
                p3 = p5
                while p3 < best:  # the least p3 * 2^k >= n
                    best = min(best, p3 << (-(-n // p3) - 1).bit_length())
                    p3 *= 3
                p5 *= 5
            p7 *= 7
        p11 *= 11
    return best


def _bluestein(n: int, m: int, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phases ``(pre, post, chirp)`` of the chirp-z transform of ``n`` terms
    to ``m`` points at step ``alpha``.

    Bluestein's identity ``j i = (j^2 + i^2 - (i - j)^2) / 2`` gives
    ``sum_j h[j] e^{i alpha j i} = e^{i post[i]} sum_j h[j] e^{i pre[j]}
    e^{i chirp[i - j]}``, one linear convolution, done as a cyclic one of
    the 11-smooth length ``chirp.size >= n + m - 1``: ``chirp`` holds
    ``-alpha l^2 / 2`` at the lags ``l = 0 ... m - 1``, then
    ``m - size ... -1``.  All three are read from one table of
    ``alpha k^2 / 2`` (:func:`_chirp`) over ``k < max(m, size - m + 1)``,
    which covers every lag and ``k < n``; ``pre`` and ``post`` are views of
    it, and ``chirp`` has the bits of its own :func:`_chirp` call.
    """
    size = _next_fast_len(n + m - 1)
    table = _chirp(0.5 * alpha, np.arange(max(m, size - m + 1), dtype=float))
    chirp = np.empty(size)
    np.negative(table[:m], out=chirp[:m])
    np.negative(table[size - m : 0 : -1], out=chirp[m:])
    return table[:n], table[:m], chirp


def _column_groups(n: int, m: int, rows: int) -> list[slice]:
    """The 16 columns in order, in slices whose block of ``rows`` transforms
    per column, each of the padded length of :func:`_bluestein`, stays within
    ``_BLOCK_ELEMENTS`` (or is one column)."""
    per = max(1, _BLOCK_ELEMENTS // (rows * _next_fast_len(n + m - 1)))
    return [slice(c, c + per) for c in range(0, _ORDER, per)]


def _site_sums(w: np.ndarray, q: np.ndarray, dq: float, y: np.ndarray) -> np.ndarray | None:
    """``out[i] = sum_j w[j] exp(i q[j] y[i])`` for real ``w`` at uniform
    ``q[j] = q[0] + j dq`` (a sublattice's sites), if ``y`` is panel-strided
    (:func:`_panel_columns`), else None.

    Column ``c`` of ``y.reshape(-1, 16)`` is ``y0[c] + i dy`` up to residuals
    ``r``, so with ``h_c[j] = w[j] e^{i q[j] y0[c]}`` its sums are
    ``e^{i q[0] i dy} sum_j h_c[j] e^{i dq dy j i}``: a chirp-z transform
    (:func:`_bluestein`) of ``h_c``, which sees only phases of the size of
    ``dq dy (n + m)``.  The 16 columns are separate outputs, each transformed
    on its own, in the groups of :func:`_column_groups`; a group's terms are
    formed in its zero-padded block, which is transformed and multiplied in
    place.  Residuals past rounding of the columns' span (:func:`_residual`)
    are applied to first order, by transforming the copy ``q h_c`` next to
    ``h_c``.  Grouping changes no bit.
    """
    columns = _panel_columns(y)
    if columns is None:
        return None
    y0, dy = columns
    n, m = q.size, y.size // _ORDER
    steps = np.arange(m) * dy
    resid = _residual((y.reshape(m, _ORDER) - y0) - steps[:, None], (m - 1) * abs(dy))
    width = 1 if resid is None else 2
    pre, post, chirp = map(_cis, _bluestein(n, m, dq * dy))
    size = chirp.size
    np.fft.fft(chirp, out=chirp)  # its spectrum, in place
    shift = _cis(steps * q[0])
    del steps
    groups = _column_groups(n, m, 2)
    # per column of a group: row 0 its terms and, with a residual, row 1 those
    # times q, padded to ``size``; numpy.fft runs fastest along the last axis
    block = np.empty((min(groups[0].stop, _ORDER), width, size), dtype=complex)
    out = np.empty((m, _ORDER), dtype=complex)
    for cs in groups:
        cols = block[: y0[cs].size]
        terms = cols[:, :, :n]
        np.multiply(w, _cis(y0[cs, None] * q), out=terms[:, 0])
        if resid is not None:
            np.multiply(terms[:, 0], q, out=terms[:, 1])
        terms *= pre
        cols[:, :, n:] = 0.0
        rows = cols.reshape(-1, size)
        np.fft.fft(rows, out=rows)
        rows *= chirp
        np.fft.ifft(rows, out=rows)
        s = np.multiply(post, cols[:, :, :m], out=cols[:, :, :m])
        s = s[:, 0] if resid is None else s[:, 0] + 1j * resid[:, cs].T * s[:, 1]
        out[:, cs] = np.multiply(shift, s, out=s).T
    return out.ravel()


def _contract_direct(
    g: np.ndarray, p: np.ndarray, x: np.ndarray, even_fold: bool
) -> np.ndarray:
    """``out[i] = sum_j g[j] * e(p[j] * x[i])`` with ``e = exp(i.)``, or with
    ``e = 2 cos`` on ``Re g`` when ``even_fold``, one output point at a time."""
    if even_fold:
        g = np.ascontiguousarray(g.real)  # a strided view would leave BLAS
    out = np.empty((x.size, g.shape[1]), dtype=complex)
    for i in range(x.size):
        out[i] = (2.0 * np.cos(p * x[i]) if even_fold else np.exp(1j * (p * x[i]))) @ g
    return out


def _contract(
    g: np.ndarray,
    p: np.ndarray,
    level: tuple,
    x: np.ndarray,
    even_fold: bool,
    grid: tuple | None = None,
) -> np.ndarray:
    """As :func:`_contract_direct` on the weighted values, by one chirp-z
    transform of the sum of all 16 local-node columns when ``x`` is uniform
    (see :func:`_output_grid`).  ``grid`` is ``_output_grid(x, p_max)`` for
    some ``p_max >= max|p|``, if the caller has it; without it ``x`` is
    tested here.

    ``p`` is the level :func:`panel_nodes` builds and ``level`` its
    ``(p0, dp, wc)`` (:func:`_panel_level`), so ``p`` is not tested.  ``g``
    holds the kernel values without the weights: the weight ``wc[c]`` of
    column ``c`` goes into that column's ``n``-entry phase row below (the
    direct path weighs the values itself), so no weighted copy of ``g`` is
    made.

    Column ``c`` has nodes ``p0[c] + j dp`` and the grid is ``x0 + i dx``,
    so with ``alpha = dp dx`` and ``theta_c = dx (p0[c] - p0[0])``, in
    ``[0, alpha)`` up to sign, the sum is ``e^{i p0[0] i dx}`` times
    ``sum_c e^{i theta_c i} sum_j h_c[j] e^{i alpha j i}`` with
    ``h_c[j] = wc[c] g[j, c] e^{i p[j, c] x0}``.  Splitting ``theta_c i`` as
    ``theta_c j + theta_c (i - j)`` moves each column's output phase into
    its terms and into its own copy of the Bluestein chirp
    (:func:`_bluestein`), so every column is a convolution of the same
    length: the 16 are transformed, multiplied and added in the frequency
    domain, and one inverse FFT of ``w`` rows (a ``w``-column ``g``) gives
    the whole sum.  The column groups of :func:`_column_groups` bound the
    forward block, and the spectra are added in order ``c = 0 ... 15``
    into one accumulator, so grouping changes no bit.

    With ``G`` the weighted values, the two paths agree to about
    ``eps * max|p| * (x[-1] - x[0]) * sum|G|``: the offsets ``x0`` and ``p0[0]`` are applied per term and per point,
    and ``theta_c`` is measured from the first column, so only phases of
    the size of ``alpha (n + m)`` (reduced chirps aside) pass through the
    transforms.  A grid's residuals ``r = x - (x0 + i dx)`` are applied to
    first order, by transforming the copy ``p h_c`` next to ``h_c`` (``2 w``
    rows); where they stay within ``_UNIFORM_ULPS * eps * span``,
    ``span = |x[-1] - x[0]|``, they are dropped (:func:`_residual`).  The
    dropped first-order term at ``x[i]`` is
    ``i r[i] sum_j p[j] G[j] e^{i p[j] (x[i] - r[i])}``, at most
    ``max|r| max|p| sum|G| <= 8 eps max|p| span sum|G|`` (twice that for
    the fold): of the order of the agreement above.
    """
    if even_fold:
        g = g.real  # the weight 2 cos(p x) is real: the fold integrates Re kernel
    if grid is None:
        grid = _output_grid(x, _abs_max(p))
    p0, dp, wc = level
    if grid is None:
        g = (g.reshape(-1, _ORDER, g.shape[1]) * wc[:, None]).reshape(p.size, -1)
        return _contract_direct(g, p, x, even_fold)
    x0, dx, steps, resid = grid
    n, m, k = p.size // _ORDER, x.size, g.shape[1]
    width = k if resid is None else 2 * k
    pre, post, chirp = _bluestein(n, m, dp * dx)
    size = chirp.size
    kernel = _cis(chirp)
    del chirp
    theta = dx * (p0 - p0[0])
    j = np.arange(n, dtype=float)
    g_cols = g.reshape(n, _ORDER, k)
    p_cols = p.reshape(n, _ORDER)
    groups = _column_groups(n, m, 2 * k + 1)
    # per column of a group: row 0 its chirp, rows 1 ... k its terms and,
    # with a residual, rows k + 1 ... 2 k those times p; padded to ``size``
    block = np.empty((1 + width, min(groups[0].stop, _ORDER), size), dtype=complex)
    spectrum = np.zeros((width, size), dtype=complex)
    for cs in groups:
        th = theta[cs]
        cols = block[:, : th.size]
        # e^{i theta_c l} at the lags m - size ... m - 1, put in chirp order
        shift = _cis_ramp(th, m - size, size)
        np.multiply(shift[:, size - m :], kernel[:m], out=cols[0, :, :m])
        np.multiply(shift[:, : size - m], kernel[m:], out=cols[0, :, m:])
        del shift
        arg = th[:, None] * j
        arg += pre
        arg += p_cols[:, cs].T * x0
        phase = _cis(arg, out=cols[1, :, :n])  # e^{i (p x0 + pre + theta_c j)}
        del arg
        phase *= wc[cs, None]
        for c in reversed(range(k)):  # row 1, the phase, last
            np.multiply(g_cols[:, cs, c].T, phase, out=cols[1 + c, :, :n])
        if resid is not None:
            np.multiply(cols[1 : 1 + k, :, :n], p_cols[:, cs].T, out=cols[1 + k :, :, :n])
        cols[1:, :, n:] = 0.0
        np.fft.fft(cols, out=cols)
        cols[1:] *= cols[0]
        for c in range(th.size):  # in column order, whatever the groups
            spectrum += cols[1:, c]
    del block, cols
    np.fft.ifft(spectrum, out=spectrum)
    s = spectrum[:, :m].T
    if resid is not None:
        s = s[:, :k] + 1j * resid[:, None] * s[:, k:]
    s = s * _cis(post + steps * p0[0])[:, None]
    if even_fold:  # sum g 2 cos(p x) = 2 Re s for a real g
        s = 2.0 * s.real
    return s.astype(complex, copy=False)


def _phase_weights(omega: float) -> np.ndarray:
    """``w_k = 4 min(1, T_{32-k}(omega))`` for ``k <= 32``, ``T_n(omega) =
    sum_{l >= n} (2 l + 1) |j_l(omega)|``: the 16-point rule's error on
    ``P_k(s) e^{i omega' s}`` is at most ``w_k`` for every ``|omega'| <= omega``,
    and ``w_32 = 4`` bounds it for every ``k >= 32``.

    With ``e^{i omega s} = sum_l i^l (2 l + 1) j_l(omega) P_l(s)`` (DLMF
    10.60.7) the rule is exact on ``P_k P_l`` for ``k + l <= 31`` and errs by
    at most ``2 + 2`` on any other, and by at most 4 on ``P_k e^{i omega s}``
    itself.  ``T_n`` is bounded with ``(2 l + 1) |j_l(omega)| <= u_l =
    omega^l / (2 l - 1)!!`` (DLMF 10.14.4 with 10.47.3), which grows with
    ``omega``: its terms past ``l = 64`` fall by ``omega / (2 l + 1) < 1 / 4``
    each below ``omega = 32``, so they add at most ``u_64`` again, and from
    ``omega = 32`` on ``T_32 >= u_32 > 1``, so every weight is 4.
    """
    w = np.full(33, 4.0)
    if omega < 32.0:
        terms = np.exp(_PHASE_ORDERS * log(max(omega, np.finfo(float).tiny)) - _PHASE_SHIFT)
        np.minimum(4.0, np.cumsum(terms)[32:], out=w[:32])  # 4 T_32 ... 4 T_1
    return w


def _level_error(g: np.ndarray, half: float, omega: float, even_fold: bool) -> np.ndarray:
    """Estimated error of one panel level at every output point, per column
    of the kernel values ``g`` (unweighted, panel by panel as
    :func:`panel_nodes` lays them out).

    On a panel of half-width ``half`` the kernel is ``sum_k c_k P_k(s)`` and
    the phase ``e^{i x (m + half s)}``; ``c_k`` adds at most ``w_k |c_k|``
    (:func:`_phase_weights` at ``omega = half max|x|``, 4 past ``k = 31``) to
    the rule's error on ``int_{-1}^{1}``.  ``c_0 ... c_15`` come from the
    panel's 16 values by one real product with ``_PANEL_PROJECTION``, and
    ``|Re c_k| + |Im c_k|`` stands for ``|c_k|``.  Past them ``|c_k|`` is
    taken as ``hi r^(k-15)``, with ``hi`` the largest of ``|c_12| ... |c_15|``
    and ``r^4`` its ratio to the largest of ``|c_8| ... |c_11|``, at most
    ``_TAIL_RATIO^4``; a ``hi`` at most ``_PLATEAU_ULPS`` ulps of the column's
    largest coefficient is rounding, and the tail is then 0.  The tail's sum
    ``hi sum_{k>=16} w_k r^(k-15)`` grows with ``r``, so it is read from
    ``_TAIL_POWERS`` at the step of ``r`` at or above the panel's.  The
    panels' bounds, each times ``half``, add up to the column's estimate,
    twice that for ``even_fold``, which integrates ``Re g``.  Only the
    phase's part is a proof; the tail is extrapolated, and a kernel that no
    16 values resolve can fool it.

    Each ``w_k``, ``k < 16``, also holds ``2 eps log2 N`` for the
    contraction's rounding on ``N`` nodes: ``2 sum_k |c_k|`` bounds the
    panel's ``int |g|``, and the error of an FFT of length ``N`` grows as
    ``eps log2 N`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., section 24.1).  So a target below what the sum can
    reach is refused, not met by a level that only truncates less.
    """
    n = g.shape[0] // _ORDER
    if even_fold:
        g = g.real
    cplx = g.dtype.kind == "c"
    # a complex g as (re, im) pairs of real columns, each estimated on its own
    if cplx:
        parts = np.ascontiguousarray(g, dtype=complex).view(float)
    else:
        parts = g.astype(float, copy=False)
    # rows: the 16 local nodes; columns: part-major, then panel
    cols = parts.reshape(n, _ORDER, -1).transpose(1, 2, 0).reshape(_ORDER, -1)
    size = np.abs(_PANEL_PROJECTION @ cols).reshape(_ORDER, -1, n)  # |c_k|, part, panel
    w = _phase_weights(omega)
    known = w[:_ORDER] + 2.0 * np.finfo(float).eps * log2(g.shape[0])
    est = (known @ size.reshape(_ORDER, -1)).reshape(-1, n)
    lo, hi = np.max(size[8:].reshape(2, 4, -1, n), axis=1)
    plateau = np.max(np.max(size, axis=0), axis=1)
    if cplx:  # rounding follows the modulus: a pair shares its plateau
        plateau = np.repeat(np.maximum(plateau[0::2], plateau[1::2]), 2)
    plateau *= _PLATEAU_ULPS * np.finfo(float).eps
    hi[hi <= plateau[:, None]] = 0.0
    lo = np.maximum(lo, hi * _TAIL_RATIO**-4, out=lo)
    lo += np.finfo(float).tiny
    ratio = np.divide(hi, lo, out=lo)  # r^4, at most _TAIL_RATIO^4
    step = np.searchsorted(_TAIL_FOURTHS, ratio)
    tail = np.take(_TAIL_POWERS @ w[_ORDER:], step, mode="clip")
    tail *= hi
    est += tail
    total = np.sum(est, axis=1)
    if cplx:  # |c| <= |Re c| + |Im c|
        total = total[0::2] + total[1::2]
    return (2.0 * half if even_fold else half) * total


def _check_numerics(
    rtol: float = 1e-8, atol: float = 1e-13, nodes_per_cycle: float = 10.0, max_doublings: int = 6
) -> None:
    """Raise ``ConfigError`` unless ``rtol`` and ``atol`` are finite and
    ``>= 0``, ``nodes_per_cycle`` is finite and ``> 0`` and ``max_doublings``
    is an integer ``>= 1``.  Negative tolerances would only spend doublings up
    to the cap, and a non-positive node density would silently build the
    minimum panel level.  ``nodes_per_cycle`` is the first level's density and
    ``max_doublings`` the number of doublings allowed past it, so a level the
    estimate refuses always has one refinement to try."""
    for name, value in (("rtol", rtol), ("atol", atol)):
        if not (np.isfinite(value) and value >= 0.0):
            raise ConfigError(f"{name} must be >= 0 and finite, got {value!r}")
    if not (np.isfinite(nodes_per_cycle) and nodes_per_cycle > 0.0):
        raise ConfigError(f"nodes_per_cycle must be > 0 and finite, got {nodes_per_cycle!r}")
    if not (isinstance(max_doublings, (int, np.integer)) and max_doublings >= 1):
        raise ConfigError(f"max_doublings must be an integer >= 1, got {max_doublings!r}")


def _check_mu(mu: float) -> None:
    """Raise ``ConfigError`` unless the perturbation scale ``mu`` is finite and ``> 0``."""
    if not (np.isfinite(mu) and mu > 0.0):
        raise ConfigError(f"mu must be positive and finite, got {mu!r}")


def _check_time(t: float) -> None:
    """Raise ``ConfigError`` unless the time ``t`` of a band integral is finite and ``>= 0``."""
    if not (np.isfinite(t) and t >= 0.0):
        raise ConfigError(f"t must be finite and non-negative, got {t!r}")


def _finite_grid(x) -> np.ndarray:
    """``x`` as an array of at least one dimension; ``ConfigError`` naming its
    first nan or infinity, if it holds one."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.isfinite(_abs_max(x)):
        raise ConfigError(f"x must be finite, got {float(x.flat[np.argmin(np.isfinite(x))])!r}")
    return x


def _check_times(t) -> np.ndarray:
    """``t``, one time or a 1-D sequence of them, as a 1-D array; ``ConfigError``
    if it is empty or has more dimensions, or a time fails :func:`_check_time`."""
    times = np.asarray(t, dtype=float)
    if times.ndim > 1 or times.size == 0:
        raise ConfigError(f"t must be one time or a 1-D sequence of times, got {t!r}")
    times = times.ravel()
    for value in times.tolist():
        _check_time(value)
    return times


def synthesize_field(
    kernel: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    x: np.ndarray,
    rate: float,
    *,
    rtol: float = 1e-8,
    atol: float = 1e-13,
    nodes_per_cycle: float = 10.0,
    max_doublings: int = 6,
    even_fold: bool = False,
) -> np.ndarray:
    """Evaluate ``F(x) = int_a^b kernel(p) exp(i p x) dp`` on a grid.

    Parameters
    ----------
    kernel:
        Maps node array ``(n,)`` to values ``(n,)``, ``(n, m)`` or
        ``(n, g, m)``; may be complex.  Must be smooth on ``[a, b]``.  A
        3-D kernel is ``g`` groups of ``m`` columns (one group per time of
        :func:`~diatomic_waves.oracles.solve_quadrature`), all contracted
        together on the same panel levels.
    rate:
        Bound on the total oscillation rate (``max |x|`` plus the rate of
        any oscillatory factor inside the kernel), of every group.
    even_fold:
        If true, evaluate ``Re int_{-b}^{b}`` of an even kernel folded to
        ``[a=0, b]`` with the real weight ``2 cos(p x)``, so of ``Re kernel``;
        the imaginary part is zero and the estimate is made on ``Re kernel``.

    Returns
    -------
    Complex array of shape ``(len(x),) + kernel(p).shape[1:]``: ``(len(x),)``,
    ``(len(x), m)`` or ``(len(x), g, m)``.  An empty ``x`` gives an empty
    1-D array without calling the kernel.

    Each level is built once: :func:`panel_nodes` gives its nodes (column
    ``c`` of ``p.reshape(-1, 16)`` the exact progression ``p0[c] + j dp``),
    the kernel is called on them, and :func:`_contract` receives the values
    unweighted with ``(p0, dp)`` and the 16 column weights
    (:func:`_panel_level`), so it neither re-tests the layout nor builds a
    weighted copy of the values.

    Each level checks itself: it is returned once the error estimate of
    :func:`_level_error`, made from its own kernel values, is at most
    ``atol + rtol * scale`` in every group on its own, ``scale`` the group's
    ``max|F|`` on the grid (a 1-D or 2-D kernel is one group; the estimate
    holds at every point, so a non-uniform grid is contracted once, in
    full).  A small group is thus held to its own scale, not to the largest
    group's.  The first level has ``oscillation_panels(rate, a, b,
    nodes_per_cycle)`` panels, made even on a band ``a = -b`` so that
    ``p = 0``, where a kernel of ``|p|`` has its kink, is a panel edge; a
    level that fails is doubled, at most ``max_doublings`` times.

    Raises
    ------
    ConfigError
        If ``rtol``, ``atol``, ``nodes_per_cycle`` or ``max_doublings`` is
        out of range (see :func:`_check_numerics`), or ``x`` holds a nan or an
        infinity (the first is named); checked before anything else.
    QuadratureError
        If a panel level would exceed ``_MAX_NODES`` nodes (checked before
        that level is built, so the kernel is not called for it), or if no
        level up to ``max_doublings`` doublings brings the error estimate of
        every group below ``atol + rtol * scale``.
    """
    _check_numerics(rtol, atol, nodes_per_cycle, max_doublings)
    x = _finite_grid(x)
    if x.size == 0:
        return np.zeros(0, dtype=complex)
    grid = _output_grid(x, max(abs(a), abs(b)))
    x_max = _abs_max(x)
    panels = oscillation_panels(rate, a, b, nodes_per_cycle)
    if a == -b:
        panels += panels % 2
    for doublings in range(max_doublings + 1):
        if doublings:
            panels *= 2
        if panels * _ORDER > _MAX_NODES:
            raise QuadratureError(
                f"oscillation rate {rate:.3e} needs {panels * _ORDER} quadrature "
                f"nodes, above the limit of {_MAX_NODES}"
            )
        p, _ = panel_nodes(a, b, panels)
        vals = np.asarray(kernel(p))
        shape = vals.shape[1:]
        g = vals.reshape(p.size, -1)
        level = _panel_level(a, b, panels)
        half = 0.5 * level[1]
        groups = shape[0] if len(shape) == 2 else 1
        err = np.max(_level_error(g, half, half * x_max, even_fold).reshape(groups, -1), axis=1)
        f = _contract(g, p, level, x, even_fold, grid)
        scale = np.max(np.max(np.abs(f), axis=0).reshape(groups, -1), axis=1)
        target = atol + rtol * scale
        if np.all(err <= target):  # a nan never passes
            return f.reshape((x.size,) + shape)
        del p, vals, g, f  # before the next level is built
    worst = int(np.argmax(err - target))  # a nan comes first
    raise QuadratureError(
        f"panel refinement stalled at {panels} panels: error estimate "
        f"{err[worst]:.3e} exceeds target {atol:.1e} + {rtol:.1e} * {scale[worst]:.3e}"
    )


@lru_cache(maxsize=None)
def _legendre_projection(k: int) -> tuple[np.ndarray, np.ndarray]:
    """``k``-point Gauss-Legendre nodes on [-1, 1] and the ``(k, k)`` matrix
    that takes values there to Legendre coefficients of degree < ``k``."""
    s, w = _gauss_legendre(k)
    return s, (np.arange(k) + 0.5)[:, None] * (_legendre_vander(s, k) * w[:, None]).T


def _endpoint_threshold(k: int) -> float:
    """Least ``min |omega|`` at which :func:`legendre_bessel_field` admits order
    ``k``: past it each bound on an endpoint term is at most ``1 / (j + 1)`` of
    the one before, where below it the terms would grow before they fall, and
    cancel."""
    return 0.5 * k * (k - 1)


@lru_cache(maxsize=None)
def _endpoint_table(k: int) -> np.ndarray:
    """``T[j, n] = P_n^(j)(1) = (n + j)! / (2^j j! (n - j)!)`` for ``j < _LB_TERMS``,
    ``n < k``, zero for ``j > n``: integers, from ``T[0, n] = 1`` and
    ``T[j + 1, n] = T[j, n] (n + j + 1) (n - j) / (2 (j + 1))`` in exact integer
    arithmetic, each rounded once."""
    table = np.empty((_LB_TERMS, k))
    row = [1] * k  # one row of integers at a time: the table's are up to 1e69
    for j in range(_LB_TERMS):
        table[j] = row
        row = [t * (n + j + 1) * (n - j) // (2 * j + 2) for n, t in enumerate(row)]
    return table


def _endpoint_fields(
    amps: list[np.ndarray], omega: np.ndarray, least: float
) -> list[np.ndarray]:
    """Each order's ``int_{-1}^{1} P(s) e^{i omega s} ds``, ``P = sum_n a_n P_n``,
    ``a_n = re + i im`` from ``amps``, by its finite endpoint sum
    ``sum_{j<J} (-1)^j [P^(j)(1) e^{i omega} - P^(j)(-1) e^{-i omega}] / (i omega)^(j+1)``.

    ``P^(j)(+-1) = sum_n a_n (+-1)^(n+j) T[j, n]`` (:func:`_endpoint_table`), for
    every order by one real matrix product.  With ``v = 1 / omega`` the sum is
    ``-i v [e^{i omega} A(v) - e^{-i omega} B(v)]``, ``A_j = i^j P^(j)(1)`` and
    ``B_j = i^j P^(j)(-1)``: polynomials in ``v`` that Horner's rule takes for
    every order at once, in real arithmetic, on ``_LB_CHUNK`` points at a time.
    ``J`` is the largest over the orders of the least ``j >= 1`` with
    ``S_j / |omega|^j <= (eps / 2) S_0``, ``S_j = sum_n |a_n| T[j, n]`` and
    ``|omega| = least``, and ``_LB_TERMS`` at most (the bound is in
    :func:`legendre_bessel_field`, and needs ``least`` past every order's
    :func:`_endpoint_threshold`).
    """
    k = amps[-1].shape[1]
    # [a_n, (-1)^n a_n][Re, Im][order][n]: d[:, 1] is (-1)^j P^(j)(-1)
    a = np.zeros((2, 2, len(amps), k))
    for i, amp in enumerate(amps):
        a[0, :, i, : amp.shape[1]] = amp
    a[1] = a[0] * (1.0 - 2.0 * (np.arange(k) % 2))
    table = _endpoint_table(k)
    d = (table @ a.reshape(-1, k).T).reshape(_LB_TERMS, 2, 2, len(amps))
    powers = np.arange(_LB_TERMS)[:, None]
    plus = _I_POWERS[powers % 4] * (d[:, 0, 0] + 1j * d[:, 0, 1])  # A_j
    minus = _I_POWERS[-powers % 4] * (d[:, 1, 0] + 1j * d[:, 1, 1])  # B_j
    with np.errstate(over="ignore"):
        scaled = (table @ np.hypot(a[0, 0], a[0, 1]).T) / least ** powers  # S_j / |omega|^j
    small = scaled[1:] <= 0.5 * np.finfo(float).eps * scaled[0]
    terms = int(np.max(np.where(small.any(axis=0), 1 + np.argmax(small, axis=0), _LB_TERMS)))
    # rows Re(A - B), Im(A + B), Im(A - B), Re(A + B) of every order, powers last
    diff, total = plus[:terms] - minus[:terms], plus[:terms] + minus[:terms]
    poly = np.moveaxis(np.stack((diff.real, total.imag, diff.imag, total.real)), 1, -1)
    fields = [np.empty(omega.size, dtype=complex) for _ in amps]
    block = np.empty((4, len(amps), min(omega.size, _LB_CHUNK)))
    for lo in range(0, omega.size, _LB_CHUNK):
        w = omega[lo : lo + _LB_CHUNK]
        v = 1.0 / w
        p = block[:, :, : w.size]
        p[:] = poly[:, :, -1:]
        for j in range(terms - 2, -1, -1):
            p *= v
            p += poly[:, :, j : j + 1]
        p *= v
        c, s = np.cos(w), np.sin(w)
        re, im = c * p[2] + s * p[3], s * p[1] - c * p[0]  # -i v (e^{i w} A - e^{-i w} B)
        for f, f_re, f_im in zip(fields, re, im):
            f[lo : lo + _LB_CHUNK].real, f[lo : lo + _LB_CHUNK].imag = f_re, f_im
    return fields


def legendre_bessel_field(
    kernel: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    x: np.ndarray,
    *,
    rtol: float = 1e-8,
    atol: float = 1e-13,
) -> np.ndarray | None:
    """``F(x) = int_a^b kernel(p) exp(i p x) dp`` far from stationary points,
    or None where this rule does not apply.

    With ``p = m + r s`` (``m``, ``r`` the band's midpoint and half-width)
    and the kernel's Legendre expansion ``P(s) = sum_n a_n P_n(s)``,
    ``F(x) = r e^{i m x} int_{-1}^{1} P(s) e^{i w s} ds``, ``w = r x``.  The
    ``a_n`` come from ``k``-point Gauss-Legendre for ``k`` = 32, 64, 128,
    256, and the first ``k`` whose result is within ``atol + rtol * max|F|``
    of the previous one is returned.  Its accuracy depends on how well
    degree ``k - 1`` resolves the kernel, not on ``x``.

    Each order's integral is the finite endpoint sum of repeated integration
    by parts (:func:`_endpoint_fields`): for a polynomial it ends,
    ``int_{-1}^{1} P e^{i w s} ds = sum_{j<k} (-1)^j [P^(j)(1) e^{i w}
    - P^(j)(-1) e^{-i w}] / (i w)^(j+1)`` (DLMF 10.49; Iserles and Norsett,
    Proc. R. Soc. A 461, 2005).  Term ``j`` is at most ``2 S_j / w^(j+1)``,
    ``S_j = sum_n |a_n| P_n^(j)(1)``, and ``P_n^(j+1)(1) / P_n^(j)(1) =
    (n (n + 1) - j (j + 1)) / (2 (j + 1)) <= k (k - 1) / (2 (j + 1))`` for
    ``n < k``.  So order ``k`` is admitted only where ``min |w| >= k (k - 1)
    / 2`` (:func:`_endpoint_threshold`: 496, 2,016, 8,128 and 32,640), where
    each bound is at most ``1 / (j + 1)`` of the one before: they sum to at
    most ``e`` times the first, ``2 S_0 / w``, ``S_0 = sum_n |a_n|``.  The sum
    stops at the least ``J`` with ``S_J / w^J <= (eps / 2) S_0``; the dropped
    tail is at most ``(2 S_J / w^(J+1)) (J + 1) / J <= 2 eps S_0 / w``, and
    rounding adds about an ulp of the ``2 e S_0 / w`` the terms sum to.  ``J``
    is 5 on the ``longwave_front`` far frame (``w = 1.78e5``) and 19 at most
    at a threshold.  The cost is ``O(J m)`` for ``m`` points, on at most
    ``_LB_CHUNK`` of them at a time, so no temporary grows with the grid past
    the fields themselves; :func:`synthesize_field` would need about
    ``10 r |x| / pi`` nodes.

    The kernel is called once at each admitted order's nodes, in ladder
    order, and each order's ``a_n`` are the real product of its projection
    with the values' real and imaginary parts.  Each order's field is then
    checked against the previous one.  The rule returns None, without
    calling the kernel, when fewer than two orders are admitted (one has
    nothing to be checked against) or ``x`` holds a nan or an infinity, and
    None when the last admitted order has not converged.

    ``kernel`` maps ``(n,)`` nodes to ``(n,)`` values.  An empty ``x``
    gives an empty array without calling the kernel.  Out-of-range
    tolerances raise ``ConfigError`` (:func:`_check_numerics`).
    """
    _check_numerics(rtol, atol)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size == 0:
        return np.zeros(0, dtype=complex)
    if not np.isfinite(_abs_max(x)):
        return None
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    omega = half * x
    least = float(np.min(np.abs(omega)))
    orders = [k for k in _LB_ORDERS if least >= _endpoint_threshold(k)]
    if len(orders) < 2:
        return None
    # Each order's a_n as (Re, Im): the projection is real and the values are
    # split, as a complex operand would send it through a complex product.
    amps = []
    for k in orders:
        s, project = _legendre_projection(k)
        v = np.asarray(kernel(mid + half * s))
        amps.append((project @ np.stack((v.real, v.imag), axis=1)).T)
    phase = half * _cis(mid * x)
    prev = None
    for f in _endpoint_fields(amps, omega, least):
        f *= phase
        if prev is not None:
            prev -= f
            if np.max(np.abs(prev)) <= atol + rtol * np.max(np.abs(f)):
                return f
        prev = f
    return None
