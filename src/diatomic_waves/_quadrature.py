"""Composite Gauss-Legendre synthesis of oscillatory band integrals.

All continuum fields in this package are inverse transforms of the form

    F(x) = integral_a^b  kernel(p) * exp(i p x) dp

with a smooth (often complex, vector-valued) kernel and a phase whose
local frequency is bounded by a known ``rate``.  They are evaluated with
composite 16-point Gauss-Legendre panels sized from the oscillation rate,
then verified by doubling the panel count until the change on the output
grid is below tolerance.

The panels have equal width, so each of the 16 local Gauss-Legendre
nodes forms a uniform grid across panels.  On a uniform output grid the
node-by-point contraction is therefore a sum of 16 chirp-z transforms
(Rabiner-Schafer-Rader 1969; Bluestein 1970), costing
``O((N + M) log(N + M))`` instead of ``O(N M)``.  Each column's output
phase goes into its own copy of the chirp, so the 16 are added in the
frequency domain: one forward FFT of the columns and their chirps (in
groups past 4 MiB a block) and one inverse FFT of the sum, whose phases
stay of the size of ``dp dx (N / 16 + M)``; convergence is then checked
on every output point.  An output grid that is a progression only up to
residuals above rounding of its span (a travelling frame
``(c t - x) / mu``) also transforms a copy of the kernel weighted by the
nodes, which applies the residuals to first order; a ``linspace`` grid
does not, and its transforms are half as wide.  Any other grid is
contracted directly, and checked on a 33-point probe subset before the
final contraction.  The same Bluestein set-up serves the sublattice sums
in :mod:`diatomic_waves.initial_data`, whose sites are uniform; there the
16 columns are separate outputs, each transformed on its own.

A kernel may return groups of columns, ``(n, g, m)``: the fields of one
band at ``g`` times, say, which share their nodes and differ only in a
phase factor.  They share one panel ladder sized by the largest rate, one
kernel call and one contraction of all ``g m`` columns per level, and
convergence is judged on each group against its own scale.

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
(a Filon-type rule), so its cost does not depend on ``x``; its
Gauss-Legendre rules come from Newton's method, without an eigensolver.
It applies only where ``|x|`` is large next to its polynomial degree and
returns None otherwise, leaving such grids to :func:`synthesize_field`.  One
upward Bessel recurrence serves all of its orders, and every matrix
product in it is real: the projection of complex kernel values, as one
complex operand, cost a complex matrix-vector product of milliseconds
(and a spinning BLAS thread) where the real one takes microseconds.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import Callable

import numpy as np

from .errors import ConfigError, QuadratureError

__all__ = ["panel_nodes", "oscillation_panels", "synthesize_field", "legendre_bessel_field"]

_ORDER = 16
_MIN_PANELS = 8
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_ORDER)

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
#: progression: :func:`_exp_sum` applies the phase ``p r`` to first order, so
#: its neglected second-order term stays below ``5e-17`` of each term.
_RESIDUAL_PHASE = 1e-8

#: Legendre orders :func:`legendre_bessel_field` tries, each checked
#: against the one before; each is a multiple of the first, the rows its
#: recurrence adds per block.
_LB_ORDERS = (32, 64, 128, 256)

#: Output points :func:`legendre_bessel_field` runs its recurrence on at once,
#: so its Bessel rows stay a fixed block while the grid grows.
_LB_CHUNK = 4096

#: ``i**n`` for ``n % 4``, exactly.
_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])

#: Complex elements (4 MiB) of a chirp-z block that more columns may not pass.
_BLOCK_ELEMENTS = 1 << 18


def panel_nodes(a: float, b: float, n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of ``n_panels`` composite 16-point GL panels on [a, b]."""
    if n_panels < 1:
        raise ValueError(f"n_panels must be >= 1, got {n_panels}")
    edges = np.linspace(a, b, n_panels + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (centers[:, None] + half * _GL_NODES[None, :]).ravel()
    weights = np.broadcast_to(half * _GL_WEIGHTS, (n_panels, _ORDER)).ravel()
    return nodes, weights.copy()


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
    so :func:`_exp_sum` need not apply them (see :func:`_contract`)."""
    return r if _abs_max(r) > _UNIFORM_ULPS * np.finfo(float).eps * span else None


def _output_grid(x: np.ndarray, p_max: float) -> tuple[float, float] | None:
    """``(x0, dx)`` if the 1-D grid ``x`` is ``x0 + i dx`` up to residuals ``r``
    with ``p_max * max|r| <= _RESIDUAL_PHASE``, else None.

    The test is on the phase the residuals carry, not on ulps of ``max|x|``:
    a grid formed as ``(c t - x) / mu`` sits hundreds of ulps off a
    progression, which the first-order correction still makes exact.
    """
    n = x.size
    if n == 0:
        return None
    step = float(x[-1] - x[0]) / (n - 1) if n > 1 else 0.0
    dev = float(np.max(np.abs(x - (x[0] + step * np.arange(n)))))
    return (float(x[0]), step) if p_max * dev <= _RESIDUAL_PHASE else None


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
    ``m - size ... -1`` (see :func:`_chirp`).
    """
    half = 0.5 * alpha
    size = _next_fast_len(n + m - 1)
    lags = np.concatenate((np.arange(m), np.arange(m - size, 0)), dtype=float)
    pre = _chirp(half, np.arange(n, dtype=float))
    return pre, _chirp(half, np.arange(m, dtype=float)), _chirp(-half, lags)


def _chirp_z(n: int, m: int, alpha: float) -> Callable[[np.ndarray], np.ndarray]:
    """Chirp-z transform ``f(h)[i] = sum_j h[j] exp(i alpha j i)`` for ``i < m``.

    ``h`` has shape ``(n, k)``; the result has shape ``(m, k)``.  The
    convolution of :func:`_bluestein` is done for all ``k`` columns by one
    FFT pair in ``O(k (n + m) log(n + m))``; the chirp's transform is
    computed once here.
    """
    pre, post, chirp = _bluestein(n, m, alpha)
    pre, post, size = _cis(pre), _cis(post), chirp.size
    chirp_hat = np.fft.fft(_cis(chirp))

    def apply(h: np.ndarray) -> np.ndarray:
        # numpy.fft runs fastest along a contiguous last axis: transform h.T,
        # zero-padded to ``size``, in place
        spectrum = np.zeros((h.shape[1], size), dtype=complex)
        np.multiply(h.T, pre, out=spectrum[:, :n])
        np.fft.fft(spectrum, out=spectrum)
        spectrum *= chirp_hat
        np.fft.ifft(spectrum, out=spectrum)
        return (post * spectrum[:, :m]).T

    return apply


def _column_groups(n: int, m: int, rows: int) -> list[slice]:
    """The 16 columns in order, in slices whose block of ``rows`` transforms
    per column, each of the padded length of :func:`_bluestein`, stays within
    ``_BLOCK_ELEMENTS`` (or is one column)."""
    per = max(1, _BLOCK_ELEMENTS // (rows * _next_fast_len(n + m - 1)))
    return [slice(c, c + per) for c in range(0, _ORDER, per)]


def _exp_sum(
    transform: Callable[[np.ndarray], np.ndarray],
    g: np.ndarray,
    q: np.ndarray,
    q0: np.ndarray | float,
    x0: np.ndarray | float,
    steps: np.ndarray,
    resid: np.ndarray | None,
) -> np.ndarray:
    """``out[i, c] = sum_j g[j, c] exp(i q[j, c] x[i, c])`` on near-uniform
    grids, for ``C`` columns in one ``(n, C w)`` transform, or ``(n, 2 C w)``
    with a residual.

    Column ``c`` has ``q[j, c] = q0[c] + j dq`` up to a few ulps and
    ``x[i, c] = x0[c] + steps[i] + resid[i, c]`` with ``steps[i] = i dx`` and
    a tiny residual, and ``transform`` is ``_chirp_z(n, m, dq * dx)``.
    ``q[j, c] x0[c]`` is applied per term, so the transform sees only
    ``q[j, c] (x[i, c] - x0[c])``.  The residual is applied to first order,
    by transforming the copy ``q g e^{i q x0}`` next to ``g e^{i q x0}``;
    a ``resid`` of None (see :func:`_residual`) drops it, and the copy is
    neither built nor transformed.  ``g`` has shape ``(n, C, w)``, ``q``
    ``(n, C)``, ``resid`` ``(m,)`` or ``(m, C)`` and the result
    ``(m, C, w)``; ``q0``, ``x0`` and a ``C`` of 1 broadcast.
    """
    phase = _cis(q * x0)[..., None]
    n, cols, w = np.broadcast_shapes(g.shape, phase.shape)
    width = w if resid is None else 2 * w
    h = np.empty((n, cols, width), dtype=complex)  # [g e^{i q x0}, with resid that times q]
    np.multiply(g, phase, out=h[..., :w])
    if resid is not None:
        np.multiply(h[..., :w], q[..., None], out=h[..., w:])
    del phase  # free before the transform's padded block, which sets the peak
    s = transform(h.reshape(n, -1)).reshape(-1, cols, width)
    if resid is not None:
        s = s[..., :w] + 1j * resid.reshape(steps.size, -1, 1) * s[..., w:]
    return _cis(steps[:, None] * q0)[..., None] * s


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
    g: np.ndarray, p: np.ndarray, x: np.ndarray, even_fold: bool
) -> np.ndarray:
    """As :func:`_contract_direct`, by one chirp-z transform of the sum of all
    16 local-node columns when ``x`` is uniform (see :func:`_output_grid`)
    and ``p`` panel-strided.

    Column ``c`` has nodes ``p0[c] + j dp`` and the grid is ``x0 + i dx``,
    so with ``alpha = dp dx`` and ``theta_c = dx (p0[c] - p0[0])``, in
    ``[0, alpha)`` up to sign, the sum is ``e^{i p0[0] i dx}`` times
    ``sum_c e^{i theta_c i} sum_j h_c[j] e^{i alpha j i}`` with
    ``h_c[j] = g[j, c] e^{i p[j, c] x0}``.  Splitting ``theta_c i`` as
    ``theta_c j + theta_c (i - j)`` moves each column's output phase into
    its terms and into its own copy of the Bluestein chirp
    (:func:`_bluestein`), so every column is a convolution of the same
    length: the 16 are transformed, multiplied and added in the frequency
    domain, and one inverse FFT of ``w`` rows (a ``w``-column ``g``) gives
    the whole sum.  The column groups of :func:`_column_groups` bound the
    forward block, and the spectra are added in order ``c = 0 ... 15``
    into one accumulator, so grouping changes no bit.

    The two paths agree to about ``eps * max|p| * (x[-1] - x[0]) * sum|g|``:
    the offsets ``x0`` and ``p0[0]`` are applied per term and per point,
    and ``theta_c`` is measured from the first column, so only phases of
    the size of ``alpha (n + m)`` (reduced chirps aside) pass through the
    transforms.  A grid's residuals ``r = x - (x0 + i dx)`` are applied to
    first order, by transforming the copy ``p h_c`` next to ``h_c`` (``2 w``
    rows); where they stay within ``_UNIFORM_ULPS * eps * span``,
    ``span = |x[-1] - x[0]|``, they are dropped (:func:`_residual`).  The
    dropped first-order term at ``x[i]`` is
    ``i r[i] sum_j p[j] g[j] e^{i p[j] (x[i] - r[i])}``, at most
    ``max|r| max|p| sum|g| <= 8 eps max|p| span sum|g|`` (twice that for
    the fold): of the order of the agreement above.
    """
    if even_fold:
        g = g.real  # the weight 2 cos(p x) is real: the fold integrates Re kernel
    grid = _output_grid(x, _abs_max(p))
    columns = _panel_columns(p) if grid is not None else None
    if columns is None:
        return _contract_direct(g, p, x, even_fold)
    x0, dx = grid
    p0, dp = columns
    n, m, k = p.size // _ORDER, x.size, g.shape[1]
    steps = np.arange(m) * dx
    resid = _residual((x - x0) - steps, abs(float(x[-1]) - x0))
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
        _cis(arg, out=cols[1, :, :n])  # e^{i (p x0 + pre + theta_c j)}
        del arg
        for c in reversed(range(k)):  # row 1, the phase, last
            np.multiply(g_cols[:, cs, c].T, cols[1, :, :n], out=cols[1 + c, :, :n])
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
    post += steps * p0[0]
    s = s * _cis(post)[:, None]
    if even_fold:  # sum g 2 cos(p x) = 2 Re s for a real g
        s = 2.0 * s.real
    return s.astype(complex, copy=False)


def _check_numerics(
    rtol: float = 1e-8, atol: float = 1e-13, nodes_per_cycle: float = 10.0, max_doublings: int = 6
) -> None:
    """Raise ``ConfigError`` unless ``rtol`` and ``atol`` are finite and
    ``>= 0``, ``nodes_per_cycle`` is finite and ``> 0`` and ``max_doublings``
    is an integer ``>= 1``.  Negative tolerances would only spend doublings up
    to the cap, a non-positive node density would silently build the minimum
    panel level, and without a doubling no result is ever returned."""
    for name, value in (("rtol", rtol), ("atol", atol)):
        if not (np.isfinite(value) and value >= 0.0):
            raise ConfigError(f"{name} must be >= 0 and finite, got {value!r}")
    if not (np.isfinite(nodes_per_cycle) and nodes_per_cycle > 0.0):
        raise ConfigError(f"nodes_per_cycle must be > 0 and finite, got {nodes_per_cycle!r}")
    if not (isinstance(max_doublings, (int, np.integer)) and max_doublings >= 1):
        raise ConfigError(f"max_doublings must be an integer >= 1, got {max_doublings!r}")


def _check_time(t: float) -> None:
    """Raise ``ConfigError`` unless the time ``t`` of a band integral is finite and ``>= 0``."""
    if not (np.isfinite(t) and t >= 0.0):
        raise ConfigError(f"t must be finite and non-negative, got {t!r}")


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
        together on one panel ladder.
    rate:
        Bound on the total oscillation rate (``max |x|`` plus the rate of
        any oscillatory factor inside the kernel), of every group.
    even_fold:
        If true, evaluate ``Re int_{-b}^{b}`` of an even kernel folded to
        ``[a=0, b]`` with the real weight ``2 cos(p x)``, so of ``Re kernel``;
        the imaginary part is zero and convergence is judged on the real part.

    Returns
    -------
    Complex array of shape ``(len(x),) + kernel(p).shape[1:]``: ``(len(x),)``,
    ``(len(x), m)`` or ``(len(x), g, m)``.  An empty ``x`` gives an empty
    1-D array without calling the kernel.

    Convergence is judged per group: a doubling is accepted once
    ``max|f2 - f1| <= atol + rtol * max|f2|`` holds on the checked points of
    every group on its own (a 1-D or 2-D kernel is one group), so a small
    group is held to its own scale, not to the largest group's.

    Raises
    ------
    ConfigError
        If ``rtol``, ``atol``, ``nodes_per_cycle`` or ``max_doublings`` is
        out of range (see :func:`_check_numerics`); checked before anything else.
    QuadratureError
        If a panel level would exceed ``_MAX_NODES`` nodes (the first level's
        doubling is checked before the kernel is called), or if doubling
        the panel count ``max_doublings`` times never brings the change on
        the checked points (every point of a uniform grid, else a probe
        subset) of every group below ``atol + rtol * scale``.
    """
    _check_numerics(rtol, atol, nodes_per_cycle, max_doublings)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size == 0:
        return np.zeros(0, dtype=complex)
    if _output_grid(x, max(abs(a), abs(b))) is not None:
        x_check = x
    else:
        n_probe = min(x.size, 33)
        probe_idx = np.unique(np.round(np.linspace(0, x.size - 1, n_probe)).astype(int))
        x_check = x[probe_idx]

    shape = ()  # the kernel's value shape past the node axis

    def require_level(n_panels: int) -> None:
        if n_panels * _ORDER > _MAX_NODES:
            raise QuadratureError(
                f"oscillation rate {rate:.3e} needs {n_panels * _ORDER} quadrature "
                f"nodes, above the limit of {_MAX_NODES}"
            )

    def weighted(n_panels: int) -> tuple[np.ndarray, np.ndarray]:
        nonlocal shape
        require_level(n_panels)
        p, w = panel_nodes(a, b, n_panels)
        vals = np.asarray(kernel(p))
        shape = vals.shape[1:]
        return p, vals.reshape(p.size, -1) * w[:, None]

    def change(f1: np.ndarray, f2: np.ndarray) -> tuple[float, float, float]:
        """``(err, scale, target)`` of the group furthest past its target."""
        groups = shape[0] if len(shape) == 2 else 1
        err = np.max(np.abs(f2 - f1).reshape(f2.shape[0], groups, -1), axis=(0, 2))
        scale = np.max(np.abs(f2).reshape(f2.shape[0], groups, -1), axis=(0, 2))
        target = atol + rtol * scale
        worst = int(np.argmax(err - target))  # a nan comes first, and never passes
        return float(err[worst]), float(scale[worst]), float(target[worst])

    panels = oscillation_panels(rate, a, b, nodes_per_cycle)
    require_level(2 * panels)  # every return follows at least one doubling
    p, g = weighted(panels)
    f1 = _contract(g, p, x_check, even_fold)
    for _ in range(max_doublings):
        del p, g  # the next level compares with this one's contraction only
        panels2 = 2 * panels
        p, g = weighted(panels2)
        f2 = _contract(g, p, x_check, even_fold)
        err, scale, target = change(f1, f2)
        if err <= target:
            full = f2 if x_check is x else _contract(g, p, x, even_fold)
            return full.reshape((x.size,) + shape)
        panels, f1 = panels2, f2
    raise QuadratureError(
        f"panel refinement stalled at {panels} panels: change {err:.3e} "
        f"exceeds target {atol:.1e} + {rtol:.1e} * {scale:.3e}"
    )


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


@lru_cache(maxsize=None)
def _legendre_projection(k: int) -> tuple[np.ndarray, np.ndarray]:
    """``k``-point Gauss-Legendre nodes on [-1, 1] and the ``(k, k)`` matrix
    that takes values there to Legendre coefficients of degree < ``k``."""
    s, w = _gauss_legendre(k)
    vander = np.polynomial.legendre.legvander(s, k - 1)  # vander[j, n] = P_n(s_j)
    return s, (np.arange(k) + 0.5)[:, None] * (vander * w[:, None]).T


def _bessel_rows(j: np.ndarray, omega: np.ndarray, n0: int) -> None:
    """Fill ``j[2:]`` with the spherical Bessel ``j_n(omega)``, ``n = n0, n0 + 1, ...``,
    by upward recurrence from ``j_{n0-2}, j_{n0-1}`` in ``j[:2]`` (unused for
    ``n0 = 0``).  Stable while ``n < |omega|``."""
    inv = 1.0 / omega
    first = 2
    if n0 == 0:
        np.multiply(np.sin(omega), inv, out=j[2])
        np.multiply(j[2] - np.cos(omega), inv, out=j[3])
        first = 4
    for r in range(first, j.shape[0]):  # j_n = (2 n - 1) j_{n-1} / omega - j_{n-2}
        np.multiply(2 * (n0 + r - 2) - 1, inv, out=j[r])
        j[r] *= j[r - 1]
        j[r] -= j[r - 2]


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
    and the kernel's Legendre expansion ``sum_n a_n P_n(s)``, the identity
    ``int_{-1}^{1} P_n(s) e^{i w s} ds = 2 i^n j_n(w)`` gives
    ``F(x) = r e^{i m x} sum_n a_n 2 i^n j_n(r x)`` exactly.  The ``a_n``
    come from ``k``-point Gauss-Legendre for ``k`` = 32, 64, 128, 256, and
    the first ``k`` whose result is within ``atol + rtol * max|F|`` of the
    previous one is returned.  Its accuracy depends on how well degree
    ``k - 1`` resolves the kernel, not on ``x``.

    The ``j_n`` come from upward recurrence, so order ``k`` is admitted
    only where ``min |r x| > 2 k``.  The kernel is called once at each
    admitted order's nodes, in ladder order, and each order's ``a_n`` are
    the real product of its projection with the values' real and
    imaginary parts.  One recurrence then runs ``j_0, j_1, ...`` in blocks
    of 32 rows (on at most ``_LB_CHUNK`` points at a time) and adds each
    block into the partial sums of every order not yet complete, by one
    real matrix product; as it passes ``n = k`` that order's field is
    checked against the previous one, and the recurrence stops at
    convergence.  The rule returns None when no order is admitted
    (without calling the kernel) or the last admitted one has not
    converged.  The guard also makes it cheaper than
    :func:`synthesize_field`, which needs about ``10 r |x| / pi`` nodes.

    ``kernel`` maps ``(n,)`` nodes to ``(n,)`` values.  An empty ``x``
    gives an empty array without calling the kernel.  Out-of-range
    tolerances raise ``ConfigError`` (:func:`_check_numerics`).
    """
    _check_numerics(rtol, atol)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size == 0:
        return np.zeros(0, dtype=complex)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    omega = half * x
    least = float(np.min(np.abs(omega)))
    orders = [k for k in _LB_ORDERS if least > 2.0 * k]  # also refuses nan
    if not orders:
        return None
    # Rows 2 i and 2 i + 1: Re and Im of order i's 2 i^n a_n, zero from n = k.
    # The projection is real and the values are split: a complex operand
    # would send it through a complex matrix-vector product.
    coef = np.zeros((2 * len(orders), orders[-1]))
    for i, k in enumerate(orders):
        s, project = _legendre_projection(k)
        v = np.asarray(kernel(mid + half * s))
        re, im = (project @ np.stack((v.real, v.imag), axis=1)).T
        c = 2.0 * _I_POWERS[np.arange(k) % 4] * (re + 1j * im)
        coef[2 * i, :k], coef[2 * i + 1, :k] = c.real, c.imag

    rows = _LB_ORDERS[0]
    sums = np.zeros((2 * len(orders), x.size))
    state = np.empty((2, x.size))  # j_{n-2}, j_{n-1} where the recurrence stands
    block = np.empty((2 + rows, min(x.size, _LB_CHUNK)))
    phase = half * _cis(mid * x)
    done, prev = 0, None
    for i, k in enumerate(orders):
        for n0 in range(done, k, rows):
            for lo in range(0, x.size, _LB_CHUNK):
                cut = slice(lo, lo + _LB_CHUNK)
                j = block[:, : x[cut].size]
                j[:2] = state[:, cut]
                _bessel_rows(j, omega[cut], n0)
                state[:, cut] = j[-2:]
                sums[2 * i :, cut] += coef[2 * i :, n0 : n0 + rows] @ j[2:]
        done = k
        f = np.empty(x.size, dtype=complex)
        f.real, f.imag = sums[2 * i], sums[2 * i + 1]
        f *= phase
        if prev is not None:
            prev -= f
            if np.max(np.abs(prev)) <= atol + rtol * np.max(np.abs(f)):
                return f
        prev = f
    return None
