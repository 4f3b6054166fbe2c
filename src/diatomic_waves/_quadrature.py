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
node-by-point contraction is therefore a chirp-z transform
(Rabiner-Schafer-Rader 1969; Bluestein 1970) of all 16 columns at once
(in groups past 4 MiB a block): one forward and one inverse FFT, costing
``O((N + M) log(N + M))`` instead of ``O(N M)``; convergence is then
checked on every output point.  Any other grid is contracted directly,
and checked on a 33-point probe subset before the final contraction.
The same chirp-z primitive serves the sublattice sums in
:mod:`diatomic_waves.initial_data`, whose sites are uniform.

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
(a Filon-type rule), so its cost does not depend on ``x``.  It applies
only where ``|x|`` is large next to its polynomial degree and returns
None otherwise, leaving such grids to :func:`synthesize_field`.
"""

from __future__ import annotations

from functools import lru_cache
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
#: against the one before.
_LB_ORDERS = (32, 64, 128, 256)

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


def _progression(a: np.ndarray) -> tuple[np.ndarray, float] | None:
    """``(start, step)`` if every column of the 2-D array ``a`` is
    ``a[i] = start + i * step`` (one common step) to a few ulps of ``max|a|``,
    else None."""
    n = a.shape[0]
    if n == 0:
        return None
    start = a[0]
    step = float(np.mean(a[-1] - a[0])) / (n - 1) if n > 1 else 0.0
    dev = np.max(np.abs(a - (start + step * np.arange(n)[:, None])))
    tol = _UNIFORM_ULPS * np.finfo(float).eps * np.max(np.abs(a))
    return (start, step) if dev <= tol else None


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


def _cis(theta: np.ndarray) -> np.ndarray:
    """``exp(i theta)`` for real ``theta``, without a complex ``exp``."""
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _chirp(half: float, k: np.ndarray) -> np.ndarray:
    """``exp(i half k^2)`` for integer-valued ``k``.

    ``half * k^2`` can exceed the phases of the sum itself by orders of
    magnitude, so it is reduced modulo 2 pi before rounding: ``half`` is
    split so that its leading part times ``k^2`` is exact, and that product
    is reduced with the two-part 2 pi.
    """
    k2 = k * k
    shift = int(np.frexp(half)[1]) - 53 + int(np.max(k2, initial=0.0)).bit_length()
    lead = np.ldexp(np.round(np.ldexp(half, -shift)), shift)
    t = lead * k2
    n = np.round(t / (2.0 * np.pi))
    return _cis((t - n * _TWO_PI_HI) - n * _TWO_PI_LO + (half - lead) * k2)


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


def _chirp_z(n: int, m: int, alpha: float) -> Callable[[np.ndarray], np.ndarray]:
    """Chirp-z transform ``f(h)[i] = sum_j h[j] exp(i alpha j i)`` for ``i < m``.

    ``h`` has shape ``(n, k)``; the result has shape ``(m, k)``.  Bluestein's
    identity ``j i = (j^2 + i^2 - (i - j)^2) / 2`` turns the sum into one
    linear convolution with the chirp ``exp(-i alpha k^2 / 2)``, done for all
    ``k`` columns by one FFT pair in ``O(k (n + m) log(n + m))``; the chirp's
    transform is computed once here.
    """
    half = 0.5 * alpha
    pre = _chirp(half, np.arange(n, dtype=float))
    size = _next_fast_len(n + m - 1)
    k = np.concatenate((np.arange(m), np.arange(m - size, 0)), dtype=float)
    chirp_hat = np.fft.fft(_chirp(-half, k))
    post = _chirp(half, np.arange(m, dtype=float))

    def apply(h: np.ndarray) -> np.ndarray:
        # numpy.fft runs fastest along a contiguous last axis: transform h.T
        spectrum = np.fft.fft(np.multiply(h.T, pre, order="C"), size)
        spectrum *= chirp_hat
        return (post * np.fft.ifft(spectrum)[:, :m]).T

    return apply


def _column_groups(n: int, m: int, rows: int) -> list[slice]:
    """The 16 columns in order, in slices whose ``_chirp_z(n, m, .)`` block of
    ``rows`` per column stays within ``_BLOCK_ELEMENTS`` (or is one column)."""
    per = max(1, _BLOCK_ELEMENTS // (rows * _next_fast_len(n + m - 1)))
    return [slice(c, c + per) for c in range(0, _ORDER, per)]


def _exp_sum(
    transform: Callable[[np.ndarray], np.ndarray],
    g: np.ndarray,
    q: np.ndarray,
    q0: np.ndarray | float,
    x0: np.ndarray | float,
    steps: np.ndarray,
    resid: np.ndarray,
) -> np.ndarray:
    """``out[i, c] = sum_j g[j, c] exp(i q[j, c] x[i, c])`` on near-uniform
    grids, for ``C`` columns in one ``(n, 2 C w)`` transform.

    Column ``c`` has ``q[j, c] = q0[c] + j dq`` up to a few ulps and
    ``x[i, c] = x0[c] + steps[i] + resid[i, c]`` with ``steps[i] = i dx`` and
    a tiny residual, and ``transform`` is ``_chirp_z(n, m, dq * dx)``.
    ``q[j, c] x0[c]`` is applied per term and the residual to first order,
    so the transform sees only ``q[j, c] (x[i, c] - x0[c])``.  ``g`` has
    shape ``(n, C, w)``, ``q`` ``(n, C)``, ``resid`` ``(m,)`` or ``(m, C)``
    and the result ``(m, C, w)``; ``q0``, ``x0`` and a ``C`` of 1 broadcast.
    """
    h = g * _cis(q * x0)[..., None]
    n, cols, w = h.shape
    s = transform(np.concatenate((h, h * q[..., None]), axis=2).reshape(n, -1))
    s = s.reshape(-1, cols, 2 * w)
    r = resid.reshape(steps.size, -1, 1)
    return _cis(steps[:, None] * q0)[..., None] * (s[..., :w] + 1j * r * s[..., w:])


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
    """As :func:`_contract_direct`, by one chirp-z transform pair over all 16
    local-node columns when ``x`` is uniform (see :func:`_output_grid`) and
    ``p`` panel-strided; past ``_BLOCK_ELEMENTS`` the columns go in groups.

    The two agree to about ``eps * max|p| * (x[-1] - x[0]) * sum|g|``: the
    offset ``x[0]`` and the grids' deviations from exact progressions are
    applied exactly or to first order, so only phases of the size of
    ``p (x - x[0])`` pass through the transforms.  The columns are added in
    order ``c = 0 ... 15``, so grouping changes no bit.
    """
    if even_fold:
        g = g.real  # the weight 2 cos(p x) is real: the fold integrates Re kernel
    grid = _output_grid(x, float(np.max(np.abs(p), initial=0.0)))
    columns = _panel_columns(p) if grid is not None else None
    if columns is None:
        return _contract_direct(g, p, x, even_fold)
    x0, dx = grid
    p0, dp = columns
    steps = np.arange(x.size) * dx
    resid = (x - x0) - steps
    k = g.shape[1]
    g_cols = g.reshape(-1, _ORDER, k)
    p_cols = p.reshape(-1, _ORDER)
    transform = _chirp_z(p_cols.shape[0], x.size, dp * dx)
    out = np.zeros((x.size, k), dtype=complex)
    for cs in _column_groups(p_cols.shape[0], x.size, 2 * k):
        s = _exp_sum(transform, g_cols[:, cs], p_cols[:, cs], p0[cs], x0, steps, resid)
        if even_fold:  # sum g 2 cos(p x) = s + conj(s) for a real g
            s = s + s.conj()
        for c in range(s.shape[1]):
            out += s[:, c]
    return out


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
        Maps node array ``(n,)`` to values ``(n,)`` or ``(n, m)``; may be
        complex.  Must be smooth on ``[a, b]``.
    rate:
        Bound on the total oscillation rate (``max |x|`` plus the rate of
        any oscillatory factor inside the kernel).
    even_fold:
        If true, evaluate ``Re int_{-b}^{b}`` of an even kernel folded to
        ``[a=0, b]`` with the real weight ``2 cos(p x)``, so of ``Re kernel``;
        the imaginary part is zero and convergence is judged on the real part.

    Returns
    -------
    Complex array of shape ``(len(x), m)`` (``m = 1`` kernels keep a
    trailing axis only if the kernel returned one).  An empty ``x`` gives
    an empty 1-D array without calling the kernel.

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
        subset) below ``atol + rtol * scale``.
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

    was_1d = False

    def require_level(n_panels: int) -> None:
        if n_panels * _ORDER > _MAX_NODES:
            raise QuadratureError(
                f"oscillation rate {rate:.3e} needs {n_panels * _ORDER} quadrature "
                f"nodes, above the limit of {_MAX_NODES}"
            )

    def weighted(n_panels: int) -> tuple[np.ndarray, np.ndarray]:
        nonlocal was_1d
        require_level(n_panels)
        p, w = panel_nodes(a, b, n_panels)
        vals = np.asarray(kernel(p))
        if vals.ndim == 1:
            was_1d = True
            vals = vals[:, None]
        return p, vals * w[:, None]

    panels = oscillation_panels(rate, a, b, nodes_per_cycle)
    require_level(2 * panels)  # every return follows at least one doubling
    p1, g1 = weighted(panels)
    f1 = _contract(g1, p1, x_check, even_fold)
    err = float("inf")  # no doubling attempted yet: convergence unverified
    scale = float(np.max(np.abs(f1)))
    for _ in range(max_doublings):
        panels2 = 2 * panels
        p2, g2 = weighted(panels2)
        f2 = _contract(g2, p2, x_check, even_fold)
        err = float(np.max(np.abs(f2 - f1)))
        scale = float(np.max(np.abs(f2)))
        if err <= atol + rtol * scale:
            full = f2 if x_check is x else _contract(g2, p2, x, even_fold)
            return full[:, 0] if was_1d else full
        panels, p1, g1, f1 = panels2, p2, g2, f2
    raise QuadratureError(
        f"panel refinement stalled at {panels} panels: change {err:.3e} "
        f"exceeds target {atol:.1e} + {rtol:.1e} * {scale:.3e}"
    )


@lru_cache(maxsize=None)
def _legendre_projection(k: int) -> tuple[np.ndarray, np.ndarray]:
    """``k``-point Gauss-Legendre nodes on [-1, 1] and the ``(k, k)`` matrix
    that takes values there to Legendre coefficients of degree < ``k``."""
    s, w = np.polynomial.legendre.leggauss(k)
    vander = np.polynomial.legendre.legvander(s, k - 1)  # vander[j, n] = P_n(s_j)
    return s, (np.arange(k) + 0.5)[:, None] * (vander * w[:, None]).T


def _bessel_sum(coef: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """``sum_n coef[n] j_n(omega)`` with the spherical Bessel ``j_n`` from
    upward recurrence, which is stable while ``n < |omega|``."""
    inv = 1.0 / omega
    j_prev = np.sin(omega) * inv
    j = (j_prev - np.cos(omega)) * inv
    total = coef[0] * j_prev + coef[1] * j
    for n in range(1, coef.size - 1):
        j_prev, j = j, (2 * n + 1) * inv * j - j_prev
        total += coef[n + 1] * j
    return total


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

    ``kernel`` maps ``(n,)`` nodes to ``(n,)`` values.  The ``j_n`` come
    from upward recurrence, so order ``k`` is used only where
    ``min |r x| > 2 k``; the rule returns None when that guard fails before
    convergence or when ``k = 256`` has not converged.  The guard also
    makes it cheaper than :func:`synthesize_field`, which needs about
    ``10 r |x| / pi`` nodes.  An empty ``x`` gives an empty array without
    calling the kernel.  Out-of-range tolerances raise ``ConfigError``
    (:func:`_check_numerics`).
    """
    _check_numerics(rtol, atol)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size == 0:
        return np.zeros(0, dtype=complex)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    omega = half * x
    least = float(np.min(np.abs(omega)))
    prev = None
    for k in _LB_ORDERS:
        if not least > 2.0 * k:  # also refuses nan
            return None
        s, project = _legendre_projection(k)
        coef = 2.0 * _I_POWERS[np.arange(k) % 4] * (project @ kernel(mid + half * s))
        f = half * _cis(mid * x) * _bessel_sum(coef, omega)
        if prev is not None and np.max(np.abs(f - prev)) <= atol + rtol * np.max(np.abs(f)):
            return f
        prev = f
    return None
