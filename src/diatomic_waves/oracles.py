"""Reference solutions of the diatomic-chain initial value problem.

Two independent routes to the "true" lattice motion:

* :func:`integrate_lattice` — exact propagation of the equations of
  motion on a periodic chain (a ring) wide enough that the wave never
  reaches around it, by a real FFT per sublattice and ``cos(Omega t)`` per
  2x2 Bloch block (the time-domain oracle; no time step, energy-tracked);
* :func:`solve_quadrature` — numerically exact mode synthesis over the
  reduced band (the frequency-domain oracle), optionally restricted to
  the acoustic or optical branch.

The two oracles share no numerical machinery, so their agreement
validates both; asymptotic evaluators elsewhere in the package are
always judged against one of them.

Continuum fields are carried as :class:`WaveField` (heavy-sublattice
component ``u`` and light-sublattice component ``v`` on a common
``x`` grid) with deterministic CSV serialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._quadrature import _check_mu, _check_numerics, _check_times, _next_fast_len, synthesize_field
from .dispersion import ACOUSTIC, OPTICAL, Dispersion, LatticeParams
from .errors import BoundaryError, ChainSizeError, ConfigError
from .initial_data import _MAX_SITES, InitialProfile, _band_limits, spectral_vector

__all__ = [
    "WaveField",
    "write_fields_csv",
    "read_fields_csv",
    "LatticeState",
    "EnergyReport",
    "integrate_lattice",
    "solve_quadrature",
    "FieldComparison",
    "compare_fields",
]

_QUADRATURE_MODES = ("full", "acoustic", "optical")

#: Room (profile widths) the chain of :func:`integrate_lattice` keeps beyond
#: the causal cone, the profile and the front width.
_CHAIN_MARGIN = 2.0
#: Largest displacement at either end of the returned window that counts as not reached.
_BOUNDARY_TOL = 1e-10


def _airy_tail_root(tol: float) -> float:
    """The ``z`` at which ``exp(-zeta) / (4 sqrt(pi) z^(3/4))``, ``zeta = 2 z^(3/2) / 3``,
    falls to ``tol``: the leading term of ``(1/2) int_z^inf Ai``, which lies above
    it (the next term of the expansion is negative; the tests check the root by
    quadrature).  By fixed-point iteration on ``zeta = log(1 / (4 sqrt(pi) tol))
    - (3/4) log z``, whose slope ``3 / (4 z^(3/2))`` at the root is below 1 for
    ``tol < 1e-2``."""
    target = math.log(1.0 / (4.0 * math.sqrt(math.pi) * tol))
    z = 1.0
    for _ in range(50):
        z = (1.5 * (target - 0.75 * math.log(z))) ** (2.0 / 3.0)
    return z


#: Airy scales ahead of the front at which its tail, for a profile of peak 1, is
#: below ``_BOUNDARY_TOL`` (9.46; see :func:`integrate_lattice`).
_FRONT_WIDTHS = _airy_tail_root(_BOUNDARY_TOL)


@dataclass(frozen=True)
class WaveField:
    """Two-component continuum field snapshot at one instant.

    ``u`` is the heavy-sublattice displacement field and ``v`` the
    light-sublattice one, both sampled on the common grid ``x`` (in
    macroscopic units).
    """

    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    t: float
    method: str

    def __post_init__(self) -> None:
        if not (self.x.shape == self.u.shape == self.v.shape):
            raise ConfigError("WaveField arrays must share one shape")


@dataclass(frozen=True)
class LatticeState:
    """Snapshot of the discrete chain at one instant.

    Sites carry integer indices ``n`` (even = heavy, odd = light) at
    positions ``x = n * delta * mu``; ``displacement`` and ``velocity``
    are indexed the same way.
    """

    delta: float
    mu: float
    index: np.ndarray
    displacement: np.ndarray
    velocity: np.ndarray
    t: float

    @property
    def xi(self) -> np.ndarray:
        return self.index * self.delta

    @property
    def x(self) -> np.ndarray:
        return self.index * (self.delta * self.mu)

    @property
    def even_mask(self) -> np.ndarray:
        return self.index % 2 == 0

    def to_staggered_field(self) -> WaveField:
        """Cell view: row per unit cell at the heavy site's position,
        pairing each heavy site with the light site to its right."""
        even = self.even_mask
        idx_even = np.flatnonzero(even)
        idx_even = idx_even[idx_even + 1 < self.index.size]
        return WaveField(
            x=self.x[idx_even],
            u=self.displacement[idx_even],
            v=self.displacement[idx_even + 1],
            t=self.t,
            method="ode",
        )


@dataclass(frozen=True)
class EnergyReport:
    """Total lattice energy at the recorded times.

    ``drift`` is the maximum relative deviation from the initial energy —
    the oracle's health metric; exact modal propagation keeps it at
    rounding level.
    """

    times: np.ndarray
    energy: np.ndarray
    initial: float
    drift: float


def _lattice_energy(w: np.ndarray, v: np.ndarray, gamma1: float, gamma2: float, h: float) -> float:
    """Energy of a ring of sites, heavy at even positions; the last spring joins the ends."""
    kinetic = float(v[0::2] @ v[0::2]) / gamma1 + float(v[1::2] @ v[1::2]) / gamma2
    d = np.diff(w)
    return 0.5 * (h * h * kinetic + float(d @ d) + (w[0] - w[-1]) ** 2)


def _ring_modes(g1: float, g2: float, cells: int):
    """``cos(theta / 2)``, ``sin(theta / 2)``, ``gap`` and the optical and acoustic
    frequencies at ``theta = 2 pi k / N``, ``k <= N / 2`` (see :func:`_propagate`)."""
    half = np.pi * np.arange(cells // 2 + 1) / cells
    c, s = np.cos(half), np.sin(half)
    gap = np.hypot(g2 - g1, 2.0 * np.sqrt(g1 * g2) * c)
    om_plus = np.sqrt(g1 + g2 + gap)
    return c, s, gap, om_plus, 2.0 * np.sqrt(g1 * g2) * s / om_plus  # sqrt(det / lambda_+)


def _propagate(w0: np.ndarray, g1: float, g2: float, times: np.ndarray):
    """Exact motion from rest of a ring of ``N = w0.size // 2`` cells, cell
    ``k`` holding the heavy site ``2k`` and the light site ``2k + 1``.

    A real FFT per sublattice gives the Bloch amplitudes ``X`` at ``theta = 2
    pi k / N``, ``k <= N / 2``, where ``X'' = -M X``, ``M = [[2 g1, -g1 (1 +
    e^{-i theta})], [-g2 (1 + e^{i theta}), 2 g2]]``, with eigenvalues
    ``lambda_+- = g1 + g2 +- gap``, ``gap = hypot(g2 - g1, 2 sqrt(g1 g2)
    cos(theta / 2))``.  Then ``f(M) X = f(lambda_-) X + (f(lambda_+) -
    f(lambda_-)) P X`` with the optical projector ``P = (M - lambda_-) / (2
    gap)``, no entry above ``max(1, sqrt(g2 / g1) / 2)``, for ``f(lambda) =
    cos(sqrt(lambda) t)`` (displacement) and ``-sqrt(lambda) sin(sqrt(lambda)
    t)`` (velocity).  ``lambda_- = det / lambda_+``, ``det = 4 g1 g2
    sin^2(theta / 2)``, and ``P_11 = (gap - g2 + g1) / (2 gap)`` are taken
    without the differences, which would lose the low modes to cancellation.
    Yields ``(displacement, velocity)`` on the ring per time.
    """
    cells = w0.size // 2
    c, s, gap, om_plus, om_minus = _ring_modes(g1, g2, cells)
    diff = g2 - g1
    x = np.fft.rfft(w0.reshape(cells, 2).T)  # heavy and light rows
    a, b = x
    e = c * (c - 1j * s)  # (1 + e^{-i theta}) / 2
    opt_a = (2.0 * g1 * g2 * c * c / (gap + diff) * a - g1 * e * b) / gap
    opt = np.array([opt_a, (0.5 * (gap + diff) * b - g2 * e.conj() * a) / gap])  # P X

    def sites(f_plus: np.ndarray, f_minus: np.ndarray) -> np.ndarray:
        return np.fft.irfft(f_minus * x + (f_plus - f_minus) * opt, cells).T.ravel()

    for t in times:
        p, m = om_plus * t, om_minus * t  # optical and acoustic phases
        yield sites(np.cos(p), np.cos(m)), sites(-om_plus * np.sin(p), -om_minus * np.sin(m))


def _check_record_times(times) -> np.ndarray:
    """``times`` as an array; ``ConfigError`` unless finite, positive and strictly increasing."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.all(np.isfinite(times)):
        raise ConfigError(f"record times must be finite, got {times!r}")
    if times.size == 0 or np.any(times <= 0.0) or np.any(np.diff(times) <= 0.0):
        raise ConfigError("record times must be strictly increasing and positive")
    return times


def integrate_lattice(
    params: LatticeParams,
    profile: InitialProfile,
    mu: float,
    times,
) -> tuple[list[LatticeState], EnergyReport]:
    """Exact motion of the lattice from rest, on a ring standing in for it.

    The sites ``-n .. n`` (``n`` even) cover the causal cone, the profile, the
    front width and a margin.  The front width is ``z = _FRONT_WIDTHS`` Airy
    scales ``s = delta^(2/3) (q t / mu)^(1/3)``: in the long-wave limit each
    front is ``W / 2`` convolved with ``Ai((xi - c t / mu) / s) / s``, so
    ``R + z s`` ahead of it (``R`` the profile's support radius) every point of
    the profile sits at an Airy argument past ``z`` and the field is at most
    ``max|W| / 2 int_z^inf Ai``, which :func:`_airy_tail_root` bounds by
    ``_BOUNDARY_TOL`` for ``max|W| <= 1``.  Zeros pad the sites to a ring of
    ``N >= n + 1`` cells, ``N`` a fast FFT length, moved mode by mode
    (:func:`_propagate`; no time step, only rounding).  The states share one
    read-only ``index``; the energy is the whole ring's.  :class:`BoundaryError`
    once the two sites at either end of the window move by more than
    ``_BOUNDARY_TOL``; :class:`ChainSizeError` before allocating a ring above
    ``_MAX_SITES`` sites.

    Parameters
    ----------
    times:
        Strictly increasing positive instants at which to record states.
    """
    times = _check_record_times(times)
    _check_mu(mu)
    delta = params.h / mu
    disp = Dispersion(params)
    t_max = float(times[-1])
    front_width = _FRONT_WIDTHS * delta ** (2.0 / 3.0) * (
        disp.dispersion_coefficient * t_max / mu
    ) ** (1.0 / 3.0)
    xi_max = (
        disp.sound_speed * t_max / mu
        + profile.support_radius()
        + front_width
        + _CHAIN_MARGIN
        + 4.0 * delta
    )
    half = 2.0 * np.ceil(0.5 * xi_max / delta)  # sites each side, even: heavy ends
    cells = _next_fast_len(int(half) + 1) if half < _MAX_SITES else half  # a nan too
    if not 2 * cells <= _MAX_SITES:
        raise ChainSizeError(
            f"the ring would need about {2.0 * cells:.3g} sites "
            f"(limit {_MAX_SITES}); reduce the times or increase mu"
        )
    index = np.arange(-int(half), int(half) + 1)
    index.flags.writeable = False
    g1, g2, h = params.gamma1, params.gamma2, params.h
    w = np.zeros(2 * cells)
    w[: index.size] = profile.value(index * delta)

    e0 = _lattice_energy(w, np.zeros(2), g1, g2, h)  # from rest
    states: list[LatticeState] = []
    energies = np.empty(times.size)
    motion = _propagate(w, g1 / (h * h), g2 / (h * h), times)
    for i, (t_next, (w_t, v_t)) in enumerate(zip(times, motion)):
        energies[i] = _lattice_energy(w_t, v_t, g1, g2, h)
        w_t, v_t = w_t[: index.size], v_t[: index.size]
        edge_amp = float(np.max(np.abs(w_t[[0, 1, -2, -1]])))
        if edge_amp > _BOUNDARY_TOL:
            raise BoundaryError(
                f"wave reached the ends of the returned window, sites -{index[-1]} and "
                f"{index[-1]}, at t = {t_next:g}: edge amplitude {edge_amp:.2e} > "
                f"{_BOUNDARY_TOL:.1e} on {index.size} sites"
            )
        states.append(LatticeState(delta, mu, index, w_t, v_t, float(t_next)))
    drift = float(np.max(np.abs(energies - e0)) / e0)
    return states, EnergyReport(times=times, energy=energies, initial=e0, drift=drift)


def _check_modes(mode) -> tuple[str, ...]:
    """``mode``, one quadrature mode or a 1-D sequence of them, as a tuple;
    ``ConfigError`` naming the bad value otherwise."""
    if isinstance(mode, str):
        if mode not in _QUADRATURE_MODES:
            raise ConfigError(f"mode must be one of {_QUADRATURE_MODES}, got {mode!r}")
        return (mode,)
    modes = np.asarray(mode, dtype=object)
    if modes.ndim != 1 or modes.size == 0:
        raise ConfigError(
            f"mode must be one of {_QUADRATURE_MODES} or a 1-D sequence of them, got {mode!r}"
        )
    for entry in modes.tolist():
        if not isinstance(entry, str) or entry not in _QUADRATURE_MODES:
            raise ConfigError(
                f"every mode must be one of {_QUADRATURE_MODES}, got {entry!r} in {mode!r}"
            )
    return tuple(modes.tolist())


def solve_quadrature(
    params: LatticeParams,
    profile: InitialProfile,
    mu: float,
    x,
    t,
    mode="full",
    *,
    rtol: float = 1e-8,
    atol: float = 1e-13,
    nodes_per_cycle: float = 10.0,
    max_doublings: int = 6,
) -> WaveField | list:
    """Mode synthesis of the exact lattice solution over the reduced band.

    ``U(x, t) = Re (delta/pi) int_B [ A(delta p) e^{i omega_1 t / h}
    + B(delta p) e^{i omega_2 t / h} ] Vtilde(p) e^{i p x / mu} dp``
    with ``omega_{1,2}`` evaluated at ``delta p``; ``mode`` keeps both
    branch terms ("full") or a single one ("acoustic"/"optical").

    ``t`` is one time, which gives one :class:`WaveField`, or a 1-D sequence
    of times, which gives a list of fields in its order.  ``mode`` is one
    mode, which gives that result, or a 1-D sequence of modes, which gives a
    list of results in its order, each what its mode alone gives (a field,
    or a list of fields for a time sequence).  Only the factors ``e^{i omega
    t / h}`` depend on the time, and a mode only chooses which branch terms
    it adds, so every mode and time comes from one
    :func:`~diatomic_waves._quadrature.synthesize_field` call with ``M T``
    groups: its panel ladder is sized by the largest time's rate ``(max|x| +
    max(t) speed) / mu``, each level evaluates ``Vtilde`` and each branch's
    ``A`` or ``B`` and ``omega`` once, forms each branch's term once per time
    and adds it into every mode that keeps the branch (acoustic first, as a
    one-mode call adds them), contracts the ``2 M T`` columns together, and
    judges convergence on each group against its own peak.  ``speed`` is the
    sound speed, or the optical front speed ``c_star < c`` when every mode is
    "optical"; so an optical field in a sequence with another mode sits on
    the finer sound-speed ladder and moves within its tolerance of its own
    call, and every other field sits on at least as many nodes as its own
    call would.  One time and one mode alone, as scalars or one-element
    sequences, give the same bits either way.

    The price is memory, O(M T n) for ``n`` final nodes: the ``(n, M T, 2)``
    band values are held once (the quadrature weights enter the
    contraction's phase rows, so no weighted copy is made), and each
    contraction block holds ``1 + 2 M T`` rows per column, ``1 + 2 * 2 M T``
    on a grid with residuals (see ``_contract``).  On the ``longwave_front``
    zoom (NaCl, ``delta = 0.0125``, t = 0.5008, 401 points; ~1M final nodes)
    ``tracemalloc`` peaks at 191.5 MB for "acoustic" at one time and
    295.7 MB at three (t/3, 2t/3, t), and at one time at 269.4 MB for
    "full" alone against 304.2 MB for ("full", "acoustic") in one call,
    which took 1.44 s where the two calls took 1.08 + 0.72 s (medians of
    three interleaved calls, 2-vCPU Xeon).  Nothing caps ``M T``; calls over
    fewer modes or times bound it.

    The band is cut to ``|p| <= cut`` where the data provably vanish.  By
    AM-GM ``|A_01| <= sqrt(gamma1 / gamma2) / 2`` and ``|A_10| <=
    sqrt(gamma2 / gamma1) / 2``, so the row sums of ``|A| + |B|`` are at most
    ``M = 2 + sqrt(gamma2 / gamma1)``, and by the alias bound of
    :func:`~diatomic_waves.initial_data._band_limits` the dropped part of
    each component is at most ``M int_{|q| >= cut} |What| / sqrt(2 pi)``;
    ``cut`` keeps that at or below ``atol / 2`` (Gaussian: ``M erfc(cut /
    sqrt(2))``, ``cut ~ 7.68`` on the desk lattice at the default ``atol``).
    A table profile, ``atol = 0`` or a band narrower than ``cut`` keeps the
    whole band, bit for bit.

    Raises ``ConfigError`` for an unknown, non-string, empty or 2-D ``mode``,
    an empty or 2-D ``t``, a negative or non-finite time or ``mu``, or
    out-of-range numerics.
    """
    modes = _check_modes(mode)
    times = _check_times(t)
    _check_mu(mu)
    _check_numerics(rtol, atol, nodes_per_cycle, max_doublings)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    delta = params.h / mu
    if delta == 0.0:
        raise ConfigError(f"delta = h/mu underflows to 0 (h={params.h!r}, mu={mu!r})")
    gain = 2.0 + np.sqrt(params.gamma2 / params.gamma1)  # row sums of |A| + |B|
    a, b = _band_limits(profile, delta, 0.5 * atol * np.pi / (delta * gain))
    disp = Dispersion(params)
    t_over_h = times / params.h
    if set(modes) == {"optical"}:
        speed = disp.critical.c_star
    else:
        speed = disp.sound_speed
    rate = (float(np.max(np.abs(x_arr), initial=0.0)) + float(np.max(times)) * speed) / mu
    # each branch some mode keeps, with the positions in ``modes`` that keep it
    branches = [
        (branch, omega, keep)
        for branch, omega, name in (
            (ACOUSTIC, disp.omega1, "acoustic"), (OPTICAL, disp.omega2, "optical")
        )
        if (keep := [i for i, m in enumerate(modes) if m in ("full", name)])
    ]

    def kern(p: np.ndarray) -> np.ndarray:
        """``(n, M T, 2)`` values, mode-major: the band data once, then each
        branch's term once per time, added into every mode that keeps it, one
        time at a time so no temporary grows with ``T``."""
        s = delta * p
        vt = spectral_vector(profile, delta, p)
        out = np.zeros((p.size, len(modes), times.size, 2), dtype=complex)
        for branch, omega, keep in branches:
            vectors = np.einsum("nij,nj->ni", disp.modal_matrix(s, branch), vt)
            frequency = omega(s)
            for k, th in enumerate(t_over_h):
                term = vectors * np.exp(1j * frequency * th)[:, None]
                for i in keep:
                    out[:, i, k] += term
        out *= delta / np.pi
        return out.reshape(p.size, len(modes) * times.size, 2)

    # An even profile folds the band onto [0, b] (see synthesize_field).
    field = synthesize_field(
        kern,
        a,
        b,
        x_arr / mu,
        rate,
        rtol=rtol,
        atol=atol,
        nodes_per_cycle=nodes_per_cycle,
        max_doublings=max_doublings,
        even_fold=profile.is_even,
    ).reshape(x_arr.size, len(modes), times.size, 2)  # an empty grid comes back 1-D
    results = []
    for i, name in enumerate(modes):
        fields = [
            WaveField(
                x=x_arr,
                u=field[:, i, k, 0].real,
                v=field[:, i, k, 1].real,
                t=float(time),
                method=f"quadrature_{name}",
            )
            for k, time in enumerate(times)
        ]
        results.append(fields if np.ndim(t) else fields[0])
    return results[0] if isinstance(mode, str) else results


@dataclass(frozen=True)
class FieldComparison:
    """Error metrics between a test field and a reference field."""

    l_inf: float
    l2: float
    ref_peak: float
    rel_l_inf: float
    n_points: int


def compare_fields(
    reference: WaveField, test: WaveField, window: tuple[float, float] | None = None
) -> FieldComparison:
    """Componentwise error metrics on the (optionally windowed) common grid.

    Two fields on one grid array (as every CLI comparison is) share it
    without a test; distinct arrays must agree to ``1e-12 (1 + max|x|)``."""
    if test.x is not reference.x and (
        reference.x.shape != test.x.shape
        or not np.allclose(
            reference.x, test.x, rtol=0.0, atol=1e-12 * (1.0 + np.max(np.abs(reference.x)))
        )
    ):
        raise ConfigError("fields must share one x grid for comparison")
    if abs(reference.t - test.t) > 1e-12 * (1.0 + abs(reference.t)):
        raise ConfigError(
            f"fields are snapshots at different times: {reference.t} vs {test.t}"
        )
    mask = slice(None)  # every point, without a copy
    if window is not None:
        lo, hi = window
        mask = (reference.x >= lo) & (reference.x <= hi)
        if not np.any(mask):
            raise ConfigError(f"comparison window {window!r} contains no grid points")
    du = test.u[mask] - reference.u[mask]
    dv = test.v[mask] - reference.v[mask]
    err = np.concatenate([du, dv])
    ref = np.concatenate([reference.u[mask], reference.v[mask]])
    l_inf = float(np.max(np.abs(err)))
    peak = float(np.max(np.abs(ref)))
    return FieldComparison(
        l_inf=l_inf,
        l2=float(np.sqrt(np.mean(err * err))),
        ref_peak=peak,
        rel_l_inf=l_inf / peak if peak > 0.0 else np.inf,
        n_points=du.size,
    )


def write_fields_csv(
    path: str | Path, fields: list[WaveField], header: dict[str, str] | None = None
) -> None:
    """Write snapshots as deterministic CSV.

    Leading comment block carries sorted ``# key = value`` lines; data
    rows are ``x,u,v,method,t`` with shortest-roundtrip float formatting.
    Output depends only on the inputs (no timestamps or environment).
    """
    _write_csv(path, [(fld, _reprs(fld.x)) for fld in fields], header)


def _reprs(a) -> list[str]:
    """The shortest round-trip text of every value of ``a``, as CSV cells."""
    return [repr(value) for value in np.asarray(a, dtype=float).tolist()]


def _write_csv(
    path: str | Path, fields: list[tuple[WaveField, list[str]]], header: dict[str, str] | None
) -> None:
    """:func:`write_fields_csv` of ``(field, x column)`` pairs, the column as
    :func:`_reprs` formats ``field.x``, so snapshots on one grid format it once."""
    lines: list[str] = []
    for key in sorted(header or {}):
        lines.append(f"# {key} = {(header or {})[key]}")
    lines.append("x,u,v,method,t")
    for fld, x in fields:
        tail = f",{fld.method},{float(fld.t)!r}"
        u, v = (np.asarray(a, dtype=float).tolist() for a in (fld.u, fld.v))
        lines.extend(f"{xi},{ui!r},{vi!r}{tail}" for xi, ui, vi in zip(x, u, v))
    Path(path).write_text("\n".join(lines) + "\n")


def read_fields_csv(path: str | Path) -> tuple[list[WaveField], dict[str, str]]:
    """Inverse of :func:`write_fields_csv` (snapshots grouped by method and t)."""
    header: dict[str, str] = {}
    groups: dict[tuple[str, float], list[tuple[float, float, float]]] = {}
    order: list[tuple[str, float]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                header[key.strip()] = value.strip()
                continue
            if line.startswith("x,"):
                continue
            sx, su, sv, method, st = line.split(",")
            key2 = (method, float(st))
            if key2 not in groups:
                groups[key2] = []
                order.append(key2)
            groups[key2].append((float(sx), float(su), float(sv)))
    fields = []
    for method, t in order:
        rows = np.asarray(groups[(method, t)], dtype=float)
        fields.append(
            WaveField(x=rows[:, 0], u=rows[:, 1], v=rows[:, 2], t=t, method=method)
        )
    return fields, header
