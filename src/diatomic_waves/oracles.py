"""Reference solutions of the diatomic-chain initial value problem.

Two independent routes to the "true" lattice motion:

* :func:`integrate_lattice` — exact propagation of the equations of
  motion on a finite chain with fixed distant ends, by a sine transform
  per sublattice and ``cos(Omega t)`` per 2x2 mode block (the time-domain
  oracle; no time step, energy-tracked);
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

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._quadrature import _check_numerics, _check_time, synthesize_field
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
#: Largest displacement of the two end sites that counts as not reached.
_BOUNDARY_TOL = 1e-10


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


def _lattice_energy(
    w: np.ndarray, v: np.ndarray, gamma: np.ndarray, h: float
) -> float:
    kinetic = float(np.sum(h * h * v * v / (2.0 * gamma)))
    d = np.diff(w)
    return kinetic + 0.5 * float(np.sum(d * d))


def _chain_modes(g1: float, g2: float, n: int):
    """Frequencies and rotations of the 2x2 blocks of a chain of ``2n + 1``
    sites with heavy ends.

    Mode ``m = 1..n-1`` (``phi = pi m / (2n)``) pairs the heavy amplitude
    ``sqrt(g1) y1 sin(2k phi)`` with the light one ``sqrt(g2) y2
    sin((2k-1) phi)`` through the symmetric block ``[[2 g1, -2 c r], [-2 c r,
    2 g2]]``, ``c = cos phi``, ``r = sqrt(g1 g2)``.  Returns the optical and
    acoustic frequencies and ``(cos theta, sin theta)``, the optical
    eigenvector in ``(y1, y2)``.  The acoustic eigenvalue is taken as
    ``det / lambda_+`` with ``det = 4 g1 g2 sin^2 phi``: the difference
    ``tr/2 - disc`` would lose the low modes to cancellation.
    """
    phi = np.pi * np.arange(1, n) / (2 * n)
    off = -2.0 * np.cos(phi) * np.sqrt(g1 * g2)
    lam_plus = (g1 + g2) + np.hypot(g1 - g2, off)
    lam_minus = 4.0 * g1 * g2 * np.sin(phi) ** 2 / lam_plus
    theta = 0.5 * np.arctan2(off, g1 - g2)
    return np.sqrt(lam_plus), np.sqrt(lam_minus), np.cos(theta), np.sin(theta)


def _dst(x: np.ndarray, kind: int, inverse: bool = False) -> np.ndarray:
    """Orthonormal DST-I (``kind = 1``, its own inverse) or DST-II of ``x``, or
    the inverse of the latter (DST-III), as ``scipy.fft.dst``/``idst`` with
    ``norm="ortho"`` define them.  Each is one real FFT of a zero-padded
    sequence: ``sum_m v_m sin(2 pi k m / L) = -Im rfft(v)[k]``.
    """
    n = x.size
    if kind == 1:  # sqrt(2 / (n + 1)) sum_j x_j sin(pi (j + 1)(k + 1) / (n + 1))
        v = np.zeros(2 * n + 2)
        v[1 : n + 1] = x
        return -np.fft.rfft(v)[1 : n + 1].imag * np.sqrt(2.0 / (n + 1))
    # 2 f_k sum_j x_j sin(pi (k + 1)(2 j + 1) / (2 n)), f_k = 1 / sqrt(2 n) but 1 / sqrt(4 n) at k = n - 1
    scale = np.full(n, np.sqrt(2.0 / n))
    scale[-1] = np.sqrt(1.0 / n)
    v = np.zeros(4 * n)
    if inverse:  # the transpose: k and j swap roles
        v[1 : n + 1] = x * scale
        return -np.fft.rfft(v)[1 : 2 * n : 2].imag
    v[1 : 2 * n : 2] = x
    return -np.fft.rfft(v)[1 : n + 1].imag * scale


def _propagate(w0: np.ndarray, g1: float, g2: float, times: np.ndarray):
    """Exact motion from rest of a chain of ``2n + 1`` sites, heavy at even
    positions, with both end sites held at their initial values.

    The linear interpolation between the end values is a static solution;
    the rest has zero ends and splits into 2x2 blocks under a sine
    transform per sublattice (DST-I on the heavy interior sites, DST-II on
    the light sites; mode ``n`` is light only, ``Omega^2 = 2 g2``).  Each
    block evolves by ``cos(Omega t)``.  Yields ``(displacement, velocity)``
    per time.
    """
    n = (w0.size - 1) // 2
    s = np.arange(w0.size) / (2 * n)
    static = w0[0] * (1.0 - s) + w0[-1] * s  # exact at both ends
    free = w0 - static
    r1, r2 = np.sqrt(g1), np.sqrt(g2)
    y1 = _dst(free[2:-1:2] / r1, 1)
    y2 = _dst(free[1::2] / r2, 2)
    om_opt, om_ac, cs, sn = _chain_modes(g1, g2, n)
    omega = np.concatenate([om_opt, om_ac, [np.sqrt(2.0 * g2)]])
    z = np.concatenate([cs * y1 + sn * y2[:-1], cs * y2[:-1] - sn * y1, y2[-1:]])

    def sites(coeff: np.ndarray, base: np.ndarray) -> np.ndarray:
        opt, ac, top = coeff[: n - 1], coeff[n - 1 : 2 * n - 2], coeff[2 * n - 2 :]
        out = base.copy()
        out[2:-1:2] += r1 * _dst(cs * opt - sn * ac, 1)
        out[1::2] += r2 * _dst(np.concatenate([sn * opt + cs * ac, top]), 2, inverse=True)
        return out

    rest = np.zeros_like(w0)
    for t in times:
        phase = omega * t
        yield sites(np.cos(phase) * z, static), sites(-omega * np.sin(phase) * z, rest)


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
    """Exact motion of the chain from rest with fixed distant ends.

    The chain is propagated mode by mode (see :func:`_propagate`), with no
    time step; the only error is rounding.  A record time at which the ends
    move by more than ``_BOUNDARY_TOL`` raises :class:`BoundaryError`.

    Parameters
    ----------
    times:
        Strictly increasing positive instants at which to record states.
    """
    times = _check_record_times(times)
    if not (np.isfinite(mu) and mu > 0.0):
        raise ConfigError(f"mu must be positive and finite, got {mu!r}")
    delta = params.h / mu
    disp = Dispersion(params)
    t_max = float(times[-1])
    front_width = 5.0 * delta ** (2.0 / 3.0) * (
        disp.dispersion_coefficient * t_max / mu
    ) ** (1.0 / 3.0)
    xi_max = (
        disp.sound_speed * t_max / mu
        + profile.support_radius()
        + front_width
        + _CHAIN_MARGIN
        + 4.0 * delta
    )
    half = np.ceil(xi_max / delta)
    # 2 n_half + 1 sites once n_half is rounded up to even; a nan fails too
    if not 2.0 * half + 3.0 <= _MAX_SITES:
        raise ChainSizeError(
            f"the chain would need about {2.0 * half:.3g} sites "
            f"(limit {_MAX_SITES}); reduce the times or increase mu"
        )
    n_half = int(half)
    n_half += n_half % 2  # even endpoints
    index = np.arange(-n_half, n_half + 1)
    gamma = np.where(index % 2 == 0, params.gamma1, params.gamma2)
    h = params.h
    w = profile.value(index * delta)

    e0 = _lattice_energy(w, np.zeros_like(w), gamma, h)
    states: list[LatticeState] = []
    energies = np.empty(times.size)
    motion = _propagate(w, params.gamma1 / (h * h), params.gamma2 / (h * h), times)
    for i, (t_next, (w_t, v_t)) in enumerate(zip(times, motion)):
        edge_amp = max(
            float(np.max(np.abs(w_t[:2]))), float(np.max(np.abs(w_t[-2:])))
        )
        if edge_amp > _BOUNDARY_TOL:
            raise BoundaryError(
                f"wave reached the fixed ends at t = {t_next:g}: edge amplitude "
                f"{edge_amp:.2e} > {_BOUNDARY_TOL:.1e} on a chain of {index.size} sites"
            )
        energies[i] = _lattice_energy(w_t, v_t, gamma, h)
        states.append(
            LatticeState(
                delta=delta,
                mu=mu,
                index=index.copy(),
                displacement=w_t,
                velocity=v_t,
                t=float(t_next),
            )
        )
    drift = float(np.max(np.abs(energies - e0)) / e0)
    return states, EnergyReport(times=times, energy=energies, initial=e0, drift=drift)


def _check_times(t) -> np.ndarray:
    """``t``, one time or a 1-D sequence of them, as a 1-D array; ``ConfigError``
    if it is empty or has more dimensions, or a time fails :func:`_check_time`."""
    times = np.asarray(t, dtype=float)
    if times.ndim > 1 or times.size == 0:
        raise ConfigError(f"t must be one time or a 1-D sequence of times, got {t!r}")
    times = times.ravel()
    for value in times:
        _check_time(value)
    return times


def solve_quadrature(
    params: LatticeParams,
    profile: InitialProfile,
    mu: float,
    x,
    t,
    mode: str = "full",
    *,
    rtol: float = 1e-8,
    atol: float = 1e-13,
    nodes_per_cycle: float = 10.0,
    max_doublings: int = 6,
) -> WaveField | list[WaveField]:
    """Mode synthesis of the exact lattice solution over the reduced band.

    ``U(x, t) = Re (delta/pi) int_B [ A(delta p) e^{i omega_1 t / h}
    + B(delta p) e^{i omega_2 t / h} ] Vtilde(p) e^{i p x / mu} dp``
    with ``omega_{1,2}`` evaluated at ``delta p``; ``mode`` keeps both
    branch terms ("full") or a single one ("acoustic"/"optical").

    ``t`` is one time, which gives one :class:`WaveField`, or a 1-D sequence
    of times, which gives a list of fields in its order.  Only the factors
    ``e^{i omega t / h}`` depend on the time, so every time comes from one
    :func:`~diatomic_waves._quadrature.synthesize_field` call: its panel
    ladder is sized by the largest time's rate ``(max|x| + max(t) speed) /
    mu``, each level evaluates ``Vtilde``, ``A``, ``B`` and ``omega`` once
    and contracts the ``2 T`` columns of the ``T`` times together, and
    convergence is judged on each time's field against its own peak.  A
    time's field in a sequence therefore sits on at least as many nodes as
    its own call would; one time alone, as a float or a one-element
    sequence, gives the same bits either way.

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

    Raises ``ConfigError`` for an unknown ``mode``, an empty or 2-D ``t``, a
    negative or non-finite time or ``mu``, or out-of-range numerics.
    """
    if mode not in _QUADRATURE_MODES:
        raise ConfigError(f"mode must be one of {_QUADRATURE_MODES}, got {mode!r}")
    times = _check_times(t)
    if not (np.isfinite(mu) and mu > 0.0):
        raise ConfigError(f"mu must be positive and finite, got {mu!r}")
    _check_numerics(rtol, atol, nodes_per_cycle, max_doublings)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    delta = params.h / mu
    if delta == 0.0:
        raise ConfigError(f"delta = h/mu underflows to 0 (h={params.h!r}, mu={mu!r})")
    gain = 2.0 + np.sqrt(params.gamma2 / params.gamma1)  # row sums of |A| + |B|
    a, b = _band_limits(profile, delta, 0.5 * atol * np.pi / (delta * gain))
    disp = Dispersion(params)
    t_over_h = times / params.h
    if mode == "optical":
        speed = disp.critical.c_star
    else:
        speed = disp.sound_speed
    rate = (float(np.max(np.abs(x_arr), initial=0.0)) + float(np.max(times)) * speed) / mu
    branches = [
        (branch, omega)
        for branch, omega, name in (
            (ACOUSTIC, disp.omega1, "acoustic"), (OPTICAL, disp.omega2, "optical")
        )
        if mode in ("full", name)
    ]

    def kern(p: np.ndarray) -> np.ndarray:
        """``(n, T, 2)`` values: the band data once, then a phase per time,
        one time at a time so no temporary grows with ``T``."""
        s = delta * p
        vt = spectral_vector(profile, delta, p)
        out = np.zeros((p.size, times.size, 2), dtype=complex)
        for branch, omega in branches:
            modes = np.einsum("nij,nj->ni", disp.modal_matrix(s, branch), vt)
            frequency = omega(s)
            for k, th in enumerate(t_over_h):
                out[:, k] += modes * np.exp(1j * frequency * th)[:, None]
        out *= delta / np.pi
        return out

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
    ).reshape(x_arr.size, times.size, 2)  # an empty grid comes back 1-D
    fields = [
        WaveField(
            x=x_arr,
            u=field[:, k, 0].real,
            v=field[:, k, 1].real,
            t=float(time),
            method=f"quadrature_{mode}",
        )
        for k, time in enumerate(times)
    ]
    return fields if np.ndim(t) else fields[0]


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
    """Componentwise error metrics on the (optionally windowed) common grid."""
    if reference.x.shape != test.x.shape or not np.allclose(
        reference.x, test.x, rtol=0.0, atol=1e-12 * (1.0 + np.max(np.abs(reference.x)))
    ):
        raise ConfigError("fields must share one x grid for comparison")
    if abs(reference.t - test.t) > 1e-12 * (1.0 + abs(reference.t)):
        raise ConfigError(
            f"fields are snapshots at different times: {reference.t} vs {test.t}"
        )
    mask = np.ones(reference.x.shape, dtype=bool)
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
        n_points=int(np.count_nonzero(mask)),
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
