"""Reference solutions of the diatomic-chain initial value problem.

Two independent routes to the "true" lattice motion:

* :func:`integrate_lattice` — direct velocity-Verlet integration of the
  equations of motion on a finite chain with fixed distant ends (the
  time-domain oracle; symplectic, energy-tracked);
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

from ._quadrature import synthesize_field
from .dispersion import ACOUSTIC, OPTICAL, Dispersion, LatticeParams
from .errors import BoundaryError, ConfigError
from .initial_data import InitialProfile, spectral_vector

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
    the integrator's primary health metric (symplectic schemes bound it
    uniformly in time at fixed step).
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


def integrate_lattice(
    params: LatticeParams,
    profile: InitialProfile,
    mu: float,
    times,
    *,
    dt: float | None = None,
    margin: float = 2.0,
    boundary_tol: float = 1e-10,
) -> tuple[list[LatticeState], EnergyReport]:
    """Velocity-Verlet integration from rest with fixed distant ends.

    Parameters
    ----------
    times:
        Strictly increasing positive instants at which to record states.
    dt:
        Integration step.  The default ``2.5e-4 / omega_top`` (with
        ``omega_top`` the top of the optical band) keeps the relative
        energy oscillation of the scheme below 1e-8.
    margin:
        Extra room (in profile-width units) beyond the causal cone plus
        front width; the run aborts with :class:`BoundaryError` if the
        solution ever reaches the fixed ends above ``boundary_tol``.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0 or np.any(times <= 0.0) or np.any(np.diff(times) <= 0.0):
        raise ConfigError("record times must be strictly increasing and positive")
    if mu <= 0.0:
        raise ConfigError(f"mu must be positive, got {mu!r}")
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
        + margin
        + 4.0 * delta
    )
    n_half = int(np.ceil(xi_max / delta))
    n_half += n_half % 2  # even endpoints
    index = np.arange(-n_half, n_half + 1)
    gamma = np.where(index % 2 == 0, params.gamma1, params.gamma2)
    h = params.h
    w = profile.value(index * delta)
    v = np.zeros_like(w)
    gh2 = gamma / (h * h)

    band = disp.band_edges()
    omega_top = band["optical_top"] / h
    if dt is None:
        dt = 2.5e-4 / omega_top
    if dt <= 0.0 or dt * omega_top >= 2.0:
        raise ConfigError(
            f"dt = {dt!r} is not positive and stable (omega_top * dt < 2 required)"
        )

    accel = np.zeros_like(w)

    def update_accel() -> None:
        accel[1:-1] = gh2[1:-1] * (w[2:] - 2.0 * w[1:-1] + w[:-2])

    update_accel()
    e0 = _lattice_energy(w, v, gamma, h)
    states: list[LatticeState] = []
    energies = np.empty(times.size)
    t_cur = 0.0
    for i, t_next in enumerate(times):
        n_steps = max(1, int(np.ceil((t_next - t_cur) / dt)))
        step = (t_next - t_cur) / n_steps
        half = 0.5 * step
        for _ in range(n_steps):
            v += half * accel
            w += step * v
            update_accel()
            v += half * accel
        t_cur = t_next
        edge_amp = max(
            float(np.max(np.abs(w[:2]))), float(np.max(np.abs(w[-2:])))
        )
        if edge_amp > boundary_tol:
            raise BoundaryError(
                f"wave reached the fixed ends at t = {t_next:g} "
                f"(edge amplitude {edge_amp:.2e} > {boundary_tol:.1e}); "
                "increase margin"
            )
        energies[i] = _lattice_energy(w, v, gamma, h)
        states.append(
            LatticeState(
                delta=delta,
                mu=mu,
                index=index.copy(),
                displacement=w.copy(),
                velocity=v.copy(),
                t=float(t_next),
            )
        )
    drift = float(np.max(np.abs(energies - e0)) / e0)
    return states, EnergyReport(times=times, energy=energies, initial=e0, drift=drift)


def solve_quadrature(
    params: LatticeParams,
    profile: InitialProfile,
    mu: float,
    x,
    t: float,
    mode: str = "full",
    *,
    rtol: float = 1e-8,
    atol: float = 1e-13,
    nodes_per_cycle: float = 10.0,
    max_doublings: int = 6,
) -> WaveField:
    """Mode synthesis of the exact lattice solution over the reduced band.

    ``U(x, t) = Re (delta/pi) int_B [ A(delta p) e^{i omega_1 t / h}
    + B(delta p) e^{i omega_2 t / h} ] Vtilde(p) e^{i p x / mu} dp``
    with ``omega_{1,2}`` evaluated at ``delta p``; ``mode`` keeps both
    branch terms ("full") or a single one ("acoustic"/"optical").
    """
    if mode not in _QUADRATURE_MODES:
        raise ConfigError(f"mode must be one of {_QUADRATURE_MODES}, got {mode!r}")
    if t < 0.0:
        raise ConfigError(f"t must be non-negative, got {t!r}")
    if mu <= 0.0:
        raise ConfigError(f"mu must be positive, got {mu!r}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    delta = params.h / mu
    edge = np.pi / (2.0 * delta)
    disp = Dispersion(params)
    t_over_h = t / params.h
    if mode == "optical":
        speed = disp.critical.c_star
    else:
        speed = disp.sound_speed
    rate = (float(np.max(np.abs(x_arr))) + t * speed) / mu

    def kern(p: np.ndarray) -> np.ndarray:
        s = delta * p
        vt = spectral_vector(profile, delta, p)
        out = np.zeros_like(vt)
        if mode in ("full", "acoustic"):
            a_mat = disp.modal_matrix(s, ACOUSTIC)
            phase = np.exp(1j * disp.omega1(s) * t_over_h)
            out += np.einsum("nij,nj->ni", a_mat, vt) * phase[:, None]
        if mode in ("full", "optical"):
            b_mat = disp.modal_matrix(s, OPTICAL)
            phase = np.exp(1j * disp.omega2(s) * t_over_h)
            out += np.einsum("nij,nj->ni", b_mat, vt) * phase[:, None]
        return (delta / np.pi) * out

    if profile.is_even:
        field = synthesize_field(
            kern,
            0.0,
            edge,
            x_arr / mu,
            rate,
            rtol=rtol,
            atol=atol,
            nodes_per_cycle=nodes_per_cycle,
            max_doublings=max_doublings,
            even_fold=True,
        )
    else:
        field = synthesize_field(
            kern,
            -edge,
            edge,
            x_arr / mu,
            rate,
            rtol=rtol,
            atol=atol,
            nodes_per_cycle=nodes_per_cycle,
            max_doublings=max_doublings,
        )
    return WaveField(
        x=x_arr,
        u=field[:, 0].real,
        v=field[:, 1].real,
        t=float(t),
        method=f"quadrature_{mode}",
    )


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
    lines: list[str] = []
    for key in sorted(header or {}):
        lines.append(f"# {key} = {(header or {})[key]}")
    lines.append("x,u,v,method,t")
    for fld in fields:
        t_repr = repr(float(fld.t))
        for xi, ui, vi in zip(fld.x, fld.u, fld.v):
            lines.append(
                f"{float(xi)!r},{float(ui)!r},{float(vi)!r},{fld.method},{t_repr}"
            )
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
