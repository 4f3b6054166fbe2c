"""Configuration-driven scenario runner.

Subcommands
-----------
``dispersion``
    Lattice constants report plus ``omega_1``/``omega_2`` branch tables.
``simulate``
    One deterministic ``WaveField`` CSV per (method, time).
``compare``
    Error report (``key = value`` lines) of every listed method against
    the first one, per time, optionally windowed.

The configuration file is flat ``key = value`` text under bracketed
section headers (INI). Sections: ``[lattice]`` (either ``gamma1``,
``gamma2``, ``h`` or the physical ``m_heavy``, ``m_light``, ``spring_k``,
``spacing``, ``window``), ``[scale]`` (exactly one of ``mu`` /
``n_atoms``), ``[profile]``, ``[grid]``, ``[times]``, ``[methods]``, and
optional ``[numerics]`` / ``[compare]``; any other section or key is a
configuration error.  Every output file echoes the resolved configuration
in its comment header, so identical configs give byte-identical outputs.

Exit codes: 0 success, 2 configuration/regime error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dispersion import Dispersion, LatticeParams
from .errors import ConfigError, DiatomicWavesError, NumericalError
from .initial_data import GaussianProfile, InitialProfile, load_profile_table
from .longwave import classify_regime, uas_dalembert, uas_gaussian_airy, uas_integral
from .oracles import WaveField, compare_fields, integrate_lattice, solve_quadrature, write_fields_csv
from .shortwave import (
    DEFAULT_STENCIL,
    acoustic_front_airy,
    acoustic_uniform,
    optical_front_airy,
    optical_uniform,
    shortwave_total,
)

__all__ = ["METHOD_NAMES", "ScenarioConfig", "load_config", "main"]

#: Canonical method registry; values are the regime family used for gating.
METHOD_NAMES = {
    "ode": "oracle",
    "quadrature_full": "oracle",
    "quadrature_acoustic": "oracle",
    "quadrature_optical": "oracle",
    "uas_integral": "longwave",
    "gaussian_airy": "longwave",
    "dalembert": "longwave",
    "acoustic_uniform": "shortwave",
    "optical_uniform": "shortwave",
    "acoustic_front": "shortwave",
    "optical_front": "shortwave",
    "shortwave_total": "shortwave",
}

_ALIASES = {
    "quadrature_ac": "quadrature_acoustic",
    "quadrature_opt": "quadrature_optical",
    "uas_gaussian_airy": "gaussian_airy",
    "uas_dalembert": "dalembert",
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario: lattice, profile, scale, grid, methods."""

    params: LatticeParams
    profile: InitialProfile
    profile_kind: str
    mu: float
    x_min: float
    x_max: float
    points: int
    times: tuple[float, ...]
    methods: tuple[str, ...]
    rtol: float = 1e-8
    atol: float = 1e-13
    nodes_per_cycle: float = 10.0
    max_doublings: int = 6
    stencil: tuple[float, float, float] = DEFAULT_STENCIL
    front_side: str = "right"
    dispersion_points: int = 201
    compare_window: tuple[float, float] | None = None

    @property
    def delta(self) -> float:
        return self.params.h / self.mu

    def header(self) -> dict[str, str]:
        """Resolved configuration as flat echo keys for output headers."""
        disp = Dispersion(self.params)
        regime = classify_regime(self.params, self.mu)
        out = {
            "lattice.gamma1": repr(self.params.gamma1),
            "lattice.gamma2": repr(self.params.gamma2),
            "lattice.h": repr(self.params.h),
            "scale.mu": repr(self.mu),
            "derived.delta": repr(self.delta),
            "derived.ratio": repr(regime.ratio),
            "derived.regime": regime.regime,
            "derived.sound_speed": repr(disp.sound_speed),
            "derived.dispersion_coefficient": repr(disp.dispersion_coefficient),
            "profile.kind": self.profile_kind,
            "grid.x_min": repr(self.x_min),
            "grid.x_max": repr(self.x_max),
            "grid.points": repr(self.points),
            "times.values": ", ".join(repr(t) for t in self.times),
            "methods.names": ", ".join(self.methods),
            "numerics.rtol": repr(self.rtol),
            "numerics.atol": repr(self.atol),
            "numerics.nodes_per_cycle": repr(self.nodes_per_cycle),
            "numerics.max_doublings": repr(self.max_doublings),
            "numerics.stencil": ", ".join(repr(c) for c in self.stencil),
            "numerics.front_side": self.front_side,
        }
        if self.compare_window is not None:
            out["compare.window"] = (
                f"{self.compare_window[0]!r}, {self.compare_window[1]!r}"
            )
        return out


#: Every section and key a scenario file may set.
_KNOWN_KEYS = {
    "lattice": ("gamma1", "gamma2", "h", "m_heavy", "m_light", "spring_k", "spacing", "window"),
    "scale": ("mu", "n_atoms"),
    "profile": ("kind", "path"),
    "grid": ("x_min", "x_max", "points"),
    "times": ("values",),
    "methods": ("names",),
    "numerics": (
        "rtol", "atol", "nodes_per_cycle", "max_doublings", "dispersion_points",
        "stencil", "front_side",
    ),
    "compare": ("window_min", "window_max"),
}


def _reject_unknown_keys(cfg: configparser.ConfigParser) -> None:
    """A misspelt section or key would otherwise silently take its default."""
    for name in cfg.sections():
        known = _KNOWN_KEYS.get(name)
        if known is None:
            sections = "], [".join(_KNOWN_KEYS)
            raise ConfigError(f"unknown section [{name}]; known sections: [{sections}]")
        if name == "numerics" and "ode_dt" in cfg[name]:
            raise ConfigError(
                "[numerics] ode_dt is not a setting: the ode oracle propagates "
                "the chain exactly, without a time step; remove the key"
            )
        unknown = [key for key in cfg[name] if key not in known]
        if unknown:
            keys = ", ".join(known)
            raise ConfigError(f"unknown key '{unknown[0]}' in [{name}]; known keys: {keys}")


def _finite(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{where} = {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where} = {raw!r} is not finite")
    return value


def _get_float(section, key: str, default: float | None = None) -> float:
    raw = section.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"missing required key '{key}' in [{section.name}]")
        return default
    return _finite(raw, f"[{section.name}] {key}")


def _parse_times(cfg: configparser.ConfigParser) -> tuple[float, ...]:
    if not cfg.has_section("times") or not cfg["times"].get("values"):
        raise ConfigError("missing [times] values = ... list")
    times = tuple(
        _finite(tok, "[times] values entry")
        for tok in cfg["times"]["values"].split(",")
        if tok.strip()
    )
    if not times:
        raise ConfigError("[times] values list is empty")
    # Output files and report keys are labelled t{t:g}; no two times may share one.
    labels: dict[str, float] = {}
    for t in times:
        label = f"t{t:g}"
        if label in labels:
            raise ConfigError(
                f"[times] values {labels[label]!r} and {t!r} share the output label {label}"
            )
        labels[label] = t
    return times


def _get_int(section, key: str, default: int) -> int:
    raw = section.get(key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section.name}] {key} = {raw!r} is not an integer") from None


def _parse_lattice(cfg: configparser.ConfigParser) -> LatticeParams:
    if not cfg.has_section("lattice"):
        raise ConfigError("missing [lattice] section")
    sec = cfg["lattice"]
    direct = {"gamma1", "gamma2", "h"} & set(sec)
    physical = {"m_heavy", "m_light", "spring_k", "spacing", "window"} & set(sec)
    if direct and physical:
        raise ConfigError(
            "[lattice] mixes the direct (gamma1/gamma2/h) and physical "
            "(m_heavy/m_light/spring_k/spacing/window) parameter routes"
        )
    if direct:
        return LatticeParams(
            gamma1=_get_float(sec, "gamma1"),
            gamma2=_get_float(sec, "gamma2"),
            h=_get_float(sec, "h"),
        )
    return LatticeParams.from_masses(
        m_heavy=_get_float(sec, "m_heavy"),
        m_light=_get_float(sec, "m_light"),
        spring_k=_get_float(sec, "spring_k"),
        spacing=_get_float(sec, "spacing"),
        window=_get_float(sec, "window"),
    )


def _parse_mu(cfg: configparser.ConfigParser, params: LatticeParams) -> float:
    if not cfg.has_section("scale"):
        raise ConfigError("missing [scale] section (set exactly one of mu / n_atoms)")
    sec = cfg["scale"]
    has_mu = "mu" in sec
    has_n = "n_atoms" in sec
    if has_mu == has_n:
        raise ConfigError("[scale] must set exactly one of mu / n_atoms")
    if has_mu:
        mu = _get_float(sec, "mu")
    else:
        n = _get_int(sec, "n_atoms", 0)
        if n <= 0:
            raise ConfigError("[scale] n_atoms must be a positive integer")
        mu = n * params.h
    if mu <= 0.0:
        raise ConfigError(f"[scale] mu must be positive, got {mu!r}")
    return mu


def _parse_profile(cfg: configparser.ConfigParser) -> tuple[InitialProfile, str]:
    kind = "gaussian"
    if cfg.has_section("profile"):
        kind = cfg["profile"].get("kind", "gaussian").strip().lower()
    if kind == "gaussian":
        return GaussianProfile(), "gaussian"
    if kind == "table":
        path = cfg["profile"].get("path")
        if not path:
            raise ConfigError("[profile] kind = table requires a 'path' key")
        return load_profile_table(path), f"table:{path}"
    raise ConfigError(f"[profile] unknown kind {kind!r} (use gaussian or table)")


def _parse_methods(cfg: configparser.ConfigParser) -> tuple[str, ...]:
    if not cfg.has_section("methods") or not cfg["methods"].get("names"):
        raise ConfigError("missing [methods] names = ... list")
    names = []
    for raw in cfg["methods"]["names"].split(","):
        name = _ALIASES.get(raw.strip(), raw.strip())
        if not name:
            continue
        if name not in METHOD_NAMES:
            raise ConfigError(
                f"unknown method {raw.strip()!r}; registry: {', '.join(sorted(METHOD_NAMES))}"
            )
        names.append(name)
    if not names:
        raise ConfigError("[methods] names list is empty")
    return tuple(names)


def load_config(path: str | Path) -> ScenarioConfig:
    """Parse and resolve a scenario configuration file."""
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = cfg.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    _reject_unknown_keys(cfg)
    params = _parse_lattice(cfg)
    mu = _parse_mu(cfg, params)
    profile, profile_kind = _parse_profile(cfg)

    if not cfg.has_section("grid"):
        raise ConfigError("missing [grid] section")
    grid = cfg["grid"]
    x_min = _get_float(grid, "x_min")
    x_max = _get_float(grid, "x_max")
    points = _get_int(grid, "points", 401)
    if not x_min < x_max:
        raise ConfigError(f"[grid] needs x_min < x_max, got {x_min!r}, {x_max!r}")
    if points < 2:
        raise ConfigError(f"[grid] points must be >= 2, got {points!r}")

    times = _parse_times(cfg)
    methods = _parse_methods(cfg)

    kw: dict = {}
    if cfg.has_section("numerics"):
        num = cfg["numerics"]
        kw["rtol"] = _get_float(num, "rtol", 1e-8)
        kw["atol"] = _get_float(num, "atol", 1e-13)
        kw["nodes_per_cycle"] = _get_float(num, "nodes_per_cycle", 10.0)
        kw["max_doublings"] = _get_int(num, "max_doublings", 6)
        kw["dispersion_points"] = _get_int(num, "dispersion_points", 201)
        if num.get("stencil"):
            coeffs = tuple(
                _finite(tok, "[numerics] stencil entry") for tok in num["stencil"].split(",")
            )
            if len(coeffs) != 3:
                raise ConfigError(f"[numerics] stencil needs 3 coefficients, got {coeffs!r}")
            kw["stencil"] = coeffs
        side = num.get("front_side", "right").strip()
        if side not in ("left", "right"):
            raise ConfigError(f"[numerics] front_side must be left or right, got {side!r}")
        kw["front_side"] = side
    if cfg.has_section("compare"):
        cmp_sec = cfg["compare"]
        if "window_min" in cmp_sec or "window_max" in cmp_sec:
            kw["compare_window"] = (
                _get_float(cmp_sec, "window_min"),
                _get_float(cmp_sec, "window_max"),
            )

    return ScenarioConfig(
        params=params,
        profile=profile,
        profile_kind=profile_kind,
        mu=mu,
        x_min=x_min,
        x_max=x_max,
        points=points,
        times=times,
        methods=methods,
        **kw,
    )


def _check_method_regime(config: ScenarioConfig, method: str) -> None:
    """Reject method/regime mismatches before any heavy work."""
    family = METHOD_NAMES[method]
    delta = config.delta
    if family == "longwave" and delta >= 1.0:
        raise ConfigError(
            f"method {method!r} is a long-wave (delta << 1) evaluator but "
            f"delta = h/mu = {delta:g}; valid here: "
            "ode, quadrature_*, short-wave evaluators"
        )
    if method == "gaussian_airy" and config.profile_kind != "gaussian":
        raise ConfigError(
            "method 'gaussian_airy' is the Gaussian-data closed form; use "
            "uas_integral for tabulated profiles"
        )
    # Short-wave evaluators enforce delta == 1 themselves (RegimeError).


def _run_method(
    config: ScenarioConfig,
    method: str,
    x: np.ndarray,
    t: float,
    ode_states: dict[float, WaveField] | None,
) -> WaveField:
    params, profile, mu = config.params, config.profile, config.mu
    if method == "ode":
        assert ode_states is not None
        return ode_states[t]
    if method.startswith("quadrature_"):
        return solve_quadrature(
            params,
            profile,
            mu,
            x,
            t,
            mode=method.removeprefix("quadrature_"),
            rtol=config.rtol,
            atol=config.atol,
            nodes_per_cycle=config.nodes_per_cycle,
            max_doublings=config.max_doublings,
        )
    if method == "uas_integral":
        field = uas_integral(
            params,
            profile,
            mu,
            x,
            t,
            rtol=config.rtol,
            atol=config.atol,
            nodes_per_cycle=config.nodes_per_cycle,
            max_doublings=config.max_doublings,
        )
        return WaveField(x=x, u=field, v=field.copy(), t=t, method=method)
    if method == "gaussian_airy":
        field = uas_gaussian_airy(params, mu, x, t)
        return WaveField(x=x, u=field, v=field.copy(), t=t, method=method)
    if method == "dalembert":
        field = uas_dalembert(params, profile, mu, x, t)
        return WaveField(x=x, u=field, v=field.copy(), t=t, method=method)
    if method == "shortwave_total":
        out = shortwave_total(params, profile, mu, x, t, stencil=config.stencil)
        return WaveField(x=x, u=out.u, v=out.v, t=t, method=method)
    if method in ("acoustic_uniform", "optical_uniform"):
        fn = acoustic_uniform if method.startswith("acoustic") else optical_uniform
        pair = fn(params, profile, mu, x, t, stencil=config.stencil)
        return WaveField(x=x, u=pair[:, 0], v=pair[:, 1], t=t, method=method)
    if method in ("acoustic_front", "optical_front"):
        fn = acoustic_front_airy if method.startswith("acoustic") else optical_front_airy
        pair = fn(params, profile, mu, x, t, config.front_side, stencil=config.stencil)
        return WaveField(x=x, u=pair[:, 0], v=pair[:, 1], t=t, method=method)
    raise ConfigError(f"unknown method {method!r}")  # unreachable via registry


def _ode_fields(config: ScenarioConfig) -> dict[float, WaveField]:
    """Integrate the chain once and snapshot the staggered field per time."""
    states, _ = integrate_lattice(config.params, config.profile, config.mu, config.times)
    out: dict[float, WaveField] = {}
    for state in states:
        fld = state.to_staggered_field()
        mask = (fld.x >= config.x_min) & (fld.x <= config.x_max)
        out[state.t] = WaveField(
            x=fld.x[mask], u=fld.u[mask], v=fld.v[mask], t=state.t, method="ode"
        )
    return out


def _echo_scenario(config: ScenarioConfig, out) -> None:
    regime = classify_regime(config.params, config.mu)
    print(
        f"delta = {config.delta:g}; dispersion ratio h^2/mu^3 = {regime.ratio:g} "
        f"-> regime: {regime.regime}",
        file=out,
    )
    print(f"methods: {', '.join(config.methods)}; times: {config.times}", file=out)


def cmd_dispersion(config: ScenarioConfig, out_dir: Path) -> None:
    disp = Dispersion(config.params)
    crit = disp.critical
    header = config.header()
    lines = [f"# {k} = {header[k]}" for k in sorted(header)]
    for key, value in (
        ("gamma1", config.params.gamma1),
        ("gamma2", config.params.gamma2),
        ("h", config.params.h),
        ("sound_speed", disp.sound_speed),
        ("dispersion_coefficient", disp.dispersion_coefficient),
        ("p_star", crit.p_star),
        ("c_star", crit.c_star),
        ("q_star", crit.q_star),
        ("omega1_zone_edge", float(disp.omega1(np.pi / 2.0))),
        ("omega2_zone_centre", float(disp.omega2(0.0))),
        ("omega2_zone_edge", float(disp.omega2(np.pi / 2.0))),
    ):
        lines.append(f"{key} = {float(value)!r}")
    (out_dir / "dispersion_report.txt").write_text("\n".join(lines) + "\n")

    p = np.linspace(0.0, np.pi / 2.0, config.dispersion_points)
    w1 = disp.omega1(p)
    w2 = disp.omega2(p)
    rows = ["p,omega1,omega2"]
    rows = [f"# {k} = {header[k]}" for k in sorted(header)] + rows
    for pi, a, b in zip(p, w1, w2):
        rows.append(f"{float(pi)!r},{float(a)!r},{float(b)!r}")
    (out_dir / "dispersion_branches.csv").write_text("\n".join(rows) + "\n")
    print(f"wrote {out_dir / 'dispersion_report.txt'}")
    print(f"wrote {out_dir / 'dispersion_branches.csv'}")


def _common_grid(config: ScenarioConfig, ode_states: dict[float, WaveField] | None):
    if ode_states is not None:
        # Lattice sites are the only grid the chain oracle can produce.
        first = next(iter(ode_states.values()))
        return first.x
    return np.linspace(config.x_min, config.x_max, config.points)


def _run_at_sites(
    config: ScenarioConfig,
    method: str,
    x: np.ndarray,
    t: float,
    ode_states: dict[float, WaveField],
) -> WaveField:
    """A method's field laid out like the ode rows: ``u`` at the heavy site
    ``x``, ``v`` at the light site ``x + h`` to its right."""
    if method == "ode":
        return ode_states[t]
    sites = np.empty(2 * x.size)
    sites[0::2] = x
    sites[1::2] = x + config.params.h
    fld = _run_method(config, method, sites, t, None)
    return WaveField(x=x, u=fld.u[0::2], v=fld.v[1::2], t=t, method=method)


def cmd_simulate(config: ScenarioConfig, out_dir: Path) -> None:
    for method in config.methods:
        _check_method_regime(config, method)
    ode_states = _ode_fields(config) if "ode" in config.methods else None
    header = config.header()
    for method in config.methods:
        x = _common_grid(config, ode_states if method == "ode" else None)
        for t in config.times:
            fld = _run_method(config, method, x, t, ode_states)
            name = f"field_{method}_t{t:g}.csv"
            write_fields_csv(out_dir / name, [fld], header)
            print(f"wrote {out_dir / name}")


def cmd_compare(config: ScenarioConfig, out_dir: Path) -> None:
    if len(config.methods) < 2:
        raise ConfigError("compare needs at least two methods (first is the reference)")
    for method in config.methods:
        _check_method_regime(config, method)
    ode_states = _ode_fields(config) if "ode" in config.methods else None
    x = _common_grid(config, ode_states)
    # With ode present every method is sampled on the chain's sites.
    run = _run_at_sites if ode_states is not None else _run_method
    header = config.header()
    lines = [f"# {k} = {header[k]}" for k in sorted(header)]
    reference_name = config.methods[0]
    lines.append(f"reference = {reference_name}")
    for t in config.times:
        ref = run(config, reference_name, x, t, ode_states)
        for method in config.methods[1:]:
            test = run(config, method, x, t, ode_states)
            metrics = compare_fields(ref, test, window=config.compare_window)
            tag = f"{method}.t={t:g}"
            lines.append(f"{tag}.l_inf = {metrics.l_inf!r}")
            lines.append(f"{tag}.l2 = {metrics.l2!r}")
            lines.append(f"{tag}.rel_l_inf = {metrics.rel_l_inf!r}")
            lines.append(f"{tag}.ref_peak = {metrics.ref_peak!r}")
            lines.append(f"{tag}.n_points = {metrics.n_points}")
    path = out_dir / "compare_report.txt"
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diatomic-waves",
        description="Diatomic-chain wave scenarios: dispersion reports, "
        "field snapshots, and method comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("dispersion", cmd_dispersion),
        ("simulate", cmd_simulate),
        ("compare", cmd_compare),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario configuration file")
        p.add_argument("--out", default=".", help="output directory (created if needed)")
        p.set_defaults(func=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _echo_scenario(config, sys.stdout)
        args.func(config, out_dir)
    except ConfigError as exc:  # includes RegimeError
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except DiatomicWavesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
