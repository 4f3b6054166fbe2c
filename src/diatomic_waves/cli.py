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

Methods: ``METHODS`` maps each method name to its check, its evaluator (none
for the chain and the band quadratures, see ``_method_fields``) and its
aliases.  The check refuses the regimes and the times that the evaluator
refuses, with the evaluator's message.  Every listed method's check runs when
the file is loaded, before any command does work, and a method listed twice
(after alias resolution) is a configuration error.

Exit codes: 0 success, 2 configuration/regime error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from ._quadrature import _check_numerics, _check_times
from .dispersion import Dispersion, LatticeParams
from .errors import ConfigError, DiatomicWavesError, NumericalError
from .initial_data import _MAX_SITES, GaussianProfile, InitialProfile, load_profile_table
from .longwave import (
    _check_airy_time, classify_regime, uas_dalembert, uas_gaussian_airy, uas_integral
)
from .oracles import (
    WaveField, _check_record_times, _reprs, _write_csv, compare_fields, integrate_lattice,
    solve_quadrature,
)
from .shortwave import (
    _check_shortwave_time,
    _require_unit_delta,
    acoustic_front_airy,
    acoustic_uniform,
    optical_front_airy,
    optical_uniform,
    shortwave_total,
)

__all__ = ["METHODS", "ScenarioConfig", "load_config", "main"]


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
    dispersion_points: int = 201
    compare_window: tuple[float, float] | None = None

    @property
    def delta(self) -> float:
        return self.params.h / self.mu

    @property
    def problem(self) -> tuple[LatticeParams, InitialProfile, float]:
        """The leading ``(params, profile, mu)`` arguments of the evaluators."""
        return self.params, self.profile, self.mu

    @property
    def band(self) -> dict:
        """Panel-refinement keywords of the band integrals."""
        return {k: getattr(self, k) for k in ("rtol", "atol", "nodes_per_cycle", "max_doublings")}

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
            "numerics.dispersion_points": repr(self.dispersion_points),
        }
        if self.compare_window is not None:
            out["compare.window"] = ", ".join(repr(w) for w in self.compare_window)
        return out


def _chain(config: ScenarioConfig, name: str) -> None:
    """The chain oracle holds at every delta and records at increasing times."""
    _check_record_times(config.times)


def _band(config: ScenarioConfig, name: str) -> None:
    """The band quadrature holds at every delta and every time ``t >= 0``."""
    _check_times(config.times)


def _longwave(config: ScenarioConfig, name: str) -> None:
    if config.delta >= 1.0:
        raise ConfigError(
            f"method {name!r} is a long-wave (delta << 1) evaluator but "
            f"delta = h/mu = {config.delta:g}; valid here: "
            "ode, quadrature_*, short-wave evaluators"
        )


def _uas_integral(config: ScenarioConfig, name: str) -> None:
    _longwave(config, name)
    _band(config, name)


def _gaussian(config: ScenarioConfig, name: str) -> None:
    _longwave(config, name)
    if config.profile_kind != "gaussian":
        raise ConfigError(
            f"method {name!r} is the Gaussian-data closed form; use "
            "uas_integral for tabulated profiles"
        )
    _check_times(config.times, _check_airy_time)


def _shortwave(config: ScenarioConfig, name: str) -> None:
    _require_unit_delta(config.params, config.mu)
    _check_times(config.times, _check_shortwave_time)


class Method(NamedTuple):
    """A CLI method: its check of the regime and the times, its evaluator
    ``(config, x, times)``, one library call that returns one output per time
    and reads of ``config`` only the problem and the band keywords (None for
    the chain oracle and the band quadratures, which :func:`_method_fields`
    runs itself), and its aliases."""

    check: Callable[[ScenarioConfig, str], None]
    evaluate: Callable | None
    aliases: tuple[str, ...] = ()


#: Every method the CLI runs, by canonical name.  The evaluators name the
#: library functions in their bodies, so a rebinding of those module names
#: (as perfbench's tracer does) is seen.  Each evaluator is one library call
#: over all ``[times]``: every evaluated method takes a 1-D sequence of times
#: and returns a list in its order.  The front forms (``*_front``) give both
#: fronts, each point its own side's (``x >= 0`` right, ``x < 0`` left), as
#: the uniform forms' front bands do.  The chain (``ode``) and the band
#: quadratures (``quadrature_*``) have no evaluator: :func:`_method_fields`
#: integrates the chain once and runs every configured ``quadrature_*``
#: method in one ``solve_quadrature`` call over their modes.
METHODS: dict[str, Method] = {
    "ode": Method(_chain, None),
    "quadrature_full": Method(_band, None),
    "quadrature_acoustic": Method(_band, None, ("quadrature_ac",)),
    "quadrature_optical": Method(_band, None, ("quadrature_opt",)),
    "uas_integral": Method(
        _uas_integral, lambda c, x, times: uas_integral(*c.problem, x, times, **c.band)
    ),
    "gaussian_airy": Method(
        _gaussian, lambda c, x, times: uas_gaussian_airy(c.params, c.mu, x, times),
        ("uas_gaussian_airy",),
    ),
    "dalembert": Method(
        _longwave, lambda c, x, times: uas_dalembert(*c.problem, x, times), ("uas_dalembert",)
    ),
    "acoustic_uniform": Method(
        _shortwave, lambda c, x, times: acoustic_uniform(*c.problem, x, times)
    ),
    "optical_uniform": Method(
        _shortwave, lambda c, x, times: optical_uniform(*c.problem, x, times)
    ),
    "acoustic_front": Method(
        _shortwave, lambda c, x, times: acoustic_front_airy(*c.problem, x, times)
    ),
    "optical_front": Method(
        _shortwave, lambda c, x, times: optical_front_airy(*c.problem, x, times)
    ),
    "shortwave_total": Method(
        _shortwave, lambda c, x, times: shortwave_total(*c.problem, x, times)
    ),
}


def _components(out) -> tuple[np.ndarray, np.ndarray]:
    """``(u, v)`` of a WaveField, an ``(n, 2)`` pair or a scalar amplitude."""
    if isinstance(out, WaveField):
        return out.u, out.v
    if out.ndim == 2:
        return out[:, 0], out[:, 1]
    return out, out


def _method_fields(config: ScenarioConfig, rows: bool = False) -> dict[str, list[WaveField]]:
    """Every configured method's fields, one per time, by method in the order
    of ``config.methods``; a method's fields share one ``x`` array.

    The chain oracle (``ode``) is integrated once and keeps its cells in the
    grid window.  Every other method is evaluated on the ``[grid]`` points,
    or with ``rows`` (``ode`` must be configured) on the chain's cells, ``u``
    at the heavy site ``x`` and ``v`` at the light site ``x + h``: all
    ``quadrature_*`` methods in one ``solve_quadrature`` call over their
    modes, every other method in one call of its evaluator."""
    fields: dict[str, list[WaveField]] = {}
    if "ode" in config.methods:
        states, _ = integrate_lattice(config.params, config.profile, config.mu, config.times)
        cells = [state.to_staggered_field() for state in states]
        keep = (cells[0].x >= config.x_min) & (cells[0].x <= config.x_max)  # same sites at every t
        if not keep.any():
            raise ConfigError("the [grid] window holds no cell of the chain (x = 2 k h); widen it")
        x = cells[0].x[keep]
        fields["ode"] = [WaveField(x, c.u[keep], c.v[keep], c.t, c.method) for c in cells]
    if not rows:
        x = np.linspace(config.x_min, config.x_max, config.points)
    sites = np.stack([x, x + config.params.h], axis=1).ravel() if rows else x
    band = [m for m in config.methods if m.startswith("quadrature_")]
    outputs = {}
    if band:
        modes = [name.removeprefix("quadrature_") for name in band]
        values = solve_quadrature(*config.problem, sites, config.times, modes, **config.band)
        outputs = dict(zip(band, values))
    for method in config.methods:
        if method == "ode":
            continue
        if method not in outputs:
            outputs[method] = METHODS[method].evaluate(config, sites, config.times)
        fields[method] = []
        for t, value in zip(config.times, outputs[method]):
            u, v = _components(value)
            if rows:
                u, v = u[0::2], v[1::2]
            fields[method].append(WaveField(x=x, u=u, v=v, t=t, method=method))
    return {method: fields[method] for method in config.methods}


#: Every section and key a scenario file may set.
_KNOWN_KEYS = {
    "lattice": ("gamma1", "gamma2", "h", "m_heavy", "m_light", "spring_k", "spacing", "window"),
    "scale": ("mu", "n_atoms"),
    "profile": ("kind", "path"),
    "grid": ("x_min", "x_max", "points"),
    "times": ("values",),
    "methods": ("names",),
    "numerics": ("rtol", "atol", "nodes_per_cycle", "max_doublings", "dispersion_points"),
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


def _get_float(section, key: str) -> float:
    raw = section.get(key)
    if raw is None:
        raise ConfigError(f"missing required key '{key}' in [{section.name}]")
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


def _get_int(section, key: str, default: int | None = None) -> int:
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
    direct, physical = _KNOWN_KEYS["lattice"][:3], _KNOWN_KEYS["lattice"][3:]
    if set(direct) & set(sec) and set(physical) & set(sec):
        raise ConfigError(
            "[lattice] mixes the direct (gamma1/gamma2/h) and physical "
            "(m_heavy/m_light/spring_k/spacing/window) parameter routes"
        )
    if set(direct) & set(sec):
        return LatticeParams(**{key: _get_float(sec, key) for key in direct})
    return LatticeParams.from_masses(**{key: _get_float(sec, key) for key in physical})


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
        raw = raw.strip()
        if not raw:
            continue
        name = next((k for k, m in METHODS.items() if raw == k or raw in m.aliases), None)
        if name is None:
            raise ConfigError(f"unknown method {raw!r}; registry: {', '.join(sorted(METHODS))}")
        if name in names:
            raise ConfigError(f"[methods] names lists method {name!r} twice ({raw!r})")
        names.append(name)
    if not names:
        raise ConfigError("[methods] names list is empty")
    return tuple(names)


def load_config(path: str | Path) -> ScenarioConfig:
    """Parse and resolve a scenario configuration file.

    Whatever ``configparser`` refuses (no section header, a repeated section
    or key, a ``%`` that is no interpolation) raises ``ConfigError`` with the
    parser's message, as every other malformed input does."""
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        if not cfg.read(path):
            raise ConfigError(f"cannot read config file {path!r}")
        return _resolve_config(cfg)
    except configparser.Error as exc:
        raise ConfigError(f"config file {str(path)!r}: {exc}") from None


def _resolve_config(cfg: configparser.ConfigParser) -> ScenarioConfig:
    """The scenario a parsed configuration file describes (see :func:`load_config`)."""
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
    if not 2 <= points <= _MAX_SITES:
        raise ConfigError(f"[grid] points must be >= 2 and <= {_MAX_SITES}, got {points!r}")

    times = _parse_times(cfg)
    methods = _parse_methods(cfg)

    # Only the keys present are parsed; the defaults live on ScenarioConfig.
    kw: dict = {}
    if cfg.has_section("numerics"):
        num = cfg["numerics"]
        for key in ("rtol", "atol", "nodes_per_cycle", "max_doublings"):
            if key in num:
                kw[key] = (_get_int if key == "max_doublings" else _get_float)(num, key)
        try:  # refused here, before any work, by the quadrature's own check
            _check_numerics(**kw)
        except ConfigError as exc:
            raise ConfigError(f"[numerics] {exc}") from None
        if "dispersion_points" in num:
            n = kw["dispersion_points"] = _get_int(num, "dispersion_points")
            if not 2 <= n <= _MAX_SITES:
                raise ConfigError(
                    f"[numerics] dispersion_points must be >= 2 and <= {_MAX_SITES}, got {n!r}"
                )
    if cfg.has_section("compare"):
        cmp_sec = cfg["compare"]
        if "window_min" in cmp_sec or "window_max" in cmp_sec:
            lo = _get_float(cmp_sec, "window_min")
            hi = _get_float(cmp_sec, "window_max")
            if not lo < hi:
                raise ConfigError(f"[compare] needs window_min < window_max, got {lo!r}, {hi!r}")
            if hi < x_min or lo > x_max:
                raise ConfigError(
                    f"[compare] window_min, window_max = {lo!r}, {hi!r} miss the [grid] "
                    f"window [{x_min!r}, {x_max!r}]"
                )
            step = params.h / mu * mu if "ode" in methods else None
            if not _window_holds_a_point(lo, hi, x_min, x_max, points, step):
                where = "cell of the chain (x = 2 k h)" if "ode" in methods else "[grid] point"
                raise ConfigError(
                    f"[compare] window_min, window_max = {lo!r}, {hi!r} hold no {where}; widen it"
                )
            kw["compare_window"] = (lo, hi)

    config = ScenarioConfig(
        params, profile, profile_kind, mu, x_min, x_max, points, times, methods, **kw
    )
    # Every method's regime is checked before any command does work.
    for method in methods:
        METHODS[method].check(config, method)
    return config


def _window_holds_a_point(
    lo: float, hi: float, x_min: float, x_max: float, points: int, step: float | None
) -> bool:
    """Whether ``[lo, hi]`` holds a point of the grid ``compare`` compares on: the
    ``[grid]`` points, or, given the chain's site spacing ``step`` (``ode`` among
    the methods), its cells ``x = 2 k step`` inside the ``[grid]`` window."""
    a, b = max(lo, x_min), min(hi, x_max)
    if step is None:
        x = np.linspace(x_min, x_max, points)
    elif b - a > 4.0 * step:
        return True
    else:  # the cells about [a, b], formed as integrate_lattice forms them
        k = np.arange(np.floor(a / (2.0 * step)) - 1.0, np.ceil(b / (2.0 * step)) + 2.0)
        x = (2.0 * k) * step
    return bool(np.any((x >= a) & (x <= b)))


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
    comments = [f"# {k} = {header[k]}" for k in sorted(header)]
    lines = list(comments)
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
    rows = comments + ["p,omega1,omega2"]
    for pi, a, b in zip(p, w1, w2):
        rows.append(f"{float(pi)!r},{float(a)!r},{float(b)!r}")
    (out_dir / "dispersion_branches.csv").write_text("\n".join(rows) + "\n")
    print(f"wrote {out_dir / 'dispersion_report.txt'}")
    print(f"wrote {out_dir / 'dispersion_branches.csv'}")


def cmd_simulate(config: ScenarioConfig, out_dir: Path) -> None:
    header = config.header()
    # Every field is computed before any file is written, so a failure leaves no file.
    for method, fields in _method_fields(config).items():
        x_text = _reprs(fields[0].x)  # a method's fields share one x
        for fld in fields:
            name = f"field_{method}_t{fld.t:g}.csv"
            _write_csv(out_dir / name, [(fld, x_text)], header)
            print(f"wrote {out_dir / name}")


def cmd_compare(config: ScenarioConfig, out_dir: Path) -> None:
    if len(config.methods) < 2:
        raise ConfigError("compare needs at least two methods (first is the reference)")
    # With ode, every method is sampled on the chain's sites.
    fields = _method_fields(config, rows="ode" in config.methods)
    header = config.header()
    lines = [f"# {k} = {header[k]}" for k in sorted(header)]
    reference_name = config.methods[0]
    lines.append(f"reference = {reference_name}")
    for i, t in enumerate(config.times):
        for method in config.methods[1:]:
            metrics = compare_fields(
                fields[reference_name][i], fields[method][i], window=config.compare_window
            )
            tag = f"{method}.t={t:g}"
            lines.append(f"{tag}.l_inf = {metrics.l_inf!r}")
            lines.append(f"{tag}.l2 = {metrics.l2!r}")
            lines.append(f"{tag}.rel_l_inf = {metrics.rel_l_inf!r}")
            lines.append(f"{tag}.ref_peak = {metrics.ref_peak!r}")
            lines.append(f"{tag}.n_points = {metrics.n_points}")
    path = out_dir / "compare_report.txt"
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")


#: The scenario commands, each a function of the loaded configuration and
#: the output directory.
_COMMANDS = {"dispersion": cmd_dispersion, "simulate": cmd_simulate, "compare": cmd_compare}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diatomic-waves",
        description="Diatomic-chain wave scenarios: dispersion reports, "
        "field snapshots, and method comparisons.",
    )
    parser.add_argument("command", choices=_COMMANDS, help="what to compute")
    parser.add_argument("--config", required=True, help="scenario configuration file")
    parser.add_argument("--out", default=".", help="output directory (created if needed)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _echo_scenario(config, sys.stdout)
        _COMMANDS[args.command](config, out_dir)
    except ConfigError as exc:  # includes RegimeError
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("numerical failure: out of memory; reduce the grid or the times", file=sys.stderr)
        return 3
    except DiatomicWavesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
