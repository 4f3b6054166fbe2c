"""Configuration loading, scenario commands, exit codes, determinism."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import _reference as ref
import diatomic_waves
from diatomic_waves import (
    LatticeParams,
    TableProfile,
    acoustic_front_airy,
    acoustic_uniform,
    cli,
    integrate_lattice,
    optical_front_airy,
    optical_uniform,
    read_fields_csv,
    shortwave_total,
    solve_quadrature,
    uas_dalembert,
    uas_gaussian_airy,
    uas_integral,
)
from diatomic_waves.errors import ConfigError

from conftest import NACL_INPUTS

BASE = """
[lattice]
gamma1 = 0.82
gamma2 = 1.27
h = 0.008

[scale]
mu = 0.04

[grid]
x_min = -0.5
x_max = 0.5
points = 81

[times]
values = 0.3

[methods]
names = gaussian_airy, dalembert
"""


def _write(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _nacl_config(tmp_path, methods="gaussian_airy", extra=""):
    text = f"""
[lattice]
m_heavy = {NACL_INPUTS['m_heavy']!r}
m_light = {NACL_INPUTS['m_light']!r}
spring_k = {NACL_INPUTS['spring_k']!r}
spacing = {NACL_INPUTS['spacing']!r}
window = {NACL_INPUTS['window']!r}

[scale]
n_atoms = 80

[grid]
x_min = -0.6
x_max = 0.6
points = 41

[times]
values = 0.5

[methods]
names = {methods}
{extra}
"""
    return _write(tmp_path, text, "nacl.ini")


# ---------------------------------------------------------------------------
# configuration loading
# ---------------------------------------------------------------------------

def test_load_config_resolves_everything(tmp_path):
    text = BASE + """
[numerics]
rtol = 1e-9
atol = 1e-14
nodes_per_cycle = 12
max_doublings = 4
front_side = left
dispersion_points = 11

[compare]
window_min = -0.2
window_max = 0.2
"""
    config = cli.load_config(_write(tmp_path, text))
    assert config.params.gamma1 == 0.82
    assert config.params.h == 0.008
    assert config.mu == 0.04
    assert config.delta == pytest.approx(0.2)
    assert config.points == 81
    assert config.times == (0.3,)
    assert config.methods == ("gaussian_airy", "dalembert")
    assert config.rtol == 1e-9
    assert config.front_side == "left"
    assert config.dispersion_points == 11
    assert config.compare_window == (-0.2, 0.2)
    header = config.header()
    assert header["derived.regime"] in (
        "wave_equation", "weak_dispersion", "strong_dispersion"
    )
    assert header["methods.names"] == "gaussian_airy, dalembert"


def test_load_config_aliases(tmp_path):
    text = BASE.replace(
        "names = gaussian_airy, dalembert",
        "names = uas_gaussian_airy, uas_dalembert, quadrature_ac",
    )
    config = cli.load_config(_write(tmp_path, text))
    assert config.methods == ("gaussian_airy", "dalembert", "quadrature_acoustic")


def test_load_config_n_atoms_route(tmp_path):
    config = cli.load_config(_nacl_config(tmp_path))
    assert config.mu == pytest.approx(80.0 * config.params.h)
    assert config.profile_kind == "gaussian"
    assert_allclose(config.params.gamma1, ref.NACL_CONSTANTS["gamma1"], rtol=1e-12)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: s.replace("[lattice]\ngamma1 = 0.82\ngamma2 = 1.27\nh = 0.008", "[lattice]\ngamma1 = 0.82"),
        lambda s: s.replace("gamma2 = 1.27", "gamma2 = 1.27\nm_heavy = 1e-26"),
        lambda s: s.replace("mu = 0.04", "mu = 0.04\nn_atoms = 5"),
        lambda s: s.replace("mu = 0.04", "pitch = 3"),
        lambda s: s.replace("names = gaussian_airy, dalembert", "names = levitation"),
        lambda s: s.replace("names = gaussian_airy, dalembert", "names ="),
        lambda s: s.replace("x_max = 0.5", "x_max = -1.0"),
        lambda s: s.replace("values = 0.3", "values = "),
        lambda s: s.replace("points = 81", "points = 1"),
        lambda s: s.replace("h = 0.008", "h =騎"),
    ],
)
def test_load_config_rejects_malformed(tmp_path, mutate):
    with pytest.raises(ConfigError):
        cli.load_config(_write(tmp_path, mutate(BASE)))


@pytest.mark.parametrize(
    "window, named",
    [
        ("0.3, -0.3", "needs window_min < window_max"),
        ("0.2, 0.2", "needs window_min < window_max"),
        ("0.6, 0.9", "miss the [grid] window"),
        ("-2.0, -0.51", "miss the [grid] window"),
    ],
)
def test_bad_compare_window_is_refused_on_load(tmp_path, capsys, window, named):
    # an inverted window used to run every method and only then find no grid points
    lo, hi = window.split(", ")
    path = _write(tmp_path, BASE + f"\n[compare]\nwindow_min = {lo}\nwindow_max = {hi}\n")
    with pytest.raises(ConfigError, match="window_min"):
        cli.load_config(path)
    for command in ("simulate", "compare"):
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert named in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _count_work(monkeypatch) -> list[str]:
    """Record every evaluator call, band pass and chain integration the CLI makes."""
    calls: list[str] = []
    for name, method in list(cli.METHODS.items()):
        if method.evaluate is not None:
            def counted(*args, _name=name, _evaluate=method.evaluate):
                calls.append(_name)
                return _evaluate(*args)

            monkeypatch.setitem(cli.METHODS, name, method._replace(evaluate=counted))

    def integrate(*args, **kwargs):
        calls.append("ode")
        return integrate_lattice(*args, **kwargs)

    def band(*args, **kwargs):
        calls.append("quadrature")
        return solve_quadrature(*args, **kwargs)

    monkeypatch.setattr(cli, "integrate_lattice", integrate)
    monkeypatch.setattr(cli, "solve_quadrature", band)
    return calls


def test_window_between_grid_points_is_refused_before_any_method(tmp_path, monkeypatch, capsys):
    # the window sits between the grid points 0.1 and 0.1125: every method used to
    # run (about 0.8 s) before compare_fields found nothing to compare
    calls = _count_work(monkeypatch)
    text = BASE.replace(
        "names = gaussian_airy, dalembert", "names = quadrature_full, gaussian_airy, dalembert"
    )
    path = _write(tmp_path, text + "\n[compare]\nwindow_min = 0.1001\nwindow_max = 0.1002\n")
    assert cli.main(["compare", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "[compare] window_min, window_max = 0.1001, 0.1002 hold no [grid] point" in err
    assert calls == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "methods, window, code",
    [
        # the chain's cells sit at x = 2 k h = 0.016 k: 0.096, 0.112, ...
        ("dalembert, ode", "0.0999, 0.1001", 2),  # holds the grid point 0.1, no cell
        ("dalembert, ode", "0.1001, 0.1002", 2),
        ("dalembert, ode", "0.1115, 0.1125", 0),  # holds the cell 0.112
        ("dalembert, gaussian_airy", "0.0999, 0.1001", 0),
    ],
)
def test_window_is_checked_on_the_compared_grid(tmp_path, monkeypatch, capsys, methods, window, code):
    """With ``ode`` the fields are compared on the chain's cells, without it on
    the grid; the window is refused on load exactly when it holds none of them."""
    calls = _count_work(monkeypatch)
    lo, hi = window.split(", ")
    text = BASE.replace("names = gaussian_airy, dalembert", f"names = {methods}")
    path = _write(tmp_path, text + f"\n[compare]\nwindow_min = {lo}\nwindow_max = {hi}\n")
    assert cli.main(["compare", "--config", str(path), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    if code:
        where = "cell of the chain (x = 2 k h)" if "ode" in methods else "[grid] point"
        assert f"hold no {where}; widen it" in err
        assert calls == []
    else:
        report = (tmp_path / "o" / "compare_report.txt").read_text()
        assert ".n_points = 1\n" in report


def test_header_echoes_every_config_field(tmp_path):
    # a field without its echo lets two different runs write identical headers
    keys = {
        "params": ["lattice.gamma1", "lattice.gamma2", "lattice.h"],
        "profile": ["profile.kind"],
        "profile_kind": ["profile.kind"],
        "mu": ["scale.mu"],
        "times": ["times.values"],
        "methods": ["methods.names"],
        "compare_window": ["compare.window"],
        **{name: [f"grid.{name}"] for name in ("x_min", "x_max", "points")},
        **{name: [f"numerics.{name}"] for name in cli._KNOWN_KEYS["numerics"]},
    }
    assert set(keys) == {field.name for field in dataclasses.fields(cli.ScenarioConfig)}
    text = BASE + "\n[compare]\nwindow_min = -0.2\nwindow_max = 0.2\n"
    header = cli.load_config(_write(tmp_path, text)).header()
    assert [key for group in keys.values() for key in group if key not in header] == []


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        cli.load_config(tmp_path / "absent.ini")


def test_load_config_table_profile(tmp_path, gaussian):
    xi = np.linspace(-6.0, 6.0, 201)
    table_path = tmp_path / "bump.csv"
    table_path.write_text(
        "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(xi, gaussian.value(xi)))
        + "\n"
    )
    text = BASE.replace(
        "names = gaussian_airy, dalembert", "names = uas_integral"
    ) + f"\n[profile]\nkind = table\npath = {table_path}\n"
    config = cli.load_config(_write(tmp_path, text))
    assert config.profile_kind == f"table:{table_path}"
    with pytest.raises(ConfigError):
        cli.load_config(
            _write(tmp_path, BASE + "\n[profile]\nkind = table\n", "np.ini")
        )
    with pytest.raises(ConfigError):
        cli.load_config(
            _write(tmp_path, BASE + "\n[profile]\nkind = chirp\n", "ck.ini")
        )


#: Run in a fresh interpreter with scipy unimportable: start-up as the CLI sees
#: it, the benchmark's commands, a table scenario, then a table built directly.
_IMPORT_PROBE = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # every import of scipy or a submodule raises ImportError
import numpy as np
import diatomic_waves
import diatomic_waves.cli
diatomic_waves.cli.load_config(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        diatomic_waves.cli.main(["simulate", "--config", sys.argv[2], "--out", sys.argv[4]]),
        diatomic_waves.cli.main(["compare", "--config", sys.argv[3], "--out", sys.argv[4]]),
        diatomic_waves.cli.main(["simulate", "--config", sys.argv[5], "--out", sys.argv[6]]),
    ]
xi = np.linspace(-6.0, 6.0, 41)
table = diatomic_waves.TableProfile(xi, np.exp(-0.5 * xi * xi))
scipy_modules = sorted(
    name for name, module in sys.modules.items()
    if name.split(".")[0] == "scipy" and module is not None
)
print(json.dumps({
    "file": diatomic_waves.__file__,
    "codes": codes,
    "scipy_modules": scipy_modules,
    "interpolate_after_table": "scipy.interpolate" in sys.modules,
    "knots": table.value(xi).tolist(),
    "between": float(table.value(0.15)),
}))
"""

#: delta = 1: the chain, the band quadrature and the short-wave asymptotics
_SHORTWAVE_PROBE = (
    BASE.replace("h = 0.008", "h = 0.01").replace("mu = 0.04", "mu = 0.01")
    .replace("x_min = -0.5", "x_min = -0.3").replace("x_max = 0.5", "x_max = 0.3")
    .replace("points = 81", "points = 31").replace("values = 0.3", "values = 0.1")
    .replace("names = gaussian_airy, dalembert", "names = ode, quadrature_full, shortwave_total")
)
_LONGWAVE_PROBE = BASE.replace(
    "names = gaussian_airy, dalembert",
    "names = quadrature_full, quadrature_acoustic, uas_integral, gaussian_airy, dalembert",
)


def test_start_up_imports_no_heavy_scipy_module(tmp_path, gaussian):
    """With scipy unimportable, importing the package, loading a Gaussian
    scenario, running the commands the benchmark runs (a ``simulate`` with the
    chain, the band quadrature and the short-wave asymptotics; a ``compare`` of
    the long-wave methods), a table ``simulate`` and building a table all
    succeed and load no scipy module: numpy is the only run-time dependency."""
    src = str(Path(diatomic_waves.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    xi = np.linspace(-6.0, 6.0, 201)
    table_path = tmp_path / "bump.csv"
    table_path.write_text(
        "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(xi, gaussian.value(xi))) + "\n"
    )
    table_ini = _LONGWAVE_PROBE.replace(
        "names = quadrature_full, quadrature_acoustic, uas_integral, gaussian_airy, dalembert",
        "names = ode, quadrature_full, dalembert",
    ) + f"\n[profile]\nkind = table\npath = {table_path}\n"
    args = [
        str(_write(tmp_path, BASE)),
        str(_write(tmp_path, _SHORTWAVE_PROBE, "shortwave.ini")),
        str(_write(tmp_path, _LONGWAVE_PROBE, "longwave.ini")),
        str(tmp_path / "out"),
        str(_write(tmp_path, table_ini, "table.ini")),
        str(tmp_path / "table_out"),
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *args],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    report = json.loads(proc.stdout)
    assert Path(report["file"]).resolve() == Path(diatomic_waves.__file__).resolve()
    assert report["codes"] == [0, 0, 0]
    assert len(list((tmp_path / "out").glob("field_*.csv"))) == 3
    assert (tmp_path / "out" / "compare_report.txt").exists()
    assert len(list((tmp_path / "table_out").glob("field_*.csv"))) == 3
    assert report["scipy_modules"] == []
    assert not report["interpolate_after_table"]
    xi = np.linspace(-6.0, 6.0, 41)
    assert_allclose(report["knots"], np.exp(-0.5 * xi * xi), rtol=0, atol=1e-15)
    assert abs(report["between"] - np.exp(-0.5 * 0.15**2)) < 1e-3


_POLYNOMIAL_PROBE = """
import json, sys
import diatomic_waves
import diatomic_waves.cli
diatomic_waves.cli.load_config(sys.argv[1])
print(json.dumps(sorted(name for name in sys.modules if name.startswith("numpy.polynomial"))))
"""


def test_start_up_imports_no_numpy_polynomial(tmp_path):
    """The Gauss-Legendre rules and the far rule's Legendre matrices come from
    the package's own recurrences, so importing it and loading a scenario
    never imports ``numpy.polynomial`` (nor runs the eigensolver of ``leggauss``)."""
    src = str(Path(diatomic_waves.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _POLYNOMIAL_PROBE, str(_write(tmp_path, BASE))],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
        check=True,
    )
    assert json.loads(proc.stdout) == []


def test_package_exports_match_the_modules():
    """The package re-exports exactly its modules' public API and the error
    classes, and every name resolves: a deleted function leaves no stale export."""
    from diatomic_waves import airy, dispersion, errors, initial_data, longwave, oracles, shortwave

    expected = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
    }
    for module in (airy, dispersion, initial_data, longwave, oracles, shortwave):
        assert all(hasattr(module, name) for name in module.__all__), module.__name__
        expected |= set(module.__all__)
    assert len(diatomic_waves.__all__) == len(set(diatomic_waves.__all__))
    assert set(diatomic_waves.__all__) == expected
    assert all(hasattr(diatomic_waves, name) for name in diatomic_waves.__all__)


# ---------------------------------------------------------------------------
# commands through main()
# ---------------------------------------------------------------------------

def test_dispersion_command_reports_frozen_constants(tmp_path, capsys):
    config_path = _nacl_config(tmp_path)
    out_dir = tmp_path / "out"
    code = cli.main(["dispersion", "--config", str(config_path), "--out", str(out_dir)])
    assert code == 0
    report = (out_dir / "dispersion_report.txt").read_text()
    values = {}
    for line in report.splitlines():
        if line.startswith("#") or " = " not in line:
            continue
        key, _, val = line.partition(" = ")
        values[key.strip()] = float(val)
    for key in (
        "gamma1", "gamma2", "sound_speed", "dispersion_coefficient",
        "p_star", "c_star", "q_star",
    ):
        assert_allclose(values[key], ref.NACL_CONSTANTS[key], rtol=1e-10)
    assert_allclose(values["omega1_zone_edge"], ref.NACL_CONSTANTS["acoustic_top"], rtol=1e-10)
    assert_allclose(values["omega2_zone_centre"], ref.NACL_CONSTANTS["optical_top"], rtol=1e-10)
    assert_allclose(values["omega2_zone_edge"], ref.NACL_CONSTANTS["optical_bottom"], rtol=1e-10)

    branches = (out_dir / "dispersion_branches.csv").read_text().splitlines()
    data = [ln for ln in branches if ln and not ln.startswith("#") and not ln.startswith("p,")]
    assert len(data) == 201  # default dispersion_points
    first = data[0].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0


def test_simulate_outputs_are_byte_deterministic(tmp_path):
    config_path = _write(tmp_path, BASE)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert cli.main(["simulate", "--config", str(config_path), "--out", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == ["field_dalembert_t0.3.csv", "field_gaussian_airy_t0.3.csv"]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    fields, header = read_fields_csv(out_a / "field_gaussian_airy_t0.3.csv")
    assert header["derived.regime"] in (
        "wave_equation", "weak_dispersion", "strong_dispersion"
    )
    assert len(fields) == 1
    fld = fields[0]
    assert fld.method == "gaussian_airy"
    assert fld.t == 0.3
    assert fld.x.size == 81
    assert_allclose(fld.v, fld.u)  # scalar long-wave methods fill both rails
    assert np.max(np.abs(fld.u)) > 0.1


def test_simulate_with_ode_uses_lattice_grid(tmp_path):
    text = """
[lattice]
gamma1 = 0.82
gamma2 = 1.27
h = 0.05

[scale]
mu = 0.05

[grid]
x_min = -0.4
x_max = 0.4
points = 21

[times]
values = 0.1

[methods]
names = ode
"""
    config_path = _write(tmp_path, text)
    out_dir = tmp_path / "ode_out"
    assert cli.main(["simulate", "--config", str(config_path), "--out", str(out_dir)]) == 0
    fields, _ = read_fields_csv(out_dir / "field_ode_t0.1.csv")
    fld = fields[0]
    assert fld.method == "ode"
    assert np.all(fld.x >= -0.4) and np.all(fld.x <= 0.4)
    # lattice cell positions, not the requested linspace
    assert fld.x.size != 21
    assert_allclose(np.diff(fld.x), 2 * 0.05, rtol=1e-12)


def test_compare_command_report(tmp_path):
    config_path = _write(tmp_path, BASE)
    out_dir = tmp_path / "cmp"
    assert cli.main(["compare", "--config", str(config_path), "--out", str(out_dir)]) == 0
    report = (out_dir / "compare_report.txt").read_text().splitlines()
    body = [ln for ln in report if not ln.startswith("#")]
    assert body[0] == "reference = gaussian_airy"
    entries = {}
    for line in body[1:]:
        key, _, val = line.partition(" = ")
        entries[key] = float(val)
    assert entries["dalembert.t=0.3.n_points"] == 81
    # by t = 0.3 the pulse has split into two half-height fronts
    assert entries["dalembert.t=0.3.ref_peak"] > 0.4
    # the dispersionless method differs from the Airy solution but not wildly
    assert 0.0 < entries["dalembert.t=0.3.l_inf"] < 0.5
    assert entries["dalembert.t=0.3.l2"] < entries["dalembert.t=0.3.l_inf"]


def test_compare_needs_two_methods(tmp_path):
    text = BASE.replace("names = gaussian_airy, dalembert", "names = gaussian_airy")
    code = cli.main(["compare", "--config", str(_write(tmp_path, text)), "--out", str(tmp_path / "x")])
    assert code == 2


# ---------------------------------------------------------------------------
# regime gating and exit codes
# ---------------------------------------------------------------------------

def test_longwave_method_rejected_at_unit_delta(tmp_path):
    text = BASE.replace("h = 0.008", "h = 0.04")  # delta = 1
    code = cli.main(["simulate", "--config", str(_write(tmp_path, text)), "--out", str(tmp_path / "o")])
    assert code == 2


def test_gaussian_airy_requires_gaussian_profile(tmp_path, gaussian):
    xi = np.linspace(-6.0, 6.0, 201)
    table_path = tmp_path / "bump.csv"
    table_path.write_text(
        "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(xi, gaussian.value(xi)))
        + "\n"
    )
    text = BASE + f"\n[profile]\nkind = table\npath = {table_path}\n"
    code = cli.main(["simulate", "--config", str(_write(tmp_path, text)), "--out", str(tmp_path / "o")])
    assert code == 2


def test_bad_config_exit_code(tmp_path):
    text = BASE.replace("gamma2 = 1.27", "gamma2 = 0.5")  # gamma ordering violated
    code = cli.main(["simulate", "--config", str(_write(tmp_path, text)), "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize("command", ["dispersion", "simulate", "compare"])
def test_each_command_parses_and_dispatches(tmp_path, monkeypatch, command):
    """One parser takes the command and its options; ``main`` hands the
    loaded configuration and the output directory to that command alone."""
    args = cli._build_parser().parse_args([command, "--config", "s.ini"])
    assert (args.command, args.config, args.out) == (command, "s.ini", ".")
    calls = []
    for name in cli._COMMANDS:
        monkeypatch.setitem(cli._COMMANDS, name, lambda config, out, _name=name: calls.append(_name))
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(_write(tmp_path, BASE)), "--out", str(out)]) == 0
    assert calls == [command] and out.is_dir()


@pytest.mark.parametrize(
    "argv",
    [["bogus", "--config", "s.ini"], ["simulate"], ["compare", "--out", "o"], ["--config", "s.ini"]],
    ids=["unknown-command", "no-config", "no-config-with-out", "no-command"],
)
def test_unknown_command_or_missing_config_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "usage: diatomic-waves" in capsys.readouterr().err


def test_out_of_memory_exits_3(tmp_path, monkeypatch, capsys):
    # an evaluator that runs out of memory is a numerical failure, not a traceback
    def exhausted(config, x, t):
        raise MemoryError

    method = cli.METHODS["gaussian_airy"]._replace(evaluate=exhausted)
    monkeypatch.setitem(cli.METHODS, "gaussian_airy", method)
    code = cli.main(["simulate", "--config", str(_write(tmp_path, BASE)), "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure: out of memory" in err and "Traceback" not in err


def test_failing_method_leaves_no_file(tmp_path, monkeypatch, capsys):
    """simulate computes every field before it writes one: a method that fails
    after the band pass has run leaves no file of any method behind."""
    def exhausted(config, x, t):
        raise MemoryError

    method = cli.METHODS["gaussian_airy"]._replace(evaluate=exhausted)
    monkeypatch.setitem(cli.METHODS, "gaussian_airy", method)
    text = BASE.replace("names = gaussian_airy, dalembert", "names = quadrature_full, gaussian_airy")
    out_dir = tmp_path / "o"
    code = cli.main(["simulate", "--config", str(_write(tmp_path, text)), "--out", str(out_dir)])
    assert code == 3
    assert "numerical failure: out of memory" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


def test_numerical_failure_exit_code(tmp_path):
    # starve the quadrature so panel refinement cannot converge
    text = BASE.replace(
        "names = gaussian_airy, dalembert", "names = quadrature_full"
    ) + "\n[numerics]\nrtol = 1e-15\natol = 1e-16\nnodes_per_cycle = 1\nmax_doublings = 1\n"
    code = cli.main(["simulate", "--config", str(_write(tmp_path, text)), "--out", str(tmp_path / "o")])
    assert code == 3


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: s.replace("mu = 0.04", "mu = nan"),
        lambda s: s.replace("gamma1 = 0.82", "gamma1 = inf"),
        lambda s: s.replace("x_min = -0.5", "x_min = -inf"),
        lambda s: s.replace("values = 0.3", "values = 0.3, nan"),
        lambda s: s.replace("values = 0.3", "values = inf"),
        lambda s: s + "\n[numerics]\nrtol = nan\n",
        lambda s: s + "\n[compare]\nwindow_min = -inf\nwindow_max = 0.2\n",
    ],
)
def test_non_finite_inputs_exit_2(tmp_path, capsys, mutate):
    path = _write(tmp_path, mutate(BASE))
    code = cli.main(["compare", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("values", ["0.1, 0.1000001", "0.3, 0.3", "0.25, 0.5, 0.5"])
def test_colliding_time_labels_exit_2(tmp_path, capsys, values):
    path = _write(tmp_path, BASE.replace("values = 0.3", f"values = {values}"))
    code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "share the output label" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("method", ["uas_integral", "quadrature_full"])
def test_huge_time_exits_3_quickly(tmp_path, capsys, method):
    text = BASE.replace("values = 0.3", "values = 1e6").replace(
        "names = gaussian_airy, dalembert", f"names = {method}"
    )
    start = time.perf_counter()
    code = cli.main(["simulate", "--config", str(_write(tmp_path, text)), "--out", str(tmp_path / "o")])
    assert code == 3
    assert time.perf_counter() - start < 10.0
    assert "quadrature nodes" in capsys.readouterr().err


def test_huge_time_ode_exits_3_quickly(tmp_path, capsys):
    text = BASE.replace("values = 0.3", "values = 1e6").replace(
        "names = gaussian_airy, dalembert", "names = ode"
    )
    start = time.perf_counter()
    code = cli.main(["simulate", "--config", str(_write(tmp_path, text)), "--out", str(tmp_path / "o")])
    assert code == 3
    assert time.perf_counter() - start < 10.0
    assert "sites" in capsys.readouterr().err


def test_ode_dt_key_exits_2(tmp_path, capsys):
    path = _write(tmp_path, BASE + "\n[numerics]\node_dt = 1e-4\n")
    code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "exactly" in capsys.readouterr().err


@pytest.mark.parametrize(
    "setting, named",
    [
        ("rtol = -1e-8", "rtol must be >= 0"),
        ("atol = -1e-13", "atol must be >= 0"),
        ("nodes_per_cycle = 0", "nodes_per_cycle must be > 0"),
        ("nodes_per_cycle = -5", "nodes_per_cycle must be > 0"),
        ("max_doublings = 0", "[numerics] max_doublings must be an integer >= 1"),
        ("max_doublings = -3", "[numerics] max_doublings must be an integer >= 1"),
    ],
)
def test_nonsense_tolerances_exit_2_before_any_work(tmp_path, capsys, setting, named):
    # a negative tolerance used to double the quadrature to its cap and exit 3;
    # a non-positive nodes_per_cycle was taken silently; max_doublings <= 0
    # exited 3 as a stalled refinement after the first kernel level
    text = BASE.replace("names = gaussian_airy, dalembert", "names = quadrature_full")
    path = _write(tmp_path, text + f"\n[numerics]\n{setting}\n")
    code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "extra, named",
    [
        ("\n[numerics]\nrtoll = 1e-3\n", "unknown key 'rtoll' in [numerics]; known keys: rtol, atol"),
        ("\n[numeric]\nrtol = 1e-3\n", "unknown section [numeric]; known sections: [lattice]"),
        (
            "\n[numerics]\nstencil = 3, -3, 1\n",
            "unknown key 'stencil' in [numerics]; known keys: rtol, atol, nodes_per_cycle, "
            "max_doublings, dispersion_points, front_side",
        ),
    ],
)
def test_unknown_config_keys_exit_2(tmp_path, capsys, extra, named):
    # a misspelt key or section must not silently fall back to the default
    path = _write(tmp_path, BASE + extra)
    code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_compare_ode_against_quadrature_on_lattice_sites(tmp_path):
    # each ode row holds a heavy site's u and the light site to its right's v;
    # the continuum method must be sampled at those same two sites
    text = BASE.replace("h = 0.008", "h = 0.04").replace(
        "names = gaussian_airy, dalembert", "names = ode, quadrature_full"
    ).replace("values = 0.3", "values = 0.1, 0.3")
    out_dir = tmp_path / "cmp"
    code = cli.main(["compare", "--config", str(_write(tmp_path, text)), "--out", str(out_dir)])
    assert code == 0
    report = (out_dir / "compare_report.txt").read_text().splitlines()
    entries = dict(ln.split(" = ") for ln in report if not ln.startswith("#"))
    for t in ("0.1", "0.3"):
        assert float(entries[f"quadrature_full.t={t}.rel_l_inf"]) <= 1e-5
        assert float(entries[f"quadrature_full.t={t}.ref_peak"]) > 0.1


# ---------------------------------------------------------------------------
# the method table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "h, names",
    [
        ("0.008", "dalembert, shortwave_total"),  # short-wave part at delta = 0.2
        ("0.04", "ode, quadrature_full, uas_integral"),  # long-wave part at delta = 1
    ],
)
@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_mixed_regime_exits_2_before_any_work(tmp_path, capsys, h, names, command):
    text = BASE.replace("h = 0.008", f"h = {h}").replace(
        "names = gaussian_airy, dalembert", f"names = {names}"
    )
    out_dir = tmp_path / "o"
    code = cli.main([command, "--config", str(_write(tmp_path, text)), "--out", str(out_dir)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "h, mu, times, names, says",
    [
        (
            "0.01", "0.01", "0.0, 0.1", "quadrature_full, shortwave_total",
            "short-wave asymptotics require finite t > 0, got 0.0",
        ),
        (
            "5e-4", "0.05", "0.0, 0.1", "uas_integral, gaussian_airy",
            "the Airy closed form needs a finite t > 0 (got t=0.0)",
        ),
        (
            "0.008", "0.04", "0.1, -0.1", "dalembert, quadrature_full",
            "t must be finite and non-negative, got -0.1",
        ),
        (
            "0.008", "0.04", "0.1, -0.1", "dalembert, uas_integral",
            "t must be finite and non-negative, got -0.1",
        ),
        (
            "0.04", "0.04", "0.2, 0.1", "quadrature_full, ode",
            "record times must be strictly increasing and positive",
        ),
    ],
)
@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_refused_times_exit_2_on_load(tmp_path, capsys, h, mu, times, names, says, command):
    # each method's check refuses the times its evaluator refuses, before any
    # other method has run or written a file
    text = (
        BASE.replace("h = 0.008", f"h = {h}")
        .replace("mu = 0.04", f"mu = {mu}")
        .replace("values = 0.3", f"values = {times}")
        .replace("names = gaussian_airy, dalembert", f"names = {names}")
    )
    out_dir = tmp_path / "o"
    code = cli.main([command, "--config", str(_write(tmp_path, text)), "--out", str(out_dir)])
    assert code == 2
    assert says in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "names", ["gaussian_airy, uas_gaussian_airy", "dalembert, gaussian_airy, dalembert"]
)
@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_duplicate_method_exits_2(tmp_path, capsys, names, command):
    # one method listed twice would write its files twice and compare with itself
    text = BASE.replace("names = gaussian_airy, dalembert", f"names = {names}")
    out_dir = tmp_path / "o"
    code = cli.main([command, "--config", str(_write(tmp_path, text)), "--out", str(out_dir)])
    assert code == 2
    assert "twice" in capsys.readouterr().err
    assert not out_dir.exists()


_WIRING_NUMERICS = """
[numerics]
rtol = 1e-9
atol = 1e-14
nodes_per_cycle = 12
max_doublings = 5
front_side = left
"""


def _library_field(method, params, profile, mu, x, t):
    """``(x, u, v)`` of ``method`` by a direct library call, with the
    settings of ``_WIRING_NUMERICS``."""
    band = dict(rtol=1e-9, atol=1e-14, nodes_per_cycle=12.0, max_doublings=5)
    if method == "ode":
        states, _ = integrate_lattice(params, profile, mu, (t,))
        cells = states[0].to_staggered_field()
        keep = (cells.x >= -0.5) & (cells.x <= 0.5)
        return cells.x[keep], cells.u[keep], cells.v[keep]
    if method.startswith("quadrature_"):
        fld = solve_quadrature(params, profile, mu, x, t, method.split("_")[1], **band)
        return x, fld.u, fld.v
    if method in ("uas_integral", "gaussian_airy", "dalembert"):
        amp = {
            "uas_integral": lambda: uas_integral(params, profile, mu, x, t, **band),
            "gaussian_airy": lambda: uas_gaussian_airy(params, mu, x, t),
            "dalembert": lambda: uas_dalembert(params, profile, mu, x, t),
        }[method]()
        return x, amp, amp
    if method == "shortwave_total":
        fld = shortwave_total(params, profile, mu, x, t)
        return x, fld.u, fld.v
    pair = {
        "acoustic_uniform": lambda: acoustic_uniform(params, profile, mu, x, t),
        "optical_uniform": lambda: optical_uniform(params, profile, mu, x, t),
        "acoustic_front": lambda: acoustic_front_airy(params, profile, mu, x, t, "left"),
        "optical_front": lambda: optical_front_airy(params, profile, mu, x, t, "left"),
    }[method]()
    return x, pair[:, 0], pair[:, 1]


@pytest.mark.parametrize("method", sorted(cli.METHODS))
def test_every_method_writes_its_library_field(tmp_path, gaussian, method):
    # long-wave methods at delta = 0.2, every other one at delta = 1
    h = "0.008" if method in ("uas_integral", "gaussian_airy", "dalembert") else "0.04"
    text = (
        BASE.replace("h = 0.008", f"h = {h}")
        .replace("points = 81", "points = 41")
        .replace("names = gaussian_airy, dalembert", f"names = {method}")
        + _WIRING_NUMERICS
    )
    out_dir = tmp_path / "o"
    config_path = _write(tmp_path, text)
    assert cli.main(["simulate", "--config", str(config_path), "--out", str(out_dir)]) == 0
    (fld,), _ = read_fields_csv(out_dir / f"field_{method}_t0.3.csv")
    params = LatticeParams(gamma1=0.82, gamma2=1.27, h=float(h))
    x, u, v = _library_field(method, params, gaussian, 0.04, np.linspace(-0.5, 0.5, 41), 0.3)
    assert fld.method == method
    assert np.array_equal(fld.x, x)
    assert np.array_equal(fld.u, u)
    assert np.array_equal(fld.v, v)
    assert np.max(np.abs(np.concatenate([u, v]))) > 1e-3  # a field, not zeros


def test_quadrature_takes_every_time_in_one_band_pass(tmp_path, gaussian, monkeypatch):
    """All band-quadrature methods make one synthesize_field call for all their
    modes and times, and each CSV they write is within 1e-12 of the peak of the
    library's one-mode, one-time call (the bound of the benchmark's wiring
    check), the optical one too, though it sits on the sound-speed ladder."""
    from diatomic_waves import oracles

    calls = []
    synthesize_field = oracles.synthesize_field

    def counted(*args, **kwargs):
        calls.append(args[3].size)
        return synthesize_field(*args, **kwargs)

    monkeypatch.setattr(oracles, "synthesize_field", counted)
    times = (0.1, 0.2, 0.3)
    modes = ("full", "acoustic", "optical")
    names = ", ".join(f"quadrature_{mode}" for mode in modes)
    text = (
        BASE.replace("h = 0.008", "h = 0.04")
        .replace("points = 81", "points = 41")
        .replace("values = 0.3", "values = " + ", ".join(map(repr, times)))
        .replace("names = gaussian_airy, dalembert", "names = " + names)
    )
    out_dir = tmp_path / "o"
    path = _write(tmp_path, text)
    assert cli.main(["simulate", "--config", str(path), "--out", str(out_dir)]) == 0
    assert calls == [41]
    params = LatticeParams(gamma1=0.82, gamma2=1.27, h=0.04)
    for mode in modes:
        for t in times:
            (fld,), _ = read_fields_csv(out_dir / f"field_quadrature_{mode}_t{t:g}.csv")
            alone = solve_quadrature(params, gaussian, 0.04, np.linspace(-0.5, 0.5, 41), t, mode)
            peak = max(np.max(np.abs(alone.u)), np.max(np.abs(alone.v)))
            assert fld.t == t and np.array_equal(fld.x, alone.x)
            diff = max(np.max(np.abs(fld.u - alone.u)), np.max(np.abs(fld.v - alone.v)))
            assert diff <= 1e-12 * peak


def test_main_keeps_no_band_state_between_calls(tmp_path):
    """Two main calls back to back on one grid but two lattices each write
    their own lattice's library fields: nothing of the first call's band
    pass (ladder, band data, modal matrices) serves the second."""
    text = (
        BASE.replace("h = 0.008", "h = 0.04")
        .replace("points = 81", "points = 41")
        .replace("values = 0.3", "values = 0.1, 0.3")
        .replace("names = gaussian_airy, dalembert", "names = quadrature_full, quadrature_acoustic")
    )
    written = []
    for i, lattice in enumerate(("gamma2 = 1.27", "gamma2 = 2.5")):
        path = _write(tmp_path, text.replace("gamma2 = 1.27", lattice), f"s{i}.ini")
        out_dir = tmp_path / f"o{i}"
        assert cli.main(["simulate", "--config", str(path), "--out", str(out_dir)]) == 0
        config = cli.load_config(path)
        x = np.linspace(config.x_min, config.x_max, config.points)
        library = solve_quadrature(
            *config.problem, x, config.times, ["full", "acoustic"], **config.band
        )
        for mode, fields in zip(("full", "acoustic"), library):
            for fld in fields:
                (got,), _ = read_fields_csv(out_dir / f"field_quadrature_{mode}_t{fld.t:g}.csv")
                np.testing.assert_array_equal(got.u, fld.u)
                np.testing.assert_array_equal(got.v, fld.v)
                written.append(got)
    first, second = written[:4], written[4:]
    assert all(not np.array_equal(a.u, b.u) for a, b in zip(first, second))


def test_shortwave_uniform_methods_take_every_time_in_one_call(tmp_path, monkeypatch):
    """Each short-wave uniform method makes one library call for all its
    times, and writes the bytes of that function's one-time calls."""
    names = ("acoustic_uniform", "optical_uniform", "shortwave_total")
    calls = []
    for name in names:
        def counted(*args, _name=name, _original=getattr(cli, name)):
            calls.append((_name, args[-1]))
            return _original(*args)

        monkeypatch.setattr(cli, name, counted)
    times = (0.1, 0.2, 0.3)
    text = (
        BASE.replace("mu = 0.04", "mu = 0.008")
        .replace("values = 0.3", "values = " + ", ".join(map(repr, times)))
        .replace("names = gaussian_airy, dalembert", "names = " + ", ".join(names))
    )
    out_dir = tmp_path / "o"
    path = _write(tmp_path, text)
    assert cli.main(["simulate", "--config", str(path), "--out", str(out_dir)]) == 0
    assert calls == [(name, times) for name in names]
    config = cli.load_config(path)
    x = np.linspace(config.x_min, config.x_max, config.points)
    for name, evaluate in zip(names, (acoustic_uniform, optical_uniform, shortwave_total)):
        for t in times:
            u, v = cli._components(evaluate(*config.problem, x, t))
            file = f"field_{name}_t{t:g}.csv"
            alone = diatomic_waves.WaveField(x=x, u=u, v=v, t=t, method=name)
            diatomic_waves.write_fields_csv(tmp_path / file, [alone], config.header())
            assert (out_dir / file).read_bytes() == (tmp_path / file).read_bytes()
    assert len(list(out_dir.glob("field_*.csv"))) == 9


def test_uas_integral_takes_every_time_in_one_call(tmp_path, monkeypatch):
    """compare makes one uas_integral call for all its times, and the largest
    time's report lines are those of a one-time library call."""
    calls = []
    original = cli.uas_integral

    def counted(*args, **kwargs):
        calls.append(args[4])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "uas_integral", counted)
    times = (0.1, 0.2, 0.3)
    text = BASE.replace("values = 0.3", "values = 0.1, 0.2, 0.3").replace(
        "names = gaussian_airy, dalembert", "names = gaussian_airy, uas_integral"
    )
    out_dir = tmp_path / "o"
    path = _write(tmp_path, text)
    assert cli.main(["compare", "--config", str(path), "--out", str(out_dir)]) == 0
    assert calls == [times]
    monkeypatch.undo()
    report = (out_dir / "compare_report.txt").read_text().splitlines()
    config = cli.load_config(path)
    x = np.linspace(config.x_min, config.x_max, config.points)
    t = times[-1]
    ref = uas_gaussian_airy(config.params, config.mu, x, t)
    alone = uas_integral(*config.problem, x, t, **config.band)
    metrics = diatomic_waves.compare_fields(
        diatomic_waves.WaveField(x=x, u=ref, v=ref, t=t, method="gaussian_airy"),
        diatomic_waves.WaveField(x=x, u=alone, v=alone, t=t, method="uas_integral"),
    )
    tag = f"uas_integral.t={t:g}"
    expected = [
        f"{tag}.l_inf = {metrics.l_inf!r}",
        f"{tag}.l2 = {metrics.l2!r}",
        f"{tag}.rel_l_inf = {metrics.rel_l_inf!r}",
        f"{tag}.ref_peak = {metrics.ref_peak!r}",
        f"{tag}.n_points = {metrics.n_points}",
    ]
    assert [line for line in report if line.startswith(tag + ".")] == expected
    assert sum(line.startswith("uas_integral.t=") for line in report) == 15


def test_simulate_writes_the_bytes_of_write_fields_csv(tmp_path):
    """simulate formats each method's shared x column once; every file it
    writes has the bytes write_fields_csv gives its one field."""
    text = (
        BASE.replace("h = 0.008", "h = 0.04")
        .replace("points = 81", "points = 41")
        .replace("values = 0.3", "values = 0.1, 0.3")
        .replace("gaussian_airy, dalembert", "ode, quadrature_full, shortwave_total")
    )
    path = _write(tmp_path, text)
    out_dir = tmp_path / "o"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out_dir)]) == 0
    config = cli.load_config(path)
    written = 0
    for method, fields in cli._method_fields(config).items():
        for fld in fields:
            name = f"field_{method}_t{fld.t:g}.csv"
            diatomic_waves.write_fields_csv(tmp_path / name, [fld], config.header())
            assert (out_dir / name).read_bytes() == (tmp_path / name).read_bytes()
            written += 1
    assert written == 6 == len(list(out_dir.glob("field_*.csv")))


def _even_table():
    half = np.linspace(0.0, 9.0, 181)
    xi = np.concatenate((-half[:0:-1], half))  # 361 knots, exactly mirrored
    return TableProfile(xi, np.exp(-0.5 * xi * xi))


def _asymmetry(u, v, rows_mirror):
    """Largest ``|f(k) - f(mirror(k))|`` of ``u`` and ``v`` over the rows, and the peak."""
    worst = 0.0
    for f, mirror in zip((u, v), rows_mirror):
        pair = mirror >= 0
        worst = max(worst, float(np.max(np.abs(f[pair] - f[mirror[pair]]))))
    return worst, float(np.max(np.abs(np.concatenate([u, v]))))


def _cell_mirrors(x: np.ndarray, h: float) -> list[np.ndarray]:
    """Row of the mirror of each heavy and each light site of the cells ``x = 2 k h``
    (-1 where it falls outside): cell ``k`` holds the heavy site ``2k`` and the light
    site ``2k + 1``, whose mirrors are the heavy site of cell ``-k`` and the light
    site of cell ``-k - 1``."""
    k = np.rint(x / (2.0 * h)).astype(int)
    row = {int(c): i for i, c in enumerate(k)}
    return [np.array([row.get(int(-c - s), -1) for c in k]) for s in (0, 1)]


@pytest.mark.parametrize(
    "method", sorted(set(cli.METHODS) - {"acoustic_front", "optical_front"})
)
def test_even_profile_gives_even_field(gaussian, method):
    """Every two-sided method maps even data to an even field, as the commands
    compute it (``cli._method_fields``): ``u`` and ``v`` at ``-x`` equal those
    at ``x``, on the ``[grid]`` points and, next to ``ode``, on the chain's
    cells, the rows ``compare`` samples (see :func:`_cell_mirrors`)."""
    mu, t = 0.04, 0.3
    ran = 0
    for kind, profile in (("gaussian", gaussian), ("table", _even_table())):
        for delta in (0.05, 1.0):
            for methods in [(method,)] if method == "ode" else [(method,), ("ode", method)]:
                config = cli.ScenarioConfig(
                    params=LatticeParams(gamma1=0.82, gamma2=1.27, h=delta * mu),
                    profile=profile,
                    profile_kind=kind,
                    mu=mu,
                    x_min=-0.5,
                    x_max=0.5,
                    points=81,
                    times=(t,),
                    methods=methods,
                )
                try:
                    for name in config.methods:
                        cli.METHODS[name].check(config, name)
                except ConfigError:
                    continue  # outside the method's regime
                rows = "ode" in config.methods
                (fld,) = cli._method_fields(config, rows)[method]
                if rows:
                    mirrors = _cell_mirrors(fld.x, config.params.h)
                else:
                    mirror = np.arange(fld.x.size)[::-1]
                    assert np.max(np.abs(fld.x + fld.x[mirror])) <= 1e-15  # linspace rounding
                    mirrors = [mirror, mirror]
                worst, peak = _asymmetry(fld.u, fld.v, mirrors)
                assert peak > 0.0  # (the optical part at delta = 0.05 is ~2e-5)
                assert worst <= 1e-12 * peak, (kind, delta, rows, worst, peak)
                ran += 1
    assert ran > 0


# ---------------------------------------------------------------------------
# any INI text: an exit code, never a traceback
# ---------------------------------------------------------------------------

_FUZZ_TOKENS = ("-1", "0", "1", "2", "0.5", "1e-300", "1e300", "nan", "two", "")
_FUZZ_PATHS = ("missing", "binary", "directory")


def _fuzz_scenario(table: str, kind: str) -> dict:
    """A small valid scenario as ``(section, key) -> value``."""
    names = "gaussian_airy, uas_integral, dalembert, quadrature_full"
    if kind == "table":
        names = "quadrature_full, dalembert"  # the table's transform decays too slowly for uas_*
    return {
        ("lattice", "gamma1"): "0.82",
        ("lattice", "gamma2"): "1.27",
        ("lattice", "h"): "0.008",
        ("scale", "mu"): "0.04",
        ("profile", "kind"): kind,
        ("profile", "path"): table,
        ("grid", "x_min"): "-0.5",
        ("grid", "x_max"): "0.5",
        ("grid", "points"): "41",
        ("times", "values"): "0.1, 0.3",
        ("methods", "names"): names,
        ("numerics", "rtol"): "1e-8",
        ("numerics", "atol"): "1e-13",
        ("numerics", "nodes_per_cycle"): "10",
        ("numerics", "max_doublings"): "6",
        ("numerics", "dispersion_points"): "11",
        ("numerics", "front_side"): "right",
    }


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_no_ini_input_gives_a_traceback(tmp_path, data):
    """Replacing 1-3 values of a valid scenario by tokens of a fixed alphabet
    (numbers at and past the float range, nan, words, empty, unreadable
    table paths) gives exit code 0, 2 or 3."""
    table = tmp_path / "bump.csv"
    xi = np.linspace(-6.0, 6.0, 121)
    rows = zip(xi.tolist(), np.exp(-0.5 * xi**2).tolist())
    table.write_text("\n".join(f"{a!r},{b!r}" for a, b in rows))
    (tmp_path / "binary.csv").write_bytes(b"\xff\xfe\x00\x81,\x92\n" * 8)
    paths = {
        "missing": str(tmp_path / "absent.csv"),
        "binary": str(tmp_path / "binary.csv"),
        "directory": str(tmp_path),
    }
    values = _fuzz_scenario(str(table), data.draw(st.sampled_from(["gaussian", "table"])))
    keys = data.draw(st.lists(st.sampled_from(sorted(values)), min_size=1, max_size=3, unique=True))
    for key in keys:
        token = data.draw(st.sampled_from(_FUZZ_TOKENS + _FUZZ_PATHS))
        values[key] = paths.get(token, token)
    sections: dict[str, list[str]] = {}
    for (section, key), value in values.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    text = "".join(f"[{name}]\n" + "\n".join(lines) + "\n\n" for name, lines in sections.items())
    config = _write(tmp_path, text)
    for command in ("simulate", "dispersion"):
        out_dir = tmp_path / f"out_{command}"
        assert cli.main([command, "--config", str(config), "--out", str(out_dir)]) in (0, 2, 3)


def _quadrature(text: str) -> str:
    return text.replace("names = gaussian_airy, dalembert", "names = quadrature_full")


def _narrow_ode_window(text: str) -> str:
    # at delta = 1 the cells are 2 h = 0.08 apart; this window holds none
    text = text.replace("h = 0.008", "h = 0.04").replace("x_min = -0.5", "x_min = 0.001")
    return text.replace("x_max = 0.5", "x_max = 0.002").replace(
        "names = gaussian_airy, dalembert", "names = quadrature_full, ode"
    )


def _table_at(path: str):
    return lambda s: s + f"\n[profile]\nkind = table\npath = {path}\n"


@pytest.mark.parametrize(
    "command, mutate, code, says",
    [
        ("dispersion", lambda s: s + "\n[numerics]\ndispersion_points = -1\n", 2, ">= 2"),
        # numpy refused these grids with a 7.28 TiB _ArrayMemoryError traceback
        (
            "dispersion",
            lambda s: s + f"\n[numerics]\ndispersion_points = {10**12}\n",
            2,
            f"[numerics] dispersion_points must be >= 2 and <= {2**22}, got {10**12}",
        ),
        (
            "simulate",
            lambda s: s.replace("points = 81", f"points = {10**12}"),
            2,
            f"[grid] points must be >= 2 and <= {2**22}, got {10**12}",
        ),
        ("simulate", _table_at("absent.csv"), 2, "cannot read profile table"),
        ("simulate", _table_at("."), 2, "cannot read profile table"),
        ("simulate", _table_at("binary.csv"), 2, "cannot read profile table"),
        ("dispersion", lambda s: s.replace("mu = 0.04", "mu = 1e300"), 0, ""),
        ("simulate", lambda s: s.replace("mu = 0.04", "mu = 1e300"), 0, ""),
        ("simulate", lambda s: s.replace("mu = 0.04", "mu = 1e-300"), 2, "long-wave"),
        ("simulate", lambda s: s.replace("gamma2 = 1.27", "gamma2 = 1e300"), 2, "dispersion coef"),
        ("simulate", lambda s: _quadrature(s).replace("mu = 0.04", "mu = 1e300"), 3, "sublattice"),
        (
            "simulate",
            lambda s: _quadrature(s).replace("mu = 0.04", "mu = 1e300").replace("0.008", "1e-300"),
            2,
            "underflows",
        ),
        ("simulate", _narrow_ode_window, 2, "no cell of the chain"),
        ("compare", _narrow_ode_window, 2, "no cell of the chain"),
        # knot gaps of 1e-300 gave the spline nan transform weights (and overflow
        # warnings); the quadrature doubled to its panel cap and exited 3 on "change nan"
        ("simulate", lambda s: _table_at("close.csv")(_quadrature(s)), 2, "spline is not finite"),
    ],
)
def test_inputs_that_raised_tracebacks_exit_cleanly(
    tmp_path, monkeypatch, capsys, command, mutate, code, says
):
    monkeypatch.chdir(tmp_path)  # table paths are relative to it
    (tmp_path / "binary.csv").write_bytes(b"\xff\xfe\x00\x81,\x92\n" * 8)
    (tmp_path / "close.csv").write_text("0.0,0.0\n1e-300,1.0\n2e-300,0.0\n1.0,1.0\n2.0,0.0\n")
    path = _write(tmp_path, mutate(BASE))
    out_dir = tmp_path / "o"
    assert cli.main([command, "--config", str(path), "--out", str(out_dir)]) == code
    assert says in capsys.readouterr().err
    if code:
        assert not any(out_dir.glob("*"))  # no partial results


@pytest.mark.parametrize(
    "text, says",
    [
        ("gamma1 = 0.82\n" + BASE, "File contains no section headers"),
        (BASE + "\n[grid]\npoints = 41\n", "section 'grid' already exists"),
        (BASE.replace("mu = 0.04", "mu = 0.04\nmu = 0.05"), "option 'mu' in section 'scale'"),
        (_table_at("a%b.csv")(BASE), "'%' must be followed by '%' or '('"),
    ],
    ids=["no_section_header", "repeated_section", "repeated_key", "percent_in_value"],
)
def test_malformed_config_file_exits_2(tmp_path, capsys, text, says):
    """What configparser refuses is a configuration error with the parser's
    message, exit 2 before any output, not a traceback."""
    path = _write(tmp_path, text)
    out_dir = tmp_path / "o"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and says in err
    assert not out_dir.exists()


def _benchmark_scenarios():
    """``perfbench/scenarios.py``, loaded from its file (the benchmark is not a package here)."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios.py"
    spec = importlib.util.spec_from_file_location("_perfbench_scenarios", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["longwave_front", "longwave_bandsum", "shortwave_lattice"])
def test_benchmark_scenarios_build_one_level_per_band_integral(workload, tmp_path, monkeypatch):
    """Each benchmark scenario, at seed 0, runs through ``cli.main`` with every
    band integral returning its first level: one ``panel_nodes`` call per
    ``synthesize_field`` call."""
    from diatomic_waves import _quadrature as quad
    from diatomic_waves import longwave, oracles

    scenarios = _benchmark_scenarios()
    levels, per_call = [], []
    panel_nodes = quad.panel_nodes

    def level(*args):
        levels.append(args[2])
        return panel_nodes(*args)

    def counted(synthesize):
        def call(*args, **kwargs):
            before = len(levels)
            field = synthesize(*args, **kwargs)
            per_call.append(len(levels) - before)
            return field

        return call

    monkeypatch.setattr(quad, "panel_nodes", level)
    for module in (oracles, longwave):
        monkeypatch.setattr(module, "synthesize_field", counted(module.synthesize_field))
    config = _write(tmp_path, scenarios.scenario_ini(workload, 0))
    command = scenarios.WORKLOADS[workload].command
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    assert per_call and per_call == [1] * len(per_call)
