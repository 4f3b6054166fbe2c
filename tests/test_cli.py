"""Configuration loading, scenario commands, exit codes, determinism."""

from __future__ import annotations

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

import _reference as ref
from diatomic_waves import cli, read_fields_csv
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
stencil = 3, -3, 2
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
    assert config.stencil == (3.0, -3.0, 2.0)
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


def test_numerical_failure_exit_code(tmp_path):
    # starve the quadrature so panel refinement cannot converge
    text = BASE.replace(
        "names = gaussian_airy, dalembert", "names = quadrature_full"
    ) + "\n[numerics]\nrtol = 1e-15\natol = 1e-16\nnodes_per_cycle = 1\nmax_doublings = 0\n"
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
        lambda s: s + "\n[numerics]\nstencil = 3, -3, inf\n",
        lambda s: s + "\n[numerics]\nstencil = 3, -3, two\n",
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
    "extra, named",
    [
        ("\n[numerics]\nrtoll = 1e-3\n", "unknown key 'rtoll' in [numerics]; known keys: rtol, atol"),
        ("\n[numeric]\nrtol = 1e-3\n", "unknown section [numeric]; known sections: [lattice]"),
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
