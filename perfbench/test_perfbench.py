"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest perfbench -q

They use small scenarios, so they take seconds, not the benchmark's minutes.
"""

from __future__ import annotations

import configparser
import contextlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import diatomic_waves  # noqa: E402
import diatomic_waves.cli as cli  # noqa: E402
from diatomic_waves.dispersion import Dispersion  # noqa: E402
from diatomic_waves.initial_data import GaussianProfile, TableProfile  # noqa: E402

import run  # noqa: E402
from scenarios import WORKLOADS, scenario_ini  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracer import COUNT_METRICS, Tracer, layer_metrics  # noqa: E402

SMALL = {
    "simulate": """
[lattice]
gamma1 = 0.82
gamma2 = 1.27
h = 0.01
[scale]
mu = 0.01
[grid]
x_min = -0.3
x_max = 0.3
points = 41
[times]
values = 0.05, 0.1
[methods]
names = ode, quadrature_full, shortwave_total
""",
    "compare": """
[lattice]
gamma1 = 0.82
gamma2 = 1.27
h = 0.001
[scale]
mu = 0.05
[grid]
x_min = -0.4
x_max = 0.4
points = 41
[times]
values = 0.2
[methods]
names = quadrature_full, uas_integral, gaussian_airy, dalembert
""",
}


def _snapshot() -> dict:
    """Every attribute the tracer may replace, by identity."""
    owners = [m for n, m in sys.modules.items() if n.split(".")[0] == "diatomic_waves"]
    owners += [Dispersion, GaussianProfile, TableProfile]
    out = {(id(o), k): v for o in owners for k, v in list(vars(o).items())}
    out["critical.func"] = vars(Dispersion)["critical"].func
    return out


def _run(command: str, ini: Path, out: Path, tracer: Tracer | None = None) -> dict:
    if tracer is None:
        return run.run_scenario(cli, command, ini, out, contextlib.nullcontext())
    with tracer:
        return run.run_scenario(cli, command, ini, out, tracer.span("cli.main"))


@pytest.fixture(params=sorted(SMALL))
def small(request, tmp_path):
    ini = tmp_path / "scenario.ini"
    ini.write_text(SMALL[request.param])
    return request.param, ini, tmp_path


#: Nominal times and grid start of each workload (the front window follows t).
NOMINAL = {
    "longwave_front": ((0.5,), lambda t: t - 0.0014, 0.0017),
    "longwave_bandsum": ((0.25, 0.5), lambda t: -0.7, 1.4),
    "shortwave_lattice": ((0.1, 0.25, 0.5), lambda t: -0.7, 1.4),
}


def _parse(text: str) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cfg.read_string(text)
    return cfg


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    assert scenario_ini(name, 7) == scenario_ini(name, 7)
    assert scenario_ini(name, 7) != scenario_ini(name, 8)
    nominal_times, grid_start, width = NOMINAL[name]
    reference = _parse(scenario_ini(name, 0))
    for seed in (1, 2, 3):
        cfg = _parse(scenario_ini(name, seed))
        for section in ("lattice", "scale", "methods"):
            assert dict(cfg[section]) == dict(reference[section])
        times = [float(t) for t in cfg["times"]["values"].split(",")]
        assert len(times) == len(nominal_times)
        for t, t0 in zip(times, nominal_times):
            assert abs(t / t0 - 1.0) <= 0.01
        points = int(cfg["grid"]["points"])
        x_min, x_max = float(cfg["grid"]["x_min"]), float(cfg["grid"]["x_max"])
        assert points == 401
        assert x_max - x_min == pytest.approx(width, rel=1e-9)
        assert abs(x_min - grid_start(times[0])) <= 0.5 * width / (points - 1) * (1 + 1e-9)


def test_tracer_restores_every_original():
    before = _snapshot()
    with Tracer():
        from diatomic_waves import _quadrature, longwave, oracles

        for mod in (oracles, longwave, _quadrature, diatomic_waves.initial_data):
            assert mod.synthesize_field is not before[(id(_quadrature), "synthesize_field")]
        assert vars(Dispersion)["critical"].func is not before["critical.func"]
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_traced_and_untraced_outputs_are_byte_identical(small):
    command, ini, tmp = small
    plain = _run(command, ini, tmp / "plain")
    traced = _run(command, ini, tmp / "traced", Tracer())
    assert plain["rc"] == traced["rc"] == 0
    hashes = run.file_hashes(tmp / "plain")
    assert hashes and hashes == run.file_hashes(tmp / "traced")


def test_layer_counts_repeat_across_traced_runs(small):
    command, ini, tmp = small
    counts = []
    for k in range(2):
        tracer = Tracer()
        assert _run(command, ini, tmp / f"traced{k}", tracer)["rc"] == 0
        metrics = layer_metrics(tracer.spans)
        counts.append({name: metrics[name] for name in COUNT_METRICS})
    assert counts[0] == counts[1]
    assert counts[0]["quadrature.synthesize_field.calls"] > 0
    if command == "simulate":
        assert counts[0]["oracles.integrate_lattice.sites"] > 0
        assert counts[0]["shortwave.stationary.calls"] > 0
        assert counts[0]["dispersion.critical.solves"] > 0
    else:
        assert counts[0]["initial_data.semi_discrete_ft.calls"] > 0


def test_speed_sampler_samples_and_stops():
    with SpeedSampler(min(os.sched_getaffinity(0))) as speed:
        time.sleep(0.1)
    assert not speed._thread.is_alive()
    assert len(speed.samples) >= 2
    assert speed.factor() > 0.0


def test_benchmark_json_lists_every_metric_and_workload():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == table


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shortwave_lattice",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
