"""Benchmark of whole ``diatomic-waves`` CLI scenarios, run in-process.

Run from the repository root::

    python3 perfbench/run.py --workload longwave_front --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

One run writes its workload's scenario INI from ``--seed``
(``scenarios.py``), then calls ``diatomic_waves.cli.main`` on it
repeatedly until ``--seconds`` have passed (at least twice), each time into
a fresh output directory under ``perfbench/_work/``.  It checks the outputs
against the oracles (``checks.py``) and checks that every repeat wrote
byte-identical files.  With ``--trace 0`` it reports the end-to-end
metrics as medians over the repeats, each timing rescaled to a reference
machine speed (``speed.py``); with ``--trace 1`` it adds traced
repeats (``tracer.py``) and reports the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` (oracle checks) and ``metrics``; the full record,
with the seed and the BLAS thread count, goes to
``perfbench/_work/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

MIN_REPS = 2
SETUP_REPEATS = 5
TRACED_REPS = 2
#: Fresh interpreter: import the package and resolve the scenario config.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import diatomic_waves; "
    "from diatomic_waves.cli import load_config; load_config(sys.argv[2])"
)

#: End-to-end metrics (``--trace 0``): name -> (unit, better).
END_TO_END = {
    "scenario_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
    "check_pass_frac": ("frac", "higher"),
}

_COUNT = ("count", "lower")
_SECONDS = ("s", "lower")
#: Per-layer metrics (``--trace 1``): name -> (unit, better).
PER_LAYER = {
    "quadrature.synthesize_field.calls": _COUNT,
    "quadrature.synthesize_field.self_s": _SECONDS,
    "quadrature.panel_levels": _COUNT,
    "quadrature.nodes": _COUNT,
    "quadrature.useful_node_frac": ("frac", "higher"),
    "quadrature.final_node_points": _COUNT,
    "quadrature.ns_per_node_point": ("ns", "lower"),
    "initial_data.semi_discrete_ft.calls": _COUNT,
    "initial_data.semi_discrete_ft.s": _SECONDS,
    "initial_data.semi_discrete_ft.p_points": _COUNT,
    "initial_data.semi_discrete_ft.ns_per_p_point": ("ns", "lower"),
    "initial_data.fourier_hat.s": _SECONDS,
    "oracles.integrate_lattice.s": _SECONDS,
    "oracles.integrate_lattice.sites": _COUNT,
    "oracles.integrate_lattice.ns_per_site_snapshot": ("ns", "lower"),
    "oracles.solve_quadrature.self_s": _SECONDS,
    "oracles.compare_fields.s": _SECONDS,
    "oracles.write_fields_csv.s": _SECONDS,
    "oracles.write_fields_csv.bytes": ("B", "lower"),
    "shortwave.stationary.calls": _COUNT,
    "shortwave.stationary.s": _SECONDS,
    "shortwave.front_airy.points": _COUNT,
    "shortwave.front_airy.s": _SECONDS,
    "shortwave.uniform.self_s": _SECONDS,
    "airy.airy_ai_pair.calls": _COUNT,
    "airy.airy_ai_pair.points": _COUNT,
    "airy.airy_ai_pair.s": _SECONDS,
    "airy.envelope_amplitude.calls": _COUNT,
    "airy.envelope_amplitude.s": _SECONDS,
    "dispersion.Dispersion.constructions": _COUNT,
    "dispersion.critical.solves": _COUNT,
    "dispersion.evals.calls": _COUNT,
    "dispersion.evals.points": _COUNT,
    "dispersion.evals.s": _SECONDS,
    "longwave.uas_integral.self_s": _SECONDS,
    "longwave.uas_gaussian_airy.s": _SECONDS,
    "cli.load_config.s": _SECONDS,
    "cli.self_s": _SECONDS,
    "trace.overhead_s": _SECONDS,
    "src.lines": ("lines", "lower"),
    "err.longwave_front.airy_vs_integral": ("abs", "lower"),
    "err.longwave_bandsum.airy_vs_integral": ("abs", "lower"),
    "err.longwave_bandsum.uas_vs_full_rel": ("rel", "lower"),
    "err.longwave_bandsum.acoustic_vs_full_rel": ("rel", "lower"),
    "err.shortwave_lattice.ode_vs_quadrature": ("abs", "lower"),
    "err.shortwave_lattice.cli_ode_v_label_err": ("rel", "lower"),
    "err.shortwave_lattice.shortwave_total_rel": ("rel", "lower"),
    "err.shortwave_lattice.cli_quadrature_vs_library": ("rel", "lower"),
}


def blas_threads() -> int:
    """BLAS threads for every run: the CPUs this process may use, at most 2."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def measure_setup(ini: Path, cpu: int) -> list[dict]:
    """Fresh interpreters that import the package and load ``ini``: wall
    seconds and speed factor of each (they inherit the pinned CPU)."""
    from speed import SpeedSampler

    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(ini)]
    subprocess.run(cmd, check=True, capture_output=True, timeout=120)  # writes bytecode
    out = []
    for _ in range(SETUP_REPEATS):
        with SpeedSampler(cpu) as speed:
            start = time.perf_counter()
            subprocess.run(cmd, check=True, capture_output=True, timeout=120)
            wall = time.perf_counter() - start
        out.append({"wall": wall, "speed": speed.factor()})
    return out


def run_scenario(cli, command: str, ini: Path, out_dir: Path, around) -> dict:
    """One ``cli.main`` call, timed inside the context manager ``around``
    (a speed sampler or a trace span); the CLI's own output is kept, not
    printed."""
    gc.collect()
    stdout, stderr = io.StringIO(), io.StringIO()
    rc = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), around:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            rc = cli.main([command, "--config", str(ini), "--out", str(out_dir)])
        except Exception:  # a crash is a failed run, reported below
            traceback.print_exc()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if rc != 0:
        sys.stderr.write(f"scenario exited {rc!r} in {out_dir}:\n{stderr.getvalue()}")
    return {"rc": rc, "wall": wall, "cpu": cpu, "out": out_dir}


def file_hashes(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def run(args) -> dict:
    from scenarios import WORKLOADS, scenario_ini

    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ini = work / "scenario.ini"
    ini.write_text(scenario_ini(workload.name, args.seed))

    import diatomic_waves.cli as cli
    from checks import check_outputs
    from speed import SpeedSampler, pin_main_thread
    from tracer import COUNT_METRICS, Tracer, layer_metrics

    cpu = pin_main_thread()  # after the imports, so BLAS threads keep every CPU
    setup = measure_setup(ini, cpu) if not args.trace else []
    reps = []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < args.seconds:
        speed = SpeedSampler(cpu)
        reps.append(run_scenario(cli, workload.command, ini, work / f"rep{len(reps)}", speed))
        reps[-1]["speed"] = speed.factor()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced, layers = [], []
    for k in range(TRACED_REPS if args.trace else 0):
        with Tracer() as tracer:
            span = tracer.span("cli.main")
            traced.append(run_scenario(cli, workload.command, ini, work / f"traced{k}", span))
        tracer.write(work / f"spans_traced{k}.csv")
        layers.append(layer_metrics(tracer.spans))

    checks = [
        (f"exit_code.{r['out'].name}", r["rc"] == 0, f"exit {r['rc']!r}")
        for r in reps + traced
    ]
    oracle_checks, errs = check_outputs(workload.name, cli.load_config(ini), reps[0]["out"])
    checks += oracle_checks
    hashes = [file_hashes(r["out"]) for r in reps + traced]
    for name in sorted(set().union(*hashes)):
        same = all(h.get(name) == hashes[0].get(name) for h in hashes)
        checks.append((f"bytes_identical.{name}", same, f"{len(hashes)} runs"))
    if len(layers) > 1:
        counts = [{k: m[k] for k in COUNT_METRICS} for m in layers]
        checks.append(("layer_counts_repeat", counts[0] == counts[1], "traced runs 0 and 1"))

    failed = sum(1 for _, ok, _ in checks if not ok)
    largest_layer = None
    if args.trace:
        traced_s = statistics.median(r["wall"] for r in traced)
        values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        values.update({k: layers[0][k] for k in COUNT_METRICS})
        values["trace.overhead_s"] = traced_s - statistics.median(r["wall"] for r in reps)
        values["src.lines"] = src_lines()
        values.update({k: errs.get(k, 0.0) for k in PER_LAYER if k.startswith("err.")})
        units = PER_LAYER
        largest = max(
            (k for k in layers[0] if k.endswith(("_s", ".s")) and not k.startswith("cli.")),
            key=values.get,
        )
        largest_layer = (
            f"{largest} = {values[largest]:.3f} s, "
            f"{values[largest] / traced_s:.0%} of the traced scenario ({traced_s:.3f} s)"
        )
    else:
        values = {
            "scenario_s": statistics.median(r["wall"] * r["speed"] for r in reps),
            "cpu_s": statistics.median(r["cpu"] * r["speed"] for r in reps),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(r["wall"] * r["speed"] for r in setup),
            "check_pass_frac": (len(checks) - failed) / len(checks),
        }
        units = END_TO_END
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "scenario_ini": ini.read_text(),
        "pinned_cpu": cpu,
        "reps_wall_s": [r["wall"] for r in reps],
        "reps_cpu_s": [r["cpu"] for r in reps],
        "reps_speed_factor": [r["speed"] for r in reps],
        "traced_wall_s": [r["wall"] for r in traced],
        "setup_wall_s": [r["wall"] for r in setup],
        "setup_speed_factor": [r["speed"] for r in setup],
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "errors": errs,
        "largest_layer": largest_layer,
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k][0]} for k in units},
    }


def report(record: dict) -> None:
    """Human-readable lines: run settings, every check, every metric."""
    print(
        f"workload={record['workload']} seed={record['seed']} trace={record['trace']} "
        f"blas_threads={record['blas_threads']} repeats={len(record['reps_wall_s'])}"
    )
    for check in record["checks"]:
        print(f"  check {'ok  ' if check['ok'] else 'FAIL'} {check['name']}: {check['detail']}")
    for name, value in sorted(record["errors"].items()):
        print(f"  {name} = {value:.3e}")
    if record["largest_layer"]:
        print(f"  largest layer: {record['largest_layer']}")
    for name, metric in record["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS is per workload), one table."""
    from scenarios import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOADS:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        result = json.loads(lines[-1])
        for key in ("attempted", "failed"):
            combined[key] += result[key]
        combined["correct"] = combined["correct"] and result["correct"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
        rows.append((name, result))
    names = list(rows[0][1]["metrics"])
    print(f"{'metric':<48}" + "".join(f"{name:>20}" for name, _ in rows))
    for metric in names:
        unit = rows[0][1]["metrics"][metric]["unit"]
        cells = "".join(f"{r['metrics'][metric]['value']:>20.6g}" for _, r in rows)
        print(f"{metric + ' [' + unit + ']':<48}{cells}")
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    from scenarios import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "diatomic_waves" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'diatomic_waves'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = str(blas_threads())
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    record = run(args)
    (WORK / args.workload / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    report(record)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
