"""Seeded scenario generator: one INI text per (workload, seed).

Each workload is a fixed nominal scenario.  The seed applies small
perturbations that leave the cost unchanged: the output grid is shifted
by less than one grid spacing (it stays uniform, with the same width and
point count) and every time is scaled by a factor within 1%.  The
program under test only ever sees the generated INI text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0

#: NaCl-like physical inputs; the mass route gives sound speed c = 1.
_NACL = (
    "[lattice]\n"
    "m_heavy = 5.88e-26\n"
    "m_light = 3.81e-26\n"
    "spring_k = 15.0\n"
    "spacing = 2.82e-10\n"
    "window = 1e-3\n"
)
_DESK = "[lattice]\ngamma1 = 0.82\ngamma2 = 1.27\nh = {h!r}\n"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "longwave_front",
            "compare",
            "NaCl delta=0.0125 zoom on the t=0.5 front: the quadrature contraction "
            "(1.1M nodes x 401 points, cheap Gaussian kernel) is ~98% of the time",
        ),
        Workload(
            "longwave_bandsum",
            "compare",
            "desk lattice delta=0.005: semi_discrete_ft band sums dominate, the "
            "contraction is ~15% at few nodes; same quadrature layer, other balance",
        ),
        Workload(
            "shortwave_lattice",
            "simulate",
            "delta=1 with ode: the Verlet loop dominates, then per-point short-wave "
            "solves and Airy calls; writes 9 field CSVs",
        ),
    )
}


def _jitter(rng: random.Random, times: tuple[float, ...]) -> tuple[float, ...]:
    return tuple(t * (1.0 + rng.uniform(-0.01, 0.01)) for t in times)


def _grid(rng: random.Random, x_min: float, x_max: float, points: int) -> str:
    shift = (x_max - x_min) / (points - 1) * rng.uniform(-0.5, 0.5)
    return (
        f"[grid]\nx_min = {x_min + shift!r}\nx_max = {x_max + shift!r}\n"
        f"points = {points}\n"
    )


def _times(times: tuple[float, ...]) -> str:
    return "[times]\nvalues = " + ", ".join(repr(t) for t in times) + "\n"


def scenario_ini(workload: str, seed: int = DEFAULT_SEED) -> str:
    """INI text of ``workload`` perturbed by ``seed`` (same seed, same text)."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "longwave_front":
        (t,) = _jitter(rng, (0.5,))
        # The window follows the right front x = c t (c = 1 on the mass route).
        body = (
            _NACL
            + "\n[scale]\nn_atoms = 80\n\n"
            + _grid(rng, t - 0.0014, t + 0.0003, 401)
            + "\n"
            + _times((t,))
            + "\n[methods]\nnames = uas_integral, gaussian_airy, dalembert\n"
        )
    elif workload == "longwave_bandsum":
        body = (
            _DESK.format(h=2.5e-4)
            + "\n[scale]\nmu = 0.05\n\n"
            + _grid(rng, -0.7, 0.7, 401)
            + "\n"
            + _times(_jitter(rng, (0.25, 0.5)))
            + "\n[methods]\nnames = quadrature_full, quadrature_acoustic, "
            "uas_integral, gaussian_airy, dalembert\n"
        )
    else:
        body = (
            _DESK.format(h=0.01)
            + "\n[scale]\nmu = 0.01\n\n"
            + _grid(rng, -0.7, 0.7, 401)
            + "\n"
            + _times(_jitter(rng, (0.1, 0.25, 0.5)))
            + "\n[methods]\nnames = ode, quadrature_full, shortwave_total\n"
        )
    return f"# workload = {workload}\n# seed = {seed}\n" + body
