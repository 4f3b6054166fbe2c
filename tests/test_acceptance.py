"""Acceptance gate: nine end-to-end criteria with stated tolerances.

Each test prints exactly one ``CRITERION n (...): PASS/FAIL`` line
(directly to the terminal, bypassing capture) and then asserts both the
quantitative gate and its runtime budget.
"""

from __future__ import annotations

import math
import time

import numpy as np

from diatomic_waves import (
    Dispersion,
    GaussianProfile,
    LatticeParams,
    airy_ai,
    airy_ai_prime,
    envelope_amplitude,
    integrate_lattice,
    poisson_gap,
    residual_pde_check,
    solve_quadrature,
    acoustic_uniform,
    optical_uniform,
    uas_dalembert,
    uas_gaussian_airy,
    uas_integral,
)

import conftest
from conftest import NACL_INPUTS

GAUSSIAN = GaussianProfile()
DESK_GAMMA = (0.82, 1.27)
FD_TOL = 1e-6


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"CRITERION {num} ({name}): {status} — {detail}"
    print(line)  # shows with -s and in failure captures
    conftest.ACCEPTANCE_LINES.append(line)  # echoed in the terminal summary


def _desk(h: float) -> LatticeParams:
    return LatticeParams(DESK_GAMMA[0], DESK_GAMMA[1], h)


def test_criterion_1_lattice_constants():
    start = time.perf_counter()
    params = LatticeParams.from_masses(**NACL_INPUTS)
    disp = Dispersion(params)
    crit = disp.critical
    got = {
        "gamma1": (params.gamma1, 0.82, 0.01),
        "gamma2": (params.gamma2, 1.27, 0.01),
        "c": (disp.sound_speed, 1.00, 0.01),
        "q": (disp.dispersion_coefficient, 0.14, 0.01),
        "p*": (crit.p_star, 1.196, 0.005),
        "c*": (crit.c_star, 0.474, 0.005),
        "q*": (crit.q_star, 1.318, 0.01),
    }
    elapsed = time.perf_counter() - start
    ok = all(abs(v - target) <= tol for v, target, tol in got.values())
    ok = ok and elapsed < 1.0
    detail = (
        ", ".join(f"{k}={v:.4f}" for k, (v, _, _) in got.items())
        + f"; {elapsed:.2f}s (< 1 s)"
    )
    _report(1, "lattice constants", ok, detail)
    for key, (value, target, tol) in got.items():
        assert abs(value - target) <= tol, f"{key} = {value} not within {target}±{tol}"
    assert elapsed < 1.0


def test_criterion_2_closed_form_identity():
    start = time.perf_counter()
    params = LatticeParams.from_masses(**NACL_INPUTS)  # h = 2.82e-7 exactly
    mu = 80.0 * params.h
    c = Dispersion(params).sound_speed
    worst = worst_rel = 0.0
    for t in (0.1, 0.5):
        # the wide grid's spacing is 22 mu at t=0.1 and 111 mu at t=0.5, too
        # coarse to land on a front, so each front also gets its own window
        right = c * t + mu * np.linspace(-20.0, 5.0, 401)
        err = peak = 0.0
        for x in (np.linspace(-(t + 1e-3), t + 1e-3, 401), right, -right):
            closed = uas_gaussian_airy(params, mu, x, t)
            direct = uas_integral(params, GAUSSIAN, mu, x, t)
            err = max(err, float(np.max(np.abs(closed - direct))))
            peak = max(peak, float(np.max(np.abs(direct))))
        worst = max(worst, err)
        worst_rel = max(worst_rel, err / peak)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    _report(
        2,
        "closed form vs integral",
        ok,
        f"max |closed - integral| = {worst:.2e} (<= 1e-6), {worst_rel:.2e} of the "
        f"peak, on 401-point two-front grids and ct + mu*[-20, 5] windows at both "
        f"fronts, t=0.1, 0.5; {elapsed:.1f}s (< 1 min)",
    )
    assert worst <= 1e-6
    assert elapsed < 60.0


def test_criterion_3_oracle_agreement():
    start = time.perf_counter()
    h = 0.01
    params = _desk(h)
    times = (0.1, 0.25, 0.5)
    states, energy = integrate_lattice(params, GAUSSIAN, h, times)
    worst = 0.0
    for state in states:
        quad = solve_quadrature(params, GAUSSIAN, h, state.x, state.t)
        even = state.even_mask
        err_u = np.max(np.abs(quad.u[even] - state.displacement[even]))
        err_v = np.max(np.abs(quad.v[~even] - state.displacement[~even]))
        worst = max(worst, float(err_u), float(err_v))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and energy.drift <= 1e-8 and elapsed < 300.0
    _report(
        3,
        "ODE vs quadrature oracles",
        ok,
        f"L_inf = {worst:.2e} (<= 1e-5) at t=0.1/0.25/0.5, energy drift "
        f"{energy.drift:.2e} (<= 1e-8); {elapsed:.1f}s (< 5 min)",
    )
    assert worst <= 1e-5
    assert energy.drift <= 1e-8
    assert elapsed < 300.0


def test_criterion_4_mode_dominance():
    start = time.perf_counter()
    mu, t = 0.05, 0.5
    x = np.linspace(-0.7, 0.7, 201)
    deltas = (0.05, 0.02, 0.01)
    rels = []
    for delta in deltas:
        params = _desk(delta * mu)
        full = solve_quadrature(params, GAUSSIAN, mu, x, t, "full")
        acoustic = solve_quadrature(params, GAUSSIAN, mu, x, t, "acoustic")
        diff = max(
            float(np.max(np.abs(full.u - acoustic.u))),
            float(np.max(np.abs(full.v - acoustic.v))),
        )
        peak = max(float(np.max(np.abs(full.u))), float(np.max(np.abs(full.v))))
        rels.append(diff / peak)
    slope = float(np.polyfit(np.log(deltas), np.log(rels), 1)[0])
    elapsed = time.perf_counter() - start
    ok = abs(slope - 2.0) <= 0.3 and elapsed < 600.0
    _report(
        4,
        "optical fraction is O(delta^2)",
        ok,
        f"rel = {', '.join(f'{r:.2e}' for r in rels)} over delta = {deltas}; "
        f"log-log slope {slope:.2f} (2 +- 0.3); {elapsed:.1f}s (< 10 min)",
    )
    assert abs(slope - 2.0) <= 0.3
    assert elapsed < 600.0


def _windowed_order(mode: str) -> tuple[float, list[float], dict]:
    t = 0.5
    mus = (0.02, 0.01, 0.005)
    rels = []
    extras: dict = {}
    for mu in mus:
        params = _desk(mu)
        disp = Dispersion(params)
        if mode == "acoustic":
            speed = disp.sound_speed
            q_like = disp.dispersion_coefficient
            evaluate = acoustic_uniform
        else:
            crit = disp.critical
            speed = crit.c_star
            q_like = crit.q_star
            evaluate = optical_uniform
        width = mu ** (2.0 / 3.0) * (q_like * t) ** (1.0 / 3.0)
        front = speed * t
        x = np.linspace(front - 5.0 * width, front + 5.0 * width, 101)
        quad = solve_quadrature(params, GAUSSIAN, mu, x, t, mode)
        ref = np.stack([quad.u, quad.v], axis=1)
        got = evaluate(params, GAUSSIAN, mu, x, t)
        peak = float(np.max(np.abs(ref)))
        rels.append(float(np.max(np.abs(got - ref))) / peak)
        if mode == "optical" and mu == 0.01:
            extras["heavy"] = float(np.max(np.abs(quad.u)))
            extras["light"] = float(np.max(np.abs(quad.v)))
    order = float(np.polyfit(np.log(mus), np.log(rels), 1)[0])
    return order, rels, extras


def test_criterion_5_shortwave_acoustic_order():
    start = time.perf_counter()
    order, rels, _ = _windowed_order("acoustic")
    elapsed = time.perf_counter() - start
    ok = order >= 0.6 and elapsed < 600.0
    _report(
        5,
        "uniform acoustic near-front order",
        ok,
        f"windowed rel errors {', '.join(f'{r:.2e}' for r in rels)} at "
        f"mu = 0.02/0.01/0.005; fitted order {order:.2f} (>= 0.6); "
        f"{elapsed:.1f}s (< 10 min)",
    )
    assert order >= 0.6
    assert elapsed < 600.0


def test_criterion_6_shortwave_optical_order():
    start = time.perf_counter()
    order, rels, extras = _windowed_order("optical")
    elapsed = time.perf_counter() - start
    light_dominates = extras["light"] > extras["heavy"]
    ok = order >= 0.3 and light_dominates and elapsed < 600.0
    _report(
        6,
        "uniform optical near-front order",
        ok,
        f"windowed rel errors {', '.join(f'{r:.2e}' for r in rels)}; fitted order "
        f"{order:.2f} (>= 0.3); light {extras['light']:.2e} > heavy "
        f"{extras['heavy']:.2e} near x = c*t; {elapsed:.1f}s (< 10 min)",
    )
    assert order >= 0.3
    assert light_dominates
    assert elapsed < 600.0


def test_criterion_7_spectral_gap_decay():
    start = time.perf_counter()
    deltas = (0.5, 0.25, 0.1, 0.05)
    gaps = []
    for delta in deltas:
        report = poisson_gap(GAUSSIAN, delta)
        gaps.append(max(report.gap_even, report.gap_odd, report.gap_between))
    slope = float(np.polyfit([1.0 / d for d in deltas], np.log(gaps), 1)[0])
    tiny_report = poisson_gap(GAUSSIAN, 0.01)
    tiny = max(tiny_report.gap_even, tiny_report.gap_odd, tiny_report.gap_between)
    elapsed = time.perf_counter() - start
    ok = slope <= -1.0 and tiny < 1e-12 and elapsed < 60.0
    _report(
        7,
        "super-polynomial sampling gap decay",
        ok,
        f"log-gap vs 1/delta slope {slope:.2f} (<= -1) over delta = {deltas}; "
        f"gap(0.01) = {tiny:.1e} (< 1e-12); {elapsed:.1f}s (< 1 min)",
    )
    assert slope <= -1.0
    assert tiny < 1e-12
    assert elapsed < 60.0


def test_criterion_8_special_functions():
    start = time.perf_counter()
    # closed forms via the Gamma function — independent of the implementation
    ai0_exact = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    aip0_exact = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
    err_origin = max(
        abs(airy_ai(0.0) - ai0_exact), abs(airy_ai_prime(0.0) - aip0_exact)
    )

    z = np.linspace(-20.0, 5.0, 501)
    eps = 1e-3
    second = (airy_ai(z + eps) - 2.0 * airy_ai(z) + airy_ai(z - eps)) / eps**2
    ode_residual = float(np.max(np.abs(second - z * airy_ai(z))))

    y = np.geomspace(10.0, 500.0, 25)
    errs = [
        max(
            abs(envelope_amplitude(yi, +1) - np.exp(1j * (yi - np.pi / 4.0))),
            abs(envelope_amplitude(yi, -1) - np.exp(-1j * (yi - np.pi / 4.0))),
        )
        for yi in y
    ]
    match_slope = float(np.polyfit(np.log(y), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - start
    ok = (
        err_origin <= 1e-10
        and ode_residual <= 1e-4
        and match_slope <= -0.9
        and elapsed < 10.0
    )
    _report(
        8,
        "Airy machinery",
        ok,
        f"origin error {err_origin:.1e} (<= 1e-10), ODE residual "
        f"{ode_residual:.1e} (<= 1e-4) on [-20, 5], envelope matching slope "
        f"{match_slope:.2f} (<= -0.9) on y in [10, 500]; {elapsed:.1f}s (< 10 s)",
    )
    assert err_origin <= 1e-10
    assert ode_residual <= 1e-4
    assert match_slope <= -0.9
    assert elapsed < 10.0


def test_criterion_9_pde_residuals():
    start = time.perf_counter()
    params = _desk(0.01)
    mu, t = 0.05, 0.4
    x = np.linspace(0.1, 0.6, 41)

    def dalembert_field(xx, tt):
        return uas_dalembert(params, GAUSSIAN, mu, xx, tt)

    def airy_field(xx, tt):
        return uas_gaussian_airy(params, mu, xx, tt)

    wave_residual = residual_pde_check(dalembert_field, params, mu, x, t, equation="wave")
    disp_residual = residual_pde_check(airy_field, params, mu, x, t, equation="dispersive6")
    elapsed = time.perf_counter() - start
    ok = wave_residual <= FD_TOL and disp_residual <= 10.0 * FD_TOL and elapsed < 60.0
    _report(
        9,
        "PDE residuals",
        ok,
        f"dispersionless reference vs wave equation {wave_residual:.1e} "
        f"(<= {FD_TOL:.0e}), closed form vs sixth-order equation "
        f"{disp_residual:.1e} (<= {10.0 * FD_TOL:.0e}); {elapsed:.1f}s (< 1 min)",
    )
    assert wave_residual <= FD_TOL
    assert disp_residual <= 10.0 * FD_TOL
    assert elapsed < 60.0
