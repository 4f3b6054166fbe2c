"""Spans at the public-function boundaries of ``diatomic_waves``, from outside.

:class:`Tracer` wraps the package's public functions and methods without
touching its source.  A module function is replaced at every binding site,
because ``from .x import f`` copies the name into the importing module (for
example ``synthesize_field`` lives in ``_quadrature`` and is also bound in
``oracles``, ``longwave`` and ``initial_data``).  ``Dispersion`` and profile
methods are replaced on their classes, and ``Dispersion.critical`` through
its ``cached_property.func``.  :meth:`Tracer.restore` puts every original
back.

Spans are ``[name, start, end, parent, qty]`` lists held in memory: ``parent``
is the index of the enclosing span (-1 at top level) and ``qty`` a work count
taken from the call (nodes built, grid points, file bytes, ...; for
``integrate_lattice`` the pair ``(sites, snapshots)``).
:func:`layer_metrics` turns them into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
from functools import cached_property
from pathlib import Path

import numpy as np

from diatomic_waves.dispersion import Dispersion
from diatomic_waves.initial_data import InitialProfile


def _arg(fn, name: str):
    """Getter of argument ``name`` of ``fn`` from a call's ``(args, kwargs)``."""
    index = list(inspect.signature(fn).parameters).index(name)

    def get(args, kwargs):
        return kwargs[name] if name in kwargs else args[index]

    return get


def _size_of(name: str):
    def make(fn):
        get = _arg(fn, name)
        return lambda args, kwargs, result: int(np.size(get(args, kwargs)))

    return make


def _file_bytes(fn):
    get = _arg(fn, "path")
    return lambda args, kwargs, result: os.path.getsize(get(args, kwargs))


def _sites_and_snapshots(fn):
    def qty(args, kwargs, result):
        states = result[0]
        return (states[0].index.size if states else 0, len(states))

    return qty


def _nodes(fn):
    return lambda args, kwargs, result: int(result[0].size)


def _first_arg_size(fn):
    return lambda args, kwargs, result: int(np.size(args[1])) if len(args) > 1 else 0


#: (module, function, work count) traced at every binding site.
MODULE_FUNCTIONS = (
    ("_quadrature", "synthesize_field", _size_of("x")),
    ("_quadrature", "panel_nodes", _nodes),
    ("initial_data", "semi_discrete_ft", _size_of("p")),
    ("initial_data", "spectral_vector", _size_of("p")),
    ("oracles", "integrate_lattice", _sites_and_snapshots),
    ("oracles", "solve_quadrature", _size_of("x")),
    ("oracles", "compare_fields", None),
    ("oracles", "write_fields_csv", _file_bytes),
    ("shortwave", "acoustic_stationary", None),
    ("shortwave", "optical_stationary", None),
    ("shortwave", "acoustic_front_airy", _size_of("x")),
    ("shortwave", "optical_front_airy", _size_of("x")),
    ("shortwave", "acoustic_uniform", _size_of("x")),
    ("shortwave", "optical_uniform", _size_of("x")),
    ("shortwave", "shortwave_total", _size_of("x")),
    ("airy", "airy_ai_pair", _size_of("z")),
    ("airy", "envelope_amplitude", _size_of("y")),
    ("longwave", "uas_integral", _size_of("x")),
    ("longwave", "uas_gaussian_airy", _size_of("x")),
    ("longwave", "uas_dalembert", _size_of("x")),
    ("cli", "load_config", None),
)

_PREFIX = "diatomic_waves."


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "diatomic_waves" or name.startswith(_PREFIX))
    ]


def _public_methods(cls) -> list[str]:
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


class Tracer:
    """Install with :meth:`install`, undo with :meth:`restore`, or use as a
    context manager that does both; see module doc."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, qty=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if qty is not None:
                rec[4] = qty(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the caller, e.g. around one ``cli.main`` call."""
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = [
            (getattr(importlib.import_module(_PREFIX + modname), fname), modname, fname, make_qty)
            for modname, fname, make_qty in MODULE_FUNCTIONS
        ]
        modules = _package_modules()
        for original, modname, fname, make_qty in targets:
            wrapper = self._wrap(
                f"{modname}.{fname}", original, make_qty(original) if make_qty else None
            )
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        init = self._wrap("dispersion.Dispersion.__init__", Dispersion.__init__)
        self._patch(Dispersion, "__init__", init)
        for meth in _public_methods(Dispersion):
            original = vars(Dispersion)[meth]
            self._patch(
                Dispersion,
                meth,
                self._wrap(f"dispersion.Dispersion.{meth}", original, _first_arg_size(original)),
            )
        critical = vars(Dispersion)["critical"]
        if not isinstance(critical, cached_property):
            raise TypeError("Dispersion.critical is no longer a cached_property")
        self._patch(critical, "func", self._wrap("dispersion.Dispersion.critical", critical.func))
        for cls in InitialProfile.__subclasses__():
            if "fourier_hat" in vars(cls):
                original = vars(cls)["fourier_hat"]
                self._patch(
                    cls,
                    "fourier_hat",
                    self._wrap(f"initial_data.{cls.__name__}.fourier_hat", original),
                )

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def write(self, path: Path) -> None:
        """Spans as CSV: index, name, start, end, parent, qty (times in s)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        lines = ["index,name,start_s,end_s,parent,qty"]
        for i, (name, start, end, parent, qty) in enumerate(self.spans):
            if isinstance(qty, tuple):
                qty = "x".join(map(str, qty))
            lines.append(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},{qty}")
        Path(path).write_text("\n".join(lines) + "\n")


_DISPERSION_EVAL = "dispersion.Dispersion."
_NOT_EVALS = ("dispersion.Dispersion.__init__", "dispersion.Dispersion.critical")


def _is_eval(name: str) -> bool:
    return name.startswith(_DISPERSION_EVAL) and name not in _NOT_EVALS


#: Per-layer metric names that are counts (the rest are seconds or ratios).
COUNT_METRICS = (
    "quadrature.synthesize_field.calls",
    "quadrature.panel_levels",
    "quadrature.nodes",
    "quadrature.final_node_points",
    "initial_data.semi_discrete_ft.calls",
    "initial_data.semi_discrete_ft.p_points",
    "oracles.integrate_lattice.sites",
    "oracles.write_fields_csv.bytes",
    "shortwave.stationary.calls",
    "shortwave.front_airy.points",
    "airy.airy_ai_pair.calls",
    "airy.airy_ai_pair.points",
    "airy.envelope_amplitude.calls",
    "dispersion.Dispersion.constructions",
    "dispersion.critical.solves",
    "dispersion.evals.calls",
    "dispersion.evals.points",
)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics from one traced scenario (see ``perfbench/README.md``)."""
    n = len(spans)
    child_time = [0.0] * n
    last_level = {}  # synthesize_field span -> nodes of its last panel level
    for i, (name, start, end, parent, qty) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            if name == "_quadrature.panel_nodes":
                last_level[parent] = qty

    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    work: dict[str, int] = {}
    evals = [0, 0, 0.0]
    sites = site_snapshots = 0
    for i, (name, start, end, parent, qty) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child_time[i]
        if name == "oracles.integrate_lattice":
            if qty:  # 0 when the call raised
                sites = max(sites, qty[0])
                site_snapshots += qty[0] * qty[1]
        else:
            work[name] = work.get(name, 0) + qty
        if _is_eval(name) and not (parent >= 0 and _is_eval(spans[parent][0])):
            evals[0] += 1
            evals[1] += qty
            evals[2] += dur

    def c(name):
        return calls.get(name, 0)

    def s(*names):
        return sum(total.get(k, 0.0) for k in names)

    def ss(*names):
        return sum(self_s.get(k, 0.0) for k in names)

    def w(*names):
        return sum(work.get(k, 0) for k in names)

    def ratio(num, den):
        return num / den if den else 0.0

    final_np = sum(
        last_level.get(i, 0) * spans[i][4]
        for i in range(n)
        if spans[i][0] == "_quadrature.synthesize_field"
    )
    nodes = w("_quadrature.panel_nodes")
    sdft_points = w("initial_data.semi_discrete_ft")
    profile_hat = [
        k for k in total if k.startswith("initial_data.") and k.endswith(".fourier_hat")
    ]
    stationary = ("shortwave.acoustic_stationary", "shortwave.optical_stationary")
    front = ("shortwave.acoustic_front_airy", "shortwave.optical_front_airy")
    uniform = ("shortwave.acoustic_uniform", "shortwave.optical_uniform")
    return {
        "quadrature.synthesize_field.calls": c("_quadrature.synthesize_field"),
        "quadrature.synthesize_field.self_s": ss("_quadrature.synthesize_field"),
        "quadrature.panel_levels": c("_quadrature.panel_nodes"),
        "quadrature.nodes": nodes,
        "quadrature.useful_node_frac": ratio(sum(last_level.values()), nodes),
        "quadrature.final_node_points": final_np,
        "quadrature.ns_per_node_point": 1e9 * ratio(ss("_quadrature.synthesize_field"), final_np),
        "initial_data.semi_discrete_ft.calls": c("initial_data.semi_discrete_ft"),
        "initial_data.semi_discrete_ft.s": s("initial_data.semi_discrete_ft"),
        "initial_data.semi_discrete_ft.p_points": sdft_points,
        "initial_data.semi_discrete_ft.ns_per_p_point": 1e9
        * ratio(s("initial_data.semi_discrete_ft"), sdft_points),
        "initial_data.fourier_hat.s": s(*profile_hat),
        "oracles.integrate_lattice.s": s("oracles.integrate_lattice"),
        "oracles.integrate_lattice.sites": sites,
        "oracles.integrate_lattice.ns_per_site_snapshot": 1e9
        * ratio(s("oracles.integrate_lattice"), site_snapshots),
        "oracles.solve_quadrature.self_s": ss("oracles.solve_quadrature"),
        "oracles.compare_fields.s": s("oracles.compare_fields"),
        "oracles.write_fields_csv.s": s("oracles.write_fields_csv"),
        "oracles.write_fields_csv.bytes": w("oracles.write_fields_csv"),
        "shortwave.stationary.calls": sum(c(k) for k in stationary),
        "shortwave.stationary.s": s(*stationary),
        "shortwave.front_airy.points": w(*front),
        "shortwave.front_airy.s": s(*front),
        "shortwave.uniform.self_s": ss(*uniform),
        "airy.airy_ai_pair.calls": c("airy.airy_ai_pair"),
        "airy.airy_ai_pair.points": w("airy.airy_ai_pair"),
        "airy.airy_ai_pair.s": s("airy.airy_ai_pair"),
        "airy.envelope_amplitude.calls": c("airy.envelope_amplitude"),
        "airy.envelope_amplitude.s": s("airy.envelope_amplitude"),
        "dispersion.Dispersion.constructions": c("dispersion.Dispersion.__init__"),
        "dispersion.critical.solves": c("dispersion.Dispersion.critical"),
        "dispersion.evals.calls": evals[0],
        "dispersion.evals.points": evals[1],
        "dispersion.evals.s": evals[2],
        "longwave.uas_integral.self_s": ss("longwave.uas_integral"),
        "longwave.uas_gaussian_airy.s": s("longwave.uas_gaussian_airy"),
        "cli.load_config.s": s("cli.load_config"),
        "cli.self_s": ss("cli.main"),
    }

