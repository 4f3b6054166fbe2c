"""Dispersion relation of the 1D diatomic harmonic chain.

A chain of alternating heavy/light atoms coupled by identical springs
carries two branches of plane waves ``exp(i(p n - omega(p) tau))``:

* an *acoustic* branch ``omega_1(p)`` with ``omega_1(0) = 0`` and long-wave
  sound speed ``c``,
* an *optical* branch ``omega_2(p)`` with a non-zero band bottom at the
  zone edge and a stationary inflection of its group velocity inside the
  zone.

With the two dimensionless stiffness parameters ``gamma1 < gamma2``
(spring constant divided by mass, scaled by the reference speed) the
squared branch frequencies at wavenumber ``p`` are::

    omega_{1,2}(p)^2 = (gamma1 + gamma2) -/+ C(2 p)
    C(r) = sqrt(gamma1^2 + gamma2^2 + 2 gamma1 gamma2 cos(r))

Everything downstream — modal projectors, group velocities, stationary
points of the phase, front curvatures — derives from this module.

Numerical notes
---------------
``omega_1`` has a ``|sin p|``-type kink at ``p = 0``; the subtraction in
``sqrt(gamma1 + gamma2 - C(2p))`` is catastrophically ill-conditioned
there.  All acoustic evaluations therefore use the cancellation-free
product form ``omega_1 = 2 sqrt(gamma1 gamma2) |sin p| / omega_2(p)``
(from the exact identity ``omega_1 omega_2 = 2 sqrt(gamma1 gamma2)
|sin p|``) and its smooth odd extension for derivatives.  Derivatives of
``omega_2`` are computed by analytic recursion on ``K(p) = C(2p)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import brentq

from .errors import ConfigError

__all__ = [
    "ACOUSTIC",
    "OPTICAL",
    "LatticeParams",
    "CriticalPoint",
    "Dispersion",
]

ACOUSTIC = 1
OPTICAL = 2


@dataclass(frozen=True)
class LatticeParams:
    """Dimensionless parameters of the diatomic chain.

    Attributes
    ----------
    gamma1, gamma2:
        Stiffness-to-mass ratios of the heavy and light sublattices in
        units of the reference sound speed; ``0 < gamma1 < gamma2``.
    h:
        Lattice spacing divided by the macroscopic observation length
        (one atom per ``h``; a two-atom unit cell spans ``2 h``).
    """

    gamma1: float
    gamma2: float
    h: float

    def __post_init__(self) -> None:
        if not all(np.isfinite((self.gamma1, self.gamma2, self.h))):
            raise ConfigError(
                "lattice parameters must be finite, got "
                f"gamma1={self.gamma1!r}, gamma2={self.gamma2!r}, h={self.h!r}"
            )
        if not (0.0 < self.gamma1 < self.gamma2):
            raise ConfigError(
                "lattice parameters require 0 < gamma1 < gamma2, got "
                f"gamma1={self.gamma1!r}, gamma2={self.gamma2!r}"
            )
        if not (0.0 < self.h < 1.0):
            raise ConfigError(f"lattice spacing h must lie in (0, 1), got {self.h!r}")

    @classmethod
    def from_masses(
        cls,
        m_heavy: float,
        m_light: float,
        spring_k: float,
        spacing: float,
        window: float,
    ) -> "LatticeParams":
        """Build parameters from physical inputs.

        Parameters
        ----------
        m_heavy, m_light:
            Atomic masses (any consistent unit); ``m_heavy > m_light``.
        spring_k:
            Nearest-neighbour spring constant.
        spacing:
            Interatomic distance ``d``.
        window:
            Macroscopic observation length ``L`` (so ``h = spacing / window``).

        The reference speed is the harmonic-mean speed
        ``c0^2 = 2 K d^2 / (m_heavy + m_light)``, so that
        ``gamma_i = K d^2 / (m_i c0^2) = (m_heavy + m_light) / (2 m_i)``.
        This makes ``2 g1 g2 / (g1 + g2) = 1`` exactly, hence the long-wave
        sound speed equals 1 regardless of the input values.
        """
        if not (0.0 < m_light < m_heavy):
            raise ConfigError(
                f"masses must satisfy 0 < m_light < m_heavy, got {m_light!r}, {m_heavy!r}"
            )
        if spring_k <= 0.0 or spacing <= 0.0 or window <= 0.0:
            raise ConfigError("spring_k, spacing and window must be positive")
        # c0^2 = 2 K d^2 / (m_heavy + m_light) makes 2*g1*g2/(g1+g2) == 1.
        c0_sq = 2.0 * spring_k * spacing**2 / (m_heavy + m_light)
        gamma1 = spring_k * spacing**2 / (m_heavy * c0_sq)
        gamma2 = spring_k * spacing**2 / (m_light * c0_sq)
        return cls(gamma1=gamma1, gamma2=gamma2, h=spacing / window)

@dataclass(frozen=True)
class CriticalPoint:
    """Inflection point of the optical group velocity.

    ``p_star`` is the interior wavenumber where ``omega_2''`` vanishes,
    ``c_star = -omega_2'(p_star) > 0`` the speed of the optical front and
    ``q_star = omega_2'''(p_star) / 2 > 0`` its cubic curvature.
    """

    p_star: float
    c_star: float
    q_star: float


class Dispersion:
    """Evaluator for the two branch frequencies and derived quantities.

    All wavenumber arguments accept scalars or numpy arrays and broadcast
    elementwise.  Branch selection uses the module constants ``ACOUSTIC``
    (1) and ``OPTICAL`` (2).
    """

    def __init__(self, params: LatticeParams):
        self.params = params
        self._gsum = params.gamma1 + params.gamma2
        self._gprod = params.gamma1 * params.gamma2
        self._gdiff = params.gamma2 - params.gamma1
        self._two_sqrt_gprod = 2.0 * np.sqrt(self._gprod)

    # ------------------------------------------------------------------
    # auxiliary functions
    # ------------------------------------------------------------------
    def aux_c(self, r):
        """``C(r) = sqrt(gamma1^2 + gamma2^2 + 2 gamma1 gamma2 cos r)``."""
        g1, g2 = self.params.gamma1, self.params.gamma2
        return np.sqrt(g1 * g1 + g2 * g2 + 2.0 * self._gprod * np.cos(r))

    def aux_g(self, r):
        """``G(r) = gamma2 - gamma1 + C(r)`` (always positive)."""
        return self._gdiff + self.aux_c(r)

    # ------------------------------------------------------------------
    # branch frequencies
    # ------------------------------------------------------------------
    def omega1(self, p):
        """Acoustic branch, cancellation-free for small ``p``."""
        return self._two_sqrt_gprod * np.abs(np.sin(p)) / self.omega2(p)

    def omega2(self, p):
        """Optical branch ``sqrt(gamma1 + gamma2 + C(2p))``."""
        return np.sqrt(self._gsum + self.aux_c(2.0 * p))

    # ------------------------------------------------------------------
    # derivatives
    # ------------------------------------------------------------------
    def _k_derivs(self, p, order: int):
        """``K(p) = C(2p)`` and derivatives up to ``order`` (<= 3)."""
        s2, c2 = np.sin(2.0 * p), np.cos(2.0 * p)
        k0 = self.aux_c(2.0 * p)
        out = [k0]
        if order >= 1:
            k1 = -2.0 * self._gprod * s2 / k0
            out.append(k1)
        if order >= 2:
            k2 = (-4.0 * self._gprod * c2 - out[1] ** 2) / k0
            out.append(k2)
        if order >= 3:
            k3 = (8.0 * self._gprod * s2 - 3.0 * out[1] * out[2]) / k0
            out.append(k3)
        return out

    def omega2_derivs(self, p, order: int = 3):
        """``(omega_2, omega_2', ..)`` up to ``order`` (<= 3), vectorized."""
        if not 0 <= order <= 3:
            raise ConfigError(f"derivative order must be 0..3, got {order!r}")
        k = self._k_derivs(p, order)
        w = np.sqrt(self._gsum + k[0])
        out = [w]
        if order >= 1:
            w1 = k[1] / (2.0 * w)
            out.append(w1)
        if order >= 2:
            w2 = (k[2] - 2.0 * out[1] ** 2) / (2.0 * w)
            out.append(w2)
        if order >= 3:
            w3 = (k[3] - 6.0 * out[1] * out[2]) / (2.0 * w)
            out.append(w3)
        return tuple(out)

    def omega1_smooth_derivs(self, p, order: int = 3):
        """Smooth odd acoustic branch and derivatives up to ``order``.

        The smooth branch ``W(p) = 2 sqrt(gamma1 gamma2) sin(p) / omega_2(p)``
        coincides with ``omega_1`` for ``p in [0, pi]`` and is analytic
        through ``p = 0`` (odd), so its derivatives are the one-sided
        derivatives of ``omega_1`` on ``(0, pi/2]`` and remain finite at 0:
        ``W'(0) = c``, ``W''(0) = 0``, ``W'''(0) = -2 q``.

        Derivatives follow by Leibniz from
        ``W * omega_2 = 2 sqrt(gamma1 gamma2) sin p``.
        """
        if not 0 <= order <= 3:
            raise ConfigError(f"derivative order must be 0..3, got {order!r}")
        r = self._two_sqrt_gprod
        sp, cp = np.sin(p), np.cos(p)
        w2 = self.omega2_derivs(p, order)
        om = r * sp / w2[0]
        out = [om]
        if order >= 1:
            d1 = (r * cp - out[0] * w2[1]) / w2[0]
            out.append(d1)
        if order >= 2:
            d2 = (-r * sp - 2.0 * out[1] * w2[1] - out[0] * w2[2]) / w2[0]
            out.append(d2)
        if order >= 3:
            d3 = (
                -r * cp - 3.0 * out[2] * w2[1] - 3.0 * out[1] * w2[2] - out[0] * w2[3]
            ) / w2[0]
            out.append(d3)
        return tuple(out)

    # ------------------------------------------------------------------
    # long-wave constants
    # ------------------------------------------------------------------
    @cached_property
    def sound_speed(self) -> float:
        """Long-wave acoustic speed ``c = sqrt(2 g1 g2 / (g1 + g2))``."""
        return float(np.sqrt(2.0 * self._gprod / self._gsum))

    @cached_property
    def dispersion_coefficient(self) -> float:
        """Cubic coefficient ``q`` in ``omega_1 = c|p| - q|p|^3/3 + ...``.

        ``q = c (gamma1^2 - gamma1 gamma2 + gamma2^2) / (2 (gamma1+gamma2)^2)``.
        """
        g1, g2 = self.params.gamma1, self.params.gamma2
        with np.errstate(over="ignore", invalid="ignore"):
            gsum_sq = np.float64(self._gsum) ** 2
            q = self.sound_speed * (g1 * g1 - g1 * g2 + g2 * g2) / (2.0 * gsum_sq)
        if not np.isfinite(q):
            raise ConfigError(f"gamma2 = {g2!r} puts the dispersion coefficient out of range")
        return float(q)

    # ------------------------------------------------------------------
    # optical critical point
    # ------------------------------------------------------------------
    @cached_property
    def critical(self) -> CriticalPoint:
        """Locate ``p_star`` with ``omega_2''(p_star) = 0`` by bracketed
        root finding on the interior of the zone; derived speeds follow
        analytically."""

        def d2(p: float) -> float:
            return float(self.omega2_derivs(p, 2)[2])

        lo, hi = 1e-3, np.pi / 2 - 1e-3
        flo, fhi = d2(lo), d2(hi)
        if not (flo < 0.0 < fhi):
            raise ConfigError(
                "optical curvature does not change sign inside the zone; "
                f"omega2''({lo:.3g}) = {flo:.3g}, omega2''({hi:.3g}) = {fhi:.3g}"
            )
        p_star = brentq(d2, lo, hi, xtol=1e-13, rtol=8.9e-16)
        _, w1, _, w3 = self.omega2_derivs(p_star, 3)
        return CriticalPoint(
            p_star=float(p_star), c_star=float(-w1), q_star=float(w3 / 2.0)
        )

    # ------------------------------------------------------------------
    # modal structure
    # ------------------------------------------------------------------
    def modal_matrix(self, p, branch: int):
        """Projection matrix of the branch in (heavy, light) component space.

        Shape ``p.shape + (2, 2)``.  The two matrices are complementary
        projectors (``A + B = I``, ``A @ A = A``) and satisfy the exact
        left-kernel identity ``(1, -1) @ A(0) = 0``.
        """
        p = np.asarray(p, dtype=float)
        g1, g2 = self.params.gamma1, self.params.gamma2
        cp = np.cos(p)
        g = self.aux_g(2.0 * p)
        j = g * g + 4.0 * self._gprod * cp * cp
        a = np.empty(p.shape + (2, 2), dtype=float)
        a[..., 0, 0] = g * g / j
        a[..., 0, 1] = 2.0 * g1 * g * cp / j
        a[..., 1, 0] = 2.0 * g2 * g * cp / j
        a[..., 1, 1] = 4.0 * self._gprod * cp * cp / j
        if branch == ACOUSTIC:
            return a
        if branch == OPTICAL:
            b = -a
            b[..., 0, 0] += 1.0
            b[..., 1, 1] += 1.0
            return b
        raise ConfigError(f"branch must be {ACOUSTIC} or {OPTICAL}, got {branch!r}")

    # ------------------------------------------------------------------
    # phase helpers used by the stationary-phase evaluators
    # ------------------------------------------------------------------
    def legendre_omega1(self, p):
        """``m(p) = omega_1(p) - p omega_1'(p)`` on the smooth branch.

        Near ``p = 0`` both terms are ``O(p)`` and cancel to ``O(p^3)``;
        the stable form groups the trigonometric difference first::

            m = (R / w) [ (sin p - p cos p) + p sin p w'/w ],  w = omega_2

        with ``sin p - p cos p`` summed by Taylor series for small ``p``.
        """
        p = np.asarray(p, dtype=float)
        w0, w1 = self.omega2_derivs(p, 1)[:2]
        sp, cp = np.sin(p), np.cos(p)
        small = np.abs(p) < 0.5
        p2 = p * p
        # sin p - p cos p = p^3/3 - p^5/30 + p^7/840 - p^9/45360 + ...
        series = p * p2 * (
            1.0 / 3.0
            + p2 * (-1.0 / 30.0 + p2 * (1.0 / 840.0 + p2 * (-1.0 / 45360.0 + p2 / 3991680.0)))
        )
        trig = np.where(small, series, sp - p * cp)
        return self._two_sqrt_gprod / w0 * (trig + p * sp * w1 / w0)
