"""Regenerate ``tests/_reference.py`` (frozen expected values).

Every number the test suite compares against is computed here from
first principles with mpmath at 50 decimal digits, then rounded to
float64.  The script depends only on mpmath (never on the package under
test), so the frozen values are an independent oracle.

Run from the repository root:

    python3 tests/tools/regen_references.py

and commit the regenerated ``tests/_reference.py`` together with this
script whenever reference scenarios change.
"""

from __future__ import annotations

import io
import math
from functools import lru_cache
from pathlib import Path

import mpmath as mp

mp.mp.dps = 50

OUT_PATH = Path(__file__).resolve().parents[1] / "_reference.py"

# ---------------------------------------------------------------------------
# dispersion relation in mpmath
# ---------------------------------------------------------------------------


class Chain:
    """Branch frequencies of the diatomic chain at exact precision."""

    def __init__(self, gamma1: mp.mpf, gamma2: mp.mpf):
        self.g1 = mp.mpf(gamma1)
        self.g2 = mp.mpf(gamma2)
        self.gsum = self.g1 + self.g2
        self.gprod = self.g1 * self.g2

    def aux_c(self, r):
        return mp.sqrt(self.g1**2 + self.g2**2 + 2 * self.gprod * mp.cos(r))

    def omega2(self, p):
        return mp.sqrt(self.gsum + self.aux_c(2 * p))

    def omega1_smooth(self, p):
        # odd analytic branch; equals omega_1 for p in [0, pi]
        return 2 * mp.sqrt(self.gprod) * mp.sin(p) / self.omega2(p)

    def sound_speed(self):
        return mp.sqrt(2 * self.gprod / self.gsum)

    def dispersion_coefficient(self):
        # -omega1'''(0) / 2, via the cubic Taylor term of the smooth branch
        return -mp.diff(self.omega1_smooth, mp.mpf(0), 3) / 2

    def critical_point(self):
        d2 = lambda p: mp.diff(self.omega2, p, 2)
        p_star = mp.findroot(d2, mp.mpf("1.2"))
        c_star = -mp.diff(self.omega2, p_star, 1)
        q_star = mp.diff(self.omega2, p_star, 3) / 2
        return p_star, c_star, q_star

    def legendre_omega1(self, p):
        return self.omega1_smooth(p) - p * mp.diff(self.omega1_smooth, p, 1)


DESK = Chain(mp.mpf("0.82"), mp.mpf("1.27"))

# physical route: gamma_i = (m_heavy + m_light) / (2 m_i)
_M_HEAVY = mp.mpf("5.88e-26")
_M_LIGHT = mp.mpf("3.81e-26")
NACL = Chain(
    (_M_HEAVY + _M_LIGHT) / (2 * _M_HEAVY),
    (_M_HEAVY + _M_LIGHT) / (2 * _M_LIGHT),
)

BRANCH_P_VALUES = [mp.mpf("0.3"), mp.mpf("1.0"), mp.mpf("1.4")]

# ---------------------------------------------------------------------------
# Airy reference values
# ---------------------------------------------------------------------------

AIRY_GRID = [
    "-20.0", "-15.5", "-12.25", "-9.1", "-7.4", "-7.39", "-6.0", "-4.2",
    "-3.0", "-1.5", "-0.7", "0.0", "0.4", "1.3", "2.6", "4.0", "5.5",
    "7.4", "8.2", "12.0",
]

AIRY_SCALED_GRID = [
    "0.0", "0.9", "3.0", "6.0", "6.1", "20.0", "60.0", "200.0",
    "9999.5", "10000.0", "10000.5", "1e5", "1e7", "1e12",
]

# Large |z|: both sides of the evaluator's switch at |z| = 1e4 and beyond
# scipy's range (~1.07e6).  These are floats, evaluated exactly as given:
# at |z| = 1e7 a decimal-vs-binary difference of one ulp moves Ai' by ~1e-7.
_Z = 1e4
AIRY_FAR_GRID = [
    -1e7, -1e5, -10000.5, -_Z, math.nextafter(-_Z, 0.0), -9999.5,
    9999.5, math.nextafter(_Z, 0.0), _Z, 10000.5, 1e5, 1e7,
]

# The evaluator's switches below |z| = 1e4: its Maclaurin series / Laplace
# integral switch at z = 1.6 and z = -3.5, and every step of its Gauss-Laguerre
# node ladder on either side.  Each pair is the first float of a branch or rung
# and its neighbour one ulp nearer 0, on the other side of the switch;
# tests/test_airy.py checks that every pair still brackets a switch.
AIRY_SWITCH_GRID = [
    (1.6, 1.5999999999999999),
    (-3.5, -3.4999999999999996),
    # decaying side (z > 0)
    (3.196520469193838, 3.1965204691938376),
    (6.402407948082113, 6.4024079480821126),
    (20.987764981862732, 20.98776498186273),
    # oscillating side (z < 0)
    (-4.18618333892763, -4.186183338927629),
    (-7.207544175768551, -7.20754417576855),
    (-20.54889972264527, -20.548899722645267),
]

ENVELOPE_Y_VALUES = ["0.3", "2.0", "30.0"]


def envelope_plus(y: mp.mpf) -> mp.mpc:
    w = (3 * y / 2) ** mp.mpf("1/6")
    z = -(w**4)
    return mp.sqrt(mp.pi) * (
        w * mp.airyai(z) + 1j * mp.airyai(z, derivative=1) / w
    )


# ---------------------------------------------------------------------------
# semi-discrete sublattice sums for the Gaussian profile
# ---------------------------------------------------------------------------


#: Sites out to |xi| = 16 enter the sums: exp(-16^2/2) ~ 2.6e-56 is below 50 digits.
SUM_RADIUS = 16


def gaussian_sublattice_sum(delta: mp.mpf, p: mp.mpf, component: int) -> mp.mpf:
    """``sum_n exp(-xi_n^2/2) cos(p xi_n)`` over one sublattice.

    Sites are ``xi = 2 k delta`` (component 1) or ``(2k+1) delta``
    (component 2), every one with ``|xi| <= SUM_RADIUS + 2 delta``; the
    Gaussian is even so the sum is a real cosine sum.
    """
    k_max = int(mp.ceil(SUM_RADIUS / (2 * delta))) + 1
    total = mp.mpf(0)
    for k in range(-k_max, k_max + 1):
        xi = (2 * k if component == 1 else 2 * k + 1) * delta
        total += mp.e ** (-(xi**2) / 2) * mp.cos(p * xi)
    return total


SEMIDISCRETE_CASES = [
    ("1.0", "0.0", 1), ("1.0", "0.0", 2),
    ("1.0", "0.4", 1), ("1.0", "0.4", 2),
    ("1.0", "1.2", 1), ("1.0", "1.2", 2),
    ("0.5", "0.7", 1), ("0.5", "0.7", 2),
    # long-wave band data (delta << 1), at momenta inside the quadrature's cut
    ("0.05", "0.0", 1), ("0.05", "0.0", 2),
    ("0.05", "1.3", 1), ("0.05", "1.3", 2),
    ("0.05", "7.5", 1), ("0.05", "7.5", 2),
    ("0.005", "0.0", 1), ("0.005", "0.0", 2),
    ("0.005", "1.3", 1), ("0.005", "1.3", 2),
    ("0.005", "7.5", 1), ("0.005", "7.5", 2),
]

# ---------------------------------------------------------------------------
# long-wave reduced integral (Gaussian data)
# ---------------------------------------------------------------------------


def longwave_amplitude(chain: Chain, h, mu, x, t) -> mp.mpf:
    """``(1/sqrt(2 pi)) Re int What(p) e^{i p x/mu} e^{i t (c|p|/mu - q h^2 p^2 |p|/(3 mu^3))} dp``

    for the self-dual Gaussian, folded onto ``p >= 0`` (the integrand's
    two half-lines are conjugate for even real data).
    """
    c = chain.sound_speed()
    q = chain.dispersion_coefficient()
    transport = t * c / mu
    cubic = t * q * h**2 / (3 * mu**3)
    xh = x / mu

    def integrand(p):
        return mp.e ** (-(p**2) / 2) * mp.cos(p * xh) * mp.expjpi(
            (transport * p - cubic * p**3) / mp.pi
        )

    val = mp.quad(integrand, [0, 4, 12])
    return 2 / mp.sqrt(2 * mp.pi) * mp.re(val)


LONGWAVE_CASES = [  # (h, mu, t, x)
    ("0.02", "0.2", "0.5", "0.0"),
    ("0.02", "0.2", "0.5", "0.45"),
    ("0.02", "0.2", "0.5", "0.52"),
]

# ---------------------------------------------------------------------------
# band quadrature of the exact lattice solution (whole band)
# ---------------------------------------------------------------------------


def modal_matrix(chain: Chain, p, branch: int):
    g = chain.g2 - chain.g1 + chain.aux_c(2 * p)
    cp = mp.cos(p)
    j = g * g + 4 * chain.gprod * cp * cp
    a = mp.matrix(
        [
            [g * g / j, 2 * chain.g1 * g * cp / j],
            [2 * chain.g2 * g * cp / j, 4 * chain.gprod * cp * cp / j],
        ]
    )
    if branch == 1:
        return a
    return mp.eye(2) - a


def band_solution(chain: Chain, h, mu, x, t) -> tuple[mp.mpf, mp.mpf]:
    """Exact two-component solution by direct quadrature over the whole band.

    ``U(x,t) = Re (delta/pi) int_{-pi/(2 delta)}^{pi/(2 delta)} [A(delta p)
    e^{i w1 t/h} + B(delta p) e^{i w2 t/h}] (Wt1, Wt2)(p) e^{i p x / mu} dp``
    with ``delta = h / mu``; the integrand is even in ``p`` for even data, so
    it folds onto ``[0, pi/(2 delta)]``, taken in pieces of at most unit
    width.  Nothing of the band is dropped, so at small ``delta`` this pins
    the part of the band that the package's quadrature cuts away.
    """
    delta = h / mu
    tau = t / h
    xh = x / mu
    edge = mp.pi / (2 * delta)
    pieces = mp.linspace(0, edge, max(2, int(mp.ceil(edge))) + 1)

    @lru_cache(maxsize=None)
    def sums(p):
        return mp.matrix(
            [gaussian_sublattice_sum(delta, p, 1), gaussian_sublattice_sum(delta, p, 2)]
        )

    def component(i: int) -> mp.mpf:
        def integrand(p):
            vt = sums(p)
            s = delta * p
            w1 = chain.omega1_smooth(s)
            w2 = chain.omega2(s)
            acou = modal_matrix(chain, s, 1) * vt
            opti = modal_matrix(chain, s, 2) * vt
            val = acou[i] * mp.expjpi(w1 * tau / mp.pi) + opti[i] * mp.expjpi(
                w2 * tau / mp.pi
            )
            return val * mp.cos(p * xh)

        return 2 * delta / mp.pi * mp.re(mp.quad(integrand, pieces))

    return component(0), component(1)


BAND_CASES = [  # (h, mu, t, x)
    ("0.05", "0.05", "0.25", "0.0"),
    ("0.05", "0.05", "0.25", "0.02"),
    # delta = 0.05 at the front x = c t: a band of |p| <= 31.4 whose data
    # fall below 1e-13 past |p| ~ 7.7
    ("0.0025", "0.05", "0.25", "0.25"),
]


# ---------------------------------------------------------------------------
# continuum transform of natural cubic spline tables
# ---------------------------------------------------------------------------


def spline_tables() -> dict[str, tuple[list[float], list[float]]]:
    """The tables of ``tests/test_initial_data.py``, as the same float64 numbers.

    ``uniform``: 141 knots, step 0.1 on [-6, 8], a Gaussian centred at 1;
    ``graded``: 130 knots ``-6 + 14 u + 1.5 sin(2 pi u)`` (gaps 0.035 to 0.18),
    a Gaussian centred at 0.7.
    """
    uniform = [(k - 60) / 10 for k in range(141)]
    graded = [-6.0 + 14.0 * (k / 129) + 1.5 * math.sin(2.0 * math.pi * (k / 129)) for k in range(130)]
    return {
        "uniform": (uniform, [math.exp(-0.5 * (x - 1.0) * (x - 1.0)) for x in uniform]),
        "graded": (graded, [math.exp(-0.5 * (x - 0.7) * (x - 0.7)) for x in graded]),
    }


def natural_spline(xs: list[mp.mpf], ys: list[mp.mpf]) -> list[tuple]:
    """Coefficients ``(a, b, c, d)`` of ``a + b s + c s^2 + d s^3``, ``s = xi - xi_i``,
    on each interval of the natural cubic spline through the knots."""
    n = len(xs) - 1
    h = [xs[i + 1] - xs[i] for i in range(n)]
    # second derivatives M_1 .. M_{n-1} (M_0 = M_n = 0): tridiagonal elimination
    diag = [2 * (h[i - 1] + h[i]) for i in range(1, n)]
    rhs = [6 * ((ys[i + 1] - ys[i]) / h[i] - (ys[i] - ys[i - 1]) / h[i - 1]) for i in range(1, n)]
    for r in range(1, n - 1):
        w = h[r] / diag[r - 1]
        diag[r] -= w * h[r]
        rhs[r] -= w * rhs[r - 1]
    m = [mp.mpf(0)] * (n + 1)
    for r in range(n - 2, -1, -1):
        m[r + 1] = (rhs[r] - (h[r + 1] * m[r + 2] if r + 2 < n else 0)) / diag[r]
    return [
        (
            ys[i],
            (ys[i + 1] - ys[i]) / h[i] - h[i] * (2 * m[i] + m[i + 1]) / 6,
            m[i] / 2,
            (m[i + 1] - m[i]) / (6 * h[i]),
        )
        for i in range(n)
    ]


def spline_transform(xs: list[mp.mpf], cubics: list[tuple], p: mp.mpf) -> mp.mpc:
    """``(1/sqrt(2 pi)) int S(xi) e^{-i p xi} dxi`` by ``mp.quad`` of each cubic,
    on Gauss-Legendre pieces of at most 4 radians of phase."""
    total = mp.mpc(0)
    for lo, hi, (a, b, c, d) in zip(xs[:-1], xs[1:], cubics):
        def integrand(s, lo=lo, a=a, b=b, c=c, d=d):
            u = s - lo
            return (a + u * (b + u * (c + u * d))) * mp.expj(-p * s)

        pieces = int(mp.ceil(abs(p) * (hi - lo) / 4)) + 1
        total += mp.quad(integrand, mp.linspace(lo, hi, pieces + 1), method="gauss-legendre")
    return total / mp.sqrt(2 * mp.pi)


#: Momenta per table: p = 0 and near it, each side of |p d| = 1 (the step
#: 0.1; the graded table's widest and narrowest gaps), the spline's alias
#: peak (uniform: near 2 pi / 0.1; graded: the largest bump past 30), far out.
SPLINE_P_VALUES = {
    "uniform": [0.0, 1e-9, 1e-3, 0.5, 9.9999, 10.0001, 60.799, 1000.0, 4096.0],
    "graded": [0.0, 1e-9, 1e-3, 0.5, 5.5078, 5.5079, 28.1896, 28.1897, 43.642, 1000.0, 4096.0],
}


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def fmt(value) -> str:
    if isinstance(value, (mp.mpc, complex)):
        return f"complex({float(mp.re(value))!r}, {float(mp.im(value))!r})"
    return repr(float(value))


def chain_block(out: io.StringIO, name: str, chain: Chain) -> None:
    p_star, c_star, q_star = chain.critical_point()
    out.write(f"{name} = {{\n")
    out.write(f'    "gamma1": {fmt(chain.g1)},\n')
    out.write(f'    "gamma2": {fmt(chain.g2)},\n')
    out.write(f'    "sound_speed": {fmt(chain.sound_speed())},\n')
    out.write(f'    "dispersion_coefficient": {fmt(chain.dispersion_coefficient())},\n')
    out.write(f'    "p_star": {fmt(p_star)},\n')
    out.write(f'    "c_star": {fmt(c_star)},\n')
    out.write(f'    "q_star": {fmt(q_star)},\n')
    out.write(f'    "acoustic_top": {fmt(mp.sqrt(2 * chain.g1))},\n')
    out.write(f'    "optical_bottom": {fmt(mp.sqrt(2 * chain.g2))},\n')
    out.write(f'    "optical_top": {fmt(mp.sqrt(2 * chain.gsum))},\n')
    out.write("}\n\n")


def branch_table(out: io.StringIO, chain: Chain) -> None:
    out.write("DESK_BRANCHES = {\n")
    for p in BRANCH_P_VALUES:
        rows = {
            "omega1": chain.omega1_smooth(p),
            "omega1_d1": mp.diff(chain.omega1_smooth, p, 1),
            "omega1_d2": mp.diff(chain.omega1_smooth, p, 2),
            "omega1_d3": mp.diff(chain.omega1_smooth, p, 3),
            "omega2": chain.omega2(p),
            "omega2_d1": mp.diff(chain.omega2, p, 1),
            "omega2_d2": mp.diff(chain.omega2, p, 2),
            "omega2_d3": mp.diff(chain.omega2, p, 3),
            "legendre": chain.legendre_omega1(p),
        }
        body = ", ".join(f'"{k}": {fmt(v)}' for k, v in rows.items())
        out.write(f"    {fmt(p)}: {{{body}}},\n")
    out.write("}\n\n")


# ---------------------------------------------------------------------------
# sequential Legendre-Bessel ladder (written out verbatim)
# ---------------------------------------------------------------------------

#: The far-frame Legendre-Bessel rule as one Bessel recurrence and one sum per
#: order, term by term: the reference the endpoint-sum rule in
#: ``diatomic_waves._quadrature`` is tested against.  Plain numpy, no mpmath.
LADDER_SOURCE = '''

def bessel_sum(coef, omega):
    """``sum_n coef[n] j_n(omega)`` with the spherical Bessel ``j_n`` from
    upward recurrence, which is stable while ``n < |omega|``."""
    inv = 1.0 / omega
    j_prev = np.sin(omega) * inv
    j = (j_prev - np.cos(omega)) * inv
    total = coef[0] * j_prev + coef[1] * j
    for n in range(1, coef.size - 1):
        j_prev, j = j, (2 * n + 1) * inv * j - j_prev
        total += coef[n + 1] * j
    return total


def legendre_bessel_order(kernel, a, b, x, k):
    """``(F, c)``: ``int_a^b kernel(p) e^{i p x} dp`` as ``r e^{i m x} sum_{n<k}
    c_n j_n(r x)``, ``c_n = 2 i^n a_n`` from ``k``-point Gauss-Legendre.  The
    nodes, weights and real projection of the values' real and imaginary
    parts are the far rule's own (``leggauss``'s weights are off by up to
    2e-11 at k = 256), so the two have the same ``c_n`` and differ only in
    the order of summation."""
    from diatomic_waves._quadrature import _gauss_legendre

    x = np.asarray(x, dtype=float)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    s, w = _gauss_legendre(k)
    vander = np.polynomial.legendre.legvander(s, k - 1)
    project = (np.arange(k) + 0.5)[:, None] * (vander * w[:, None]).T
    v = kernel(mid + half * s)
    re, im = (project @ np.stack((v.real, v.imag), axis=1)).T
    coef = 2.0 * np.array([1.0, 1.0j, -1.0, -1.0j])[np.arange(k) % 4] * (re + 1j * im)
    return half * (np.cos(mid * x) + 1j * np.sin(mid * x)) * bessel_sum(coef, half * x), coef


def legendre_bessel_ladder(kernel, a, b, x, rtol=1e-8, atol=1e-13):
    """:func:`legendre_bessel_order` for k = 32, 64, 128, 256 while
    ``min |r x| > 2 k``, until two orders agree to ``atol + rtol * max|F|``.
    Returns ``(F, k, c)`` of that order, or ``(None, None, None)``."""
    least = float(np.min(np.abs(0.5 * (b - a) * np.asarray(x, dtype=float))))
    prev = None
    for k in (32, 64, 128, 256):
        if not least > 2.0 * k:
            break
        f, coef = legendre_bessel_order(kernel, a, b, x, k)
        if prev is not None and np.max(np.abs(f - prev)) <= atol + rtol * np.max(np.abs(f)):
            return f, k, coef
        prev = f
    return None, None, None
'''


#: The held-end chain as ``integrate_lattice`` propagated it before the ring,
#: written out verbatim: the reference the ring is tested against.
CHAIN_SOURCE = '''

# The held-end chain the ring of ``diatomic_waves.oracles.integrate_lattice``
# replaced: the chain of ``2n + 1`` sites with both end sites held, split by
# sine transforms.  The ring is tested against it on the sites ``-n .. n``.


def chain_modes(g1: float, g2: float, n: int):
    """Frequencies and rotations of the 2x2 blocks of a chain of ``2n + 1``
    sites with heavy ends.

    Mode ``m = 1..n-1`` (``phi = pi m / (2n)``) pairs the heavy amplitude
    ``sqrt(g1) y1 sin(2k phi)`` with the light one ``sqrt(g2) y2
    sin((2k-1) phi)`` through the symmetric block ``[[2 g1, -2 c r], [-2 c r,
    2 g2]]``, ``c = cos phi``, ``r = sqrt(g1 g2)``.  Returns the optical and
    acoustic frequencies and ``(cos theta, sin theta)``, the optical
    eigenvector in ``(y1, y2)``.  The acoustic eigenvalue is taken as
    ``det / lambda_+`` with ``det = 4 g1 g2 sin^2 phi``: the difference
    ``tr/2 - disc`` would lose the low modes to cancellation.
    """
    phi = np.pi * np.arange(1, n) / (2 * n)
    off = -2.0 * np.cos(phi) * np.sqrt(g1 * g2)
    lam_plus = (g1 + g2) + np.hypot(g1 - g2, off)
    lam_minus = 4.0 * g1 * g2 * np.sin(phi) ** 2 / lam_plus
    theta = 0.5 * np.arctan2(off, g1 - g2)
    return np.sqrt(lam_plus), np.sqrt(lam_minus), np.cos(theta), np.sin(theta)


def dst(x: np.ndarray, kind: int, inverse: bool = False) -> np.ndarray:
    """Orthonormal DST-I (``kind = 1``, its own inverse) or DST-II of ``x``, or
    the inverse of the latter (DST-III), as ``scipy.fft.dst``/``idst`` with
    ``norm="ortho"`` define them.  Each is one real FFT of a zero-padded
    sequence: ``sum_m v_m sin(2 pi k m / L) = -Im rfft(v)[k]``.
    """
    n = x.size
    if kind == 1:  # sqrt(2 / (n + 1)) sum_j x_j sin(pi (j + 1)(k + 1) / (n + 1))
        v = np.zeros(2 * n + 2)
        v[1 : n + 1] = x
        return -np.fft.rfft(v)[1 : n + 1].imag * np.sqrt(2.0 / (n + 1))
    # 2 f_k sum_j x_j sin(pi (k + 1)(2 j + 1) / (2 n)), f_k = 1 / sqrt(2 n) but 1 / sqrt(4 n) at k = n - 1
    scale = np.full(n, np.sqrt(2.0 / n))
    scale[-1] = np.sqrt(1.0 / n)
    v = np.zeros(4 * n)
    if inverse:  # the transpose: k and j swap roles
        v[1 : n + 1] = x * scale
        return -np.fft.rfft(v)[1 : 2 * n : 2].imag
    v[1 : 2 * n : 2] = x
    return -np.fft.rfft(v)[1 : n + 1].imag * scale


def propagate_held_ends(w0: np.ndarray, g1: float, g2: float, times: np.ndarray):
    """Exact motion from rest of a chain of ``2n + 1`` sites, heavy at even
    positions, with both end sites held at their initial values.

    The linear interpolation between the end values is a static solution;
    the rest has zero ends and splits into 2x2 blocks under a sine
    transform per sublattice (DST-I on the heavy interior sites, DST-II on
    the light sites; mode ``n`` is light only, ``Omega^2 = 2 g2``).  Each
    block evolves by ``cos(Omega t)``.  Yields ``(displacement, velocity)``
    per time.
    """
    n = (w0.size - 1) // 2
    s = np.arange(w0.size) / (2 * n)
    static = w0[0] * (1.0 - s) + w0[-1] * s  # exact at both ends
    free = w0 - static
    r1, r2 = np.sqrt(g1), np.sqrt(g2)
    y1 = dst(free[2:-1:2] / r1, 1)
    y2 = dst(free[1::2] / r2, 2)
    om_opt, om_ac, cs, sn = chain_modes(g1, g2, n)
    omega = np.concatenate([om_opt, om_ac, [np.sqrt(2.0 * g2)]])
    z = np.concatenate([cs * y1 + sn * y2[:-1], cs * y2[:-1] - sn * y1, y2[-1:]])

    def sites(coeff: np.ndarray, base: np.ndarray) -> np.ndarray:
        opt, ac, top = coeff[: n - 1], coeff[n - 1 : 2 * n - 2], coeff[2 * n - 2 :]
        out = base.copy()
        out[2:-1:2] += r1 * dst(cs * opt - sn * ac, 1)
        out[1::2] += r2 * dst(np.concatenate([sn * opt + cs * ac, top]), 2, inverse=True)
        return out

    rest = np.zeros_like(w0)
    for t in times:
        phase = omega * t
        yield sites(np.cos(phase) * z, static), sites(-omega * np.sin(phase) * z, rest)
'''


def main() -> None:
    out = io.StringIO()
    out.write('"""Frozen expected values for the test suite.\n\n')
    out.write("Generated by tests/tools/regen_references.py (mpmath, 50 digits,\n")
    out.write("rounded to float64), the sequential Legendre-Bessel ladder the\n")
    out.write("endpoint-sum far-frame rule is compared against, and the held-end chain\n")
    out.write("the ring of integrate_lattice is compared against.  Do not edit by\n")
    out.write("hand; rerun the generator.\n")
    out.write('"""\n\n')
    out.write("import numpy as np\n\n")

    print("lattice constants ...")
    chain_block(out, "DESK_CONSTANTS", DESK)
    chain_block(out, "NACL_CONSTANTS", NACL)

    print("branch tables ...")
    branch_table(out, DESK)

    print("Airy values ...")
    out.write("AIRY_TABLE = {\n")
    for z_str in AIRY_GRID:
        z = mp.mpf(z_str)
        pair = (mp.airyai(z), mp.airyai(z, derivative=1))
        out.write(f"    {fmt(z)}: ({fmt(pair[0])}, {fmt(pair[1])}),\n")
    out.write("}\n\n")

    out.write("AIRY_FAR_TABLE = {\n")
    for z_float in AIRY_FAR_GRID:
        z = mp.mpf(z_float)
        pair = (mp.airyai(z), mp.airyai(z, derivative=1))
        out.write(f"    {fmt(z)}: ({fmt(pair[0])}, {fmt(pair[1])}),\n")
    out.write("}\n\n")

    out.write("AIRY_SCALED_TABLE = {\n")
    for z_str in AIRY_SCALED_GRID:
        z = mp.mpf(z_str)
        val = mp.airyai(z) * mp.e ** (mp.mpf(2) / 3 * z ** mp.mpf("1.5"))
        out.write(f"    {fmt(z)}: {fmt(val)},\n")
    out.write("}\n\n")

    out.write("AIRY_SWITCH_TABLE = {  # z: (Ai, Ai', Ai e^{(2/3) z^{3/2}} or None for z < 0)\n")
    for z_float in (z for pair in AIRY_SWITCH_GRID for z in pair):
        z = mp.mpf(z_float)
        ai, aip = mp.airyai(z), mp.airyai(z, derivative=1)
        scaled = fmt(ai * mp.e ** (mp.mpf(2) / 3 * z ** mp.mpf("1.5"))) if z > 0 else "None"
        out.write(f"    {fmt(z)}: ({fmt(ai)}, {fmt(aip)}, {scaled}),\n")
    out.write("}\n\n")

    out.write("ENVELOPE_PLUS_TABLE = {\n")
    for y_str in ENVELOPE_Y_VALUES:
        out.write(f"    {fmt(mp.mpf(y_str))}: {fmt(envelope_plus(mp.mpf(y_str)))},\n")
    out.write("}\n\n")

    print("sublattice sums ...")
    out.write("GAUSSIAN_SUBLATTICE_SUMS = {\n")
    for d_str, p_str, comp in SEMIDISCRETE_CASES:
        val = gaussian_sublattice_sum(mp.mpf(d_str), mp.mpf(p_str), comp)
        out.write(f"    ({fmt(mp.mpf(d_str))}, {fmt(mp.mpf(p_str))}, {comp}): {fmt(val)},\n")
    out.write("}\n\n")

    print("long-wave integrals ...")
    out.write("LONGWAVE_AMPLITUDES = {\n")
    for h_str, mu_str, t_str, x_str in LONGWAVE_CASES:
        val = longwave_amplitude(
            DESK, mp.mpf(h_str), mp.mpf(mu_str), mp.mpf(x_str), mp.mpf(t_str)
        )
        key = f"({fmt(mp.mpf(h_str))}, {fmt(mp.mpf(mu_str))}, {fmt(mp.mpf(t_str))}, {fmt(mp.mpf(x_str))})"
        out.write(f"    {key}: {fmt(val)},\n")
    out.write("}\n\n")

    print("spline-table transforms (slow) ...")
    out.write("SPLINE_TRANSFORMS = {\n")
    for name, (xs, ys) in spline_tables().items():
        knots = [mp.mpf(v) for v in xs]
        cubics = natural_spline(knots, [mp.mpf(v) for v in ys])
        for p in SPLINE_P_VALUES[name]:
            val = spline_transform(knots, cubics, mp.mpf(p))
            out.write(f'    ("{name}", {p!r}): {fmt(val)},\n')
    out.write("}\n\n")

    print("band quadrature (slow) ...")
    out.write("BAND_SOLUTION = {\n")
    for h_str, mu_str, t_str, x_str in BAND_CASES:
        h, mu, t, x = (mp.mpf(v) for v in (h_str, mu_str, t_str, x_str))
        u, v = band_solution(DESK, h, mu, x, t)
        key = f"({fmt(h)}, {fmt(mu)}, {fmt(t)}, {fmt(x)})"
        out.write(f"    {key}: ({fmt(u)}, {fmt(v)}),\n")
    out.write("}\n")
    out.write(LADDER_SOURCE)
    out.write(CHAIN_SOURCE)

    OUT_PATH.write_text(out.getvalue())
    print(f"wrote {OUT_PATH}")


if __name__ == "__main__":
    main()
