"""Frozen expected values for the test suite.

Generated by tests/tools/regen_references.py (mpmath, 50 digits,
rounded to float64), the sequential Legendre-Bessel ladder the
endpoint-sum far-frame rule is compared against, and the held-end chain
the ring of integrate_lattice is compared against.  Do not edit by
hand; rerun the generator.
"""

import numpy as np

DESK_CONSTANTS = {
    "gamma1": 0.82,
    "gamma2": 1.27,
    "sound_speed": 0.9982760259184055,
    "dispersion_coefficient": 0.14213909350059575,
    "p_star": 1.194451224471967,
    "c_star": 0.47266400007130815,
    "q_star": 1.307489080700043,
    "acoustic_top": 1.2806248474865698,
    "optical_bottom": 1.5937377450509227,
    "optical_top": 2.0445048300260873,
}

NACL_CONSTANTS = {
    "gamma1": 0.8239795918367347,
    "gamma2": 1.2716535433070866,
    "sound_speed": 1.0,
    "dispersion_coefficient": 0.14211293120800544,
    "p_star": 1.1960722961848849,
    "c_star": 0.4746381532001611,
    "q_star": 1.3167774076603411,
    "acoustic_top": 1.2837286254008162,
    "optical_bottom": 1.5947749329025,
    "optical_top": 2.0472582324386055,
}

DESK_BRANCHES = {
    0.3: {"omega1": 0.2981996567398807, "omega1_d1": 0.9854173055539583, "omega1_d2": -0.08619506047949498, "omega1_d3": -0.293989419766725, "omega2": 2.0226410864807964, "omega2_d1": -0.14528089250525483, "omega2_d2": -0.4778160954132599, "omega2_d3": 0.06636333619495002, "legendre": 0.0025744650736931694},
    1.0: {"omega1": 0.9481409695093932, "omega1_d1": 0.8385489027723652, "omega1_d2": -0.3896261794682886, "omega1_d3": -0.910581127196703, "omega2": 1.8113610081752858, "omega2_d1": -0.4389310391839294, "omega2_d2": -0.29061251378200004, "omega2_d3": 0.8064899950893036, "legendre": 0.10959206673702808},
    1.4: {"omega1": 1.2336168364481537, "omega1_d1": 0.4977067439470937, "omega1_d2": -1.9249713775686361, "omega1_d3": -10.839635308428571, "omega2": 1.6303955044196023, "omega2_d1": -0.3765831157425161, "omega2_d2": 1.2175881555337038, "omega2_d3": 10.80826075828623, "legendre": 0.5368273949222225},
}

AIRY_TABLE = {
    -20.0: (-0.1764061270779847, 0.8928628567364713),
    -15.5: (-0.16644795409041976, 0.9049379354302122),
    -12.25: (-0.2676446988271423, 0.48087136842700445),
    -9.1: (0.0749598872735548, -0.9514968154519177),
    -7.4: (0.34132375223233863, 0.07027632364326596),
    -7.39: (0.34190020373463215, 0.045012565776775676),
    -6.0: (-0.3291451736298231, 0.3459354872813429),
    -4.2: (0.08921076323945058, -0.7822156078624519),
    -3.0: (-0.37881429367765806, 0.3145837692165988),
    -1.5: (0.4642565777488694, 0.3091869672024104),
    -0.7: (0.5110003975750101, -0.14464128564332102),
    0.0: (0.3550280538878172, -0.2588194037928068),
    0.4: (0.2547423542956763, -0.23583203441920822),
    1.3: (0.09347466577150271, -0.12033386559018358),
    2.6: (0.013289282529671485, -0.022561310886108746),
    4.0: (0.0009515638512048018, -0.001958640950204179),
    5.5: (3.368531190859981e-05, -8.046339130556515e-05),
    7.4: (2.5271719392667526e-07, -6.957555402080593e-07),
    8.2: (2.6397418340282783e-08, -7.63753298418618e-08),
    12.0: (1.3931846888753607e-13, -4.854736554985309e-13),
}

AIRY_FAR_TABLE = {
    -10000000.0: (0.005418514944210602, -26.701707811976565),
    -100000.0: (-0.013152978737498166, -9.130078851932488),
    -10000.5: (0.039073073429533756, 4.069886768580614),
    -10000.0: (0.02705738360464258, 4.950755017249123),
    -9999.999999999998: (0.02705738361364795, 4.950755016756952),
    -9999.5: (0.013085787097520297, 5.487978116202853),
    9999.5: (0.0, -0.0),
    9999.999999999998: (0.0, -0.0),
    10000.0: (0.0, -0.0),
    10000.5: (0.0, -0.0),
    100000.0: (0.0, -0.0),
    10000000.0: (0.0, -0.0),
}

AIRY_SCALED_TABLE = {
    0.0: 0.3550280538878172,
    0.9: 0.26836433315114366,
    3.0: 0.210572042785977,
    6.0: 0.1790284074132101,
    6.1: 0.17831836144035418,
    20.0: 0.1332404073518136,
    60.0: 0.10133514029752555,
    200.0: 0.07501041684381093,
    9999.5: 0.028209828868155082,
    10000.0: 0.028209476238902756,
    10000.5: 0.028209123631689054,
    100000.0: 0.015863355851287307,
    10000000.0: 0.005016433598890524,
    1000000000000.0: 0.00028209479177387816,
}

AIRY_SWITCH_TABLE = {  # z: (Ai, Ai', Ai e^{(2/3) z^{3/2}} or None for z < 0)
    1.6: (0.06253690796893195, -0.08699590844810412, 0.2410478299425334),
    1.5999999999999999: (0.06253690796893197, -0.08699590844810415, 0.2410478299425334),
    -3.5: (-0.37553382314043193, -0.34344343345404815, None),
    -3.4999999999999996: (-0.37553382314043204, -0.34344343345404754, None),
    3.196520469193838: (0.004597089368534448, -0.008546810500639778, 0.2075606024970185),
    3.1965204691938376: (0.004597089368534452, -0.008546810500639785, 0.2075606024970185),
    6.402407948082113: (3.5954628392617e-06, -9.233012142230687e-06, 0.17625246883669834),
    6.4024079480821126: (3.5954628392617083e-06, -9.233012142230707e-06, 0.17625246883669837),
    20.987764981862732: (1.9105584921546596e-29, -8.775340362995459e-29, 0.131654778955235),
    20.98776498186273: (1.910558492154691e-29, -8.775340362995601e-29, 0.131654778955235),
    -4.18618333892763: (0.07836887496279578, -0.7870704276727783, None),
    -4.186183338927629: (0.07836887496279508, -0.7870704276727787, None),
    -7.207544175768551: (0.30891284981732375, -0.39741854283424144, None),
    -7.20754417576855: (0.3089128498173234, -0.39741854283424344, None),
    -20.54889972264527: (0.013886084943063025, -1.1994104638790115, None),
    -20.548899722645267: (0.013886084943058763, -1.1994104638790126, None),
}

ENVELOPE_PLUS_TABLE = {
    0.3: complex(0.7642522376216956, -0.36669383236818937),
    2.0: complex(0.37575516797220293, 0.9611957256442313),
    30.0: complex(-0.5914159119993118, -0.8096651551827773),
}

GAUSSIAN_SUBLATTICE_SUMS = {
    (1.0, 0.0, 1): 1.2713415221890152,
    (1.0, 0.0, 2): 1.2352867658538904,
    (1.0, 0.4, 1): 1.1885583865267166,
    (1.0, 0.4, 2): 1.1253512250234552,
    (1.0, 1.2, 1): 0.8004679491088329,
    (1.0, 1.2, 2): 0.41964515988356743,
    (0.5, 0.7, 1): 1.961949753065112,
    (0.5, 0.7, 2): 1.9619488994130239,
    (0.05, 0.0, 1): 25.066282746310005,
    (0.05, 0.0, 2): 25.066282746310005,
    (0.05, 1.3, 1): 10.767406196668357,
    (0.05, 1.3, 2): 10.767406196668357,
    (0.05, 7.5, 1): 1.5295287006093453e-11,
    (0.05, 7.5, 2): 1.5295287006093453e-11,
    (0.005, 0.0, 1): 250.66282746310006,
    (0.005, 0.0, 2): 250.66282746310006,
    (0.005, 1.3, 1): 107.67406196668357,
    (0.005, 1.3, 2): 107.67406196668357,
    (0.005, 7.5, 1): 1.5295287006093453e-10,
    (0.005, 7.5, 2): 1.5295287006093453e-10,
}

LONGWAVE_AMPLITUDES = {
    (0.02, 0.2, 0.5, 0.0): 0.04398627765299032,
    (0.02, 0.2, 0.5, 0.45): 0.48555110780671495,
    (0.02, 0.2, 0.5, 0.52): 0.49709953582106603,
}

SPLINE_TRANSFORMS = {
    ("uniform", 0.0): complex(0.9999999999974614, 0.0),
    ("uniform", 1e-09): complex(0.9999999999974614, -9.999999999974614e-10),
    ("uniform", 0.001): complex(0.9999989999978781, -0.0009999993333310116),
    ("uniform", 0.5): complex(0.7744638859057511, -0.42309154916440916),
    ("uniform", 9.9999): complex(-3.4671471239876806e-13, 2.247444441344938e-13),
    ("uniform", 10.0001): complex(-3.4836064492806807e-13, 2.2591032728286524e-13),
    ("uniform", 60.799): complex(-7.056797437444494e-08, 1.4169906114428482e-07),
    ("uniform", 1000.0): complex(5.471714546308666e-15, -8.045194070579144e-15),
    ("uniform", 4096.0): complex(3.4722443400194736e-15, 2.5681173899022306e-15),
    ("graded", 0.0): complex(0.9999999742655055, 0.0),
    ("graded", 1e-09): complex(0.9999999742655055, -6.99999981431481e-10),
    ("graded", 0.001): complex(0.9999992292664369, -0.0006999995742652784),
    ("graded", 0.5): complex(0.82899360464282, -0.30260627392934314),
    ("graded", 5.5078): complex(-1.9529179116414086e-07, 1.662964823233714e-07),
    ("graded", 5.5079): complex(-1.951725823722044e-07, 1.6621733219303957e-07),
    ("graded", 28.1896): complex(-1.9329460783628886e-12, -1.8365260704771685e-12),
    ("graded", 28.1897): complex(-1.9318050070399585e-12, -1.8376328761141466e-12),
    ("graded", 43.642): complex(5.106594652363654e-08, 8.855551120124708e-09),
    ("graded", 1000.0): complex(4.26799421505815e-13, -3.779681443565436e-13),
    ("graded", 4096.0): complex(9.916460261922849e-15, 1.528977665443478e-14),
}

BAND_SOLUTION = {
    (0.05, 0.05, 0.25, 0.0): (0.05637705769672425, 0.02376270853524426),
    (0.05, 0.05, 0.25, 0.02): (0.038530824654338894, 0.017470176118693267),
    (0.0025, 0.05, 0.25, 0.25): (0.5000253637970669, 0.49989042686296126),
}


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
