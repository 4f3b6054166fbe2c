"""Wave propagation in a 1D diatomic chain: oracles and Airy asymptotics.

The package models the evolution of a smooth initial displacement on a
chain of alternating heavy/light masses, in the three regimes set by the
ratio ``delta = h / mu`` of lattice step to excitation width:

* ``oracles`` — brute-force references: exact modal propagation of the
  chain and Brillouin-zone mode-synthesis quadrature;
* ``longwave`` — ``delta << 1`` weak-dispersion closed forms (Airy-kernel
  integral, Gaussian/Airy convolution, d'Alembert limit);
* ``shortwave`` — ``delta = 1`` acoustic/optical front and uniform
  Airy-envelope evaluators;
* ``dispersion``, ``initial_data``, ``airy`` — the shared machinery:
  branch frequencies and modal projectors, semi-discrete spectral data,
  and the Airy function (series, Laplace integral and large-argument tail,
  all in numpy).

The package holds what these computations and the ``diatomic-waves``
command use.  The checks no command runs (finite-difference PDE residuals,
the sampling-gap report, ``Ai'`` alone) live with the tests, in
``tests/_diagnostics.py``.
"""

from .airy import (
    AIRY_AI_PRIME_ZERO,
    AIRY_AI_ZERO,
    airy_ai,
    airy_ai_pair,
    airy_ai_scaled,
    envelope_amplitude,
)
from .dispersion import (
    ACOUSTIC,
    OPTICAL,
    CriticalPoint,
    Dispersion,
    LatticeParams,
)
from .errors import (
    BoundaryError,
    ChainSizeError,
    ConfigError,
    DiatomicWavesError,
    NumericalError,
    QuadratureError,
    RegimeError,
)
from .initial_data import (
    GaussianProfile,
    InitialProfile,
    TableProfile,
    load_profile_table,
    semi_discrete_ft,
    spectral_vector,
)
from .longwave import (
    LongwaveRegime,
    classify_regime,
    uas_dalembert,
    uas_gaussian_airy,
    uas_integral,
)
from .oracles import (
    EnergyReport,
    FieldComparison,
    LatticeState,
    WaveField,
    compare_fields,
    integrate_lattice,
    read_fields_csv,
    solve_quadrature,
    write_fields_csv,
)
from .shortwave import (
    StationaryPoints,
    acoustic_front_airy,
    acoustic_stationary,
    acoustic_uniform,
    optical_front_airy,
    optical_stationary,
    optical_uniform,
    shortwave_total,
)

__version__ = "0.1.0"

__all__ = [
    "ACOUSTIC",
    "AIRY_AI_PRIME_ZERO",
    "AIRY_AI_ZERO",
    "OPTICAL",
    "BoundaryError",
    "ChainSizeError",
    "ConfigError",
    "CriticalPoint",
    "DiatomicWavesError",
    "Dispersion",
    "EnergyReport",
    "FieldComparison",
    "GaussianProfile",
    "InitialProfile",
    "LatticeParams",
    "LatticeState",
    "LongwaveRegime",
    "NumericalError",
    "QuadratureError",
    "RegimeError",
    "StationaryPoints",
    "TableProfile",
    "WaveField",
    "airy_ai",
    "airy_ai_pair",
    "airy_ai_scaled",
    "acoustic_front_airy",
    "acoustic_stationary",
    "acoustic_uniform",
    "classify_regime",
    "compare_fields",
    "envelope_amplitude",
    "integrate_lattice",
    "load_profile_table",
    "optical_front_airy",
    "optical_stationary",
    "optical_uniform",
    "read_fields_csv",
    "semi_discrete_ft",
    "shortwave_total",
    "solve_quadrature",
    "spectral_vector",
    "uas_dalembert",
    "uas_gaussian_airy",
    "uas_integral",
    "write_fields_csv",
]
