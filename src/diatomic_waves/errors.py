"""Exception types shared across the package.

The command-line interface maps these onto process exit codes:
configuration/usage problems exit with 2, numerical failures with 3.
"""

from __future__ import annotations


class DiatomicWavesError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(DiatomicWavesError):
    """Invalid parameters, malformed config files, or unusable inputs."""


class RegimeError(ConfigError):
    """An evaluator was asked to run outside its regime of validity.

    Examples: a long-wave asymptotic evaluator invoked when the dispersion
    ratio ``h**2 / mu**3`` is in the strong-dispersion range, or a
    short-wave evaluator invoked when the lattice spacing and the profile
    width are not matched (``delta != 1``).
    """


class NumericalError(DiatomicWavesError):
    """A numerical procedure failed to reach its accuracy target."""


class QuadratureError(NumericalError):
    """Panel refinement did not converge within the doubling budget."""


class BoundaryError(NumericalError):
    """The lattice simulation domain was too small: the wave packet
    reached the fixed boundary sites within the requested time span."""


class ChainSizeError(NumericalError):
    """A lattice an oracle would need exceeds the site limit: the time-domain
    chain for the requested times, or the sites a sublattice sum spans."""
