"""Exception types shared across the package."""


class HankelLiftError(Exception):
    """Base class for all package-specific failures."""


class ZeroOutsideDisk(HankelLiftError):
    """A Blaschke zero lies outside the admissible disk |alpha| < 1 - delta_min."""


class NonUnimodularConstant(HankelLiftError):
    """The leading constant of a Blaschke product is not unimodular."""


class AmbiguousMatching(HankelLiftError):
    """Zero matching under the given tolerance has more than one resolution."""


class TailBoundExceeded(HankelLiftError):
    """A certified truncation tail bound exceeds the requested target."""


class GeneratorNotMaterialized(HankelLiftError):
    """Operation requires a Laurent-form symbol; materialize the generator first."""


class WindowTooSmall(HankelLiftError):
    """Coefficient window is too small for an exact (or certified) result."""


class NoConvergence(HankelLiftError):
    """Iterative norm computation hit its iteration cap."""


class AmbiguousRank(HankelLiftError):
    """Singular values show no decisive gap around the rank cut."""


class OrderMismatch(HankelLiftError):
    """Operands were built at different truncation orders."""


class KernelNotBeurling(HankelLiftError):
    """Numerical Hankel kernel does not align with any candidate w*H^2 section."""


class ConfigInvalid(HankelLiftError):
    """Experiment configuration failed validation."""


class UnsupportedFormat(HankelLiftError):
    """Requested report format is not one of json / csv-summary / text."""
