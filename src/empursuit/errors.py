"""Exception types shared across the package."""

__all__ = ["EmpursuitError", "DataFormatError", "DegenerateSignalError", "ZeroAtomError"]


class EmpursuitError(Exception):
    """Base class for all package errors."""


class DataFormatError(EmpursuitError):
    """Unreadable, malformed, or version-incompatible input file."""


class DegenerateSignalError(EmpursuitError):
    """A signal has zero energy where nonzero energy is required."""


class ZeroAtomError(EmpursuitError):
    """An atom waveform is identically zero and cannot be normalized.

    Raised by ``extnorm`` so the learner can re-randomize the atom instead
    of silently producing NaNs.
    """
