"""Exception hierarchy. Each class carries the CLI exit code it maps to:
3 (data) unless a class below says otherwise."""


class SqcorrError(Exception):
    """Base class for all package errors."""

    exit_code = 3


class InvalidParameterError(SqcorrError):
    """A physical or configuration parameter is out of its allowed range."""

    exit_code = 2


class TruncationError(SqcorrError):
    """Number-basis truncation failed to stabilize below the dimension ceiling."""

    exit_code = 4


class DegenerateStateError(SqcorrError):
    """Correlations are undefined for this state (e.g. vacuum, mean photon 0)."""


class DataFormatError(SqcorrError):
    """A tag file or dataset does not conform to the declared format."""


class EmptyChannelError(DataFormatError):
    """A requested detector channel contains no tags."""


class InsufficientSatellitesError(SqcorrError):
    """Too few usable satellite peaks to normalize a correlation histogram."""


class PoorNormalizationError(SqcorrError):
    """Satellite-peak coefficient of variation exceeds the configured limit."""


class DegenerateFitError(SqcorrError):
    """A regression target is underdetermined (too few or collinear points)."""


class NoConvergenceError(SqcorrError):
    """Every optimizer start exhausted its evaluation budget."""

    exit_code = 4
