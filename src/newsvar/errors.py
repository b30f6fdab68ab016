"""Exception types shared across the toolkit.

Everything derives from :class:`NewsvarError` so callers (and the CLI) can
separate data/model failures from ordinary usage mistakes.
"""


class NewsvarError(Exception):
    """Base class for all data and model errors raised by this package."""


class SeriesError(NewsvarError):
    """Malformed series: interior gaps, bad length, or inconsistent labels."""


class FrequencyError(NewsvarError):
    """Operation requested at an incompatible frequency."""


class AlignmentError(NewsvarError):
    """Series do not share the periods required by the operation."""


class DomainError(NewsvarError):
    """Value outside the mathematical domain of the transform."""


class NormalizationError(NewsvarError):
    """Normalization window has no positive maximum."""


class DegenerateDataError(NewsvarError):
    """An input has no variation where variation is required."""


class SampleError(NewsvarError):
    """Too few observations for the requested estimation."""


class CollinearityError(NewsvarError):
    """Regressor matrix is rank deficient."""


class NonstationaryError(NewsvarError):
    """Dynamics requested from a nonstationary process."""


class GapError(NewsvarError):
    """Months with no publishing days leave a gap in the month run."""


class ModelSpecError(NewsvarError):
    """Model specification references unknown variables or invalid settings."""


class BootstrapError(NewsvarError, RuntimeError):
    """Too many bootstrap replications failed to re-estimate."""

