"""Exception types shared across the package."""


class FeatureFileError(ValueError):
    """Raised when a binary feature-vector file is malformed."""


class ObjectMapError(ValueError):
    """Raised when a point-to-object mapping is inconsistent with the loaded points."""


class ParameterError(ValueError):
    """Raised when derived or user-supplied parameters are out of their valid range."""


class IndexFileError(ValueError):
    """Raised when an index file fails validation (bad magic, version, or checksum)."""


class ProfileFileError(ValueError):
    """Raised when a frequency profile file is unreadable or does not fit the index."""


class NonFiniteCoordinateError(ValueError):
    """Raised when a feature point has a NaN or infinite coordinate."""


class UnknownObjectError(ValueError):
    """Raised when an object id names no object of the dataset."""
