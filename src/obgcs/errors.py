"""Exception types shared across the package."""


class ObgcsError(Exception):
    """Base class for package-specific failures."""


class ShapeError(ObgcsError, ValueError):
    """Array dimensions are inconsistent with the declared layout."""


class MalformedFileError(ObgcsError, ValueError):
    """A container file is truncated or its header cannot be parsed."""


class DimensionMismatchError(ObgcsError, ValueError):
    """A file header declares dimensions that disagree with the payload."""


class NonFiniteError(ObgcsError, ValueError):
    """NaN or infinity encountered where finite values are required."""


class CapacityError(ObgcsError, ValueError):
    """A construction was asked for more than its size budget supports."""


class DivergenceError(ObgcsError, RuntimeError):
    """An iterative solver produced a non-finite loss."""

    def __init__(self, message, restart=None, step=None):
        super().__init__(message)
        self.restart = restart
        self.step = step


class DegenerateConeError(ObgcsError, RuntimeError):
    """A direction set came out empty, so no mean width can be estimated."""
