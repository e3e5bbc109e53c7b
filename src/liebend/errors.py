"""Exception types shared across the package."""


class LieBendError(Exception):
    pass


class ParameterError(LieBendError, ValueError):
    """Invalid family parameters, partitions, or plan inputs."""


class ShapeError(LieBendError, ValueError):
    """Matrix size mismatch."""


class MembershipError(LieBendError, ValueError):
    """Element outside the Lie algebra (or group) beyond tolerance."""


class RealizationError(LieBendError, ValueError):
    """Computed data violates the structure the realization guarantees."""


class GenusConditionError(LieBendError, ValueError):
    """Bending plan needs a larger genus than the surface group provides."""

