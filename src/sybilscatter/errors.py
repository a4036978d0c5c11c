"""Exception types shared across the package.

Everything that signals bad caller input derives from ValueError so that
generic callers can catch one base class; conditions that arise from the
data itself (an undecodable trace, a diverging fit) get their own branch
off RuntimeError because callers are expected to handle them as part of
normal operation, not as programming errors.
"""


class ParameterError(ValueError):
    """A scalar argument is outside its documented domain."""


class GeometryError(ValueError):
    """Tag layout or placement violates its geometric constraints."""


class TrajectoryError(ValueError):
    """Waypoint list is malformed (ordering, speed consistency)."""


class TrajectoryRangeError(ValueError):
    """Queried time falls outside the trajectory's time span."""


class IdentityError(ValueError):
    """Identity is unknown, duplicated, or inconsistent with its agent."""


class ConfigError(ValueError):
    """Scenario or experiment configuration fails validation."""


class ShapeError(ValueError):
    """Array arguments have inconsistent dimensions."""


class MaskError(ValueError):
    """A reflect mask does not mark both sample classes."""


class SegmentationError(RuntimeError):
    """Correlation peak too weak to locate the backscatter region.

    Raised for undecodable traces; callers drop the trace and move on.
    """


class DegenerateSignatureError(RuntimeError):
    """Extracted reflection vector is identically zero; cannot normalize."""


class InsufficientDataError(RuntimeError):
    """Fewer valid signatures than a profile requires.

    The identity stays unverified; this is not a rejection.
    """


class DegenerateCenteringError(ValueError):
    """A centered vector has (numerically) zero norm.

    ``side`` records which argument collapsed: "first" for the vector whose
    profile supplied the center, "second" for the other one.
    """

    def __init__(self, message, side):
        super().__init__(message)
        self.side = side


class TrainingDataError(ValueError):
    """Training set is empty or contains only one class."""


class TrainingDivergenceError(RuntimeError):
    """Scores or gradient became non-finite during gradient ascent."""


class MetricsUndefinedError(ValueError):
    """A metric's denominator is empty (e.g. no positive robots)."""
