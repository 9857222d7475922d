"""Exception types shared across the package.

Two broad families matter to callers: `ConfigError` for bad run
configuration or manifests, and `DataError` for anything wrong with the
measurements themselves.  The command line maps these onto distinct exit
codes, so library code should raise the most specific subclass it can.
"""


class TractvarError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(TractvarError):
    """Invalid run configuration, manifest contents, or option combination."""


class DataError(TractvarError):
    """The input data cannot support the requested computation."""


class CollinearPoints(DataError):
    """Three or more points are collinear where a circle is required."""


class DegenerateFit(DataError):
    """A least-squares system is singular and no circle can be recovered."""


class NoIntersection(DataError):
    """A ray never meets the target polyline."""


class DegenerateAngle(DataError):
    """An angle is requested for a point sitting on its reference center.

    `frame` and `t` name the failing frame (its index and time in
    seconds) when the error comes from a trajectory, else they are None.
    """

    def __init__(self, message, frame=None, t=None):
        super().__init__(message)
        self.frame = frame
        self.t = t


class AnatomyInconsistent(DataError):
    """Derived anatomy violates a sanity bound (for example, a palate
    extension that lands far above the palate itself)."""


class ParseError(DataError):
    """A data file has rows or tokens that cannot be parsed.

    Carries enough position information to point at the offending cell.
    """

    def __init__(self, message, path=None, line=None, column=None):
        location = ""
        if path is not None:
            location = str(path)
            if line is not None:
                location += f":{line}"
                if column is not None:
                    location += f" ({column})"
            location = f"{location}: "
        super().__init__(f"{location}{message}")
        self.path = path
        self.line = line
        self.column = column


class SchemaError(DataError):
    """A file header does not match the expected column schema."""


class DegenerateTrace(DataError):
    """An anatomical trace has too few distinct points: fewer than two
    for any trace, or fewer than three for a palate's reference circle.
    Also raised for a segment too long or too short for floating-point
    arithmetic, and for an anterior wall whose shift merges two points."""


class InsufficientData(DataError):
    """Too few valid samples to resample or interpolate."""


class LengthMismatch(DataError):
    """Two series that must align have different lengths."""


class TimebaseMismatch(DataError):
    """Two trajectories disagree on frame timestamps."""


class ZeroVariance(DataError):
    """A correlation was requested for a constant series."""
