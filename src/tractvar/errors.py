"""Exception types shared across the package.

Two broad families matter to callers: `ConfigError` for bad run
configuration or manifests, and `DataError` for anything wrong with the
measurements themselves.  The command line maps these onto distinct exit
codes.  A subclass exists only where some code acts on the difference:
`ParseError` carries the position of a bad cell, and `DegenerateAngle`
the frame that failed.  Anything else is told apart by its message.
"""


class TractvarError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(TractvarError):
    """Invalid run configuration, manifest contents, or option combination."""


class DataError(TractvarError):
    """The input data cannot support the requested computation."""


class DegenerateAngle(DataError):
    """An angle is requested for a point sitting on its reference center.

    `frame` and `t` name the failing frame (its index and time in
    seconds) when the error comes from a trajectory, else they are None.
    """

    def __init__(self, message, frame=None, t=None):
        super().__init__(message)
        self.frame = frame
        self.t = t


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
