"""Exception hierarchy shared across the package."""


class LcengineError(Exception):
    """Base class for all errors raised by lcengine."""


class ShapeError(LcengineError):
    """A grid or series does not conform to the expected scenario/time shape."""


class DistributionError(LcengineError):
    """Invalid distribution family or parameters."""


class MissingDataError(LcengineError):
    """A flow or substance has no resolvable unit value or factor."""


class InvalidModelError(LcengineError):
    """A calculation was requested on a model that fails validation.

    Carries the offending ``ValidationReport`` in ``report``.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class StaticModeError(LcengineError):
    """The static calculator was given inputs that need the matrix path."""


class LoadError(LcengineError):
    """A model, database or factor file could not be parsed.

    ``path`` names the offending file; ``line`` is 1-based when known.
    ``report`` is the ``ValidationReport`` when the file parsed but the
    model fails structural validation, else None.
    """

    def __init__(self, message, path=None, line=None, report=None):
        super().__init__(message)
        self.path = path
        self.line = line
        self.report = report

    def __str__(self):
        prefix = ""
        if self.path is not None:
            prefix = f"{self.path}: "
            if self.line is not None:
                prefix = f"{self.path}:{self.line}: "
        return prefix + super().__str__()
