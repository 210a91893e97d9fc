"""Exception types shared across the package."""


class DimensionError(ValueError):
    """A tensor, profile, or index does not match the game's shape."""


class ParameterError(ValueError):
    """A numeric parameter is outside its valid range."""


class IncompleteDataError(ValueError):
    """Preference data does not cover every required cell.

    The missing (prompt, model pair) keys are available on ``missing``.
    """

    def __init__(self, message: str, missing: list):
        super().__init__(message)
        self.missing = missing


class ConvergenceError(RuntimeError):
    """An iterative solver hit its step cap before meeting its tolerance.

    Diagnostic state is attached so callers can inspect how far the solve
    got: ``iterate`` (last point), ``gradient_norm`` and ``trace`` are set
    by whichever solver raised.
    """

    def __init__(self, message: str, iterate=None, gradient_norm=None, trace=None):
        super().__init__(message)
        self.iterate = iterate
        self.gradient_norm = gradient_norm
        self.trace = trace

