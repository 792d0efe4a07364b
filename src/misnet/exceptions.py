"""Exception types shared across the package."""


class MisnetError(Exception):
    """Base class for all package errors."""


class InvalidRates(MisnetError):
    """Misclassification rates outside the admissible region (r0, r1 >= 0, r0 + r1 < 1)."""


class NonConvergence(MisnetError):
    """Fixed-point iteration did not reach the residual tolerance within ``max_iter`` steps."""

    def __init__(self, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"equilibrium iteration stopped after {iterations} iterations "
            f"with residual {residual:.3e}; retry with a larger max_iter, "
            "or, where contraction_bound >= 1, with smaller damping"
        )


class EmptyCell(MisnetError):
    """A covariate support point with no observed pairs; estimation cannot proceed."""

    def __init__(self, cell: int):
        self.cell = cell
        super().__init__(f"covariate cell {cell} contains no pairs")


class DegenerateVariance(MisnetError):
    """Variance matrix is (numerically) singular; the test statistic is undefined."""


class ConfigError(MisnetError):
    """Invalid or missing configuration input."""


class FileFormatError(MisnetError):
    """A data file failed to parse; carries the offending line number."""

    def __init__(self, path, line: int, message: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


class TooManyFailures(MisnetError):
    """More than the tolerated share of Monte Carlo replications failed."""
