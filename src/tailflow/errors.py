"""Exception types shared across the package."""

__all__ = [
    "DegenerateInputError",
    "ContractViolationError",
    "UndefinedMetricError",
    "InsufficientDataError",
    "SchemaMismatchError",
    "StageError",
]


class DegenerateInputError(ValueError):
    """Input on which the requested quantity is mathematically undefined."""


class ContractViolationError(RuntimeError):
    """An operation was called in a state its contract forbids."""


class UndefinedMetricError(ValueError):
    """A metric has no defined value for these inputs (never coerced to 0)."""


class InsufficientDataError(ValueError):
    """Too few points to satisfy a metric or clustering precondition."""


class SchemaMismatchError(ValueError):
    """Artifacts with incompatible formats were combined."""


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}' failed: {message}")
        self.stage = stage
