"""Exception types shared across the toolkit."""


class ParameterError(ValueError):
    """A user-supplied parameter is out of range or inconsistent."""


class StageOverflowError(ArithmeticError):
    """A fixed-point stage register exceeded its sized integer width."""

    def __init__(self, stage: int, value: float, limit: float):
        self.stage = stage
        self.value = value
        self.limit = limit
        super().__init__(
            f"stage {stage}: register value {value:g} exceeds integer width limit {limit:g}"
        )


class InternalError(RuntimeError):
    """Invariant the toolkit relies on was violated (likely a bug)."""
