"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input violates a documented precondition or format contract."""


class InvariantError(RuntimeError):
    """A result failed a check the code guarantees: a bug, not bad input."""


class BudgetExceededError(RuntimeError):
    """An enumeration exceeded its configured budget.

    Carries enough context to report what was attempted and how far over
    budget it was.
    """

    def __init__(self, message: str, *, needed=None, budget=None):
        super().__init__(message)
        self.needed = needed
        self.budget = budget
