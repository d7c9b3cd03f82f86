"""Exception types shared across the package, and the one budget rule every
capped exponential path follows."""

# The default cap on every budgeted path, in the CLI and in the library.
DEFAULT_BUDGET = 10**7


class PreconditionError(Exception):
    """An operation was called on inputs outside its contract."""


class ResourceLimitError(Exception):
    """The computation would exceed the configured evaluation budget."""

    def __init__(self, message, size=None):
        super().__init__(message)
        self.size = size


def charge(cost, budget, message):
    """Refuse work of `cost` units under `budget`: raise ResourceLimitError
    with `message` and size `cost` when the cost exceeds the budget."""
    if cost > budget:
        raise ResourceLimitError(message, size=cost)
