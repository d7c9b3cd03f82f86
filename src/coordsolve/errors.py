"""Exception types shared across the package, and the one budget rule every
capped exponential path follows.

A constructor that checks the range of one of its arguments raises
FieldError, a ValueError that names the argument and, when one entry is at
fault, its index; the CLI reads both to print the document path."""

# The default cap on every budgeted path, in the CLI and in the library.
DEFAULT_BUDGET = 10**7


class PreconditionError(Exception):
    """An operation was called on inputs outside its contract."""


class FieldError(ValueError):
    """An argument of a constructor is out of range: entry `index` of
    argument `field`, or the whole argument when `index` is None."""

    def __init__(self, field, index, message):
        super().__init__(message)
        self.field = field
        self.index = index


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
