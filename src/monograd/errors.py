"""Exception hierarchy shared across the package."""


class MonogradError(Exception):
    pass


class DimensionMismatchError(MonogradError, ValueError):
    """Operands live in polynomial rings with different variable counts."""


class DomainError(MonogradError, ValueError):
    """Input is outside the mathematical domain of the operation."""


class CapsFormatError(MonogradError, ValueError):
    """The MONOGRAD_CAPS environment variable cannot be parsed."""


class ExponentOverflowError(MonogradError, OverflowError):
    """An exponent exceeds the supported bound 2**31 - 1."""


class ResourceCapError(MonogradError, RuntimeError):
    """A configured enumeration/search cap would be exceeded.

    The message names the cap so callers can raise it via MONOGRAD_CAPS.
    """

    def __init__(self, cap_name, limit, needed):
        self.cap_name = cap_name
        self.limit = limit
        self.needed = needed
        super().__init__(
            f"cap '{cap_name}' exceeded: need {needed}, limit {limit}"
        )
