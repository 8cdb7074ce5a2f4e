"""Exception hierarchy for bettibounds.

Everything raised on bad mathematical input derives from :class:`BettiError`,
so callers (and the CLI) can catch one base class.  Parse errors for the BT1
table format are kept separate because they map to a different exit code.
"""


class BettiError(Exception):
    """Base class for all bettibounds errors."""


class DomainError(BettiError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class NegativeEntry(BettiError):
    """A table subtraction produced a negative entry."""

    def __init__(self, position, value):
        self.position = position
        self.value = value
        super().__init__(f"entry at {position} would become negative ({value})")


class GapColumn(BettiError):
    """A column with index below the projective dimension is empty."""

    def __init__(self, column):
        self.column = column
        super().__init__(f"column {column} is empty but lies below the projective dimension")


class NotIncreasing(BettiError):
    """The column minima of a table fail to be strictly increasing."""


class ChainViolation(BettiError):
    """The degree sequences produced by peeling do not form a strict chain."""


class NotInBSCone(BettiError):
    """The table admits no decomposition into a chain of pure diagrams."""


class TooLarge(BettiError):
    """An exact factor of a bound, C(n, k) or n**k, would exceed the digit budget."""

    def __init__(self, n, k, digit_budget, power=False):
        self.n = n
        self.k = k
        self.digit_budget = digit_budget
        self.factor = f"{n}**{k}" if power else f"C({n}, {k})"
        super().__init__(
            f"{self.factor} exceeds the exact-arithmetic budget of "
            f"{digit_budget} decimal digits; use the digit-bracket estimator"
        )


class TableFormatError(BettiError):
    """A BT1 table file does not conform to the grammar."""
