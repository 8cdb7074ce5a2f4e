"""Exception hierarchy for bettibounds.

Everything raised on bad mathematical input derives from :class:`BettiError`,
so callers (and the CLI) can catch one base class.  Parse errors for the BT1
table format are kept separate because they map to a different exit code.
"""


class BettiError(Exception):
    """Base class for all bettibounds errors."""


class DomainError(BettiError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class NotInBSCone(BettiError):
    """The table admits no decomposition into a chain of pure diagrams.

    ``reason`` names the failure: ``"gap column"`` (a column below the
    projective dimension is empty) or ``"minima not increasing"`` (the column
    minima of the table, or of a remainder of the greedy peel, fail to
    increase strictly).
    """

    def __init__(self, reason, detail):
        super().__init__(reason, detail)  # args that pickling passes back
        self.reason = reason

    def __str__(self):
        return f"table is not in the cone of pure diagrams: {self.args[1]}"


class TooLarge(BettiError):
    """An exact factor of a bound, C(n, k) or n**k, would exceed the digit budget."""

    def __init__(self, n, k, digit_budget, power=False):
        super().__init__(n, k, digit_budget, power)  # args that pickling passes back
        self.n = n
        self.k = k
        self.digit_budget = digit_budget
        self.factor = f"{n}**{k}" if power else f"C({n}, {k})"

    def __str__(self):
        return (f"{self.factor} exceeds the exact-arithmetic budget of "
                f"{self.digit_budget} decimal digits; use the digit-bracket estimator")


class TableFormatError(BettiError):
    """A BT1 table file does not conform to the grammar."""
