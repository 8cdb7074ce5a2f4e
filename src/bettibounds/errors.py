"""Exception hierarchy for bettibounds.

Everything raised on bad mathematical input derives from :class:`BettiError`,
so callers (and the CLI) can catch one base class.  Parse errors for the BT1
table format are kept separate because they map to a different exit code.

The library boundary has one rule, kept here: an integer argument is read with
``operator.index`` and a rational one with :func:`rational`, so a float or a
text is a ``TypeError`` and never parsed or truncated.  Messages show every
value through :func:`shown`, so none echoes a text or formats a number longer
than 40 characters.
"""

from fractions import Fraction
from numbers import Rational


def _digits(n: int) -> int:
    """Decimal digits of abs(n) (0 for 0), from its bit length and one power of 10."""
    n = abs(n)
    count = n.bit_length() * 30102999566398119522 // 10**20 + 1  # constant > log10(2)
    return count - (n < 10 ** (count - 1))


def rational(value) -> Fraction:
    """``value`` as a Fraction if it is an int or a Fraction; TypeError otherwise."""
    if isinstance(value, Fraction):
        return value
    if not isinstance(value, Rational):
        raise TypeError(f"expected an int or a Fraction, got {type(value).__name__}")
    return Fraction(value)


def shown(value) -> str:
    """How a message shows ``value``: a text quoted and an int, a Fraction or a
    tuple of ints as ``str`` gives it, or past 40 characters the text's length,
    the number's sign and digit counts or the tuple's length, found without
    int->str."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 40 else f"a text of {len(value)} characters"
    if isinstance(value, tuple):  # str: each entry and ", ", the last ", " standing for "()"
        width = sum((x < 0) + (_digits(x) or 1) + 2 for x in value) + (len(value) == 1)
        return str(value) if width <= 40 else f"<a tuple of length {len(value)}>"
    num, den = value.as_integer_ratio()
    top, bottom = _digits(num), _digits(den)
    if (num < 0) + top + (den != 1) * (1 + bottom) <= 40:
        return str(value)
    article = "a negative" if num < 0 else "an" if den == 1 else "a"
    if den == 1:
        return f"<{article} integer of {top} digits>"
    return f"<{article} fraction of {top}/{bottom} digits>"


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
        self.factor = f"{shown(n)}**{shown(k)}" if power else f"C({shown(n)}, {shown(k)})"

    def __str__(self):
        return (f"{self.factor} exceeds the exact-arithmetic budget of "
                f"{shown(self.digit_budget)} decimal digits; use the digit-bracket estimator")


class TableFormatError(BettiError):
    """A BT1 table file does not conform to the grammar."""
