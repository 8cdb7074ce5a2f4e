"""The library boundary: every integer argument of a public function is read
with ``operator.index`` and every rational one as an int or a Fraction, so a
float or a text is a TypeError, never parsed, truncated or taken approximately.
"""

from decimal import Decimal
from fractions import Fraction

import pytest

import bettibounds
from bettibounds import (
    BettiTable,
    BoundPair,
    Decomposition,
    DigitBracket,
    DomainError,
    LogBracket,
    algebraic_bounds,
    algebraic_digit_bracket,
    check_descending_factorial_bound,
    check_rising_factorial_bound,
    decompose,
    deg_seq_leq,
    deg_seq_lt,
    degree_sequence,
    exact_log_binomial,
    extremal_sequences,
    hypersurface_dim_l,
    log_binomial_bracket,
    log_factorial_bracket,
    pure_bounds,
    pure_diagram,
    pure_digit_bracket,
    variety_bounds,
    variety_digit_bracket,
    verify_decomposition,
    veronese_bounds,
    veronese_codim,
    veronese_digit_bracket,
)
from bettibounds.bounds import ensure_binomial_budget

TABLE = pure_diagram((0, 2, 3))

#: (label, function, arguments, kinds, repr of the result, as the library gave
#: it before it checked argument types).  A kind is "i" for an integer
#: argument, "r" for a rational one, "s" for a sequence of integers and "-"
#: for anything else.  veronese_codim comes first, so that its (2.0, 5) case
#: follows a cached (2, 5).
CALLS = [
    ("veronese_codim", veronese_codim, (2, 5), "ii",
     "VeroneseParams(n=2, d=5, codim=18)"),
    ("veronese_bounds", veronese_bounds, (2, 5, 7, 50), "iiii",
     "BoundPair(lower=Fraction(884, 9), upper=Fraction(10310976, 1))"),
    ("veronese_digit_bracket", veronese_digit_bracket, (2, 5, 7, 40, False), "iiii-",
     "DigitBracket(exp_lo=1, exp_hi=8)"),
    ("pure_bounds", pure_bounds, (18, 2, 7, 50), "iiii",
     "BoundPair(lower=Fraction(884, 9), upper=Fraction(10310976, 1))"),
    ("pure_digit_bracket", pure_digit_bracket, (18, 2, 7, 40, False), "iiii-",
     "DigitBracket(exp_lo=1, exp_hi=8)"),
    ("algebraic_bounds", algebraic_bounds, (2, 4, 1, 3, 2, 50), "iiirii",
     "BoundPair(lower=Fraction(3, 2), upper=Fraction(72, 1))"),
    ("algebraic_digit_bracket", algebraic_digit_bracket, (2, 4, 1, 3, 2, 40, False), "iiirii-",
     "DigitBracket(exp_lo=0, exp_hi=3)"),
    ("variety_bounds", variety_bounds, (20, 2, 3, 5, 50), "iiiii",
     "BoundPair(lower=Fraction(1071, 1000), upper=Fraction(124032000, 1))"),
    ("variety_digit_bracket", variety_digit_bracket, (20, 2, 3, 5, 40, False), "iiiii-",
     "DigitBracket(exp_lo=-1, exp_hi=9)"),
    ("ensure_binomial_budget", ensure_binomial_budget, (40, 7, 10), "iii", "18643560"),
    ("hypersurface_dim_l", hypersurface_dim_l, (3, 13, 1000), "iii", "6441720"),
    ("extremal_sequences", extremal_sequences, (4, 2, 2, 1), "iiii",
     "((0, 1, 3, 5, 6), (0, 2, 3, 4, 5))"),
    ("check_rising_factorial_bound", check_rising_factorial_bound, (5, 2, 3), "iii", "True"),
    ("check_descending_factorial_bound", check_descending_factorial_bound, (4, 3), "ii",
     "True"),
    ("log_factorial_bracket", log_factorial_bracket, (5, 5), "ii",
     "LogBracket(lo=Decimal('4.04718956217040'), hi=Decimal('5.7505568153685'))"),
    ("log_factorial_bracket at 0", log_factorial_bracket, (0, 5), "ii",
     "LogBracket(lo=Decimal('0'), hi=Decimal('0'))"),
    ("log_binomial_bracket", log_binomial_bracket, (10, 3, 5, False), "iii-",
     "LogBracket(lo=Decimal('3.85930244207326'), hi=Decimal('5.44547880133953'))"),
    ("exact_log_binomial", exact_log_binomial, (10, 3, 5), "iii",
     "LogBracket(lo=Decimal('4.78749174278203'), hi=Decimal('4.78749174278207'))"),
    ("verify_decomposition", verify_decomposition, (TABLE, decompose(TABLE), 2), "--i", "None"),
    ("degree_sequence", degree_sequence, ((0, 2, 3),), "s", "(0, 2, 3)"),
    ("pure_diagram", pure_diagram, ((0, 2, 3),), "s",
     "BettiTable({(0,0): 1, (1,2): 3, (2,3): 2})"),
    ("deg_seq_leq", deg_seq_leq, ((0, 2, 3), (0, 2, 4)), "ss", "True"),
    ("deg_seq_lt", deg_seq_lt, ((0, 2, 4), (0, 2, 4)), "ss", "False"),
    ("BettiTable", lambda i, j, value: BettiTable({(i, j): value}), (1, 3, Fraction(7, 2)),
     "iir", "BettiTable({(1,3): 7/2})"),
    ("BoundPair.contains", pure_bounds(18, 2, 7).contains, (417690,), "r", "True"),
    ("Decomposition.reconstruct",
     lambda c: Decomposition(((c, (0, 2, 3)),)).reconstruct(), (Fraction(1, 2),), "r",
     "BettiTable({(0,0): 1/2, (1,2): 3/2, (2,3): 1})"),
]

#: Names of ``__all__`` with no integer or rational argument, or records whose
#: fields the functions above fill in.
NO_NUMBER_ARGUMENT = {
    "BettiError", "DomainError", "NotInBSCone", "TableFormatError", "TooLarge",
    "DEFAULT_DIGIT_BUDGET", "DEFAULT_PRECISION", "BoundPair", "DigitBracket", "LogBracket",
    "VeroneseParams", "Decomposition", "decompose", "format_diagram",
}


def test_every_public_name_is_covered():
    covered = {label.split()[0].split(".")[0] for label, *_ in CALLS}
    assert covered | NO_NUMBER_ARGUMENT >= set(bettibounds.__all__)


def _outside(kind, value):
    """Arguments of the wrong type in a position of this kind."""
    if kind == "i":
        return [float(value)]
    if kind == "r":
        return [str(value), float(value)]
    if kind == "s":
        return [(*value[:-1], float(value[-1])), tuple(map(str, value))]
    return []


WRONG_TYPES = [
    pytest.param(function, args, k, bad, id=f"{label}-{k}-{bad!r}")
    for label, function, args, kinds, _ in CALLS
    for k, kind in enumerate(kinds)
    for bad in _outside(kind, args[k])
]


@pytest.mark.parametrize("function, args, k, bad", WRONG_TYPES)
def test_a_float_or_a_text_is_a_type_error(function, args, k, bad):
    function(*args)  # warms every cache first
    with pytest.raises(TypeError):
        function(*args[:k], bad, *args[k + 1:])


@pytest.mark.parametrize("label, function, args, kinds, expected",
                         [pytest.param(*call, id=call[0]) for call in CALLS])
def test_ints_and_fractions_give_the_same_values(label, function, args, kinds, expected):
    assert repr(function(*args)) == expected
    as_fractions = [Fraction(a) if kind == "r" else a for a, kind in zip(args, kinds)]
    assert repr(function(*as_fractions)) == expected


def test_text_is_not_read_as_a_number():
    # Fraction's own parser reads these; the library takes no text at all
    for text in ("١٨", " 1_000/3 ", "1e3", " 3/2\n"):
        with pytest.raises(TypeError):
            BettiTable({(0, 0): text})
        with pytest.raises(TypeError):
            algebraic_bounds(2, 4, 1, text, 2)
    with pytest.raises(TypeError):
        BettiTable({(0, 0): 0.1})  # would be 3602879701896397/36028797018963968



def test_a_log_bracket_contains_a_decimal_an_int_or_a_fraction():
    bracket = LogBracket(Decimal(0), Decimal(10))
    assert bracket.contains(Decimal("9.5")) and bracket.contains(0) and bracket.contains(10)
    assert bracket.contains(Fraction(19, 2)) and not bracket.contains(Fraction(21, 2))
    for value in (" 1e0 ", "1", 0.1, 1.0):  # Decimal's parser and float constructor take these
        with pytest.raises(TypeError):
            bracket.contains(value)


BIG = 10**50  # shown as <an integer of 51 digits>
NAMED = "<an integer of 51 digits>"
NEGATIVE = "<a negative integer of 51 digits>"  # -BIG

#: A call that raises DomainError, and its message, which names BIG by its size.
MESSAGES = [
    (lambda: BettiTable({(-BIG, 0): 1}), f"homological index must be nonnegative, got {NEGATIVE}"),
    (lambda: BettiTable({(0, BIG): -1}), f"entry at (0, {NAMED}) must be positive, got -1"),
    (lambda: BoundPair(Fraction(BIG), Fraction(0)), f"lower bound {NAMED} exceeds upper bound 0"),
    (lambda: DigitBracket(BIG, 0), f"exponents out of order: [{NAMED}, 0]"),
    (lambda: Decomposition(((Fraction(-1, BIG), (0, 1)),)).reconstruct(),
     "coefficient <a negative fraction of 1/51 digits> is not positive"),
    (lambda: verify_decomposition(TABLE, Decomposition(((1, (0, BIG)), (1, (0, 1))))),
     "types <a tuple of length 2> and (0, 1) do not increase strictly"),
    (lambda: verify_decomposition(TABLE, decompose(TABLE), codim=BIG),
     f"type (0, 2, 3) has length 2, outside [{NAMED}, 2]"),
    (lambda: extremal_sequences(4, BIG, 2, -1), f"offset a must lie in [0, {NAMED}], got -1"),
    (lambda: check_rising_factorial_bound(-BIG, 1, 0),
     f"need n >= 1, 1 <= i <= n, a >= 0; got ({NEGATIVE}, 1, 0)"),
    (lambda: check_descending_factorial_bound(-BIG, 0), f"need a, b >= 0; got ({NEGATIVE}, 0)"),
    (lambda: log_factorial_bracket(-BIG),
     f"factorial argument must be nonnegative, got {NEGATIVE}"),
    (lambda: log_binomial_bracket(BIG, -1), f"column index must lie in [0, {NAMED}], got -1"),
    (lambda: exact_log_binomial(5, BIG), f"column index must lie in [0, 5], got {NAMED}"),
    (lambda: pure_digit_bracket(18, 2, 7, -BIG),
     f"precision must be a positive integer, got {NEGATIVE}"),
]


@pytest.mark.parametrize("call, message", MESSAGES)
def test_messages_name_a_long_value_by_its_size(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message
