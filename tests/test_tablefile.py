import random
import sys
from fractions import Fraction

import pytest

from bettibounds import BettiTable, TableFormatError, pure_diagram
from bettibounds.tablefile import dumps, load, loads, parse_integer, parse_rational
from test_decompose import DIFFERENTIAL_CASES, _chain_terms_and_table


WORKED = """\
BT1
# a worked example
0 0 1
1 2 1
1 3 4

2 4 5
2 5 1
3 5 1
3 6 1
"""


def test_loads_worked_example(quotient_table):
    assert loads(WORKED) == quotient_table


def test_round_trip(quotient_table):
    assert loads(dumps(quotient_table)) == quotient_table
    assert loads(dumps(BettiTable())) == BettiTable()


def test_round_trip_random_tables():
    rng = random.Random(7)
    for _ in range(50):
        entries = {
            (rng.randint(0, 6), rng.randint(-4, 12)): Fraction(
                rng.randint(1, 99), rng.randint(1, 99)
            )
            for _ in range(rng.randint(0, 10))
        }
        table = BettiTable(entries)
        assert loads(dumps(table)) == table


@pytest.mark.parametrize("seed, support, pdim", DIFFERENTIAL_CASES)
def test_round_trip_differential_chains(seed, support, pdim):
    _, table = _chain_terms_and_table(random.Random(seed), support, pdim)
    loaded = loads(dumps(table))
    assert loaded == table
    assert all(type(v) is Fraction for _, v in loaded.items())


def test_file_round_trip(tmp_path, quotient_table):
    path = tmp_path / "table.bt1"
    path.write_text(dumps(quotient_table), encoding="utf-8")
    assert load(path) == quotient_table


def test_rational_forms_accepted():
    table = loads("BT1\n0 0 3/1\n1 2 10/3\n2 -1 7\n")
    assert table[0, 0] == 3
    assert table[1, 2] == Fraction(10, 3)
    assert table[2, -1] == 7  # negative internal degrees are legal


def test_parse_rational():
    assert parse_rational("10/3") == Fraction(10, 3)
    assert parse_rational("-4") == Fraction(-4)
    assert parse_rational("+6/4") == Fraction(3, 2)
    with pytest.raises(TableFormatError):
        parse_rational("1.5")
    with pytest.raises(TableFormatError):
        parse_rational("3/0")
    with pytest.raises(TableFormatError):
        parse_rational("x")
    assert parse_integer("+007") == parse_rational("+007") == 7
    for text in ("7\n", " 7", "1_8", "3/-4", "7/1\n"):  # only the whole text is read
        with pytest.raises(TableFormatError):
            parse_rational(text)
        with pytest.raises(TableFormatError):
            parse_integer(text)
    # non-ASCII digits
    for text in ("\u0663/\uff17", "\u0663", "7/\uff17", "\u0661\u0668", "\uff11\uff18"):
        with pytest.raises(TableFormatError):
            parse_rational(text)


@pytest.mark.parametrize(
    "text",
    [
        "0 0 1\n",                      # missing header
        "BT2\n0 0 1\n",                 # wrong header
        "BT1\n0 0\n",                   # too few fields
        "BT1\n0 0 1 2\n",               # too many fields
        "BT1\n0 0 0\n",                 # zero value
        "BT1\n0 0 -1\n",                # negative value
        "BT1\n-1 0 1\n",                # negative homological index
        "BT1\n0 0 1\n0 0 2\n",          # duplicate pair
        "BT1\n0 0 1.5\n",               # decimals are not in the grammar
        "BT1\na 0 1\n",                 # non-integer index
        "BT1\n0 1e2 1\n",               # non-integer degree
        "BT1\n0 0 \u0663\n1 \uff12 7\n",  # non-ASCII value
        "BT1\n1 \uff12 7\n",            # non-ASCII degree
    ],
)
def test_rejects_malformed(text):
    with pytest.raises(TableFormatError):
        loads(text)


def test_value_past_the_int_limit_is_a_format_error():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no int->str conversion limit")
    digits = "7" * (limit + 1)
    for line in (f"0 0 {digits}", f"0 0 1/{digits}", f"0 {digits} 1"):
        with pytest.raises(TableFormatError) as info:
            loads(f"BT1\n{line}\n")
        assert f"{limit + 1} digits" in str(info.value)
        assert digits[:50] not in str(info.value)


def test_index_messages_name_the_line_but_not_a_long_text():
    with pytest.raises(TableFormatError) as info:
        loads("BT1\na 0 1\n")
    assert str(info.value) == "line 2: indices must be integers, got 'a 0 1'"
    digits = "\u0661" * 5000
    with pytest.raises(TableFormatError) as info:
        loads(f"BT1\n{digits} 0 1\n")
    assert str(info.value) == "line 2: indices must be integers, got a text of 5004 characters"


@pytest.mark.parametrize("text, message", [
    ("BT1\n0 0 0/5\n", "line 2: value must be positive, got 0"),
    ("BT1\n0 0 -007\n", "line 2: value must be positive, got -7"),
    (f"BT1\n0 0 -1{'0' * 4000}\n",
     "line 2: value must be positive, got <a negative integer of 4001 digits>"),
    ("BT1\n0 3 1\n0 3 2\n", "line 3: duplicate entry for (0, 3)"),
    (f"BT1\n0 1{'0' * 4000} 1\n0 1{'0' * 4000} 2\n",
     "line 3: duplicate entry for (0, <an integer of 4001 digits>)"),
], ids=["0/5", "-007", "long value", "duplicate", "long duplicate"])
def test_value_messages_show_the_parsed_value(text, message):
    with pytest.raises(TableFormatError) as info:
        loads(text)
    assert str(info.value) == message


def test_load_missing_file(tmp_path):
    with pytest.raises(TableFormatError):
        load(tmp_path / "nope.bt1")


def test_dumps_is_sorted_and_reduced():
    diagram = pure_diagram((0, 2, 4, 5))
    table = BettiTable({key: v * Fraction(6, 4) for key, v in diagram.items()})
    text = dumps(table)
    lines = text.strip().splitlines()
    assert lines[0] == "BT1"
    assert lines[1:] == sorted(lines[1:], key=lambda s: tuple(map(int, s.split()[:2])))
    assert "3/2" in text  # reduced form
