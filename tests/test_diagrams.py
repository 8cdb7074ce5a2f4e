from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bettibounds import (
    BettiTable,
    Decomposition,
    DomainError,
    deg_seq_leq,
    deg_seq_lt,
    degree_sequence,
    format_diagram,
    pure_diagram,
)
from conftest import MONOMIAL_QUOTIENT_ENTRIES, pascal_binomial

degree_sequences = st.lists(
    st.integers(-8, 15), min_size=1, max_size=6, unique=True
).map(lambda xs: tuple(sorted(xs)))


# -- pure diagrams -----------------------------------------------------------


@pytest.mark.parametrize(
    "degrees, expected",
    [
        ((0, 2, 4, 5), {(0, 0): 1, (1, 2): Fraction(10, 3), (2, 4): 5, (3, 5): Fraction(8, 3)}),
        ((0, 1, 2, 3), {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1}),
        (
            (0, 1, 2, 3, 5),
            {(0, 0): 1, (1, 1): Fraction(15, 4), (2, 2): 5, (3, 3): Fraction(5, 2), (4, 5): Fraction(1, 4)},
        ),
        ((0, 3, 5), {(0, 0): 1, (1, 3): Fraction(5, 2), (2, 5): Fraction(3, 2)}),
    ],
)
def test_pure_diagram_values(degrees, expected):
    assert pure_diagram(degrees) == BettiTable(expected)


def test_pure_diagram_singleton():
    assert pure_diagram((7,)) == BettiTable({(0, 7): 1})


@given(degree_sequences)
def test_pure_diagram_is_normalized(d):
    assert pure_diagram(d)[0, d[0]] == 1


@given(degree_sequences, st.integers(-20, 20))
def test_pure_diagram_translation_invariance(d, shift):
    base = pure_diagram(d)
    moved = pure_diagram(tuple(x + shift for x in d))
    assert moved == BettiTable(
        {(i, j + shift): v for (i, j), v in base.items()}
    )


@pytest.mark.parametrize("n", range(1, 9))
def test_koszul_identity(n):
    table = pure_diagram(tuple(range(n + 1)))
    for i in range(n + 1):
        assert table.total(i) == pascal_binomial(n, i)


def test_last_column_identity():
    # For d = (0, 1+r, ..., n+r) the last total is C(n+r-1, r).
    for n in range(1, 11):
        for r in range(6):
            d = (0,) + tuple(k + r for k in range(1, n + 1))
            assert pure_diagram(d).total(n) == pascal_binomial(n + r - 1, r)


# -- totals ------------------------------------------------------------------


def test_total_betti(quotient_table):
    assert quotient_table.total(2) == 6
    assert BettiTable().total(0) == 0
    assert pure_diagram((0, 2, 4, 5)).total(3) == Fraction(8, 3)


# -- the partial order -------------------------------------------------------


def test_deg_seq_leq_examples():
    assert deg_seq_leq((0, 2, 4, 5), (0, 3, 4, 5))
    assert deg_seq_leq((0, 3, 5, 6), (0, 3, 5))
    assert not deg_seq_leq((0, 3, 5), (0, 3, 5, 6))
    assert deg_seq_lt((0, 3, 5, 6), (0, 3, 5))
    assert not deg_seq_lt((0, 3, 5), (0, 3, 5))


@given(degree_sequences)
def test_deg_seq_leq_reflexive(a):
    assert deg_seq_leq(a, a)


@given(degree_sequences, degree_sequences)
def test_deg_seq_leq_antisymmetric(a, b):
    if deg_seq_leq(a, b) and deg_seq_leq(b, a):
        assert a == b


@given(degree_sequences, degree_sequences, degree_sequences)
def test_deg_seq_leq_transitive(a, b, c):
    if deg_seq_leq(a, b) and deg_seq_leq(b, c):
        assert deg_seq_leq(a, c)


# -- table construction and validation ---------------------------------------


def test_degree_sequence_validation():
    assert degree_sequence([0, 2, 5]) == (0, 2, 5)
    with pytest.raises(TypeError):  # text is parsed at the edge, by tablefile.parse_integer
        degree_sequence(("-3", "1"))
    with pytest.raises(DomainError):
        degree_sequence([])
    with pytest.raises(DomainError):
        degree_sequence([0, 0, 1])
    with pytest.raises(DomainError):
        degree_sequence([3, 1])


def test_non_integer_degrees_and_indices_are_rejected_not_truncated():
    # int() would read 2.5 as 2 and 0.5 as 0
    with pytest.raises(TypeError):
        pure_diagram((0, 2.5, 4))
    with pytest.raises(TypeError):
        BettiTable({(0.5, 0.9): 1})
    with pytest.raises(TypeError):
        BettiTable({(0, 1.0): 1})
    with pytest.raises(TypeError):
        Decomposition(((Fraction(1), (0, 2.5, 4)),)).reconstruct()


def test_table_basics(quotient_table):
    assert quotient_table[1, 3] == 4
    assert quotient_table[9, 9] == 0
    assert quotient_table.pdim == 3
    assert quotient_table.reg == 3
    assert len(quotient_table) == 7
    assert (1, 3) in quotient_table and (1, 4) not in quotient_table
    assert quotient_table == BettiTable(MONOMIAL_QUOTIENT_ENTRIES)


def test_table_rejects_bad_entries():
    with pytest.raises(DomainError):
        BettiTable({(-1, 0): 1})
    with pytest.raises(DomainError):
        BettiTable({(0, 0): -2})
    # explicit zeros are simply not stored
    assert BettiTable({(0, 0): 1, (1, 1): 0}) == BettiTable({(0, 0): 1})


def test_empty_table_derived_quantities():
    empty = BettiTable()
    assert not empty
    with pytest.raises(DomainError):
        empty.pdim
    with pytest.raises(DomainError):
        empty.reg


def test_format_diagram():
    text = format_diagram(pure_diagram((0, 2, 4, 5)))
    lines = text.splitlines()
    assert lines[0].split() == ["0", "1", "2", "3"]
    assert lines[1].split() == ["0:", "1", ".", ".", "."]
    assert lines[2].split() == ["1:", ".", "10/3", ".", "."]
    assert lines[3].split() == ["2:", ".", ".", "5", "8/3"]
    assert format_diagram(BettiTable()) == "(empty table)"


def test_format_diagram_folds_runs_of_more_than_40_empty_rows():
    # pure_diagram((0, d)) fills rows 0 and d - 1, with d - 2 empty rows between
    assert format_diagram(pure_diagram((0, 42))).splitlines() == [
        "     0  1", " 0:  1  .", *(f"{r:>2}:  .  ." for r in range(1, 41)), "41:  .  1"]
    assert format_diagram(pure_diagram((0, 43))).splitlines() == [
        "     0  1", " 0:  1  .", "(41 empty rows)", "42:  .  1"]
    # a table whose rows span 10**12 is rendered from its four entries
    lines = format_diagram(pure_diagram((-100, 0, 1, 10**12))).splitlines()
    assert [line.split(":")[0].strip() for line in lines[1:]] == [
        "-100", "(98 empty rows)", "-1", "(999999999997 empty rows)", "999999999997"]
