import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bettibounds import (
    BoundPair,
    DomainError,
    TooLarge,
    algebraic_bounds,
    check_descending_factorial_bound,
    check_rising_factorial_bound,
    extremal_sequences,
    hypersurface_dim_l,
    pure_bounds,
    pure_diagram,
    variety_bounds,
    veronese_bounds,
    veronese_codim,
)
from bettibounds import bounds
from bettibounds.bounds import ensure_binomial_budget
from bettibounds.errors import shown
from conftest import enumerate_pure_sequences, pascal_binomial


# -- binomials ----------------------------------------------------------------


def test_binomial_budget_returns_the_binomial():
    assert ensure_binomial_budget(400, 200, 120) == math.comb(400, 200)
    assert ensure_binomial_budget(400, 399, 3) == 400
    # C(1023, 1) < 2**10 < 10**4: the bit test alone cannot admit it at 3 digits
    assert ensure_binomial_budget(999, 1, 3) == 999
    with pytest.raises(TooLarge):
        ensure_binomial_budget(1023, 1, 3)
    # 2**200 reaches 55 digits; the log bracket of C(10**6, 10), below 10**53.91, does not
    assert ensure_binomial_budget(10**6, 10, 55) == math.comb(10**6, 10)
    assert ensure_binomial_budget(0, 0, 1) == 1
    assert ensure_binomial_budget(5, 7, 1) == 0
    assert ensure_binomial_budget(5, -1, 1) == 0
    with pytest.raises(TooLarge) as exc_info:
        ensure_binomial_budget(400, 200, 119)
    assert exc_info.value.factor == "C(400, 200)"
    with pytest.raises(TooLarge):
        ensure_binomial_budget(10**60, 10**6, 10**6)  # decided without computing it


def test_budget_rejects_from_the_lower_bit_bound_without_a_logarithm(monkeypatch):
    # N has 4,400 digits, so C(N, 3) has about 13,200: the bit bound alone decides
    big_n = veronese_codim(2, 10**2200).codim
    calls = []
    monkeypatch.setattr(bounds, "_log10_bracket", lambda *a, **k: calls.append("log"))
    monkeypatch.setattr(math, "comb", lambda *a: calls.append("comb"))
    with pytest.raises(TooLarge):
        ensure_binomial_budget(big_n, 3, 10)
    with pytest.raises(TooLarge):
        pure_bounds(big_n, 2, 0, digit_budget=10)  # the power N**2
    assert calls == []


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3000), st.integers(0, 3000), st.integers(0, 12), st.integers(1, 900))
def test_budget_decision_is_the_digit_count(top, i, power, budget):
    i = min(i, top)
    try:
        value = ensure_binomial_budget(top, i, budget)
    except TooLarge:
        assert math.comb(top, i) >= 10**budget
    else:
        assert value == math.comb(top, i) < 10**budget
    base = top + 1
    try:
        pair = pure_bounds(base, power, 0, digit_budget=budget)
    except TooLarge:
        assert base**power >= 10**budget
    else:
        assert pair.upper == base**power < 10**budget


def test_power_factor_is_budgeted():
    # C(10, 0) = 1, so only 10**6 (7 digits) meets the budget
    assert pure_bounds(10, 6, 0, digit_budget=7) == BoundPair(Fraction(1, 10**6), Fraction(10**6))
    with pytest.raises(TooLarge) as exc_info:
        pure_bounds(10, 6, 0, digit_budget=6)
    assert exc_info.value.factor == "10**6"
    assert pure_bounds(999, 1, 0, digit_budget=3).upper == 999
    with pytest.raises(TooLarge):
        pure_bounds(1023, 1, 0, digit_budget=3)  # 1023 < 2**10 < 10**4
    with pytest.raises(TooLarge):
        algebraic_bounds(2, 4, 3 * 10**6, 1, 2)
    # a zero binomial makes the bounds (0, 0) whatever the power
    assert pure_bounds(10, 2 * 10**6, 11) == BoundPair(Fraction(0), Fraction(0))


def test_too_large_is_built_only_when_raised(monkeypatch):
    # building one formats its factor, or counts the digits of a long one
    built = []
    init = TooLarge.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TooLarge, "__init__", counting_init)
    pure_bounds(18, 2, 7)
    variety_bounds(400, 2, 1, 200)
    veronese_bounds(2, 5, 7)
    assert built == []
    with pytest.raises(TooLarge) as exc_info:
        pure_bounds(10, 6, 0, digit_budget=6)
    assert len(built) == 1
    assert exc_info.value.factor == "10**6"


@pytest.mark.parametrize("call, args, factor", [
    (ensure_binomial_budget, (18, 11, 1), "C(18, 11)"),  # settled by the enclosure
    (pure_bounds, (18, 0, 11, 1), "C(18, 11)"),
    (pure_bounds, (18, 0, 11, 4), "C(18, 11)"),  # straddled: 31824 >= 10**4
    (ensure_binomial_budget, (400, 250, 50), "C(400, 250)"),
    (ensure_binomial_budget, (400, 250, 113), "C(400, 250)"),  # straddled: 114 digits
])
def test_binomial_past_the_budget_is_named_with_the_callers_column(call, args, factor):
    # the decision runs at min(k, n - k); the error names the k that was passed
    with pytest.raises(TooLarge) as exc_info:
        call(*args)
    assert exc_info.value.factor == factor


def _digit_count(x: int) -> int:
    """Decimal digits of x >= 1, by bisection on powers of ten."""
    lo, hi = 1, 1
    while 10**hi <= x:
        hi *= 2
    while lo < hi:  # the least k with x < 10**k lies in [lo, hi]
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if x < 10**mid else (mid + 1, hi)
    return lo


@pytest.mark.parametrize("n, r, i, factor", [
    (400, 0, 200, "C(400, 200)"),
    (10**6, 0, 10, "C(1000000, 10)"),
    (60000, 0, 1000, "C(60000, 1000)"),
    # encloses as 10**12036.46 to 10**12041.07: each budget in that band counts digits
    (40000, 0, 20000, "C(40000, 20000)"),
    (10, 6, 0, "10**6"),
    (7, 40, 0, "7**40"),
    (1023, 1, 0, "1023**1"),
])
def test_budget_decision_across_the_band_where_digits_are_counted(n, r, i, factor):
    binomial_value, power = math.comb(n, i), n**r
    digits = _digit_count(binomial_value * power)  # one of the two factors is 1
    for budget in range(max(1, digits - 8), digits + 9):
        if digits <= budget:
            assert pure_bounds(n, r, i, budget) == BoundPair(
                Fraction(binomial_value, power), Fraction(binomial_value * power))
        else:
            with pytest.raises(TooLarge) as exc_info:
                pure_bounds(n, r, i, budget)
            assert exc_info.value.factor == factor


def test_too_large_pickles():
    for error, factor in [(TooLarge(10, 3, 2), "C(10, 3)"),
                          (TooLarge(7, 40, 5, power=True), "7**40")]:
        copy = pickle.loads(pickle.dumps(error))
        assert (copy.n, copy.k, copy.digit_budget) == (error.n, error.k, error.digit_budget)
        assert copy.factor == error.factor == factor
        assert str(copy) == str(error) == (
            f"{factor} exceeds the exact-arithmetic budget of {error.digit_budget} "
            "decimal digits; use the digit-bracket estimator"
        )


@pytest.mark.parametrize("k", [1, 39, 40, 41, 4400])
def test_shown_is_the_text_up_to_40_characters_then_its_size(k):
    for n, digits in [(10**k - 1, k), (10**k, k + 1), (1 - 10**k, k)]:
        name = "a negative" if n < 0 else "an"
        expected = str(n) if digits + (n < 0) <= 40 else f"<{name} integer of {digits} digits>"
        assert shown(n) == expected
    assert shown(Fraction(-7, 3)) == "-7/3"
    assert shown(Fraction(7, 10**k)) == (
        f"7/{10**k}" if k < 39 else f"<a fraction of 1/{k + 1} digits>")
    assert shown(Fraction(-7, 10**k)) == (
        f"-7/{10**k}" if k < 39 else f"<a negative fraction of 1/{k + 1} digits>")
    text = "7" * k
    assert shown(text) == (repr(text) if k <= 40 else f"a text of {k} characters")


def test_shown_gives_a_tuple_of_ints_up_to_40_characters_then_its_length():
    assert shown(()) == "()"
    assert shown((5,)) == "(5,)"
    assert shown((-3, 0, 12)) == "(-3, 0, 12)"
    assert shown(tuple(range(12))) == "(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)"  # 38 characters
    assert shown((0, 10**34)) == f"(0, {10**34})"  # 40 characters
    assert shown((0, -10**34)) == "<a tuple of length 2>"  # 41
    assert shown((10**37,)) == "<a tuple of length 1>"  # (x,) is 41
    assert shown(tuple(range(13))) == "<a tuple of length 13>"  # 42
    assert shown((0, 10**4400)) == "<a tuple of length 2>"


def test_too_large_names_a_long_factor_by_its_digit_count():
    error = TooLarge(10**4400, 3, 10**50)
    assert error.factor == "C(<an integer of 4401 digits>, 3)"
    assert str(error) == ("C(<an integer of 4401 digits>, 3) exceeds the exact-arithmetic "
                          "budget of <an integer of 51 digits> decimal digits; "
                          "use the digit-bracket estimator")
    assert TooLarge(7, 10**40, 5, power=True).factor == "7**<an integer of 41 digits>"


# -- one binomial per bound ---------------------------------------------------


def smaller_binomial(c, a, i):
    return bounds._smaller_binomial(math.comb(c, i), c, a, i)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 700), st.integers(0, 700),
       st.one_of(st.integers(0, 12), st.integers(0, 700)))
def test_the_smaller_binomial_is_the_binomial(c, i, gap):
    i, gap = min(i, c), min(gap, c)
    assert smaller_binomial(c, c - gap, i) == math.comb(c - gap, i)


@pytest.mark.parametrize("c, a, i", [
    (1000, 996, 500), (1000, 996, 996), (1000, 996, 998), (1000, 996, 1000),  # i <, =, > a
    (1000, 500, 400), (1000, 500, 800),  # a gap past the rule, i < a and i > a
    (20000, 19625, 3000), (20000, 19624, 3000),  # gaps i // 8 and i // 8 + 1
    (20000, 20000, 3000), (20000, 0, 3000), (20000, 0, 0), (20000, 19999, 0),
])
def test_the_smaller_binomial_on_both_sides_of_the_rule(c, a, i):
    assert smaller_binomial(c, a, i) == math.comb(a, i)


def test_an_exact_bound_computes_one_binomial(monkeypatch):
    comb, calls = math.comb, []

    def counted(n, k):
        calls.append((n, k))
        return comb(n, k)

    monkeypatch.setattr(math, "comb", counted)
    module = algebraic_bounds(2000, 2003, 2, Fraction(1, 2), 300)
    assert calls == [(2003, 300), (0, 0)]  # C(0, 0) is the budget check of the power
    assert module == BoundPair(Fraction(comb(2000, 300), 2 * 2000**2),
                               Fraction(comb(2003, 300) * 2003**2, 2))
    calls.clear()
    variety = variety_bounds(5000, 1, 2, 600)
    assert calls == [(5000, 600), (0, 0)]
    assert variety == BoundPair(Fraction(comb(4999, 600), 5000**2), comb(5000, 600) * 5000**2)


# -- pure-diagram bounds ------------------------------------------------------


def test_pure_bounds_examples():
    assert pure_bounds(3, 2, 3) == BoundPair(Fraction(1, 9), Fraction(9))
    assert pure_bounds(18, 2, 7) == BoundPair(Fraction(884, 9), Fraction(10310976))
    for n, i in [(1, 0), (4, 2), (9, 9)]:
        c = Fraction(pascal_binomial(n, i))
        assert pure_bounds(n, 0, i) == BoundPair(c, c)


def test_pure_bounds_degenerate_and_errors():
    assert pure_bounds(3, 2, 5) == BoundPair(Fraction(0), Fraction(0))
    with pytest.raises(DomainError):
        pure_bounds(0, 1, 0)
    with pytest.raises(DomainError):
        pure_bounds(3, -1, 0)
    with pytest.raises(DomainError):
        pure_bounds(3, 1, -1)


def test_bound_pair_contains():
    pair = pure_bounds(18, 2, 7)
    assert pair.contains(417690)  # the actual seventh total Betti number
    assert not pair.contains(10310977)
    with pytest.raises(DomainError):
        BoundPair(2, 1)


def test_extremal_sequences_examples():
    assert extremal_sequences(4, 1, 4, 1) == ((0, 1, 2, 3, 5), (0, 2, 3, 4, 5))
    for n, i in [(3, 1), (5, 5)]:
        d_min, d_max = extremal_sequences(n, 0, i, 0)
        assert d_min == d_max == tuple(range(n + 1))
    assert extremal_sequences(3, 2, 2, 1) == ((0, 1, 3, 5), (0, 2, 3, 4))
    for n, r, i, a in [(0, 1, 1, 0), (4, 1, 2, 2), (4, 1, 0, 0)]:  # n, a, i out of range
        with pytest.raises(DomainError):
            extremal_sequences(n, r, i, a)


def test_extremal_sequences_are_valid():
    for n in range(1, 7):
        for r in range(4):
            for i in range(1, n + 1):
                for a in range(r + 1):
                    d_min, d_max = extremal_sequences(n, r, i, a)
                    for d in (d_min, d_max):
                        assert len(d) == n + 1
                        assert d[0] == 0
                        assert d[i] == i + a
                        assert d[-1] <= n + r
                        assert all(x < y for x, y in zip(d, d[1:]))


def test_sandwich_bounds_brute_force():
    # every pure diagram of length n with slack r obeys C(n,i) * n**(+-r)
    for n in range(1, 7):
        for r in range(3):
            for d in enumerate_pure_sequences(n, r):
                table = pure_diagram(d)
                for i in range(n + 1):
                    pair = pure_bounds(n, r, i)
                    assert pair.contains(table.total(i)), (d, i)


def test_extremality_brute_force():
    # with d_i = i + a fixed, the extremal sequences attain the min and max
    for n in range(1, 6):
        for r in range(3):
            groups = {}
            for d in enumerate_pure_sequences(n, r):
                table = pure_diagram(d)
                for i in range(1, n + 1):
                    a = d[i] - i
                    if a <= r:
                        groups.setdefault((i, a), []).append(table.total(i))
            for (i, a), values in groups.items():
                d_min, d_max = extremal_sequences(n, r, i, a)
                assert min(values) == pure_diagram(d_min).total(i)
                assert max(values) == pure_diagram(d_max).total(i)


def test_sharpness_witnesses():
    assert pure_diagram((0, 1, 2, 3, 5)).total(4) == pure_bounds(4, 1, 4).lower == Fraction(1, 4)
    assert pure_diagram((0, 2, 3, 4, 5)).total(4) == pure_bounds(4, 1, 4).upper == 4


# -- module-level bounds ------------------------------------------------------


def test_algebraic_bounds_examples():
    assert algebraic_bounds(3, 3, 2, 1, 3) == BoundPair(Fraction(1, 9), Fraction(9))
    assert algebraic_bounds(0, 0, 5, 1, 0) == BoundPair(Fraction(1), Fraction(1))
    assert algebraic_bounds(2, 4, 1, 3, 2) == BoundPair(Fraction(3, 2), Fraction(72))


def test_algebraic_bounds_degenerate():
    # a free module has no higher syzygies
    assert algebraic_bounds(0, 0, 5, 1, 2) == BoundPair(Fraction(0), Fraction(0))
    assert algebraic_bounds(0, 2, 1, 1, 1) == BoundPair(Fraction(0), Fraction(4))
    assert algebraic_bounds(2, 3, 1, 1, 7) == BoundPair(Fraction(0), Fraction(0))
    with pytest.raises(DomainError):
        algebraic_bounds(3, 2, 0, 1, 0)
    with pytest.raises(DomainError):
        algebraic_bounds(2, 3, 0, 0, 0)
    with pytest.raises(DomainError):
        algebraic_bounds(2, 3, 0, 1, -1)


def test_algebraic_matches_pure_bounds():
    for n in range(1, 8):
        for r in range(4):
            for i in range(n + 1):
                assert algebraic_bounds(n, n, r, 1, i) == pure_bounds(n, r, i)


def test_algebraic_bounds_bracket_worked_table(quotient_table):
    for i in range(quotient_table.pdim + 1):
        pair = algebraic_bounds(3, 3, 3, 1, i)
        assert pair.contains(quotient_table.total(i))


# -- Veronese and variety specializations -------------------------------------


def test_veronese_codim():
    assert veronese_codim(2, 5).codim == 18
    assert veronese_codim(2, 100).codim == 5148
    assert veronese_codim(2, 10**6).codim == 500001499998
    assert veronese_codim(1, 1).codim == 0
    with pytest.raises(DomainError):
        veronese_codim(0, 5)


def test_veronese_bounds_examples():
    assert veronese_bounds(2, 5, 7) == BoundPair(Fraction(884, 9), Fraction(10310976))
    assert veronese_bounds(1, 1, 0) == BoundPair(Fraction(1), Fraction(1))


def test_veronese_bounds_large_exact_case():
    pair = veronese_bounds(2, 100, 2000)
    assert 10**1484 < pair.lower < 10**1485
    assert 10**1499 < pair.upper < 10**1500


def test_veronese_bounds_errors():
    with pytest.raises(DomainError):
        veronese_bounds(2, 5, 19)
    with pytest.raises(DomainError):
        veronese_bounds(2, 5, -1)
    with pytest.raises(TooLarge) as exc_info:
        veronese_bounds(2, 100, 2000, digit_budget=100)
    assert exc_info.value.n == 5148
    with pytest.raises(TooLarge):
        veronese_bounds(2, 10**6, 10**11)


def test_variety_bounds_examples():
    assert variety_bounds(3, 1, 0, 1) == BoundPair(Fraction(2), Fraction(3))
    assert variety_bounds(5, 2, 1, 2) == BoundPair(Fraction(3, 5), Fraction(50))
    with pytest.raises(TooLarge):
        variety_bounds(6441720, 2, 3, 10**6)
    with pytest.raises(DomainError):
        variety_bounds(5, 6, 1, 2)


def test_digit_budget_boundary_is_exact():
    # C(400, 200) has 120 digits: the guard must settle boundary cases exactly
    value = math.comb(400, 200)
    assert len(str(value)) == 120
    assert variety_bounds(400, 0, 0, 200, digit_budget=120).upper == value
    with pytest.raises(TooLarge):
        variety_bounds(400, 0, 0, 200, digit_budget=119)


# -- hypersurface linear systems ----------------------------------------------


def monomial_count(nvars: int, degree: int) -> int:
    # brute-force count of degree-d monomials in nvars variables
    return sum(
        1
        for c in itertools.product(range(degree + 1), repeat=nvars)
        if sum(c) == degree
    )


def test_hypersurface_dim_l():
    assert hypersurface_dim_l(3, 13, 1000) == 6441720
    assert hypersurface_dim_l(3, 1, 1) == 2
    # plane cubic, degree-4 system: count monomials minus multiples of the cubic
    expected = monomial_count(3, 4) - monomial_count(3, 1) - 1
    assert expected == 11
    assert hypersurface_dim_l(2, 3, 4) == expected
    # e < delta: no form of degree e is divisible by the equation
    assert hypersurface_dim_l(2, 5, 2) == monomial_count(3, 2) - 1
    with pytest.raises(DomainError):
        hypersurface_dim_l(0, 1, 1)


# -- the two auxiliary inequalities --------------------------------------------


def test_rising_factorial_bound_examples():
    assert check_rising_factorial_bound(1, 1, 5)
    assert check_rising_factorial_bound(3, 2, 2)  # (5*4/2) * (2/4) = 5 <= 9
    assert check_rising_factorial_bound(10, 10, 3)
    with pytest.raises(DomainError):
        check_rising_factorial_bound(3, 0, 1)


def test_descending_factorial_bound_examples():
    for a in range(8):
        assert check_descending_factorial_bound(a, 0)
    assert check_descending_factorial_bound(1, 2)  # 3*2/2 = 3 <= 4
    assert check_descending_factorial_bound(0, 5)  # equality: 1 <= 1
    with pytest.raises(DomainError):
        check_descending_factorial_bound(-1, 0)


def test_inequalities_hold_on_grid():
    assert all(
        check_rising_factorial_bound(n, i, a)
        for n in range(1, 16)
        for i in range(1, n + 1)
        for a in range(6)
    )
    assert all(
        check_descending_factorial_bound(a, b) for a in range(16) for b in range(16)
    )
