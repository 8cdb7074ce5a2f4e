import math
import random
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from bettibounds import (
    DigitBracket,
    DomainError,
    LogBracket,
    algebraic_bounds,
    algebraic_digit_bracket,
    exact_log_binomial,
    log_binomial_bracket,
    log_factorial_bracket,
    pure_bounds,
    pure_digit_bracket,
    variety_bounds,
    variety_digit_bracket,
    veronese_bounds,
    veronese_codim,
    veronese_digit_bracket,
)
from bettibounds.estimation import _ln_enclosure, _log_sum
from conftest import mp_ln


def _width(bracket: LogBracket) -> Decimal:
    return bracket.hi - bracket.lo


def _ln(m: int, prec: int) -> LogBracket:
    """The enclosure of ln(m) that every log bracket is summed from."""
    return LogBracket(*_ln_enclosure(m, prec))


def oracle_digit_logs(n_low, n_high, base, reg, i, paper=False):
    """Independent (mpmath, 60 digits) base-10 logs that the digit-bracket
    exponents round: the integral-bound endpoints of ln C(n_low, i) and
    ln C(n_high, i) (0 at i = 0 or i = n, where C = 1), shifted by
    -reg ln(base) and +reg ln(base); a base of 0 reads base**reg as 1."""
    ln = mpmath.ln
    with mpmath.workdps(60):
        lo = hi = mpmath.mpf(0)
        if 0 < i < n_low:
            lo = n_low * ln(n_low) - (n_low - i) * ln(n_low - i) - (i + 1) * ln(i + 1) + paper
        if 0 < i < n_high:
            hi = (
                (n_high + 1) * ln(n_high + 1)
                - (n_high - i + 1) * ln(n_high - i + 1)
                - i * ln(i)
                - 1
                + paper
            )
        shift = reg * ln(base or 1)
        return (lo - shift) / ln(10), (hi + shift) / ln(10)


def oracle_digit_exponents(n_low, n_high, base, reg, i, paper=False):
    """Independent (mpmath) evaluation of the digit-bracket exponents."""
    lo10, hi10 = oracle_digit_logs(n_low, n_high, base, reg, i, paper)
    return int(mpmath.floor(lo10)), int(mpmath.ceil(hi10))


# -- ln ------------------------------------------------------------------------


def test_ln_bracket_trivial():
    bracket = _ln(1, 40)
    assert bracket.lo == bracket.hi == 0


def test_ln_bracket_known_constant():
    bracket = _ln(10, 40)
    # the reference must be finer than the bracket (width ~ 1e-49 here)
    assert bracket.contains(mp_ln(10, dps=75))
    assert str(bracket.lo).startswith("2.30258509299404568401799145468436420760")
    assert _width(bracket) < Decimal("1e-35")


def test_ln_bracket_large_value():
    bracket = _ln(500001499998, 40)
    assert bracket.contains(mp_ln(500001499998))
    # value is 26.93787693536010291979860108495879324...
    assert Decimal("26.9378") < bracket.lo < bracket.hi < Decimal("26.9379")
    assert _width(bracket) < Decimal("1e-35")


@pytest.mark.parametrize("m", [2, 3, 7, 97, 10**6, 10**12 + 7])
@pytest.mark.parametrize("prec", [10, 40])
def test_ln_bracket_width_contract(m, prec):
    bracket = _ln(m, prec)
    assert bracket.contains(mp_ln(m))
    assert _width(bracket) <= Decimal(10) ** (1 - prec) * bracket.hi


def test_ln_bracket_errors():
    # exact_log_binomial is the public way to one enclosure of a logarithm
    with pytest.raises(DomainError):
        exact_log_binomial(-3, 0)
    with pytest.raises(DomainError):
        exact_log_binomial(10, -1)
    with pytest.raises(DomainError):
        exact_log_binomial(10, 1, 0)
    assert exact_log_binomial(10, 1, 40) == _ln(10, 40)


def test_log_sum_takes_the_outer_end_of_each_logarithm():
    for prec in (1, 5, 40):
        lo, hi = _ln_enclosure(7, prec)
        ends = [_log_sum(terms, 0, prec, up)
                for terms in ([(1, 7)], [(-1, 7)]) for up in (False, True)]
        assert ends == [lo, hi, hi.copy_negate(), lo.copy_negate()]
    assert _log_sum([], -3, 40, False) == _log_sum([], -3, 40, True) == -3


# -- factorials -----------------------------------------------------------------


def test_log_factorial_trivial_cases():
    assert log_factorial_bracket(0).lo == log_factorial_bracket(0).hi == 0
    one = log_factorial_bracket(1)
    assert one.lo == 0 and one.contains(0)


def test_log_factorial_small():
    bracket = log_factorial_bracket(2)
    # endpoints 2 ln 2 - 1 and 3 ln 3 - 2
    assert abs(float(bracket.lo) - 0.3862943611) < 1e-9
    assert abs(float(bracket.hi) - 1.2958368660) < 1e-9
    assert bracket.contains(mp_ln(2))


@pytest.mark.parametrize("c", list(range(1, 200)) + [1000, 4000, 10**4])
def test_log_factorial_contains_exact(c):
    assert log_factorial_bracket(c).contains(mp_ln(math.factorial(c)))


def test_log_factorial_errors():
    with pytest.raises(DomainError):
        log_factorial_bracket(-1)


# -- binomial brackets -------------------------------------------------------------


def test_log_binomial_trivial_edges():
    for n in (1, 5, 1000):
        assert _width(log_binomial_bracket(n, 0)) == 0
        assert _width(log_binomial_bracket(n, n)) == 0


def test_log_binomial_contains_exact_small():
    for n in (2, 5, 18, 60, 200):
        for i in range(n + 1):
            assert log_binomial_bracket(n, i).contains(mp_ln(math.comb(n, i)))


def test_log_binomial_symmetry_containment():
    for n, i in [(30, 7), (100, 41), (917, 300)]:
        value = mp_ln(math.comb(n, i))
        assert log_binomial_bracket(n, i).contains(value)
        assert log_binomial_bracket(n, n - i).contains(value)


def test_log_binomial_soundness_sampled():
    rng = random.Random(20240811)
    for _ in range(200):
        n = rng.randint(2, 10**4)
        i = rng.randint(1, n - 1)
        outer = log_binomial_bracket(n, i)
        inner = exact_log_binomial(n, i)
        assert outer.encloses(inner), (n, i)


def test_log_binomial_huge_lower_endpoint():
    n, i = 500001499998, 10**11
    sound = log_binomial_bracket(n, i)
    paper = log_binomial_bracket(n, i, paper_constants=True)
    anchor = Decimal("250201546457.083")
    assert abs(sound.lo - anchor) < 2
    assert abs(paper.lo - anchor) < 2
    diff = paper.lo - sound.lo
    assert abs(diff - 1) < Decimal("1e-30")
    assert sound.lo <= paper.lo - 1 + Decimal("1e-30")


def test_log_binomial_bracket_encloses_exact_bracket():
    outer = log_binomial_bracket(10**4, 3000)
    inner = exact_log_binomial(10**4, 3000)
    assert outer.encloses(inner)


def test_log_binomial_errors():
    with pytest.raises(DomainError):
        log_binomial_bracket(5, 6)
    with pytest.raises(DomainError):
        log_binomial_bracket(5, -1)
    with pytest.raises(DomainError):
        log_binomial_bracket(0, 0)
    with pytest.raises(DomainError):
        log_binomial_bracket(10, 3, prec=0)


def test_exact_log_binomial():
    assert exact_log_binomial(4, 2).contains(mp_ln(6))
    assert exact_log_binomial(18, 7).contains(mp_ln(31824))
    bracket = exact_log_binomial(123, 123)
    assert bracket.lo == bracket.hi == 0
    with pytest.raises(DomainError):
        exact_log_binomial(10**5 + 1, 3)
    with pytest.raises(DomainError):
        exact_log_binomial(5, 6)


# -- precision behaviour --------------------------------------------------------


def test_monotone_precision():
    cases = [
        lambda p: _ln(123456789, p),
        lambda p: log_factorial_bracket(1000, p),
        lambda p: log_binomial_bracket(10**4, 3000, p),
    ]
    for make in cases:
        previous = None
        for prec in (15, 25, 40, 60):
            bracket = make(prec)
            if previous is not None:
                assert previous.lo <= bracket.lo
                assert bracket.hi <= previous.hi
                assert _width(bracket) <= _width(previous)
            previous = bracket


# -- digit brackets ---------------------------------------------------------------


def frac_pow10(e: int) -> Fraction:
    return Fraction(10) ** e


def test_veronese_digit_bracket_consistent_with_exact():
    for i in range(1, 18):
        pair = veronese_bounds(2, 5, i)
        bracket = veronese_digit_bracket(2, 5, i)
        assert frac_pow10(bracket.exp_lo) <= pair.lower
        assert pair.upper <= frac_pow10(bracket.exp_hi)
    bracket = veronese_digit_bracket(2, 5, 7)
    assert bracket.exp_lo <= 1
    assert bracket.exp_hi >= 8


def test_veronese_digit_bracket_mid_scale():
    pair = veronese_bounds(2, 100, 2000)
    bracket = veronese_digit_bracket(2, 100, 2000)
    assert frac_pow10(bracket.exp_lo) <= pair.lower
    assert pair.upper <= frac_pow10(bracket.exp_hi)
    assert (bracket.exp_lo, bracket.exp_hi) == (1482, 1501)
    assert (bracket.exp_lo, bracket.exp_hi) == oracle_digit_exponents(
        5148, 5148, 5148, 2, 2000
    )


def test_veronese_digit_bracket_huge():
    bracket = veronese_digit_bracket(2, 10**6, 10**11)
    assert (bracket.exp_lo, bracket.exp_hi) == (108661150966, 108661151025)
    n = 500001499998
    assert (bracket.exp_lo, bracket.exp_hi) == oracle_digit_exponents(n, n, n, 2, 10**11)
    assert bracket.digits_lo == bracket.exp_lo + 1
    assert bracket.digits_hi == bracket.exp_hi + 1


def test_variety_digit_bracket_small():
    bracket = variety_digit_bracket(5, 2, 1, 2)
    assert frac_pow10(bracket.exp_lo) <= Fraction(3, 5)
    assert Fraction(50) <= frac_pow10(bracket.exp_hi)
    assert bracket.exp_lo <= -1
    assert bracket.exp_hi >= 2

    collapsed = variety_digit_bracket(10, 0, 0, 5)
    assert frac_pow10(collapsed.exp_lo) <= 252 <= frac_pow10(collapsed.exp_hi)


def test_variety_digit_bracket_huge():
    bracket = variety_digit_bracket(6441720, 2, 3, 10**6)
    assert (bracket.exp_lo, bracket.exp_hi) == (1207665, 1207714)
    assert (bracket.exp_lo, bracket.exp_hi) == oracle_digit_exponents(
        6441718, 6441720, 6441720, 3, 10**6
    )
    # regression anchor for the unshifted-constants variant at slack 2
    shifted = variety_digit_bracket(6441720, 2, 2, 10**6, paper_constants=True)
    assert (shifted.exp_lo, shifted.exp_hi) == (1207673, 1207707)
    assert (shifted.exp_lo, shifted.exp_hi) == oracle_digit_exponents(
        6441718, 6441720, 6441720, 2, 10**6, paper=True
    )


@st.composite
def target_calls(draw):
    """(exact bounds, arguments, digit bracket, arguments) for one target on
    small inputs, at any column from 0 to the top where the lower bound is
    positive, so both are defined."""
    target = draw(st.sampled_from(("pure", "module", "veronese", "variety")))
    reg = draw(st.integers(0, 6))
    if target == "pure":
        n = draw(st.integers(1, 40))
        args = (n, reg, draw(st.integers(0, n)))
        return pure_bounds, args, pure_digit_bracket, args
    if target == "module":
        codim = draw(st.integers(0, 30))
        pdim = draw(st.integers(codim, 35))
        beta0 = Fraction(draw(st.integers(1, 20)), draw(st.integers(1, 20)))
        args = (codim, pdim, reg, beta0, draw(st.integers(0, codim)))
        return algebraic_bounds, args, algebraic_digit_bracket, args
    if target == "veronese":
        n, d = draw(st.integers(1, 3)), draw(st.integers(1, 6))
        args = (n, d, draw(st.integers(0, veronese_codim(n, d).codim)))
        return veronese_bounds, args, veronese_digit_bracket, args
    dim_l = draw(st.integers(1, 40))
    dim_x = draw(st.integers(0, dim_l))
    args = (dim_l, dim_x, reg, draw(st.integers(0, dim_l - dim_x)))
    return variety_bounds, args, variety_digit_bracket, args


@given(target_calls())
def test_digit_brackets_enclose_exact_bounds(call):
    exact, exact_args, digit_bracket, bracket_args = call
    pair = exact(*exact_args)
    bracket = digit_bracket(*bracket_args)
    assert frac_pow10(bracket.exp_lo) <= pair.lower
    assert pair.upper <= frac_pow10(bracket.exp_hi)


def test_algebraic_digit_bracket_degenerate_and_errors():
    # codim = 0: C(0, 0) = 1 and 0**reg read as 1, so the lower bound is beta0
    bracket = algebraic_digit_bracket(0, 5, 3, Fraction(7, 2), 0)
    assert frac_pow10(bracket.exp_lo) <= Fraction(7, 2)
    assert Fraction(7, 2) * 5**3 <= frac_pow10(bracket.exp_hi)
    with pytest.raises(DomainError, match="lower bound is zero"):
        algebraic_digit_bracket(2, 4, 1, 1, 3)
    with pytest.raises(DomainError):
        algebraic_digit_bracket(3, 2, 1, 1, 1)
    with pytest.raises(DomainError):
        algebraic_digit_bracket(2, 3, 1, 0, 1)


def test_digit_bracket_errors():
    # the end columns 0 and N = 18 take the same inputs as the exact bounds
    for i in (0, 18):
        pair, bracket = veronese_bounds(2, 5, i), veronese_digit_bracket(2, 5, i)
        assert frac_pow10(bracket.exp_lo) <= pair.lower
        assert pair.upper <= frac_pow10(bracket.exp_hi)
    for i in (-1, 19):
        with pytest.raises(DomainError, match=r"\[0, 18\]"):
            veronese_digit_bracket(2, 5, i)
    with pytest.raises(DomainError):
        variety_digit_bracket(5, 2, 1, 5)
    with pytest.raises(DomainError):
        variety_digit_bracket(5, 2, 1, 4)  # exceeds dim_l - dim_x
    with pytest.raises(DomainError):
        variety_digit_bracket(5, 2, -1, 2)


def test_digit_brackets_match_oracle_on_seeded_sweep():
    # pure, Veronese and variety shapes, about two thirds at an end column
    rng = random.Random(20261018)
    checked = 0
    for _ in range(240):
        target, paper = rng.choice(("pure", "veronese", "variety")), rng.random() < 0.3
        reg = rng.choice((0, 1, 2, 3, rng.randint(0, 10**4)))
        if target == "pure":
            n = rng.randint(1, 10 ** rng.randint(1, 9))
            i = rng.choice((0, n, rng.randint(0, n)))
            bracket, oracle = pure_digit_bracket(n, reg, i, 40, paper), (n, n, n, reg, i)
        elif target == "veronese":
            n = rng.randint(1, 3)
            d = rng.randint(1, 10 ** (6 // n))
            big_n = veronese_codim(n, d).codim
            i = rng.choice((0, big_n, rng.randint(0, big_n)))
            bracket = veronese_digit_bracket(n, d, i, 40, paper)
            oracle = (big_n, big_n, big_n, n, i)
        else:
            dim_l = rng.randint(1, 10 ** rng.randint(1, 9))
            dim_x = rng.randint(0, min(dim_l, 5))
            i = rng.choice((0, dim_l - dim_x, rng.randint(0, dim_l - dim_x)))
            bracket = variety_digit_bracket(dim_l, dim_x, reg, i, 40, paper)
            oracle = (dim_l - dim_x, dim_l, dim_l, reg, i)
        lo10, hi10 = oracle_digit_logs(*oracle, paper)
        with mpmath.workdps(60):
            for value, exp, rounded in ((lo10, bracket.exp_lo, mpmath.floor),
                                        (hi10, bracket.exp_hi, mpmath.ceil)):
                if abs(value - mpmath.nint(value)) > mpmath.mpf("1e-20"):
                    assert exp == int(rounded(value)), (target, oracle, paper)
                    checked += 1
    assert checked >= 400


def test_bracket_types_validate():
    with pytest.raises(DomainError):
        LogBracket(Decimal(2), Decimal(1))
    with pytest.raises(DomainError):
        DigitBracket(3, 2)
    assert DigitBracket(2, 5).digits_lo == 3
    assert DigitBracket(2, 5).digits_hi == 6
