"""Rigorous log-space brackets for factorials, binomials and digit counts.

Everything in this module returns *enclosures*: pairs [lo, hi] guaranteed to
contain the true value.  Soundness rests on two mechanisms:

* integral bounds on log-factorials.  Since log is increasing,

      integral_b^a log x dx  <=  log(a!/b!)  <=  integral_(b+1)^(a+1) log x dx,

  which gives, for c >= 1,

      c log c - c + 1  <=  log c!  <=  (c+1) log(c+1) - c.

  (The classically quoted upper endpoint (c+1)log(c+1) - (c+1) fails for
  small c, e.g. c = 2; the shifted constant above is valid for all c >= 1.
  ``paper_constants=True`` switches :func:`log_binomial_bracket` back to the
  unshifted textbook constants for reproducing published intermediate
  values; that variant is not sound for small arguments.)

* outward rounding.  All arithmetic runs in ``decimal`` contexts with
  ROUND_FLOOR for lower endpoints and ROUND_CEILING for upper endpoints, at
  ``prec`` significant digits plus guard digits.  ``decimal``'s ln() is
  correctly rounded but ignores the context rounding mode, so every
  logarithm is widened by two units in the last place before use.

Precision is always an explicit argument; nothing here mutates global
decimal state, and all functions are pure.

The digit brackets of all bound targets share one private bracket of the
shape of the exact bounds in :mod:`bettibounds.bounds`, which imports this
module (its size oracle, ``veronese_codim``, the argument checks), never the
reverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError

#: Default working precision (significant decimal digits).
DEFAULT_PRECISION = 40

_GUARD_DIGITS = 10
_ZERO = Decimal(0)

#: Largest n for which exact_log_binomial will compute C(n, i) exactly.
EXACT_BINOMIAL_LIMIT = 10**5


@dataclass(frozen=True)
class LogBracket:
    """An enclosure [lo, hi] of a natural logarithm."""

    lo: Decimal
    hi: Decimal

    def __post_init__(self):
        if self.lo > self.hi:
            raise DomainError(f"bracket endpoints out of order: [{self.lo}, {self.hi}]")

    def width(self) -> Decimal:
        return self.hi - self.lo

    def contains(self, value) -> bool:
        value = Decimal(value) if not isinstance(value, Decimal) else value
        return self.lo <= value <= self.hi

    def encloses(self, other: "LogBracket") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


@dataclass(frozen=True)
class DigitBracket:
    """Integers certifying 10**exp_lo <= x <= 10**exp_hi.

    Consequently x has between exp_lo + 1 and exp_hi + 1 decimal digits.
    """

    exp_lo: int
    exp_hi: int

    def __post_init__(self):
        if self.exp_lo > self.exp_hi:
            raise DomainError(f"exponents out of order: [{self.exp_lo}, {self.exp_hi}]")

    @property
    def digits_lo(self) -> int:
        return self.exp_lo + 1

    @property
    def digits_hi(self) -> int:
        return self.exp_hi + 1


@dataclass(frozen=True)
class VeroneseParams:
    """Parameters of the degree-d Veronese embedding of n-space.

    codim = C(n+d, n) - n - 1 is the codimension of the image.
    """

    n: int
    d: int
    codim: int


def veronese_codim(n: int, d: int) -> VeroneseParams:
    """Codimension C(n+d, n) - n - 1 of the degree-d Veronese of n-space."""
    if n < 1 or d < 1:
        raise DomainError(f"veronese_codim requires n, d >= 1, got ({n}, {d})")
    return VeroneseParams(n=n, d=d, codim=math.comb(n + d, n) - n - 1)


def _check_module(codim: int, pdim: int, reg: int, beta0, i: int) -> Fraction:
    """Validate module-bound arguments (exact or bracketed); returns beta0 as a Fraction."""
    if codim < 0:
        raise DomainError(f"codim must be nonnegative, got {codim}")
    if pdim < codim:
        raise DomainError(f"pdim ({pdim}) must be at least codim ({codim})")
    if reg < 0:
        raise DomainError(f"regularity must be nonnegative, got {reg}")
    beta0 = Fraction(beta0)
    if beta0 <= 0:
        raise DomainError(f"beta0 must be positive, got {beta0}")
    if i < 0:
        raise DomainError(f"column index must be nonnegative, got {i}")
    return beta0


def _check_variety(dim_l: int, dim_x: int, reg: int, i: int) -> None:
    """Validate variety-bound arguments (exact or bracketed)."""
    if dim_l < 1:
        raise DomainError(f"dim_l must be positive, got {dim_l}")
    if not 0 <= dim_x <= dim_l:
        raise DomainError(f"dim_x must lie in [0, {dim_l}], got {dim_x}")
    if reg < 0:
        raise DomainError(f"regularity must be nonnegative, got {reg}")
    if i < 0:
        raise DomainError(f"column index must be nonnegative, got {i}")


def _contexts(prec: int) -> tuple[Context, Context]:
    """(round-down, round-up) contexts at prec plus guard digits."""
    if prec < 1:
        raise DomainError(f"precision must be a positive integer, got {prec}")
    work = prec + _GUARD_DIGITS
    return (
        Context(prec=work, rounding=ROUND_FLOOR),
        Context(prec=work, rounding=ROUND_CEILING),
    )


@lru_cache(maxsize=4096)
def _ln_enclosure(m: int, prec: int) -> tuple[Decimal, Decimal]:
    """Sound enclosure of ln(m) for an integer m >= 1.

    decimal's ln() is correctly rounded (error <= 0.5 ulp) but always rounds
    half-even, so the result is widened by 2 ulp on each side.
    """
    if m == 1:
        return (_ZERO, _ZERO)
    work = prec + _GUARD_DIGITS
    value = Context(prec=work).ln(Decimal(m))
    ulp = Decimal(1).scaleb(value.adjusted() - work + 1)
    pad = Context(prec=work + 4)
    return (pad.subtract(value, 2 * ulp), pad.add(value, 2 * ulp))


def ln_bracket(m: int, prec: int = DEFAULT_PRECISION) -> LogBracket:
    """Tight enclosure of ln(m) for a positive integer m."""
    if m < 1:
        raise DomainError(f"ln_bracket requires a positive integer, got {m}")
    if prec < 1:
        raise DomainError(f"precision must be a positive integer, got {prec}")
    lo, hi = _ln_enclosure(int(m), prec)
    return LogBracket(lo, hi)


def _sum_down(terms, constant: int, prec: int) -> Decimal:
    """Lower bound of sum(coef * ln(val)) + constant, rounded down stepwise."""
    down, _ = _contexts(prec)
    acc = Decimal(constant)
    for coef, val in terms:
        lo, hi = _ln_enclosure(val, prec)
        acc = down.add(acc, down.multiply(Decimal(coef), lo if coef >= 0 else hi))
    return acc


def _sum_up(terms, constant: int, prec: int) -> Decimal:
    """Upper bound of sum(coef * ln(val)) + constant, rounded up stepwise."""
    _, up = _contexts(prec)
    acc = Decimal(constant)
    for coef, val in terms:
        lo, hi = _ln_enclosure(val, prec)
        acc = up.add(acc, up.multiply(Decimal(coef), hi if coef >= 0 else lo))
    return acc


def log_factorial_bracket(c: int, prec: int = DEFAULT_PRECISION) -> LogBracket:
    """Enclosure of ln(c!) from the integral bounds.

    [c ln c - c + 1, (c+1) ln(c+1) - c] for c >= 1; [0, 0] for c = 0.  The
    lower endpoint is clamped to 0 for c <= 1 (0! = 1! = 1).
    """
    if c < 0:
        raise DomainError(f"factorial argument must be nonnegative, got {c}")
    if c == 0:
        return LogBracket(_ZERO, _ZERO)
    lo = _sum_down([(c, c)], 1 - c, prec)
    if c == 1 and lo < 0:
        lo = _ZERO
    hi = _sum_up([(c + 1, c + 1)], -c, prec)
    return LogBracket(lo, hi)


def log_factorial_ratio_bracket(a: int, b: int, prec: int = DEFAULT_PRECISION) -> LogBracket:
    """Enclosure of ln(a!/b!) for a >= b >= 1.

    [a ln a - a - b ln b + b, (a+1) ln(a+1) - (b+1) ln(b+1) + b - a].
    """
    if b < 1 or a < b:
        raise DomainError(f"need a >= b >= 1, got ({a}, {b})")
    if a == b:
        return LogBracket(_ZERO, _ZERO)
    lo = _sum_down([(a, a), (-b, b)], b - a, prec)
    hi = _sum_up([(a + 1, a + 1), (-(b + 1), b + 1)], b - a, prec)
    return LogBracket(lo, hi)


def _paper_factorial_bounds(c: int, prec: int) -> tuple[Decimal, Decimal]:
    """Textbook constants [c ln c - c, (c+1) ln(c+1) - (c+1)] for c >= 1.

    Used only by paper_constants mode; the upper endpoint undershoots
    ln(c!) for 2 <= c <= 5.
    """
    lo = _sum_down([(c, c)], -c, prec)
    hi = _sum_up([(c + 1, c + 1)], -(c + 1), prec)
    return lo, hi


def log_binomial_bracket(
    n: int,
    i: int,
    prec: int = DEFAULT_PRECISION,
    paper_constants: bool = False,
) -> LogBracket:
    """Enclosure of ln C(n, i) from the integral bounds.

    Assembled as the ratio bracket for n!/(n-i)! minus the factorial bracket
    for i!, all rounded outward:

        lower = n ln n - (n-i) ln(n-i) - (i+1) ln(i+1)
        upper = (n+1) ln(n+1) - (n-i+1) ln(n-i+1) - i ln i - 1

    With paper_constants=True both endpoints shift by +1, reproducing the
    unshifted textbook constants (not sound for small i).
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if not 0 <= i <= n:
        raise DomainError(f"column index must lie in [0, {n}], got {i}")
    if i == 0 or i == n:
        return LogBracket(_ZERO, _ZERO)
    down, up = _contexts(prec)
    ratio = log_factorial_ratio_bracket(n, n - i, prec)
    if paper_constants:
        fact_lo, fact_hi = _paper_factorial_bounds(i, prec)
    else:
        fact = log_factorial_bracket(i, prec)
        fact_lo, fact_hi = fact.lo, fact.hi
    return LogBracket(down.subtract(ratio.lo, fact_hi), up.subtract(ratio.hi, fact_lo))


def exact_log_binomial(n: int, i: int, prec: int = DEFAULT_PRECISION) -> LogBracket:
    """Tight enclosure of ln C(n, i) via the exact integer binomial.

    Oracle-grade but limited to n <= EXACT_BINOMIAL_LIMIT.
    """
    if n > EXACT_BINOMIAL_LIMIT:
        raise DomainError(f"exact_log_binomial is limited to n <= {EXACT_BINOMIAL_LIMIT}")
    if n < 0 or not 0 <= i <= n:
        raise DomainError(f"column index must lie in [0, {n}], got {i}")
    return ln_bracket(math.comb(n, i), prec)


def _digit_exponents(lo_nat: Decimal, hi_nat: Decimal, prec: int) -> DigitBracket:
    """Convert a natural-log enclosure to floor/ceil base-10 exponents."""
    down, up = _contexts(prec)
    ln10_lo, ln10_hi = _ln_enclosure(10, prec)
    lo10 = down.divide(lo_nat, ln10_hi if lo_nat >= 0 else ln10_lo)
    hi10 = up.divide(hi_nat, ln10_lo if hi_nat >= 0 else ln10_hi)
    exp_lo = int(lo10.to_integral_value(rounding=ROUND_FLOOR))
    exp_hi = int(hi10.to_integral_value(rounding=ROUND_CEILING))
    return DigitBracket(exp_lo, exp_hi)


def _digit_bracket(lower_top: int, lower_base: int, upper_top: int, upper_base: int,
                   reg: int, beta0, i: int, prec: int, paper_constants: bool) -> DigitBracket:
    """Certifies 10**exp_lo <= beta0 * C(lower_top, i) * lower_base**-reg and
    beta0 * C(upper_top, i) * upper_base**reg <= 10**exp_hi.

    A base of 0 reads base**reg as 1.  Requires i <= lower_top: otherwise the
    lower bound is zero and has no digit count.
    """
    if i > lower_top:
        raise DomainError(f"column index {i} exceeds {lower_top}; the lower bound is zero")
    # A top of 0 comes only with i = 0, and C(0, 0) = C(1, 0) = 1: max(top, 1)
    # gives log_binomial_bracket the top >= 1 it requires.
    high = log_binomial_bracket(max(upper_top, 1), i, prec, paper_constants=paper_constants)
    low = high if lower_top == upper_top else log_binomial_bracket(
        max(lower_top, 1), i, prec, paper_constants=paper_constants)
    beta0 = Fraction(beta0)
    beta0_terms = [(1, beta0.numerator), (-1, beta0.denominator)]
    down, up = _contexts(prec)
    lo_nat = down.add(low.lo, _sum_down([(-reg, lower_base or 1)] + beta0_terms, 0, prec))
    hi_nat = up.add(high.hi, _sum_up([(reg, upper_base or 1)] + beta0_terms, 0, prec))
    return _digit_exponents(lo_nat, hi_nat, prec)


def algebraic_digit_bracket(
    codim: int, pdim: int, reg: int, beta0, i: int,
    prec: int = DEFAULT_PRECISION, paper_constants: bool = False,
) -> DigitBracket:
    """Digit bracket for the module bounds of :func:`bounds.algebraic_bounds`.

    exp_lo bounds beta0 * C(codim, i) * codim**-reg from below and exp_hi
    bounds beta0 * C(pdim, i) * pdim**reg from above; the pure-diagram bounds
    are the case (N, N, r, 1, i).  Requires i <= codim (otherwise the lower
    bound is zero and has no digit count).
    """
    beta0 = _check_module(codim, pdim, reg, beta0, i)
    return _digit_bracket(codim, codim, pdim, pdim, reg, beta0, i, prec, paper_constants)


def veronese_digit_bracket(
    n: int,
    d: int,
    i: int,
    prec: int = DEFAULT_PRECISION,
    paper_constants: bool = False,
) -> DigitBracket:
    """Digit bracket for the Veronese Betti-number bounds C(N,i)*N**(+-n).

    Certifies 10**exp_lo <= C(N,i)*N**-n and C(N,i)*N**n <= 10**exp_hi,
    with N the Veronese codimension; requires 0 < i < N.
    """
    big_n = veronese_codim(n, d).codim
    if not 0 < i < big_n:
        raise DomainError(f"column index must lie strictly inside (0, {big_n}), got {i}")
    return _digit_bracket(big_n, big_n, big_n, big_n, n, 1, i, prec, paper_constants)


def variety_digit_bracket(
    dim_l: int,
    dim_x: int,
    reg: int,
    i: int,
    prec: int = DEFAULT_PRECISION,
    paper_constants: bool = False,
) -> DigitBracket:
    """Digit bracket for the variety bounds of :func:`bounds.variety_bounds`.

    exp_lo bounds C(dim_l - dim_x, i) * dim_l**-reg from below and exp_hi
    bounds C(dim_l, i) * dim_l**reg from above.  Requires 0 < i < dim_l and
    i <= dim_l - dim_x (otherwise the lower bound is zero and has no digit
    count).
    """
    _check_variety(dim_l, dim_x, reg, i)
    if not 0 < i < dim_l:
        raise DomainError(f"column index must lie strictly inside (0, {dim_l}), got {i}")
    return _digit_bracket(dim_l - dim_x, dim_l, dim_l, dim_l, reg, 1, i, prec, paper_constants)
