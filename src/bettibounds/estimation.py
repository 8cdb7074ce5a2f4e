"""Rigorous log-space brackets for factorials, binomials and digit counts.

Everything in this module returns *enclosures*: pairs [lo, hi] guaranteed to
contain the true value.  Each endpoint is one sum, constant + sum of
coef * ln(val) over integers coef and val >= 1, which :func:`_log_sum`
evaluates in a single directed pass.  Soundness rests on two mechanisms:

* integral bounds on log-factorials.  Since log is increasing,

      integral_b^a log x dx  <=  log(a!/b!)  <=  integral_(b+1)^(a+1) log x dx,

  which gives, for c >= 1 and 0 < i < n,

      c ln c - c + 1  <=  ln c!  <=  (c+1) ln(c+1) - c,

      n ln n - (n-i) ln(n-i) - (i+1) ln(i+1)  <=  ln C(n, i)
          <=  (n+1) ln(n+1) - (n-i+1) ln(n-i+1) - i ln i - 1.

  (The classically quoted upper endpoint (c+1)ln(c+1) - (c+1) fails for
  small c, e.g. c = 2; the shifted constant above is valid for all c >= 1.
  ``paper_constants=True`` adds 1 to both constants of the binomial, giving
  the unshifted textbook constants for reproducing published intermediate
  values; that variant is not sound for small arguments.)

* outward rounding.  A lower endpoint uses the lower enclosure of ln(val)
  where coef >= 0 and the upper one where coef < 0, and rounds every step
  with ROUND_FLOOR; an upper endpoint mirrors this with ROUND_CEILING, at
  ``prec`` significant digits plus guard digits.  ``decimal``'s ln() is
  correctly rounded but ignores the context rounding mode, so every
  logarithm is widened by two units in the last place before use.

A bound is a (lower, upper) pair of terms beta0 * C(top, i) * base**power,
with base >= 1 (the paper's base 0 reads 0**reg = 1) and power -reg, +reg.
A digit bracket divides a lower endpoint of ln(lower) and an upper one of
ln(upper) by ln 10.  Precision is always an explicit argument; nothing here
mutates global decimal state, and all functions are pure.

Each ``_<target>_shape`` function checks the arguments of one bound target
and returns its (lower, upper) pair of terms with the column index i, both
read through ``operator.index``.  :mod:`bettibounds.bounds`
evaluates the same terms exactly and decides its digit budget from their
base-10 enclosure, so its exact bounds and these digit brackets accept the
same inputs; it imports this module, never the reverse.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import DomainError, rational, shown

#: Default working precision (significant decimal digits).
DEFAULT_PRECISION = 40

_GUARD_DIGITS = 10
_ZERO = Decimal(0)
_ONE = Fraction(1)

#: Largest n for which exact_log_binomial will compute C(n, i) exactly.
_EXACT_BINOMIAL_LIMIT = 10**5


@dataclass(frozen=True)
class LogBracket:
    """An enclosure [lo, hi] of a natural logarithm."""

    lo: Decimal
    hi: Decimal

    def __post_init__(self):
        if self.lo > self.hi:
            raise DomainError(f"bracket endpoints out of order: [{self.lo}, {self.hi}]")

    def contains(self, value) -> bool:
        """Whether lo <= value <= hi, for a Decimal, an int or a Fraction; TypeError otherwise."""
        value = value if isinstance(value, Decimal) else rational(value)
        return self.lo <= value <= self.hi

    def encloses(self, other: "LogBracket") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


@dataclass(frozen=True)
class DigitBracket:
    """Integers certifying 10**exp_lo <= x <= 10**exp_hi.

    ``digits_lo`` and ``digits_hi`` are exp_lo + 1 and exp_hi + 1.  When
    exp_lo >= 0 they bound the number of decimal digits of x; below that x
    may be less than 1 and they count nothing.
    """

    exp_lo: int
    exp_hi: int

    def __post_init__(self):
        if self.exp_lo > self.exp_hi:
            raise DomainError(
                f"exponents out of order: [{shown(self.exp_lo)}, {shown(self.exp_hi)}]")

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


# A bounds command needs N up to three times; typed, so that (2.0, 5) misses (2, 5).
@lru_cache(maxsize=1, typed=True)
def veronese_codim(n: int, d: int) -> VeroneseParams:
    """Codimension C(n+d, n) - n - 1 of the degree-d Veronese of n-space."""
    n, d = operator.index(n), operator.index(d)
    if n < 1 or d < 1:
        raise DomainError(f"veronese_codim requires n, d >= 1, got ({shown(n)}, {shown(d)})")
    return VeroneseParams(n=n, d=d, codim=math.comb(n + d, n) - n - 1)


class _Term(NamedTuple):
    """beta0 * C(top, i) * base**power at a column i, with base >= 1."""

    beta0: Fraction
    top: int
    base: int
    power: int


def _term(beta0: Fraction, top: int, base: int, power: int) -> _Term:
    """The paper's term; its base 0 stands for 0**reg = 1, so it becomes 1."""
    return _Term(beta0, top, base or 1, power)


def _pure_shape(n: int, r: int, i: int):
    """Pure diagrams of length n with last degree at most n + r."""
    n, r, i = map(operator.index, (n, r, i))
    if n < 1:
        raise DomainError(f"sequence length must be at least 1, got {shown(n)}")
    if r < 0:
        raise DomainError(f"row slack must be nonnegative, got {shown(r)}")
    if i < 0:
        raise DomainError(f"column index must be nonnegative, got {shown(i)}")
    return (_term(_ONE, n, n, -r), _term(_ONE, n, n, r)), i


def _module_shape(codim: int, pdim: int, reg: int, beta0, i: int):
    """A module generated in one degree, from its codim, pdim, reg and beta0."""
    codim, pdim, reg, i = map(operator.index, (codim, pdim, reg, i))
    if codim < 0:
        raise DomainError(f"codim must be nonnegative, got {shown(codim)}")
    if pdim < codim:
        raise DomainError(f"pdim ({shown(pdim)}) must be at least codim ({shown(codim)})")
    if reg < 0:
        raise DomainError(f"regularity must be nonnegative, got {shown(reg)}")
    beta0 = rational(beta0)
    if beta0 <= 0:
        raise DomainError(f"beta0 must be positive, got {shown(beta0)}")
    if i < 0:
        raise DomainError(f"column index must be nonnegative, got {shown(i)}")
    return (_term(beta0, codim, codim, -reg), _term(beta0, pdim, pdim, reg)), i


def _veronese_shape(n: int, d: int, i: int):
    """The degree-d Veronese of n-space: codim = pdim = N, reg <= n."""
    params, i = veronese_codim(n, d), operator.index(i)
    big_n, n = params.codim, params.n
    if not 0 <= i <= big_n:
        raise DomainError(f"column index must lie in [0, {shown(big_n)}], got {shown(i)}")
    return (_term(_ONE, big_n, big_n, -n), _term(_ONE, big_n, big_n, n)), i


def _variety_shape(dim_l: int, dim_x: int, reg: int, i: int):
    """A variety X embedded by a complete linear system L."""
    dim_l, dim_x, reg, i = map(operator.index, (dim_l, dim_x, reg, i))
    if dim_l < 1:
        raise DomainError(f"dim_l must be positive, got {shown(dim_l)}")
    if not 0 <= dim_x <= dim_l:
        raise DomainError(f"dim_x must lie in [0, {shown(dim_l)}], got {shown(dim_x)}")
    if reg < 0:
        raise DomainError(f"regularity must be nonnegative, got {shown(reg)}")
    if i < 0:
        raise DomainError(f"column index must be nonnegative, got {shown(i)}")
    return (_term(_ONE, dim_l - dim_x, dim_l, -reg), _term(_ONE, dim_l, dim_l, reg)), i


def _contexts(prec: int) -> tuple[Context, Context]:
    """(round-down, round-up) contexts at prec plus guard digits; the one
    check of every precision argument."""
    prec = operator.index(prec)
    if prec < 1:
        raise DomainError(f"precision must be a positive integer, got {shown(prec)}")
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


def _log_sum(terms, constant: int, prec: int, up: bool) -> Decimal:
    """A lower bound (an upper bound if up) of constant + sum(coef * ln(val))."""
    context = _contexts(prec)[up]
    acc = Decimal(constant)
    for coef, val in terms:
        if val == 1:  # adds exactly 0; skipped so that a sum of none is +0, not -0
            continue
        lo, hi = _ln_enclosure(val, prec)
        acc = context.add(acc, context.multiply(Decimal(coef), hi if (coef < 0) != up else lo))
    return acc


def log_factorial_bracket(c: int, prec: int = DEFAULT_PRECISION) -> LogBracket:
    """Enclosure of ln(c!) from the integral bounds.

    [c ln c - c + 1, (c+1) ln(c+1) - c] for c >= 1; [0, 0] for c = 0.
    """
    c = operator.index(c)
    if c < 0:
        raise DomainError(f"factorial argument must be nonnegative, got {shown(c)}")
    _contexts(prec)  # checks prec, which c = 0 does not reach
    if c == 0:
        return LogBracket(_ZERO, _ZERO)
    return LogBracket(_log_sum([(c, c)], 1 - c, prec, False),
                      _log_sum([(c + 1, c + 1)], -c, prec, True))


def _log_term(term: _Term, i: int, prec: int, up: bool, paper_constants: bool) -> Decimal:
    """A lower bound (an upper bound if up) of ln(term) at column i <= term.top,
    with C(top, i) from the integral bounds, or 1 at the end columns."""
    n, terms, constant = term.top, [], 0
    if 0 < i < n:
        constant = (1 if paper_constants else 0) - up
        terms = ([(n + 1, n + 1), (i - n - 1, n - i + 1), (-i, i)] if up
                 else [(n, n), (i - n, n - i), (-i - 1, i + 1)])
    terms += [(term.power, term.base), (1, term.beta0.numerator), (-1, term.beta0.denominator)]
    return _log_sum(terms, constant, prec, up)


def log_binomial_bracket(
    n: int,
    i: int,
    prec: int = DEFAULT_PRECISION,
    paper_constants: bool = False,
) -> LogBracket:
    """Enclosure of ln C(n, i) from the integral bounds:

        lower = n ln n - (n-i) ln(n-i) - (i+1) ln(i+1)
        upper = (n+1) ln(n+1) - (n-i+1) ln(n-i+1) - i ln i - 1

    for 0 < i < n, and [0, 0] for i = 0 or i = n.  With paper_constants=True
    both endpoints shift by +1, reproducing the unshifted textbook constants
    (not sound for small i).
    """
    n, i = operator.index(n), operator.index(i)
    if n < 1:
        raise DomainError(f"need n >= 1, got {shown(n)}")
    if not 0 <= i <= n:
        raise DomainError(f"column index must lie in [0, {shown(n)}], got {shown(i)}")
    term = _Term(_ONE, n, 1, 0)
    return LogBracket(*(_log_term(term, i, prec, up, paper_constants) for up in (False, True)))


def exact_log_binomial(n: int, i: int, prec: int = DEFAULT_PRECISION) -> LogBracket:
    """Tight enclosure of ln C(n, i) via the exact integer binomial.

    Oracle-grade but limited to n <= 10**5.
    """
    n, i = operator.index(n), operator.index(i)
    if n > _EXACT_BINOMIAL_LIMIT:
        raise DomainError(f"exact_log_binomial is limited to n <= {_EXACT_BINOMIAL_LIMIT}")
    if n < 0 or not 0 <= i <= n:
        raise DomainError(f"column index must lie in [0, {shown(n)}], got {shown(i)}")
    _contexts(prec)  # checks prec, as every bracket does
    return LogBracket(*_ln_enclosure(math.comb(n, i), prec))


def _log10_bracket(lower: _Term, upper: _Term, i: int, prec: int, paper_constants=False):
    """Decimals (lo, hi) with 10**lo <= lower and upper <= 10**hi at column i."""
    down, up = _contexts(prec)
    ln10_lo, ln10_hi = _ln_enclosure(10, prec)
    lo_nat = _log_term(lower, i, prec, False, paper_constants)
    hi_nat = _log_term(upper, i, prec, True, paper_constants)
    return (down.divide(lo_nat, ln10_hi if lo_nat >= 0 else ln10_lo),
            up.divide(hi_nat, ln10_lo if hi_nat >= 0 else ln10_hi))


def _digit_bracket(terms, i: int, prec: int, paper_constants: bool) -> DigitBracket:
    """Certifies 10**exp_lo <= lower and upper <= 10**exp_hi at column i, for
    the (lower, upper) terms and the i of a ``_<target>_shape`` function.
    Requires i <= lower.top: otherwise the lower bound is zero and has no
    digit count.
    """
    lower, upper = terms
    if i > lower.top:
        raise DomainError(
            f"column index {shown(i)} exceeds {shown(lower.top)}; the lower bound is zero")
    lo10, hi10 = _log10_bracket(lower, upper, i, prec, paper_constants)
    return DigitBracket(int(lo10.to_integral_value(rounding=ROUND_FLOOR)),
                        int(hi10.to_integral_value(rounding=ROUND_CEILING)))


def pure_digit_bracket(
    n: int, r: int, i: int, prec: int = DEFAULT_PRECISION, paper_constants: bool = False,
) -> DigitBracket:
    """Digit bracket for the pure-diagram bounds of :func:`bounds.pure_bounds`.

    Certifies 10**exp_lo <= C(n,i)*n**-r and C(n,i)*n**r <= 10**exp_hi.
    Requires i <= n (otherwise the lower bound is zero and has no digit
    count).
    """
    return _digit_bracket(*_pure_shape(n, r, i), prec, paper_constants)


def algebraic_digit_bracket(
    codim: int, pdim: int, reg: int, beta0, i: int,
    prec: int = DEFAULT_PRECISION, paper_constants: bool = False,
) -> DigitBracket:
    """Digit bracket for the module bounds of :func:`bounds.algebraic_bounds`.

    exp_lo bounds beta0 * C(codim, i) * codim**-reg from below and exp_hi
    bounds beta0 * C(pdim, i) * pdim**reg from above.  Requires i <= codim
    (otherwise the lower bound is zero and has no digit count).
    """
    return _digit_bracket(*_module_shape(codim, pdim, reg, beta0, i), prec, paper_constants)


def veronese_digit_bracket(
    n: int,
    d: int,
    i: int,
    prec: int = DEFAULT_PRECISION,
    paper_constants: bool = False,
) -> DigitBracket:
    """Digit bracket for the Veronese Betti-number bounds C(N,i)*N**(+-n).

    Certifies 10**exp_lo <= C(N,i)*N**-n and C(N,i)*N**n <= 10**exp_hi,
    with N the Veronese codimension; requires 0 <= i <= N.
    """
    return _digit_bracket(*_veronese_shape(n, d, i), prec, paper_constants)


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
    bounds C(dim_l, i) * dim_l**reg from above.  Requires i <= dim_l - dim_x
    (otherwise the lower bound is zero and has no digit count).
    """
    return _digit_bracket(*_variety_shape(dim_l, dim_x, reg, i), prec, paper_constants)
