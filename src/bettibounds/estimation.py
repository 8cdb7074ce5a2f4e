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

A digit bracket puts -reg ln(base) (+reg in the upper endpoint) and
ln(beta0) into the same sum and divides it by ln 10.  Precision is always an
explicit argument; nothing here mutates global decimal state, and all
functions are pure.

Each ``_<target>_shape`` function checks the arguments of one bound target
and returns (lower_top, lower_base, upper_top, upper_base, reg, beta0), the
shape of the bounds in :mod:`bettibounds.bounds`.  That module imports them,
so its exact bounds and these digit brackets accept the same inputs; it
imports this module, never the reverse.
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
        value = Decimal(value) if not isinstance(value, Decimal) else value
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


def _pure_shape(n: int, r: int, i: int):
    """Pure diagrams of length n with last degree at most n + r."""
    if n < 1:
        raise DomainError(f"sequence length must be at least 1, got {n}")
    if r < 0:
        raise DomainError(f"row slack must be nonnegative, got {r}")
    if i < 0:
        raise DomainError(f"column index must be nonnegative, got {i}")
    return n, n, n, n, r, Fraction(1)


def _module_shape(codim: int, pdim: int, reg: int, beta0, i: int):
    """A module generated in one degree, from its codim, pdim, reg and beta0."""
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
    return codim, codim, pdim, pdim, reg, beta0


def _veronese_shape(n: int, d: int, i: int):
    """The degree-d Veronese of n-space: codim = pdim = N, reg <= n."""
    big_n = veronese_codim(n, d).codim
    if not 0 <= i <= big_n:
        raise DomainError(f"column index must lie in [0, {big_n}], got {i}")
    return big_n, big_n, big_n, big_n, n, Fraction(1)


def _variety_shape(dim_l: int, dim_x: int, reg: int, i: int):
    """A variety X embedded by a complete linear system L."""
    if dim_l < 1:
        raise DomainError(f"dim_l must be positive, got {dim_l}")
    if not 0 <= dim_x <= dim_l:
        raise DomainError(f"dim_x must lie in [0, {dim_l}], got {dim_x}")
    if reg < 0:
        raise DomainError(f"regularity must be nonnegative, got {reg}")
    if i < 0:
        raise DomainError(f"column index must be nonnegative, got {i}")
    return dim_l - dim_x, dim_l, dim_l, dim_l, reg, Fraction(1)


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


def _log_sum(terms, constant: int, prec: int, up: bool) -> Decimal:
    """A lower bound (an upper bound if up) of constant + sum(coef * ln(val))."""
    context = _contexts(prec)[up]
    acc = Decimal(constant)
    for coef, val in terms:
        lo, hi = _ln_enclosure(val, prec)
        acc = context.add(acc, context.multiply(Decimal(coef), hi if (coef < 0) != up else lo))
    return acc


def log_factorial_bracket(c: int, prec: int = DEFAULT_PRECISION) -> LogBracket:
    """Enclosure of ln(c!) from the integral bounds.

    [c ln c - c + 1, (c+1) ln(c+1) - c] for c >= 1; [0, 0] for c = 0.
    """
    if c < 0:
        raise DomainError(f"factorial argument must be nonnegative, got {c}")
    if c == 0:
        return LogBracket(_ZERO, _ZERO)
    return LogBracket(_log_sum([(c, c)], 1 - c, prec, False),
                      _log_sum([(c + 1, c + 1)], -c, prec, True))


def log_factorial_ratio_bracket(a: int, b: int, prec: int = DEFAULT_PRECISION) -> LogBracket:
    """Enclosure of ln(a!/b!) for a >= b >= 1.

    [a ln a - a - b ln b + b, (a+1) ln(a+1) - (b+1) ln(b+1) + b - a].
    """
    if b < 1 or a < b:
        raise DomainError(f"need a >= b >= 1, got ({a}, {b})")
    if a == b:
        return LogBracket(_ZERO, _ZERO)
    return LogBracket(_log_sum([(a, a), (-b, b)], b - a, prec, False),
                      _log_sum([(a + 1, a + 1), (-(b + 1), b + 1)], b - a, prec, True))


def _log_binomial_terms(n: int, i: int, up: bool, paper_constants: bool):
    """(terms, constant) of the lower (upper if up) endpoint of ln C(n, i)
    in the module docstring; none for C(n, 0) = C(n, n) = 1."""
    if i == 0 or i == n:
        return [], 0
    shift = 1 if paper_constants else 0
    if up:
        return [(n + 1, n + 1), (i - n - 1, n - i + 1), (-i, i)], shift - 1
    return [(n, n), (i - n, n - i), (-i - 1, i + 1)], shift


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
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if not 0 <= i <= n:
        raise DomainError(f"column index must lie in [0, {n}], got {i}")
    return LogBracket(*(_log_sum(*_log_binomial_terms(n, i, up, paper_constants), prec, up)
                        for up in (False, True)))


def exact_log_binomial(n: int, i: int, prec: int = DEFAULT_PRECISION) -> LogBracket:
    """Tight enclosure of ln C(n, i) via the exact integer binomial.

    Oracle-grade but limited to n <= 10**5.
    """
    if n > _EXACT_BINOMIAL_LIMIT:
        raise DomainError(f"exact_log_binomial is limited to n <= {_EXACT_BINOMIAL_LIMIT}")
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
                   reg: int, beta0: Fraction, i: int, prec: int,
                   paper_constants: bool) -> DigitBracket:
    """Certifies 10**exp_lo <= beta0 * C(lower_top, i) * lower_base**-reg and
    beta0 * C(upper_top, i) * upper_base**reg <= 10**exp_hi.

    Takes a shape from a ``_<target>_shape`` function and its column index.
    Requires i <= lower_top: otherwise the lower bound is zero and has no
    digit count.
    """
    if i > lower_top:
        raise DomainError(f"column index {i} exceeds {lower_top}; the lower bound is zero")
    beta0_terms = [(1, beta0.numerator), (-1, beta0.denominator)]
    lo_terms, lo_constant = _log_binomial_terms(lower_top, i, False, paper_constants)
    hi_terms, hi_constant = _log_binomial_terms(upper_top, i, True, paper_constants)
    lo_nat = _log_sum(lo_terms + [(-reg, lower_base or 1)] + beta0_terms, lo_constant, prec, False)
    hi_nat = _log_sum(hi_terms + [(reg, upper_base or 1)] + beta0_terms, hi_constant, prec, True)
    return _digit_exponents(lo_nat, hi_nat, prec)


def pure_digit_bracket(
    n: int, r: int, i: int, prec: int = DEFAULT_PRECISION, paper_constants: bool = False,
) -> DigitBracket:
    """Digit bracket for the pure-diagram bounds of :func:`bounds.pure_bounds`.

    Certifies 10**exp_lo <= C(n,i)*n**-r and C(n,i)*n**r <= 10**exp_hi.
    Requires i <= n (otherwise the lower bound is zero and has no digit
    count).
    """
    return _digit_bracket(*_pure_shape(n, r, i), i, prec, paper_constants)


def algebraic_digit_bracket(
    codim: int, pdim: int, reg: int, beta0, i: int,
    prec: int = DEFAULT_PRECISION, paper_constants: bool = False,
) -> DigitBracket:
    """Digit bracket for the module bounds of :func:`bounds.algebraic_bounds`.

    exp_lo bounds beta0 * C(codim, i) * codim**-reg from below and exp_hi
    bounds beta0 * C(pdim, i) * pdim**reg from above.  Requires i <= codim
    (otherwise the lower bound is zero and has no digit count).
    """
    return _digit_bracket(*_module_shape(codim, pdim, reg, beta0, i), i, prec, paper_constants)


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
    return _digit_bracket(*_veronese_shape(n, d, i), i, prec, paper_constants)


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
    return _digit_bracket(*_variety_shape(dim_l, dim_x, reg, i), i, prec, paper_constants)
