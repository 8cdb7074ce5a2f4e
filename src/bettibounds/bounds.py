"""Exact binomial-coefficient bounds on total Betti numbers.

For a pure diagram of a length-n degree sequence d with d_0 = 0 and
d_n <= n + r, every total Betti number satisfies

    C(n, i) * n**-r  <=  beta_i  <=  C(n, i) * n**r,

and more generally, for a module with invariants (codim, pdim, reg, beta_0),

    beta_0 * C(codim, i) * codim**-reg  <=  beta_i
                                        <=  beta_0 * C(pdim, i) * pdim**reg.

Specializations cover Veronese embeddings of projective space (codim = pdim
= C(n+d, n) - n - 1, reg <= n) and an arbitrary embedded variety in terms of
dim |L|, dim X and the regularity.  All four have the shape
beta0 * C(a, i) * b**-reg <= beta_i <= beta0 * C(c, i) * d**reg, a <= c, b <= d,
a (lower, upper) pair of the terms of :mod:`bettibounds.estimation`.

Everything here is exact rational arithmetic.  Each exact factor of an upper
bound, its binomial and its power, may have at most ``digit_budget`` decimal
digits; past it the call raises ``TooLarge``, so callers can switch to the
digit brackets of :mod:`bettibounds.estimation`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, TooLarge, rational, shown
from .estimation import DEFAULT_PRECISION, _ONE, _Term, _log10_bracket
from .estimation import _module_shape, _pure_shape, _variety_shape, _veronese_shape

#: Default budget for each exact factor of a bound, in decimal digits.
DEFAULT_DIGIT_BUDGET = 10**6


@dataclass(frozen=True)
class BoundPair:
    """An exact lower/upper bound pair, lower <= upper."""

    lower: Fraction
    upper: Fraction

    def __post_init__(self):
        if self.lower > self.upper:
            raise DomainError(
                f"lower bound {shown(self.lower)} exceeds upper bound {shown(self.upper)}")

    def __iter__(self):
        return iter((self.lower, self.upper))

    def contains(self, value) -> bool:
        return self.lower <= rational(value) <= self.upper


def _within_budget(factor: _Term, i: int, digit_budget: int) -> int:
    """x = C(factor.top, i) * factor.base**factor.power for a factor of a bound:
    a binomial (base 1, power 0) or a power (top 0, i = 0), with beta0 = 1.
    Raises TooLarge naming the factor unless x has at most digit_budget
    digits, that is x < 10**digit_budget.

    The bit bounds 2**low <= x < 2**bits settle most cases, the lower one
    from C(top, j) >= (top/j)**j.  The others go to the factor's base-10
    enclosure, at a precision that grows with its top; only when it straddles
    digit_budget is x computed and compared with 10**digit_budget.  The
    decision is always exact.
    """
    top, base, power = factor.top, factor.base, factor.power
    j = min(i, top - i)
    bits = min(top, j * top.bit_length()) + power * base.bit_length()
    if bits * 30103 // 10**5 < digit_budget:  # 0.30103 > log10(2)
        return math.comb(top, j) * base**power
    low = j * max(0, top.bit_length() - 1 - j.bit_length()) + power * (base.bit_length() - 1)
    if low * 30102999566398119521 // 10**20 < digit_budget:  # constant < log10(2)
        lo, hi = _log10_bracket(factor, factor, j, DEFAULT_PRECISION + top.bit_length() // 3)
        if lo < digit_budget:
            value = math.comb(top, j) * base**power
            if hi < digit_budget or value < 10**digit_budget:
                return value
    if top:
        raise TooLarge(top, i, digit_budget)
    raise TooLarge(base, power, digit_budget, power=True)


def ensure_binomial_budget(n: int, k: int, digit_budget: int) -> int:
    """Exact C(n, k) (0 when k < 0 or k > n), or TooLarge when it has more
    than digit_budget decimal digits.  The decision is always exact.
    """
    n, k, digit_budget = map(operator.index, (n, k, digit_budget))
    if not 0 < k < n:
        return int(0 <= k <= n)
    return _within_budget(_Term(_ONE, n, 1, 0), k, digit_budget)


def _smaller_binomial(binomial: int, c: int, a: int, i: int) -> int:
    """C(a, i) for 0 <= a <= c, given binomial = C(c, i).

    While the gap c - a is small next to i, it comes from the identity
    C(a, i) = C(c, i) * perm(c - i, c - a) // perm(c, c - a), which also holds
    for i > a, where perm(c - i, c - a) = 0.  That is two products with
    (c - a)-factor integers: 0.1 ms against 92 ms for a second ``math.comb``
    at c = 478525, i = 34192, c - a = 3 (CPython 3.11).  It stays ahead up to
    a gap of about i / 3; the rule stops at i / 8 and calls ``math.comb``.
    """
    gap = c - a
    if 8 * gap <= i:
        return binomial * math.perm(c - i, gap) // math.perm(c, gap)
    return math.comb(a, i)


def _bound_pair(terms: tuple[_Term, _Term], i: int, digit_budget: int) -> BoundPair:
    """The exact values at column i of the (lower, upper) terms of a
    ``_<target>_shape`` function of :mod:`bettibounds.estimation`, which also
    gives the column index i.

    The budget guards the upper term's binomial and power; the lower term's
    are never larger, since lower.top <= upper.top and lower.base <= upper.base.
    """
    lower, upper = terms
    digit_budget = operator.index(digit_budget)
    upper_binomial = ensure_binomial_budget(upper.top, i, digit_budget)
    if upper_binomial == 0:  # then C(lower.top, i) = 0 as well
        return BoundPair(Fraction(0), Fraction(0))
    upper_power = _within_budget(_Term(_ONE, 0, upper.base, upper.power), 0, digit_budget)
    lower_binomial = _smaller_binomial(upper_binomial, upper.top, lower.top, i)
    lower_power = upper_power if lower.base == upper.base else lower.base**-lower.power
    return BoundPair(lower.beta0 * lower_binomial / lower_power,
                     upper.beta0 * upper_binomial * upper_power)


def pure_bounds(n: int, r: int, i: int, digit_budget: int = DEFAULT_DIGIT_BUDGET) -> BoundPair:
    """Bounds C(n,i)*n**-r <= beta_i <= C(n,i)*n**r for pure diagrams.

    Valid for every length-n degree sequence starting at 0 with last entry
    at most n + r.  Exact rationals; i above n yields (0, 0).  Raises
    TooLarge when C(n, i) or n**r would exceed the digit budget.
    """
    return _bound_pair(*_pure_shape(n, r, i), digit_budget)


def extremal_sequences(
    n: int, r: int, i: int, a: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The minimizing and maximizing degree sequences for column i.

    Among length-n sequences with d_0 = 0, d_n <= n + r and d_i = i + a,
    beta_i is minimized by

        d_min = (0, 1, ..., i-1, i+a, i+r+1, i+r+2, ..., n+r)

    and maximized by

        d_max = (0, a+1, a+2, ..., n+a).

    Returns (d_min, d_max).
    """
    n, r, i, a = map(operator.index, (n, r, i, a))
    if n < 1:
        raise DomainError(f"sequence length must be at least 1, got {shown(n)}")
    if not 0 <= a <= r:
        raise DomainError(f"offset a must lie in [0, {shown(r)}], got {shown(a)}")
    if not 1 <= i <= n:
        raise DomainError(f"column index must lie in [1, {shown(n)}], got {shown(i)}")
    d_max = tuple([0] + [a + k for k in range(1, n + 1)])
    d_min = tuple(list(range(i)) + [i + a] + list(range(i + r + 1, n + r + 1)))
    return d_min, d_max


def algebraic_bounds(
    codim: int, pdim: int, reg: int, beta0, i: int, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> BoundPair:
    """Bounds on beta_i for a module generated in a single degree.

    lower = beta0 * C(codim, i) * codim**-reg
    upper = beta0 * C(pdim, i) * pdim**reg

    Degenerate conventions: codim = 0 gives lower beta0 for i = 0 (a free
    module is its own resolution) and 0 for i > 0; pdim = 0 reads
    pdim**reg as 1.  Indices above pdim yield (0, 0).  Raises TooLarge when
    C(pdim, i) or pdim**reg would exceed the digit budget.
    """
    return _bound_pair(*_module_shape(codim, pdim, reg, beta0, i), digit_budget)


def veronese_bounds(
    n: int, d: int, i: int, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> BoundPair:
    """Exact bounds C(N,i)*N**-n <= beta_i <= C(N,i)*N**n for the Veronese.

    N is the codimension from :func:`veronese_codim`; the regularity of the
    coordinate ring is at most n, which fixes the error factor N**(+-n).
    Raises TooLarge when C(N, i) or N**n would exceed the digit budget and
    DomainError when i lies outside [0, N].  The degenerate embedding
    (n = d = 1, N = 0) follows the free-module conventions.
    """
    return _bound_pair(*_veronese_shape(n, d, i), digit_budget)


def variety_bounds(
    dim_l: int, dim_x: int, reg: int, i: int, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> BoundPair:
    """Bounds for a variety X embedded by a complete linear system L.

    lower = C(dim_l - dim_x, i) * dim_l**-reg
    upper = C(dim_l, i) * dim_l**reg

    dim_l is the projective dimension of the system, dim_x the dimension of
    the variety and reg the regularity of its coordinate ring.  Raises
    TooLarge when C(dim_l, i) or dim_l**reg would exceed the digit budget.
    """
    return _bound_pair(*_variety_shape(dim_l, dim_x, reg, i), digit_budget)


def hypersurface_dim_l(m: int, delta: int, e: int) -> int:
    """dim |O_X(e)| for a degree-delta hypersurface X inside m-space.

    Equals C(e+m, m) - C(e-delta+m, m) - 1, the second term read as 0 when
    e < delta.  Counts a basis of degree-e forms modulo the hypersurface
    equation, minus one for projectivization.  Never negative: for
    e >= delta >= 1, C(e+m, m) - C(e-delta+m, m) >= C(e+m-1, m-1) >= 1, and
    for e < delta the value is C(e+m, m) - 1 >= m.
    """
    m, delta, e = map(operator.index, (m, delta, e))
    if m < 1 or delta < 1 or e < 1:
        raise DomainError(f"hypersurface_dim_l requires m, delta, e >= 1, "
                          f"got ({shown(m)}, {shown(delta)}, {shown(e)})")
    removed = math.comb(e - delta + m, m) if e >= delta else 0
    return math.comb(e + m, m) - removed - 1


def check_rising_factorial_bound(n: int, i: int, a: int) -> bool:
    """Exact check of ((n+a)...(n+1)/a!) * i/(i+a) <= n**a.

    Holds for all n >= 1, 1 <= i <= n, a >= 0; it is the inequality behind
    the upper bound of :func:`pure_bounds`.
    """
    n, i, a = map(operator.index, (n, i, a))
    if n < 1 or not 1 <= i <= n or a < 0:
        raise DomainError(
            f"need n >= 1, 1 <= i <= n, a >= 0; got ({shown(n)}, {shown(i)}, {shown(a)})")
    return math.comb(n + a, a) * i <= n**a * (i + a)


def check_descending_factorial_bound(a: int, b: int) -> bool:
    """Exact check of (a+b)...(a+1)/b! <= (a+1)**b for a, b >= 0.

    The companion inequality behind the lower bound of :func:`pure_bounds`.
    """
    a, b = operator.index(a), operator.index(b)
    if a < 0 or b < 0:
        raise DomainError(f"need a, b >= 0; got ({shown(a)}, {shown(b)})")
    return math.comb(a + b, b) <= (a + 1) ** b
