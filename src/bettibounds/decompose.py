"""Greedy decomposition of a Betti table into a chain of pure diagrams.

Every table in the cone spanned by pure diagrams is a unique positive
rational combination sum_k c_k * pure_diagram(d^k) whose degree sequences
form a strict chain d^0 < d^1 < ... < d^s.  The greedy algorithm recovers it:

  1. read off the leading degree sequence d (the minimal degree per column),
  2. peel off the largest multiple of pure_diagram(d) that keeps all entries
     nonnegative (this zeroes at least one entry at a position (i, d_i)),
  3. repeat until the table is empty.

Only step 1 can fail, and the failure means the input lies outside the cone:
``NotInBSCone`` with ``reason`` ``"gap column"`` (an empty column below
pdim) or ``"minima not increasing"``.  Nothing else needs checking, because
under exact arithmetic c = min(v / b) leaves every entry >= 0 and deletes at
least one, and entries are only ever deleted, so the types form a strict
chain and there are at most ``len(table)`` peels.  The certificate for a
decomposition, including one that did not come from ``decompose``, is
``verify_decomposition``.

Cost: the remainder is a private copy of the table, one {j: (num, den)} dict
per column, changed in place.  Values are reduced int pairs rather than
``Fraction``s, because the per-operation dispatch of ``Fraction`` cost more
than its arithmetic; ``Fraction``s are built only for the returned
coefficients.  A peel of type d = (d_0, ..., d_t) reads the t + 1 column
minima (each column's first key, since columns are kept in ascending degree),
computes the Herzog-Kuhl values of d once (O(t^2) small-integer products),
picks c by cross-multiplication and updates only the t + 1 positions
(i, d_i) with one gcd each; no table is copied.  So a peel costs O(t^2)
whatever the support, and a table of support s decomposes in O(s * t^2) after
an O(s log s) copy.  ``reconstruct``, the certificate behind
``verify_decomposition``, adds every c * beta into one dict of int pairs at
the same cost per term, and recomputes the Herzog-Kuhl values itself rather
than trusting the peel's.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .diagrams import BettiTable, _hk_values, deg_seq_lt, degree_sequence
from .errors import DomainError, NotInBSCone, rational, shown

#: {i: {j: (num, den)}}: each column's entries as reduced int pairs.
_Columns = dict[int, dict[int, tuple[int, int]]]


@dataclass(frozen=True)
class Decomposition:
    """An ordered list of (coefficient, degree sequence) terms.

    Invariants: all coefficients are positive, the degree sequences form a
    strict chain, and ``reconstruct()`` reproduces the source table exactly.
    """

    terms: tuple[tuple[Fraction, tuple[int, ...]], ...]

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def coefficient_sum(self) -> Fraction:
        return sum((c for c, _ in self.terms), Fraction(0))

    def reconstruct(self) -> BettiTable:
        """Exact sum of the scaled pure diagrams, added into one accumulator.

        Raises DomainError for a coefficient that is not positive or a type
        that is not a degree sequence.
        """
        total: dict[tuple[int, int], tuple[int, int]] = {}
        for c, d in self.terms:
            c = rational(c)
            if c <= 0:
                raise DomainError(f"coefficient {shown(c)} is not positive")
            d = degree_sequence(d)
            cn, cd = c.numerator, c.denominator
            for i, (di, (bn, bd)) in enumerate(zip(d, _hk_values(d))):
                num, den = cn * bn, cd * bd
                old = total.get((i, di))
                if old is not None:
                    num, den = old[0] * den + num * old[1], old[1] * den
                g = gcd(num, den)
                total[i, di] = (num // g, den // g)
        return BettiTable._trusted({key: Fraction(n, m) for key, (n, m) in total.items()})


def _columns(table: BettiTable) -> _Columns:
    """A private copy of the table as ``_Columns``, each column in ascending j.

    Keys are only ever deleted afterwards, never inserted, so the first key
    of every column stays its minimal degree.
    """
    columns: _Columns = {}
    for (i, j), value in table.items():  # sorted by (i, j)
        columns.setdefault(i, {})[j] = (value.numerator, value.denominator)
    return columns


def _minima(columns: _Columns) -> tuple[int, ...]:
    """The leading degree sequence of ``columns``, whose emptied columns are deleted."""
    minima = []
    for i in range(max(columns) + 1):
        column = columns.get(i)
        if column is None:
            raise NotInBSCone("gap column", f"column {shown(i)} is empty but lies below "
                              "the projective dimension")
        minima.append(next(iter(column)))
    for a, b in zip(minima, minima[1:]):
        if b <= a:
            raise NotInBSCone(
                "minima not increasing",
                f"column minima {shown(tuple(minima))} are not strictly increasing",
            )
    return tuple(minima)


def _peel_columns(columns: _Columns, d: tuple[int, ...]) -> Fraction:
    """Subtract the largest c * pure_diagram(d) that keeps columns >= 0, in place.

    d is the leading degree sequence of ``columns`` (from ``_minima``), so
    every position (i, d_i) holds an entry.  Only those t + 1 positions
    change; entries and columns that reach zero are deleted.  Returns c.
    """
    values = [columns[i][di] for i, di in enumerate(d)]
    betas = _hk_values(d)
    # c = min over i of (vn / vd) / (bn / bd), compared by cross-multiplication
    ratios = [(vn * bd, vd * bn) for (vn, vd), (bn, bd) in zip(values, betas)]
    cn, cd = ratios[0]
    for num, den in ratios[1:]:
        if num * cd < cn * den:
            cn, cd = num, den
    g = gcd(cn, cd)
    cn, cd = cn // g, cd // g
    for i, (di, (vn, vd), (bn, bd)) in enumerate(zip(d, values, betas)):
        # vn/vd - c * bn/bd, which is >= 0 and 0 where the minimum is reached
        num = vn * cd * bd - cn * bn * vd
        column = columns[i]
        if num:
            den = vd * cd * bd
            g = gcd(num, den)
            column[di] = (num // g, den // g)
        else:
            del column[di]
            if not column:
                del columns[i]
    return Fraction(cn, cd)


def decompose(table: BettiTable) -> Decomposition:
    """Decompose a table into its unique chain of pure diagrams.

    Runs every greedy step on one private copy; ``Decomposition.reconstruct``
    is the inverse.  Raises NotInBSCone when no such decomposition exists,
    and DomainError for the empty table.  The sum of the coefficients equals
    the total Betti number of column 0, since each pure diagram is
    normalized to beta_0 = 1.  The input table is not changed.
    """
    if not table:
        raise DomainError("cannot decompose an empty table")
    terms = []
    remainder = _columns(table)
    while remainder:
        d = _minima(remainder)
        terms.append((_peel_columns(remainder, d), d))
    return Decomposition(tuple(terms))


def verify_decomposition(
    table: BettiTable, decomposition: Decomposition, codim: int | None = None
) -> None:
    """Re-check a decomposition against its source table.

    Confirms a strict chain, then positive coefficients and exact
    reconstruction (``reconstruct`` rejects a coefficient that is not
    positive), and (when codim is given) that every degree sequence has
    length between codim and the projective dimension of the table.  Raises
    DomainError on any failure, or for a negative codim.
    """
    codim = None if codim is None else operator.index(codim)
    if codim is not None and codim < 0:
        raise DomainError(f"codim must be nonnegative, got {shown(codim)}")
    for (_, a), (_, b) in zip(decomposition.terms, decomposition.terms[1:]):
        if not deg_seq_lt(a, b):  # which reads both through operator.index
            raise DomainError(
                f"types {shown(tuple(a))} and {shown(tuple(b))} do not increase strictly")
    if decomposition.reconstruct() != table:
        raise DomainError("reconstruction does not reproduce the table")
    if codim is not None:
        pdim = table.pdim
        for _, d in decomposition:  # each a degree sequence, as reconstruct found
            length = len(d) - 1
            if not codim <= length <= pdim:
                raise DomainError(f"type {shown(tuple(d))} has length {shown(length)}, "
                                  f"outside [{shown(codim)}, {shown(pdim)}]")
