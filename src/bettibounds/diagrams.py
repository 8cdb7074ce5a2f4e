"""Exact rational Betti tables and pure diagrams.

A Betti table is a finite association (i, j) -> positive rational, where i is
the homological index (column) and j the internal degree.  Zero entries are
never stored: absence encodes zero, so equality is structural and support
queries are linear in the number of entries.  All values are
``fractions.Fraction``, kept reduced with positive denominator, so every
comparison in this package is exact.

A degree sequence d = (d_0, ..., d_t) is a strictly increasing tuple of
integers.  It determines the pure diagram ``pure_diagram(d)``: the table with
a single entry per column i, at degree d_i, with value

    beta_{i, d_i} = prod_{j != 0} |d_j - d_0|  /  prod_{j != i} |d_j - d_i|.

This is the Herzog-Kuhl normalization with beta_0 = 1; the classical formula
for d_0 = 0 is the special case where the numerator is prod_{j != 0} d_j.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .errors import DomainError, rational, shown

def degree_sequence(degrees: Iterable[int]) -> tuple[int, ...]:
    """Validate and normalize a degree sequence to a tuple of ints.

    Raises DomainError if empty or not strictly increasing, TypeError for 2.5 or "2".
    """
    d = tuple(map(operator.index, degrees))
    if not d:
        raise DomainError("a degree sequence must have at least one entry")
    for a, b in zip(d, d[1:]):
        if b <= a:
            raise DomainError(
                f"degree sequence is not strictly increasing: {shown(a)} then {shown(b)}")
    return d


def deg_seq_leq(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Partial order on degree sequences: a <= b.

    Holds iff len(a) >= len(b) and a_k <= b_k for every shared index k.
    Longer sequences sit below shorter ones; e.g. (0,3,5,6) <= (0,3,5).
    """
    a, b = list(map(operator.index, a)), list(map(operator.index, b))
    return len(a) >= len(b) and all(map(operator.le, a, b))


def deg_seq_lt(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Strict version of :func:`deg_seq_leq`."""
    return deg_seq_leq(a, b) and tuple(a) != tuple(b)


class BettiTable:
    """Immutable finite table of positive rationals indexed by (i, j).

    ``table[i, j]`` returns the entry, or 0 if absent.  A table never
    changes after it is built, so instances are safe to share across
    threads.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[tuple[int, int], object] | None = None):
        data: dict[tuple[int, int], Fraction] = {}
        if entries:
            for key, raw in entries.items():
                i, j = map(operator.index, key)
                if i < 0:
                    raise DomainError(f"homological index must be nonnegative, got {shown(i)}")
                value = rational(raw)
                if value < 0:
                    raise DomainError(f"entry at ({shown(i)}, {shown(j)}) must be positive, "
                                      f"got {shown(value)}")
                if value == 0:
                    continue  # absence encodes zero
                data[i, j] = value
        self._entries = data

    @classmethod
    def _trusted(cls, entries: dict[tuple[int, int], Fraction]) -> "BettiTable":
        """Wrap ``entries`` without validating or copying it.

        The caller guarantees what ``__init__`` would enforce: keys are int
        pairs (i, j) with i >= 0, values are positive ``Fraction``s, and the
        dict is not changed afterwards.
        """
        table = cls.__new__(cls)
        table._entries = entries
        return table

    # -- basic queries -----------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        return self._entries.get(key, Fraction(0))

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._entries)

    def items(self) -> list[tuple[tuple[int, int], Fraction]]:
        """Entries as a list of ((i, j), value), sorted by (i, j)."""
        return sorted(self._entries.items())

    @property
    def pdim(self) -> int:
        """Projective dimension: the largest column index with an entry."""
        if not self._entries:
            raise DomainError("pdim is undefined for the empty table")
        return max(i for i, _ in self._entries)

    @property
    def reg(self) -> int:
        """Regularity: max of j - i over the support."""
        if not self._entries:
            raise DomainError("reg is undefined for the empty table")
        return max(j - i for i, j in self._entries)

    def total(self, i: int) -> Fraction:
        """Total Betti number of column i: sum_j table[i, j] (0 if empty)."""
        return sum((v for (ii, _), v in self._entries.items() if ii == i), Fraction(0))

    # -- comparison & display ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, BettiTable):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        return hash(frozenset(self._entries.items()))

    def __repr__(self) -> str:
        body = ", ".join(f"({i},{j}): {v}" for (i, j), v in self.items())
        return f"BettiTable({{{body}}})"

    def __str__(self) -> str:
        return format_diagram(self)


def _hk_values(d: tuple[int, ...]) -> list[tuple[int, int]]:
    """Herzog-Kuhl values beta_{i, d_i} of the pure diagram of d, in column order.

    Each value is a reduced int pair (numerator, denominator), both positive,
    so the peel and ``Decomposition.reconstruct`` can do their arithmetic on
    plain ints; ``pure_diagram`` wraps the pairs in ``Fraction``.  d must be a
    validated degree sequence, so every divisor is nonzero.
    """
    top = math.prod([x - d[0] for x in d[1:]])
    values = []
    for i, di in enumerate(d):
        den = math.prod([di - x for x in d[:i]]) * math.prod([x - di for x in d[i + 1:]])
        g = math.gcd(top, den)
        values.append((top // g, den // g))
    return values


def pure_diagram(degrees: Iterable[int]) -> BettiTable:
    """The pure diagram of a degree sequence, normalized so beta_0 = 1.

    Column i carries the single entry at degree d_i with value
    prod_{j != 0} |d_j - d_0| / prod_{j != i} |d_j - d_i|.  The strict
    increase of d makes every divisor nonzero.
    """
    d = degree_sequence(degrees)
    return BettiTable._trusted(
        {(i, di): Fraction(n, m) for i, (di, (n, m)) in enumerate(zip(d, _hk_values(d)))}
    )


#: Longest run of empty rows that ``format_diagram`` prints row by row.
_FOLD = 40


def format_diagram(table: BettiTable) -> str:
    """Render a table in Betti-diagram layout.

    Rows are indexed by j - i, columns by i; absent entries print as ``.``.
    A run of more than 40 empty rows prints as one line, ``(<count> empty
    rows)``, so the text grows with the entries, not with the degrees.
    """
    if not table:
        return "(empty table)"
    cols = range(table.pdim + 1)
    used = sorted({j - i for i, j in table})
    rows = [[""] + [str(i) for i in cols]]
    for r, after in zip(used, used[1:] + [used[-1] + 1]):
        rows.append([f"{r}:"] + [str(table[i, i + r] or ".") for i in cols])
        if after - r - 1 > _FOLD:
            rows.append(f"({after - r - 1} empty rows)")
        else:
            rows += [[f"{e}:"] + ["."] * len(cols) for e in range(r + 1, after)]
    widths = [max(len(row[c]) for row in rows if isinstance(row, list))
              for c in range(len(cols) + 1)]
    return "\n".join(
        row if isinstance(row, str) else
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )
