"""The BT1 on-disk format for Betti tables.

Grammar::

    BT1
    # comments and blank lines are ignored
    i j v

with i a nonnegative integer, j an integer, and v a positive rational
written as an integer or ``num/den``.  A file is read as UTF-8.  Duplicate
(i, j) pairs are rejected.  The format is bit-exact: writing a table and
re-reading it yields a structurally equal table.

``parse_integer`` and ``parse_rational`` are the one number grammar, for BT1
and argv alike: ASCII digits with an optional sign, at most the int->str limit
of them, and ``num/den`` with an unsigned ``den`` for a rational.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .diagrams import BettiTable
from .errors import TableFormatError, shown

HEADER = "BT1"

_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


class _NotAnInteger(TableFormatError):
    """Text outside the integer grammar, as against an integer past the limit."""


def parse_integer(text: str) -> int:
    """Parse ASCII digits with an optional sign; TableFormatError for other text,
    or for more digits than the int->str limit (naming the count, not the digits)."""
    if not _INTEGER.fullmatch(text):
        raise _NotAnInteger(f"not an integer: {shown(text)}")
    try:
        return int(text)
    except ValueError:  # past the int->str limit
        raise TableFormatError(f"an integer of {len(text.lstrip('+-'))} digits exceeds the "
                               f"limit of {sys.get_int_max_str_digits()} digits") from None


def parse_rational(text: str) -> Fraction:
    """Parse ``num`` or ``num/den`` into an exact Fraction."""
    m = _RATIONAL.fullmatch(text)
    if not m:
        raise TableFormatError(f"not a rational number: {shown(text)}")
    num, den = parse_integer(m[1]), parse_integer(m[2] or "1")
    if den == 0:
        raise TableFormatError(f"zero denominator: {shown(text)}")
    return Fraction(num, den)


def loads(text: str) -> BettiTable:
    """Parse BT1 text into a BettiTable."""
    significant = [(n, line.strip()) for n, line in enumerate(text.splitlines(), start=1)
                   if line.strip() and not line.lstrip().startswith("#")]
    if not significant or significant[0][1] != HEADER:
        raise TableFormatError(f"missing {HEADER} header line")
    entries: dict[tuple[int, int], Fraction] = {}
    for n, line in significant[1:]:
        fields = line.split()
        if len(fields) != 3:
            raise TableFormatError(f"line {n}: expected 'i j v', got {shown(line)}")
        si, sj, sv = fields
        try:
            i, j = parse_integer(si), parse_integer(sj)
        except _NotAnInteger:
            raise TableFormatError(
                f"line {n}: indices must be integers, got {shown(line)}") from None
        if i < 0:
            raise TableFormatError(f"line {n}: homological index must be nonnegative")
        value = parse_rational(sv)
        if value <= 0:
            raise TableFormatError(f"line {n}: value must be positive, got {shown(value)}")
        if (i, j) in entries:
            raise TableFormatError(f"line {n}: duplicate entry for ({shown(i)}, {shown(j)})")
        entries[i, j] = value
    return BettiTable._trusted(entries)  # every entry was checked above


def dumps(table: BettiTable) -> str:
    """Serialize a BettiTable as BT1 text."""
    lines = [HEADER]
    for (i, j), v in table.items():
        lines.append(f"{i} {j} {v}")
    return "\n".join(lines) + "\n"


def load(path) -> BettiTable:
    """Read a BT1 file from disk."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise TableFormatError(f"cannot read {path}: {exc}") from exc
    return loads(text)
