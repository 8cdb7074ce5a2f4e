"""The BT1 on-disk format for Betti tables.

Grammar::

    BT1
    # comments and blank lines are ignored
    i j v

with i a nonnegative integer, j an integer, and v a positive rational
written as an integer or ``num/den``; integers are ASCII digits with an
optional sign.  A file is read as UTF-8.  Duplicate (i, j) pairs are rejected.
The format is bit-exact: writing a table and re-reading it yields a
structurally equal table.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .diagrams import BettiTable
from .errors import TableFormatError

HEADER = "BT1"

_INT = re.compile(r"[+-]?[0-9]+$")
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?$")


def _integer(digits: str) -> int:
    """int(digits), or TableFormatError past the int->str conversion limit."""
    try:
        return int(digits)
    except ValueError:
        raise TableFormatError(
            f"an integer of {len(digits.lstrip('+-'))} digits exceeds the limit of "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None


def parse_rational(text: str) -> Fraction:
    """Parse ``num`` or ``num/den`` into an exact Fraction."""
    m = _RATIONAL.match(text)
    if not m:
        raise TableFormatError(f"not a rational number: {text!r}")
    num = _integer(m.group(1))
    den = _integer(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise TableFormatError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def loads(text: str) -> BettiTable:
    """Parse BT1 text into a BettiTable."""
    lines = text.splitlines()
    significant = [
        (n, line.strip())
        for n, line in enumerate(lines, start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not significant or significant[0][1] != HEADER:
        raise TableFormatError(f"missing {HEADER} header line")
    entries: dict[tuple[int, int], Fraction] = {}
    for n, line in significant[1:]:
        fields = line.split()
        if len(fields) != 3:
            raise TableFormatError(f"line {n}: expected 'i j v', got {line!r}")
        si, sj, sv = fields
        if not _INT.match(si) or not _INT.match(sj):
            raise TableFormatError(f"line {n}: indices must be integers, got {line!r}")
        i, j = _integer(si), _integer(sj)
        if i < 0:
            raise TableFormatError(f"line {n}: homological index must be nonnegative")
        value = parse_rational(sv)
        if value <= 0:
            raise TableFormatError(f"line {n}: value must be positive, got {sv}")
        if (i, j) in entries:
            raise TableFormatError(f"line {n}: duplicate entry for ({i}, {j})")
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
