"""Command-line interface.

Commands::

    betti pure 0,2,4,5                      render a pure diagram
    betti decompose table.bt1 [--check]     chain decomposition of a table
    betti bounds pure|module|veronese|variety ...
    betti dim-l -m 3 --delta 13 -e 1000     dim |O_X(e)| for a hypersurface

``--format`` is on every command; ``--precision``, ``--paper-constants``,
``--max-exact-digits`` and ``--estimate`` are on the ``bounds`` targets only.
Every bounds target follows one policy: ``--estimate`` gives the digit
bracket; otherwise the exact bounds, unless one of their exact factors (a
binomial or a power) would exceed ``--max-exact-digits``, in which case the
digit bracket is given with a note saying why.

Exit codes: 0 success, 1 usage or parse error (a number outside the one
grammar of ``tablefile.parse_integer`` and ``parse_rational``, a
``--max-exact-digits`` below 1 or a ``--precision`` outside [1, MAX_PRECISION]),
2 domain error (input outside the cone, index out of range, a fallback whose
lower bound is zero, failed --check).

``--format machine`` emits a single JSON object with stable keys
(command/inputs/results/status); rationals are rendered as exact ``num/den``
strings and digit brackets as integer exponents, with the fallback note as
``results["note"]``.

Every command reads its input and computes under the caller's int->str digit
limit.  Handlers return exact values, and ``main`` alone turns them into text,
lifting the limit only while it prints.  ``--max-exact-digits``, not the
limit, sizes an exact answer.  The exact bounds, and N in text, are written
by ``_text`` in subquadratic time on every Python (60 ms for 150,000 digits,
where CPython 3.11's ``str`` takes 420 ms); ``json`` writes the other ints.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import math
import re
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import estimation, tablefile
from .decompose import decompose, verify_decomposition
from .diagrams import degree_sequence, format_diagram, pure_diagram
from .errors import BettiError, TableFormatError, TooLarge, shown
from .tablefile import parse_integer, parse_rational


#: Largest --precision accepted: one variety bracket at dim_l = 10**13 takes
#: 0.1 s at precision 1000 and 2.2 s at 2000 (2-vCPU Xeon, CPython 3.11), and
#: the time grows steeply beyond.
MAX_PRECISION = 2000

#: Bit lengths past which ``_text`` splits an integer instead of calling
#: ``str`` (about 12,000 digits, where both take 3 ms on CPython 3.11), and
#: up to which it turns a part into a ``Decimal`` directly.
_SPLIT_BITS = 40_000
_PART_BITS = 1024


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[0-9]")  # -3,1,2 and -15/3 are values

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _argument(parse=parse_integer, lo=None, hi=math.inf):
    """argparse type: ``parse`` (a ``tablefile`` number reader) of the text, in
    [lo, hi] if lo is given; a parse error is a usage error."""
    def read(text: str):
        try:
            value = parse(text)
        except BettiError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if lo is not None and not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{shown(str(value))} is not in [{lo}, {hi}]")
        return value
    return read


#: Per bounds target: its help text, the names of its exact bounds in
#: ``bounds`` and of its digit bracket in ``estimation``, and its arguments as
#: (flag, dest, parser, default, help) in the order both functions take them.
#: A default of None makes the flag required; ``dest`` is also the key in
#: machine ``inputs``.  The functions are looked up by name at call time, so
#: wrappers installed on those modules see every call.
_BOUND_TARGETS = {
    "pure": (
        "bounds C(N,i)*N**(+-r) for pure diagrams", "pure_bounds", "pure_digit_bracket", (
            ("-N", "N", parse_integer, None, "sequence length"),
            ("-r", "r", parse_integer, None, "row slack"),
            ("-i", "i", parse_integer, None, "column index"),
        ),
    ),
    "module": (
        "bounds from codim/pdim/reg/beta0", "algebraic_bounds", "algebraic_digit_bracket", (
            ("--codim", "codim", parse_integer, None, None),
            ("--pdim", "pdim", parse_integer, None, None),
            ("--reg", "reg", parse_integer, None, None),
            ("--beta0", "beta0", parse_rational, Fraction(1), None),
            ("-i", "i", parse_integer, None, None),
        ),
    ),
    "veronese": (
        "bounds for the degree-d Veronese of n-space", "veronese_bounds",
        "veronese_digit_bracket", (
            ("-n", "n", parse_integer, None, None),
            ("-d", "d", parse_integer, None, None),
            ("-i", "i", parse_integer, None, None),
        ),
    ),
    "variety": (
        "bounds for an embedded variety", "variety_bounds", "variety_digit_bracket", (
            ("--dim-l", "dim_l", parse_integer, None, None),
            ("--dim-x", "dim_x", parse_integer, None, None),
            ("--reg", "reg", parse_integer, None, None),
            ("-i", "i", parse_integer, None, None),
        ),
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``betti`` parser, built once per process on first use.

    Every leaf parser sets ``handler`` (its ``_cmd_*`` function) and
    ``label`` (the ``command`` string of machine output).  A handler returns
    (inputs, results, text): dicts of exact values, and a zero-argument
    function giving the text lines, so ``--format machine`` never builds them.
    """
    common = _Parser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "machine"), default="text",
        help="output format (default: text)",
    )

    bound_flags = _Parser(add_help=False)
    bound_flags.add_argument(
        "--precision", type=_argument(lo=1, hi=MAX_PRECISION),
        default=estimation.DEFAULT_PRECISION, metavar="DIGITS",
        help=f"working precision for estimates, in significant decimal digits "
             f"(1 to {MAX_PRECISION})",
    )
    bound_flags.add_argument(
        "--paper-constants", action="store_true",
        help="use the unshifted textbook integral constants in estimates "
             "(reproduces published intermediates; not sound for small indices)",
    )
    bound_flags.add_argument(
        "--max-exact-digits", type=_argument(lo=1), default=bounds_mod.DEFAULT_DIGIT_BUDGET,
        metavar="DIGITS",
        help="digit budget for each exact binomial and each power in a bound; "
             "past it, bounds fall back to a digit bracket (default: 1000000)",
    )
    bound_flags.add_argument(
        "--estimate", action="store_true",
        help="digit bracket instead of exact rationals",
    )

    parser = _Parser(prog="betti", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_pure = sub.add_parser("pure", parents=[common], help="pure diagram of a degree sequence")
    p_pure.add_argument(
        "degrees", type=_argument(
            lambda text: degree_sequence(map(parse_integer, text.split(",")))),
        help="comma-separated strictly increasing integers, e.g. 0,2,4,5",
    )
    p_pure.set_defaults(handler=_cmd_pure, label="pure")

    p_dec = sub.add_parser(
        "decompose", parents=[common], help="decompose a BT1 table into pure diagrams"
    )
    p_dec.add_argument("path", help="BT1 table file")
    p_dec.add_argument(
        "--check", action="store_true",
        help="re-verify exact reconstruction and the chain",
    )
    p_dec.add_argument(
        "--codim", type=_argument(), default=None,
        help="also check that every type length lies in [codim, pdim]",
    )
    p_dec.set_defaults(handler=_cmd_decompose, label="decompose")

    p_bounds = sub.add_parser("bounds", help="binomial bounds on total Betti numbers")
    bsub = p_bounds.add_subparsers(dest="target", required=True, metavar="TARGET")
    for target, (summary, _, _, arguments) in _BOUND_TARGETS.items():
        b_parser = bsub.add_parser(target, parents=[common, bound_flags], help=summary)
        for flag, dest, kind, default, text in arguments:
            b_parser.add_argument(flag, dest=dest, type=_argument(kind), default=default,
                                  required=default is None, help=text)
        b_parser.set_defaults(handler=_cmd_bounds, label=f"bounds {target}")

    p_dim = sub.add_parser(
        "dim-l", parents=[common],
        help="dim |O_X(e)| for a degree-delta hypersurface in m-space",
    )
    for flag, dest in (("-m", "m"), ("--delta", "delta"), ("-e", "e")):
        p_dim.add_argument(flag, dest=dest, type=_argument(), required=True)
    p_dim.set_defaults(handler=_cmd_dim_l, label="dim-l")

    return parser


def _cmd_pure(args):
    table = pure_diagram(args.degrees)
    entries = table.items()
    totals = [v for _, v in entries]  # one entry per column
    inputs = {"degrees": list(args.degrees)}
    results = {
        "entries": [{"i": i, "j": j, "value": v} for (i, j), v in entries],
        "totals": totals,
        "pdim": table.pdim,
        "reg": table.reg,
    }
    return inputs, results, lambda: [
        format_diagram(table), "", "totals: " + "  ".join(map(str, totals))]


def _cmd_decompose(args):
    table = tablefile.load(args.path)
    decomposition = decompose(table)
    checked = args.check or args.codim is not None
    if checked:
        verify_decomposition(table, decomposition, codim=args.codim)
    inputs = {"path": args.path, "check": bool(args.check), "codim": args.codim}
    results = {
        "terms": [{"coefficient": c, "type": list(d)} for c, d in decomposition],
        "coefficient_sum": decomposition.coefficient_sum(),
    }
    if checked:
        results["checked"] = True
    return inputs, results, lambda: [
        *(f"{c}  ({','.join(str(x) for x in d)})" for c, d in decomposition),
        *(["check: ok"] if checked else []),
    ]


def _cmd_bounds(args):
    _, exact, bracket, arguments = _BOUND_TARGETS[args.target]
    values = {dest: getattr(args, dest) for _, dest, *_ in arguments}
    results = {}
    if args.target == "veronese":
        results["N"] = estimation.veronese_codim(args.n, args.d).codim
    inputs = {
        "precision": args.precision,
        "paper_constants": bool(args.paper_constants),
        "max_exact_digits": args.max_exact_digits,
        **values,
        "estimate": args.estimate,
    }
    text = functools.partial(_bounds_lines, results)
    note = None
    if not args.estimate:
        try:
            pair = getattr(bounds_mod, exact)(*values.values(), args.max_exact_digits)
        except TooLarge as exc:
            note = (f"{exc.factor} exceeds the digit budget of "
                    f"{shown(exc.digit_budget)} digits; estimated instead")
        else:
            results.update(mode="exact", lower=pair.lower, upper=pair.upper)
            return inputs, results, text
    b = getattr(estimation, bracket)(*values.values(), args.precision, args.paper_constants)
    results.update(mode="estimate", exp_lo=b.exp_lo, exp_hi=b.exp_hi,
                   digits_lo=b.digits_lo, digits_hi=b.digits_hi)
    if note:
        results["note"] = note
    return inputs, results, text


def _bounds_lines(results):
    """The text of a ``bounds`` result: N, then the bounds, or the note and the bracket."""
    lines = [f"{key} = {_text(results[key])}" for key in ("N", "lower", "upper")
             if key in results]
    if results["mode"] == "estimate":
        lo, hi = results["exp_lo"], results["exp_hi"]
        lines += [*([results["note"]] if "note" in results else []),
                  f"exp_lo = {lo}", f"exp_hi = {hi}",
                  f"value in [10^{lo}, 10^{hi}]; "
                  f"digits in [{results['digits_lo']}, {results['digits_hi']}]"]
    return lines


def _text(value) -> str:
    """``str(value)`` for an int or a Fraction (``num/den``), in subquadratic time.

    Past ``_SPLIT_BITS``, an integer is written by ``_join`` in an exact
    ``decimal`` context, where libmpdec multiplies large numbers with a
    number-theoretic transform (the method of CPython 3.12's
    ``_pylong.int_to_decimal_string``).  The powers of two live for one call.
    """
    num, den = value.as_integer_ratio()
    if max(num.bit_length(), den.bit_length()) <= _SPLIT_BITS:
        return f"{value}"
    if den != 1:
        return f"{_text(num)}/{_text(den)}"
    power = functools.cache(lambda w: decimal.Decimal(2) ** w)
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                            traps=[decimal.Inexact])
    with decimal.localcontext(exact):
        return "-" * (num < 0) + str(_join(abs(num), num.bit_length(), power))


def _join(n: int, w: int, power) -> decimal.Decimal:
    """n >= 0 of at most w bits as a Decimal: split at h = w // 2 into
    high * 2**h + low, and join the halves, made the same way, with power(h)."""
    if w <= _PART_BITS:
        return decimal.Decimal(n)
    h = w >> 1
    high = n >> h
    return _join(n - (high << h), h, power) + _join(high, w - h, power) * power(h)


def _cmd_dim_l(args):
    value = bounds_mod.hypersurface_dim_l(args.m, args.delta, args.e)
    inputs = {"m": args.m, "delta": args.delta, "e": args.e}
    results = {"dim_l": value}
    return inputs, results, lambda: [f"dim |L| = {value}"]


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        inputs, results, text = args.handler(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except BettiError as exc:
        print(f"betti: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, TableFormatError) else 2

    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    try:
        if limit:  # exact answers are sized by --max-exact-digits, not by the limit
            sys.set_int_max_str_digits(0)
        if args.format == "machine":
            print(json.dumps(
                {"command": args.label, "inputs": inputs, "results": results, "status": "ok"},
                default=_text,  # a Fraction prints as num/den
            ))
        else:
            print("\n".join(text()))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


def console_main() -> None:
    raise SystemExit(main())
