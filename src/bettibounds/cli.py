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

Exit codes: 0 success, 1 usage or parse error (including a
``--max-exact-digits`` below 1 or a ``--precision`` outside
[1, MAX_PRECISION]), 2 domain error (input outside the cone, index out of
range, a fallback whose lower bound is zero, failed --check).

``--format machine`` emits a single JSON object with stable keys
(command/inputs/results/status); rationals are rendered as exact ``num/den``
strings and digit brackets as integer exponents, with the fallback note as
``results["note"]``.

``main`` widens the interpreter's int->str digit limit only while it runs and
then restores the caller's value.
"""

from __future__ import annotations

import argparse
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
from .errors import BettiError, DomainError, TableFormatError, TooLarge


#: Largest --precision accepted: one variety bracket at dim_l = 10**13 takes
#: 0.1 s at precision 1000 and 2.2 s at 2000 (2-vCPU Xeon, CPython 3.11), and
#: the time grows steeply beyond.
MAX_PRECISION = 2000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _degrees_argument(text: str) -> tuple[int, ...]:
    try:
        return degree_sequence(part for part in text.split(","))
    except (ValueError, DomainError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _rational_argument(text: str) -> Fraction:
    try:
        return tablefile.parse_rational(text)
    except TableFormatError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _int_in(lo: int, hi: float = math.inf):
    """argparse type: an integer in [lo, hi]."""
    def integer(text: str) -> int:
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{value} is not in [{lo}, {hi}]")
        return value
    return integer


#: Per bounds target: its help text, the names of its exact bounds in
#: ``bounds`` and of its digit bracket in ``estimation``, and its arguments as
#: (flag, dest, type, default, help) in the order both functions take them.
#: A default of None makes the flag required; ``dest`` is also the key in
#: machine ``inputs``.  The functions are looked up by name at call time, so
#: wrappers installed on those modules see every call.
_BOUND_TARGETS = {
    "pure": (
        "bounds C(N,i)*N**(+-r) for pure diagrams", "pure_bounds", "pure_digit_bracket", (
            ("-N", "N", int, None, "sequence length"),
            ("-r", "r", int, None, "row slack"),
            ("-i", "i", int, None, "column index"),
        ),
    ),
    "module": (
        "bounds from codim/pdim/reg/beta0", "algebraic_bounds", "algebraic_digit_bracket", (
            ("--codim", "codim", int, None, None),
            ("--pdim", "pdim", int, None, None),
            ("--reg", "reg", int, None, None),
            ("--beta0", "beta0", _rational_argument, Fraction(1), None),
            ("-i", "i", int, None, None),
        ),
    ),
    "veronese": (
        "bounds for the degree-d Veronese of n-space", "veronese_bounds",
        "veronese_digit_bracket", (
            ("-n", "n", int, None, None),
            ("-d", "d", int, None, None),
            ("-i", "i", int, None, None),
        ),
    ),
    "variety": (
        "bounds for an embedded variety", "variety_bounds", "variety_digit_bracket", (
            ("--dim-l", "dim_l", int, None, None),
            ("--dim-x", "dim_x", int, None, None),
            ("--reg", "reg", int, None, None),
            ("-i", "i", int, None, None),
        ),
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``betti`` parser, built once per process on first use.

    Every leaf parser sets ``handler`` (its ``_cmd_*`` function) and
    ``label`` (the ``command`` string of machine output).  A handler returns
    (inputs, results, text), with text a zero-argument function giving the
    text lines, so ``--format machine`` never builds them.
    """
    common = _Parser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "machine"), default="text",
        help="output format (default: text)",
    )

    bound_flags = _Parser(add_help=False)
    bound_flags.add_argument(
        "--precision", type=_int_in(1, MAX_PRECISION), default=estimation.DEFAULT_PRECISION,
        metavar="DIGITS",
        help=f"working precision for estimates, in significant decimal digits "
             f"(1 to {MAX_PRECISION})",
    )
    bound_flags.add_argument(
        "--paper-constants", action="store_true",
        help="use the unshifted textbook integral constants in estimates "
             "(reproduces published intermediates; not sound for small indices)",
    )
    bound_flags.add_argument(
        "--max-exact-digits", type=_int_in(1), default=bounds_mod.DEFAULT_DIGIT_BUDGET,
        metavar="DIGITS",
        help="digit budget for each exact binomial and each power in a bound; "
             "past it, bounds fall back to a digit bracket (default: 1000000)",
    )
    bound_flags.add_argument(
        "--estimate", action="store_true",
        help="digit bracket instead of exact rationals",
    )

    parser = _Parser(prog="betti", description=__doc__.splitlines()[0])
    # main widens the int->str limit by the budget while any command runs
    parser.set_defaults(max_exact_digits=bounds_mod.DEFAULT_DIGIT_BUDGET)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_pure = sub.add_parser(
        "pure", parents=[common], help="pure diagram of a degree sequence"
    )
    p_pure.add_argument(
        "degrees", type=_degrees_argument,
        help="comma-separated strictly increasing integers, e.g. 0,2,4,5",
    )
    # argparse takes -3,1,2 for an option: its matcher knows only plain numbers
    p_pure._negative_number_matcher = re.compile(r"^-\d")
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
        "--codim", type=int, default=None,
        help="also check that every type length lies in [codim, pdim]",
    )
    p_dec.set_defaults(handler=_cmd_decompose, label="decompose")

    p_bounds = sub.add_parser("bounds", help="binomial bounds on total Betti numbers")
    bsub = p_bounds.add_subparsers(dest="target", required=True, metavar="TARGET")
    for target, (summary, _, _, arguments) in _BOUND_TARGETS.items():
        b_parser = bsub.add_parser(target, parents=[common, bound_flags], help=summary)
        for flag, dest, kind, default, text in arguments:
            b_parser.add_argument(flag, dest=dest, type=kind, default=default,
                                  required=default is None, help=text)
        b_parser.set_defaults(handler=_cmd_bounds, label=f"bounds {target}")

    p_dim = sub.add_parser(
        "dim-l", parents=[common],
        help="dim |O_X(e)| for a degree-delta hypersurface in m-space",
    )
    p_dim.add_argument("-m", dest="m", type=int, required=True)
    p_dim.add_argument("--delta", type=int, required=True)
    p_dim.add_argument("-e", dest="e", type=int, required=True)
    p_dim.set_defaults(handler=_cmd_dim_l, label="dim-l")

    return parser


def _cmd_pure(args):
    table = pure_diagram(args.degrees)
    entries = table.items()
    totals = [str(v) for _, v in entries]  # one entry per column
    inputs = {"degrees": list(args.degrees)}
    results = {
        "entries": [{"i": i, "j": j, "value": str(v)} for (i, j), v in entries],
        "totals": totals,
        "pdim": table.pdim,
        "reg": table.reg,
    }
    return inputs, results, lambda: [format_diagram(table), "", "totals: " + "  ".join(totals)]


def _cmd_decompose(args):
    table = tablefile.load(args.path)
    decomposition = decompose(table)
    checked = args.check or args.codim is not None
    if checked:
        verify_decomposition(table, decomposition, codim=args.codim)
    inputs = {"path": args.path, "check": bool(args.check), "codim": args.codim}
    results = {
        "terms": [
            {"coefficient": str(c), "type": list(d)} for c, d in decomposition
        ],
        "coefficient_sum": str(decomposition.coefficient_sum()),
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
    extra = {}
    if args.target == "veronese":
        extra["N"] = estimation.veronese_codim(args.n, args.d).codim
    inputs = {
        "precision": args.precision,
        "paper_constants": bool(args.paper_constants),
        "max_exact_digits": args.max_exact_digits,
        **{dest: str(v) if isinstance(v, Fraction) else v for dest, v in values.items()},
        "estimate": args.estimate,
    }

    def text(*lines):
        return lambda: [*(f"{k} = {v}" for k, v in extra.items()), *lines]

    note = None
    if not args.estimate:
        try:
            pair = getattr(bounds_mod, exact)(*values.values(), args.max_exact_digits)
        except TooLarge as exc:
            note = (f"{exc.factor} exceeds the digit budget of {exc.digit_budget} digits; "
                    "estimated instead")
        else:
            lower, upper = str(pair.lower), str(pair.upper)  # int->str is quadratic: once
            results = {**extra, "mode": "exact", "lower": lower, "upper": upper}
            return inputs, results, text(f"lower = {lower}", f"upper = {upper}")
    b = getattr(estimation, bracket)(*values.values(), args.precision, args.paper_constants)
    results = {**extra, "mode": "estimate", "exp_lo": b.exp_lo, "exp_hi": b.exp_hi,
               "digits_lo": b.digits_lo, "digits_hi": b.digits_hi}
    if note:
        results["note"] = note
    return inputs, results, text(
        *([note] if note else []),
        f"exp_lo = {b.exp_lo}",
        f"exp_hi = {b.exp_hi}",
        f"value in [10^{b.exp_lo}, 10^{b.exp_hi}]; digits in [{b.digits_lo}, {b.digits_hi}]",
    )


def _cmd_dim_l(args):
    value = bounds_mod.hypersurface_dim_l(args.m, args.delta, args.e)
    inputs = {"m": args.m, "delta": args.delta, "e": args.e}
    results = {"dim_l": value}
    return inputs, results, lambda: [f"dim |L| = {value}"]


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit:  # the limit is a C int, so a huge budget widens it only to 2**31 - 1
        sys.set_int_max_str_digits(min(max(limit, 2 * args.max_exact_digits + 4300), 2**31 - 1))
    try:
        inputs, results, text = args.handler(args)
    except TableFormatError as exc:
        print(f"betti: {exc}", file=sys.stderr)
        return 1
    except BettiError as exc:
        print(f"betti: {exc}", file=sys.stderr)
        return 2
    else:
        if args.format == "machine":
            print(json.dumps(
                {"command": args.label, "inputs": inputs, "results": results, "status": "ok"}
            ))
        else:
            print("\n".join(text()))
        return 0
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def console_main() -> None:
    raise SystemExit(main())
