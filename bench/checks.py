"""Ground-truth checks for benchmark answers, run after the timed loop.

Every reference here is computed by the benchmark itself from the query's
parameters, with ``math.comb``, plain integers and ``math.lgamma``; nothing
imports bettibounds.  Exact rationals are compared by cross-multiplying
modulo two Mersenne primes, which costs time linear in the output length
instead of the quadratic int<->str conversions the CLI itself pays.

``check(query, record)`` returns None for a correct answer and a short
reason otherwise; it dispatches on the query's ``kind``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from workloads import hk_entries, log10_binomial, veronese_codim

PRIMES = (2**61 - 1, 2**89 - 1)
_CHUNK = 18


def _residue(digits: str, p: int) -> int:
    if not digits.isdigit():
        raise ValueError(f"not a nonnegative integer: {digits[:40]!r}")
    head = len(digits) % _CHUNK or _CHUNK
    acc = int(digits[:head]) % p
    step = 10**_CHUNK % p
    for k in range(head, len(digits), _CHUNK):
        acc = (acc * step + int(digits[k:k + _CHUNK])) % p
    return acc


def rational_equals(text: str, num: int, den: int) -> bool:
    """Whether ``text`` ('a' or 'a/b') equals num/den, modulo PRIMES."""
    top, _, bottom = text.partition("/")
    bottom = bottom or "1"
    if bottom.lstrip("0") == "":
        return False
    return all(
        _residue(top, p) * (den % p) % p == (num % p) * _residue(bottom, p) % p
        for p in PRIMES
    )


def _pow10_at_most(e: int, num: int, den: int) -> bool:
    """10**e <= num/den, exactly."""
    return 10**e * den <= num if e >= 0 else den <= num * 10**-e


def _log10(num: int, den: int = 1) -> float:
    return math.log10(num) - math.log10(den)


# -- tables -----------------------------------------------------------------

def _parse_diagram(text: str) -> tuple[dict, list[str]]:
    """Entries {(i, j): Fraction} and the totals of a text-format diagram."""
    lines = text.rstrip("\n").split("\n")
    blank = lines.index("")
    entries = {}
    for line in lines[1:blank]:
        cells = line.split()
        row = int(cells[0].rstrip(":"))
        for i, cell in enumerate(cells[1:]):
            if cell != ".":
                entries[i, i + row] = Fraction(cell)
    totals = lines[blank + 1].removeprefix("totals:").split()
    return entries, totals


def _check_table(query: dict, record: dict) -> str | None:
    expect = query["expect"]
    if query["kind"] == "diagram":
        if record["rc"] != 0:
            return f"exit {record['rc']}"
        d = expect["degrees"]
        values = hk_entries(d)
        entries, totals = _parse_diagram(record["out"])
        if entries != {(i, di): v for i, (di, v) in enumerate(zip(d, values))}:
            return "pure diagram entries differ from Herzog-Kuhl values"
        if [Fraction(t) for t in totals] != values:
            return "pure diagram totals differ"
        return None
    if not expect["in_cone"]:
        if record["rc"] != 2 or record["out"]:
            return f"out-of-cone table gave exit {record['rc']}"
        return None
    if record["rc"] != 0:
        return f"exit {record['rc']}"
    results = json.loads(record["out"])["results"]
    got = [(Fraction(t["coefficient"]), t["type"]) for t in results["terms"]]
    want = [(Fraction(c), d) for c, d in expect["terms"]]
    if got != want:
        return "decomposition differs from the generating chain"
    if Fraction(results["coefficient_sum"]) != sum(c for c, _ in want) or not results["checked"]:
        return "coefficient sum or check flag wrong"
    return None


# -- bounds -----------------------------------------------------------------

def exact_reference(target: str, p: dict) -> tuple[int, int, int, int, dict]:
    """(lower_num, lower_den, upper_num, upper_den, extra results) exactly."""
    if target == "pure":
        c, spread = math.comb(p["N"], p["i"]), p["N"] ** p["r"]
        return c, spread, c * spread, 1, {}
    if target == "module":
        beta0 = Fraction(p["beta0"])
        a, b = beta0.numerator, beta0.denominator
        return (a * math.comb(p["codim"], p["i"]), b * p["codim"] ** p["reg"],
                a * math.comb(p["pdim"], p["i"]) * p["pdim"] ** p["reg"], b, {})
    if target == "veronese":
        big_n = veronese_codim(p["n"], p["d"])
        c, spread = math.comb(big_n, p["i"]), big_n ** p["n"]
        return c, spread, c * spread, 1, {"N": big_n}
    spread = p["dim_l"] ** p["reg"]
    return (math.comb(p["dim_l"] - p["dim_x"], p["i"]), spread,
            math.comb(p["dim_l"], p["i"]) * spread, 1, {})


def _binomial_top(target: str, p: dict) -> int:
    if target == "veronese":
        return veronese_codim(p["n"], p["d"])
    return p["dim_l"] if target == "variety" else p.get("N", p.get("pdim"))


def _bracket_error(results: dict, lo10: float, hi10: float, top: int) -> str | None:
    """A digit bracket must contain [lo10, hi10] (the base-10 logs of the
    lower and upper bound, up to one exponent of float error) and each end
    must sit within 3*log10(top) + 4 exponents of it, which is well above
    the integral bounds' width of about log10(top) + log10(i) nats."""
    exp_lo, exp_hi = results["exp_lo"], results["exp_hi"]
    if results["digits_lo"] != exp_lo + 1 or results["digits_hi"] != exp_hi + 1:
        return "digit counts disagree with exponents"
    if exp_lo > lo10 + 1 or exp_hi < hi10 - 1:
        return f"bracket [{exp_lo}, {exp_hi}] misses [{lo10:.2f}, {hi10:.2f}]"
    slack = 3 * math.log10(top + 1) + 4
    if lo10 - exp_lo > slack or exp_hi - hi10 > slack:
        return f"bracket [{exp_lo}, {exp_hi}] is far wider than [{lo10:.2f}, {hi10:.2f}]"
    return None


def check_bounds(target: str, p: dict, mode: str | None, record: dict) -> str | None:
    """Exact answers must equal the reference; brackets must contain it.

    ``mode`` None accepts either a correct exact answer or a sound bracket.
    """
    if record["rc"] != 0:
        return record["exc"] or f"exit {record['rc']}"
    results = json.loads(record["out"])["results"]
    if mode is not None and results["mode"] != mode:
        return f"mode {results['mode']}, expected {mode}"
    lo_num, lo_den, hi_num, hi_den, extra = exact_reference(target, p)
    if any(results.get(k) != v for k, v in extra.items()):
        return "reported parameters differ"
    if results["mode"] == "exact":
        if not (rational_equals(results["lower"], lo_num, lo_den)
                and rational_equals(results["upper"], hi_num, hi_den)):
            return "exact bounds differ from the math.comb reference"
        return None
    if not (_pow10_at_most(results["exp_lo"], lo_num, lo_den)
            and _pow10_at_most(-results["exp_hi"], hi_den, hi_num)):
        return "fallback bracket does not contain the exact bounds"
    return _bracket_error(results, _log10(lo_num, lo_den), _log10(hi_num, hi_den),
                          _binomial_top(target, p))


def _check_estimate(query: dict, record: dict) -> str | None:
    if record["rc"] != 0:
        return record["exc"] or f"exit {record['rc']}"
    results = json.loads(record["out"])["results"]
    p = query["expect"]["params"]
    i = p["i"]
    if query["expect"]["target"] == "veronese":
        big_n = veronese_codim(p["n"], p["d"])
        if results.get("N") != big_n:
            return "reported N differs"
        log_c, shift, top = log10_binomial(big_n, i), p["n"] * math.log10(big_n), big_n
        lo10, hi10 = log_c - shift, log_c + shift
    else:
        top, shift = p["dim_l"], p["reg"] * math.log10(p["dim_l"])
        lo10 = log10_binomial(top - p["dim_x"], i) - shift
        hi10 = log10_binomial(top, i) + shift
    return _bracket_error(results, lo10, hi10, top)


def check(query: dict, record: dict) -> str | None:
    try:
        if query["kind"] in ("decompose", "diagram"):
            return _check_table(query, record)
        expect = query["expect"]
        if query["kind"] == "bounds":
            return check_bounds(expect["target"], expect["params"], expect["mode"], record)
        return _check_estimate(query, record)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def corrupt(query: dict) -> bool:
    """Make the expected answer of ``query`` wrong, for the self-test.

    Returns False when this query cannot be corrupted reliably (budget
    fallbacks, whose bracket may still contain a nearby wrong value).
    """
    expect = query["expect"]
    if query["kind"] == "diagram":
        expect["degrees"][-1] += 1
    elif query["kind"] == "decompose":
        if expect["in_cone"]:
            expect["terms"][0][0] = str(2 * Fraction(expect["terms"][0][0]))
        else:
            expect.update(in_cone=True, terms=[])
    elif query["kind"] == "bounds":
        if expect["mode"] != "exact":
            return False
        expect["params"]["i"] += 1
    else:
        p = expect["params"]
        top = veronese_codim(p["n"], p["d"]) - 1 if "n" in p else p["dim_l"] - p["dim_x"]
        p["i"] = 1 if p["i"] > 1000 else top // 2
    return True
