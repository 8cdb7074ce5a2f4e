"""Seeded query streams for the three benchmark workloads.

Each workload is an endless stream of blocks of queries.  The size
parameter that drives a query's cost is placed log-uniformly in its range by
a Kronecker (golden-ratio) sequence with a seeded start: every run of
consecutive queries covers the range evenly, so a run that stops after any
number of queries sees nearly the same size mix whatever the seed, which
keeps medians and tails steady, while the queries themselves differ.

A query is a dict with ``argv`` (passed to ``bettibounds.cli.main``),
``kind`` and ``expect`` (what the checks in :mod:`checks` compare against).
Table queries also carry the BT1 text to write before their block runs.

Only the standard library is used; nothing here imports bettibounds.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("tables", "exact-bounds", "digit-brackets")

#: Smallest and largest table support, and the range of pure sequence lengths.
SUPPORT_RANGE = (10, 330)
PURE_LENGTH_RANGE = (20, 300)
#: Output sizes, in decimal digits, of the exact-bounds queries.  The lower
#: bound prints about as many digits (numerator plus denominator) as the
#: upper one, so each query targets an upper bound of half the output size.
DIGIT_RANGE = (10**2, 150_000)
#: How far the near-budget --max-exact-digits sits from the binomial's size;
#: inside the CLI's 16-digit float margin, so the exact decision always runs.
NEAR_BUDGET_OFFSET = 15
#: Range of the binomial's top argument in the digit-brackets workload.
BIG_N_RANGE = (10**6, 10**13)
SWEEP_LENGTH = 8

#: The whole-bound defect: exact str() of a 2.1-million-digit bound.  It is
#: run once per traced exact-bounds run, after the loop and untraced.
KNOWN_DEFECT_ARGV = ["bounds", "pure", "-N", "10", "-r", "2100000", "-i", "3",
                     "--format", "machine"]

_LN10 = math.log(10)


def hk_entries(degrees) -> list[Fraction]:
    """Herzog-Kuhl values of the pure diagram of ``degrees`` (beta_0 = 1)."""
    d = list(degrees)
    top = math.prod(x - d[0] for x in d[1:])
    return [
        Fraction(top, math.prod(abs(x - di) for j, x in enumerate(d) if j != i))
        for i, di in enumerate(d)
    ]


def veronese_codim(n: int, d: int) -> int:
    """Codimension C(n+d, n) - n - 1 of the degree-d Veronese of n-space."""
    return math.comb(n + d, n) - n - 1


def log10_binomial(n: int, k: int) -> float:
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / _LN10


def exact_digits(x: int) -> int:
    """Decimal digits of a positive integer, without int->str."""
    k = int(x.bit_length() * math.log10(2))
    while 10**k > x:
        k -= 1
    while 10 ** (k + 1) <= x:
        k += 1
    return k + 1


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


class Kronecker:
    """Points of [0, 1) spaced by the golden ratio from a seeded start."""

    STEP = (math.sqrt(5) - 1) / 2

    def __init__(self, rng: random.Random):
        self.u = rng.random()

    def __call__(self) -> float:
        self.u = (self.u + self.STEP) % 1.0
        return self.u


# -- tables -----------------------------------------------------------------

#: One block: eight tables in the cone, one out of it, one pure diagram.
TABLES_PATTERN = ("in",) * 4 + ("out",) + ("in",) * 4 + ("pure",)


def random_chain(rng: random.Random, support: int, pdim: int) -> list[tuple[int, ...]]:
    """A strict chain of degree sequences of length ``pdim`` (at most
    support - 2) whose pure diagrams cover ``support`` positions: each step
    raises one degree by one, adding one new position."""
    pdim = min(pdim, support - 2)
    d = [0]
    for _ in range(pdim):
        d.append(d[-1] + rng.choice((1, 1, 2)))
    chain = [tuple(d)]
    for _ in range(support - (pdim + 1)):
        movable = [k for k in range(len(d)) if k == len(d) - 1 or d[k] + 1 < d[k + 1]]
        d[rng.choice(movable)] += 1
        chain.append(tuple(d))
    return chain


def chain_table(rng: random.Random, chain):
    """Integer table sum_k c_k * pure(chain[k]) with the exact c_k."""
    coefficients = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in chain]
    entries: dict[tuple[int, int], Fraction] = {}
    for c, d in zip(coefficients, chain):
        for i, value in enumerate(hk_entries(d)):
            entries[i, d[i]] = entries.get((i, d[i]), 0) + c * value
    scale = math.lcm(*(v.denominator for v in entries.values()))
    table = {key: int(v * scale) for key, v in entries.items()}
    return table, [c * scale for c in coefficients]


def _bt1(table) -> str:
    return "BT1\n" + "".join(f"{i} {j} {v}\n" for (i, j), v in sorted(table.items()))


def _out_of_cone(table, chain) -> None:
    """Add 1 to an odd column, at the position raised last in the chain.

    Every pure diagram has alternating sum sum_i (-1)**i beta_i >= 0 (zero
    for length >= 1, the Herzog-Kuhl equation of degree 0; one for length
    0), so a table whose alternating sum is -1 lies outside the cone.  The
    position is one of the last chain terms, so the peel runs almost to the
    end before it fails.
    """
    last = chain[-1]
    for a, b in zip(reversed(chain[:-1]), reversed(chain)):
        k = next(k for k in range(len(a)) if a[k] != b[k])
        if k % 2 == 1:
            break
    else:
        k = 1
    table[k, last[k]] += 1


def _pure_degrees(rng: random.Random, length: int) -> tuple[int, ...]:
    """Length+1 degrees with unit steps and at most four steps of two, so the
    text diagram has at most five rows."""
    doubles = set(rng.sample(range(length), rng.randint(0, 4)))
    d = [0]
    for k in range(length):
        d.append(d[-1] + (2 if k in doubles else 1))
    return tuple(d)


def _diagram_query(degrees) -> dict:
    return {"kind": "diagram", "argv": ["pure", ",".join(map(str, degrees))],
            "expect": {"degrees": list(degrees)}}


def _decompose_query(name: str, table, expect: dict) -> dict:
    return {"kind": "decompose", "file": name, "text": _bt1(table),
            "argv": ["decompose", name, "--check", "--format", "machine"], "expect": expect}


def _in_cone(coefficients, chain) -> dict:
    return {"in_cone": True, "terms": [[str(c), list(d)] for c, d in zip(coefficients, chain)]}


def tables_stream(rng: random.Random):
    supports, lengths = Kronecker(rng), Kronecker(rng)
    index = 0
    while True:
        block = []
        for kind in TABLES_PATTERN:
            if kind == "pure":
                degrees = _pure_degrees(rng, round(_log_uniform(*PURE_LENGTH_RANGE, lengths())))
                block.append(_diagram_query(degrees))
                continue
            # pdim (3..10) is a function of the size draw, through narrow size
            # bands, so the tail's mix of chain shapes is the same whatever
            # the seed.
            u = supports()
            chain = random_chain(rng, round(_log_uniform(*SUPPORT_RANGE, u)), 3 + int(u * 800) % 8)
            table, coefficients = chain_table(rng, chain)
            if kind == "out":
                _out_of_cone(table, chain)
                expect = {"in_cone": False}
            else:
                expect = _in_cone(coefficients, chain)
            block.append(_decompose_query(f"t{index}.bt1", table, expect))
            index += 1
        yield block


# -- exact-bounds -----------------------------------------------------------

#: One block in five queries; one of them near the digit budget.
EXACT_PATTERN = ("regular", "regular", "near", "regular", "regular")
EXACT_FAMILIES = ("pure-binomial", "pure-power", "module-binomial", "module-power",
                  "veronese", "variety")


def _column_for_digits(n: int, digits: float, extra: float = 0.0) -> int:
    """Smallest i <= n/2 with log10 C(n, i) + extra >= digits."""
    lo, hi = 1, n // 2
    while lo < hi:
        mid = (lo + hi) // 2
        if log10_binomial(n, mid) + extra >= digits:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _big_top(rng: random.Random, digits: float) -> int:
    """A binomial top argument with room for C(n, i) of ``digits`` digits."""
    return round(_log_uniform(4 * digits + 20, 40 * digits + 200, rng.random()))


def _veronese_for(rng: random.Random, least: int) -> tuple[int, int, int]:
    """(n, d, N) with codimension N = C(n+d, n) - n - 1 at least ``least``."""
    n = rng.choice((2, 3))
    d = max(2, int((least * math.factorial(n)) ** (1 / n)))
    while veronese_codim(n, d) < least:
        d += 1
    return n, d, veronese_codim(n, d)


def _exact_query(rng: random.Random, family: str, digits: float) -> dict:
    if family == "pure-binomial":
        n = _big_top(rng, digits)
        r = rng.randint(0, 3)
        i = _column_for_digits(n, digits, r * math.log10(n))
        p = {"N": n, "r": r, "i": i}
        argv = ["bounds", "pure", "-N", str(n), "-r", str(r), "-i", str(i)]
    elif family == "pure-power":
        n = rng.randint(10, 2000)
        i = rng.randint(1, 6)
        r = max(0, round((digits - log10_binomial(n, i)) / math.log10(n)))
        p = {"N": n, "r": r, "i": i}
        argv = ["bounds", "pure", "-N", str(n), "-r", str(r), "-i", str(i)]
    elif family.startswith("module"):
        beta0 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if family == "module-binomial":
            pdim = _big_top(rng, digits)
            reg = rng.randint(0, 4)
            i = _column_for_digits(pdim, digits, reg * math.log10(pdim))
        else:
            pdim = rng.randint(10, 2000)
            i = rng.randint(1, 6)
            reg = max(0, round((digits - log10_binomial(pdim, i)) / math.log10(pdim)))
        codim = pdim - rng.randint(0, 3)
        p = {"codim": codim, "pdim": pdim, "reg": reg, "beta0": str(beta0), "i": i}
        argv = ["bounds", "module", "--codim", str(codim), "--pdim", str(pdim),
                "--reg", str(reg), "--beta0", str(beta0), "-i", str(i)]
    elif family == "veronese":
        n, d, big_n = _veronese_for(rng, 4 * digits + 20)
        i = _column_for_digits(big_n, digits, n * math.log10(big_n))
        p = {"n": n, "d": d, "i": i}
        argv = ["bounds", "veronese", "-n", str(n), "-d", str(d), "-i", str(i)]
    else:
        dim_l = _big_top(rng, digits)
        dim_x, reg = rng.randint(1, 4), rng.randint(1, 4)
        i = _column_for_digits(dim_l, digits, reg * math.log10(dim_l))
        p = {"dim_l": dim_l, "dim_x": dim_x, "reg": reg, "i": i}
        argv = ["bounds", "variety", "--dim-l", str(dim_l), "--dim-x", str(dim_x),
                "--reg", str(reg), "-i", str(i)]
    return {"kind": "bounds", "argv": argv + ["--format", "machine"],
            "expect": {"target": family.split("-")[0], "params": p, "mode": "exact"}}


def _near_budget_query(rng: random.Random, family: str, digits: float, offset: int) -> dict:
    """A veronese or variety query whose --max-exact-digits is ``offset``
    digits above the true size of its largest binomial: negative offsets
    fall back to a digit bracket, the others stay exact."""
    if family == "veronese":
        query = _exact_query(rng, "veronese", digits)
        p = query["expect"]["params"]
        big = math.comb(veronese_codim(p["n"], p["d"]), p["i"])
    else:
        query = _exact_query(rng, "variety", digits)
        p = query["expect"]["params"]
        big = math.comb(p["dim_l"], p["i"])
    budget = exact_digits(big) + offset
    query["argv"] += ["--max-exact-digits", str(budget)]
    query["expect"]["mode"] = "exact" if offset >= 0 else "estimate"
    return query


def exact_stream(rng: random.Random):
    # The family is a function of the size draw (narrow size bands cycle
    # through the families), so the few queries in the tail have the same
    # family mix whatever the seed.
    regular_sizes, near_sizes = Kronecker(rng), Kronecker(rng)
    while True:
        block = []
        for kind in EXACT_PATTERN:
            if kind == "regular":
                u = regular_sizes()
                family = EXACT_FAMILIES[int(u * 100 * len(EXACT_FAMILIES)) % len(EXACT_FAMILIES)]
                block.append(_exact_query(rng, family, _log_uniform(*DIGIT_RANGE, u) / 2))
                continue
            # cycle: veronese exact, veronese fallback, variety exact, variety fallback
            u = near_sizes()
            band = int(u * 400) % 4
            offset = (rng.randint(-NEAR_BUDGET_OFFSET, -1) if band % 2
                      else rng.randint(0, NEAR_BUDGET_OFFSET))
            family = ("veronese", "variety")[band // 2]
            block.append(_near_budget_query(rng, family, _log_uniform(*DIGIT_RANGE, u) / 2,
                                            offset))
        yield block


# -- digit-brackets ---------------------------------------------------------

#: Per precision: (sweeps of SWEEP_LENGTH columns, independent queries) in
#: one block; 70/20/10 by precision, half of each in sweeps.
DIGIT_BLOCK = {40: (7, 56), 400: (2, 16), 1000: (1, 8)}


def _bracket_target(rng: random.Random, family: str, u: float) -> tuple[dict, int]:
    """Veronese or variety parameters whose binomial top lies log-uniformly
    in BIG_N_RANGE, with the largest admissible column index."""
    target = _log_uniform(*BIG_N_RANGE, u)
    if family == "veronese":
        n = rng.choice((2, 3, 4))
        d = max(2, int((target * math.factorial(n)) ** (1 / n)))
        return {"n": n, "d": d}, veronese_codim(n, d) - 1
    dim_l = round(target)
    dim_x = rng.randint(1, 4)
    return {"dim_l": dim_l, "dim_x": dim_x, "reg": rng.randint(1, 6)}, dim_l - dim_x


def _bracket_query(family: str, p: dict, i: int, precision: int, paper: bool) -> dict:
    if family == "veronese":
        argv = ["bounds", "veronese", "-n", str(p["n"]), "-d", str(p["d"])]
    else:
        argv = ["bounds", "variety", "--dim-l", str(p["dim_l"]), "--dim-x", str(p["dim_x"]),
                "--reg", str(p["reg"])]
    argv += ["-i", str(i), "--estimate", "--precision", str(precision), "--format", "machine"]
    if paper:
        argv.append("--paper-constants")
    return {"kind": "bracket", "argv": argv,
            "expect": {"target": family, "params": dict(p, i=i)}}


def _column(rng: random.Random, top: int) -> int:
    return max(1, min(top, round(_log_uniform(2, top / 2, rng.random()))))


def digit_stream(rng: random.Random):
    sizes = {precision: Kronecker(rng) for precision in DIGIT_BLOCK}
    index = 0
    while True:
        groups = []
        for precision, (sweeps, singles) in DIGIT_BLOCK.items():
            for g, shape in enumerate(["sweep"] * sweeps + ["single"] * singles):
                family = ("veronese", "variety")[(g + index) % 2]
                p, top = _bracket_target(rng, family, sizes[precision]())
                paper = rng.random() < 0.05
                columns = [_column(rng, top) for _ in range(SWEEP_LENGTH if shape == "sweep" else 1)]
                groups.append([_bracket_query(family, p, i, precision, paper) for i in columns])
        rng.shuffle(groups)  # a sweep stays together: its queries share ln cache entries
        yield [q for group in groups for q in group]
        index += 1


def layer_probes() -> list[dict]:
    """Six tiny queries that reach every traced layer.

    A traced run makes them after its loop, so that a layer its workload
    never uses shows a small measured time instead of a constant zero.
    """
    rng = random.Random(0)
    chain = random_chain(rng, 12, 4)
    table, coefficients = chain_table(rng, chain)
    veronese = {"n": 2, "d": 5}
    return [
        _decompose_query("probe.bt1", table, _in_cone(coefficients, chain)),
        _diagram_query((0, 2, 4, 5)),
        {"kind": "bounds", "argv": ["bounds", "pure", "-N", "18", "-r", "2", "-i", "7",
                                    "--format", "machine"],
         "expect": {"target": "pure", "params": {"N": 18, "r": 2, "i": 7}, "mode": "exact"}},
        # C(18, 7) has 5 digits: over this budget, so it falls back at precision 40
        {"kind": "bounds", "argv": ["bounds", "veronese", "-n", "2", "-d", "5", "-i", "7",
                                    "--max-exact-digits", "3", "--format", "machine"],
         "expect": {"target": "veronese", "params": dict(veronese, i=7), "mode": "estimate"}},
        _bracket_query("veronese", veronese, 7, 400, False),
        _bracket_query("variety", {"dim_l": 10**6, "dim_x": 2, "reg": 3}, 1000, 1000, False),
    ]


_STREAMS = {"tables": tables_stream, "exact-bounds": exact_stream,
            "digit-brackets": digit_stream}


def blocks(workload: str, seed: int):
    """Endless stream of query blocks for ``workload``, fixed by ``seed``."""
    return _STREAMS[workload](random.Random(f"{workload}:{seed}"))
