import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bettibounds import (
    BettiTable,
    Decomposition,
    DomainError,
    NotInBSCone,
    decompose,
    deg_seq_lt,
    pure_diagram,
    verify_decomposition,
)
from conftest import MONOMIAL_QUOTIENT_TERMS, random_decomposition_terms


def _column(table, i):
    """The entries {j: value} of column i."""
    return {j: v for (ii, j), v in table.items() if ii == i}


def _remainders(terms):
    """The tables left after each peel of a chain decomposition: the first
    is the whole table and the last the empty one."""
    return [Decomposition(terms[k:]).reconstruct() for k in range(len(terms) + 1)]


def test_leading_degree_sequence(quotient_table):
    # the first type of the chain is the minimal degree of each column
    assert decompose(quotient_table).terms[0][1] == (0, 2, 4, 5)
    assert decompose(pure_diagram((0, 3, 5))).terms[0][1] == (0, 3, 5)
    with pytest.raises(NotInBSCone) as gap:
        decompose(BettiTable({(0, 0): 1, (2, 2): 1}))
    assert gap.value.reason == "gap column"
    with pytest.raises(NotInBSCone) as unordered:
        decompose(BettiTable({(0, 5): 1, (1, 2): 1}))
    assert unordered.value.reason == "minima not increasing"
    with pytest.raises(DomainError):
        decompose(BettiTable())


def test_peel_first_step(quotient_table):
    terms = decompose(quotient_table).terms
    assert terms[0] == (Fraction(3, 10), (0, 2, 4, 5))
    remainder = _remainders(terms)[1]
    assert (1, 2) not in remainder  # 1 - 3/10 * 10/3 vanishes exactly
    assert remainder[1, 3] == 4
    assert all(v > 0 for _, v in remainder.items())


def test_peel_pure_multiple():
    table = BettiTable({key: 2 * v for key, v in pure_diagram((0, 2, 4, 5)).items()})
    assert decompose(table).terms == ((Fraction(2), (0, 2, 4, 5)),)


def test_peel_two_term_sum():
    table = Decomposition(((Fraction(1), (0, 1, 2)), (Fraction(1), (0, 1, 3)))).reconstruct()
    assert table == BettiTable(
        {(0, 0): 2, (1, 1): Fraction(7, 2), (2, 2): 1, (2, 3): Fraction(1, 2)}
    )
    assert decompose(table).terms == ((Fraction(1), (0, 1, 2)), (Fraction(1), (0, 1, 3)))


def test_decompose_worked_example(quotient_table):
    decomposition = decompose(quotient_table)
    assert decomposition.terms == MONOMIAL_QUOTIENT_TERMS
    assert decomposition.reconstruct() == quotient_table
    assert decomposition.coefficient_sum() == 1


def test_decompose_pure_diagram_is_fixed_point():
    assert decompose(pure_diagram((0, 1, 2))).terms == ((Fraction(1), (0, 1, 2)),)


def test_decompose_negative_degrees():
    table = BettiTable({key: 2 * v for key, v in pure_diagram((-2, 0, 1)).items()})
    assert decompose(table).terms == ((Fraction(2), (-2, 0, 1)),)


def test_decompose_outside_cone():
    with pytest.raises(NotInBSCone):
        decompose(BettiTable({(0, 0): 1, (2, 2): 1}))
    with pytest.raises(NotInBSCone):
        decompose(BettiTable({(0, 5): 1, (1, 2): 1}))
    with pytest.raises(DomainError):
        decompose(BettiTable())


def test_coefficient_mass(quotient_table):
    # Each normalized diagram contributes exactly 1 to column 0.
    decomposition = decompose(quotient_table)
    assert decomposition.coefficient_sum() == quotient_table.total(0)

    mixed = Decomposition(
        ((Fraction(5, 7), (0, 1, 3)), (Fraction(2, 3), (1, 2, 4)))
    ).reconstruct()
    # mixed generator degrees: two entries in column 0
    assert decompose(mixed).coefficient_sum() == mixed.total(0)


def test_termination_bound(quotient_table):
    decomposition = decompose(quotient_table)
    assert len(decomposition) <= len(quotient_table)


def test_peel_progress(quotient_table):
    # Every peel shrinks the support or raises some column minimum.
    remainders = _remainders(decompose(quotient_table).terms)
    assert remainders[0] == quotient_table and remainders[-1] == BettiTable()
    for remainder, nxt in zip(remainders, remainders[1:]):
        if nxt:
            progressed = len(nxt) < len(remainder) or any(
                min(_column(nxt, i), default=10**9) > min(_column(remainder, i))
                for i in range(min(remainder.pdim, nxt.pdim) + 1)
            )
            assert progressed


chain_type_strategy = st.integers(0, 10**6).map(
    lambda seed: random_decomposition_terms(random.Random(seed))
)


@settings(max_examples=120, deadline=None)
@given(chain_type_strategy)
def test_decompose_round_trip(terms):
    source = Decomposition(tuple(terms))
    table = source.reconstruct()
    recovered = decompose(table)
    assert recovered.terms == source.terms
    assert all(c > 0 for c, _ in recovered)
    for (_, a), (_, b) in zip(recovered.terms, recovered.terms[1:]):
        assert deg_seq_lt(a, b)


def test_verify_decomposition_codim_window(quotient_table):
    decomposition = decompose(quotient_table)
    verify_decomposition(quotient_table, decomposition)
    # the true codimension is 2: lengths run from 2 to pdim = 3
    verify_decomposition(quotient_table, decomposition, codim=2)
    with pytest.raises(DomainError):
        # the final length-2 type violates a claimed codimension of 3
        verify_decomposition(quotient_table, decomposition, codim=3)
    with pytest.raises(DomainError):
        verify_decomposition(pure_diagram((0, 1)), decomposition)


def test_verify_decomposition_rejects_a_negative_codim(quotient_table):
    # every type length lies in [-5, pdim], so the window alone would pass
    decomposition = decompose(quotient_table)
    for codim in (-5, -1):
        with pytest.raises(DomainError) as failure:
            verify_decomposition(quotient_table, decomposition, codim=codim)
        assert str(failure.value) == f"codim must be nonnegative, got {codim}"
    verify_decomposition(quotient_table, decomposition, codim=0)


def test_verify_decomposition_failures(quotient_table):
    decomposition = decompose(quotient_table)
    (c0, d0), (c1, d1) = decomposition.terms[:2]
    rest = decomposition.terms[2:]
    cases = [
        (Decomposition(((Fraction(0), d0), (c1, d1)) + rest), None,
         "coefficient 0 is not positive"),
        (Decomposition(((c1, d1), (c0, d0)) + rest), None,
         f"types {d1} and {d0} do not increase strictly"),
        (Decomposition(((c0 * 2, d0), (c1, d1)) + rest), None,
         "reconstruction does not reproduce the table"),
        (decomposition, 3, "type (0, 3, 5) has length 2, outside [3, 3]"),
    ]
    for candidate, codim, message in cases:
        with pytest.raises(DomainError) as failure:
            verify_decomposition(quotient_table, candidate, codim=codim)
        assert str(failure.value) == message


OUTSIDE_CONE = [
    (BettiTable({(0, 0): 1, (2, 2): 1}), "gap column",
     "column 1 is empty but lies below the projective dimension"),
    (BettiTable({(0, 5): 1, (1, 2): 1}), "minima not increasing",
     "column minima (5, 2) are not strictly increasing"),
]


@pytest.mark.parametrize("table, reason, detail", OUTSIDE_CONE)
def test_not_in_cone_reason(table, reason, detail):
    with pytest.raises(NotInBSCone) as failure:
        decompose(table)
    assert failure.value.reason == reason
    assert str(failure.value) == f"table is not in the cone of pure diagrams: {detail}"
    copy = pickle.loads(pickle.dumps(failure.value))
    assert (copy.reason, str(copy)) == (reason, str(failure.value))


small_tables = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 6)),
    st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9),
    min_size=1, max_size=10,
)


@settings(max_examples=300, deadline=None)
@given(small_tables)
def test_decompose_returns_a_certified_chain_or_a_reason(entries):
    table = BettiTable(entries)
    try:
        decomposition = decompose(table)
    except NotInBSCone as exc:
        assert exc.reason in ("gap column", "minima not increasing")
    else:
        assert len(decomposition) <= len(table)
        verify_decomposition(table, decomposition)


# -- differential check against the immutable peel -----------------------------


def _hk(d):
    """Herzog-Kuhl values of pure_diagram(d), written out independently."""
    top = 1
    for x in d[1:]:
        top *= x - d[0]
    values = []
    for i, di in enumerate(d):
        den = 1
        for j, x in enumerate(d):
            if j != i:
                den *= abs(x - di)
        values.append(Fraction(top, den))
    return values


class _OracleFailure(Exception):
    """A failure of the oracle: ``reason`` and ``message`` as ``NotInBSCone``
    would carry them."""

    def __init__(self, reason, detail):
        self.reason = reason
        self.message = f"table is not in the cone of pure diagrams: {detail}"


def _old_leading_degree_sequence(entries):
    minima = []
    for i in range(max(i for i, _ in entries) + 1):
        col = [j for ii, j in entries if ii == i]
        if not col:
            raise _OracleFailure(
                "gap column", f"column {i} is empty but lies below the projective dimension"
            )
        minima.append(min(col))
    for a, b in zip(minima, minima[1:]):
        if b <= a:
            raise _OracleFailure(
                "minima not increasing",
                f"column minima {tuple(minima)} are not strictly increasing",
            )
    return tuple(minima)


def _old_peel(entries, d):
    """(c, a new dict of entries minus c * pure_diagram(d)), with every entry
    checked for a negative value and exact zeros dropped."""
    diagram = {(i, di): v for i, (di, v) in enumerate(zip(d, _hk(d)))}
    c = min(entries[key] / v for key, v in diagram.items())
    remainder = dict(entries)
    for key, v in diagram.items():
        diff = remainder[key] - c * v
        if diff < 0:
            raise _OracleFailure("negative entry", f"entry at {key} would become {diff}")
        if diff:
            remainder[key] = diff
        else:
            del remainder[key]
    return c, remainder


def _oracle_decompose(table):
    """The peel as it was before remainders were mutated in place: a whole new
    dict of Fraction entries per step, minima found by scanning columns, and
    every check the old loop made.  Returns the terms, or the (reason,
    message) that decompose's NotInBSCone must carry; the reasons "negative
    entry" and "chain violation" mark failures that decompose can never
    report."""
    budget = len(table)
    terms = []
    remainder = dict(table.items())
    try:
        while remainder:
            if len(terms) > budget:
                raise _OracleFailure(
                    "chain violation", f"peeling did not terminate within {budget} steps"
                )
            d = _old_leading_degree_sequence(remainder)
            c, remainder = _old_peel(remainder, d)
            terms.append((c, d))
        for (_, a), (_, b) in zip(terms, terms[1:]):
            if not deg_seq_lt(a, b):
                raise _OracleFailure(
                    "chain violation", f"types {a} and {b} do not increase strictly"
                )
    except _OracleFailure as failure:
        return failure.reason, failure.message
    return tuple(terms)


def _seeded_chain(rng, support, pdim):
    """A strict chain of length-pdim degree sequences whose pure diagrams
    cover about ``support`` positions: each step raises one degree by one
    (one new position), and now and then drops the last degree instead."""
    d = [0]
    for _ in range(min(pdim, support - 2)):
        d.append(d[-1] + rng.choice((1, 1, 2)))
    chain = [tuple(d)]
    covered = len(d)
    while covered < support:
        if len(d) > 2 and rng.random() < 0.02:
            d.pop()
        else:
            movable = [k for k in range(len(d)) if k == len(d) - 1 or d[k] + 1 < d[k + 1]]
            d[rng.choice(movable)] += 1
            covered += 1
        chain.append(tuple(d))
    return chain


def _table_of(terms):
    """sum c * pure_diagram(d) over the terms, from the independent ``_hk``."""
    entries = {}
    for c, d in terms:
        for i, (di, v) in enumerate(zip(d, _hk(d))):
            entries[i, di] = entries.get((i, di), 0) + c * v
    return BettiTable(entries)


def _chain_terms_and_table(rng, support, pdim):
    terms = tuple(
        (Fraction(rng.randint(1, 9), rng.randint(1, 9)), d)
        for d in _seeded_chain(rng, support, pdim)
    )
    return terms, _table_of(terms)


def _perturbations(rng, terms, table):
    """Tables near ``table``; the first is outside the cone for certain.

    Every pure diagram of length >= 1 has alternating sum
    sum_i (-1)**i beta_i = 0, so adding 1 at column 1 gives a table with
    alternating sum -1, which no table in the cone has.
    """
    entries = dict(table.items())
    key = (1, terms[-1][1][1])
    yield BettiTable({**entries, key: entries.get(key, 0) + 1})
    key = rng.choice(sorted(entries))
    yield BettiTable({**entries, key: entries[key] * rng.choice((Fraction(1, 2), 2))})
    i = rng.randrange(table.pdim + 1)
    column = _column(table, i)
    j = rng.randint(min(column) - 1, max(column) + 1)
    yield BettiTable({**entries, (i, j): entries.get((i, j), 0) + 1})
    yield BettiTable({k: v for k, v in entries.items() if k != key})


def _outcome(table):
    """decompose's terms, or the (reason, message) of its NotInBSCone;
    also checks that decompose left its input unchanged."""
    before = BettiTable(dict(table.items()))
    try:
        result = decompose(table).terms
    except NotInBSCone as exc:
        result = (exc.reason, str(exc))
    assert table == before
    return result


DIFFERENTIAL_CASES = [
    (seed, support, 3 + seed % 8)
    for seed, support in enumerate((10, 17, 30, 55, 90, 140, 210, 300, 400))
]


@pytest.mark.parametrize("seed, support, pdim", DIFFERENTIAL_CASES)
def test_decompose_matches_immutable_peel(seed, support, pdim):
    rng = random.Random(seed)
    terms, table = _chain_terms_and_table(rng, support, pdim)
    assert _oracle_decompose(table) == terms
    assert _outcome(table) == terms
    for k, perturbed in enumerate(_perturbations(rng, terms, table)):
        expected = _oracle_decompose(perturbed)
        if k == 0 and not isinstance(expected[0], str):
            pytest.fail(f"alternating-sum perturbation stayed in the cone: {expected}")
        assert _outcome(perturbed) == expected


def test_decompose_round_trip_at_support_2000():
    terms, table = _chain_terms_and_table(random.Random(2000), 2000, 10)
    decomposition = decompose(table)
    assert decomposition.terms == terms
    assert decomposition.reconstruct() == table


# -- int pairs stay inside the peel --------------------------------------------


def _all_fractions(values):
    return all(type(v) is Fraction for v in values)


@pytest.mark.parametrize("seed, support, pdim", DIFFERENTIAL_CASES[:5])
def test_public_results_are_fractions(seed, support, pdim):
    _, table = _chain_terms_and_table(random.Random(seed), support, pdim)
    decomposition = decompose(table)
    assert _all_fractions(c for c, _ in decomposition)
    assert _all_fractions(v for _, v in decomposition.reconstruct().items())


PURE_VALUES = [
    ((5,), [1]),
    ((-5, -2), [1, 1]),
    ((-3, -1, 0, 4), [1, Fraction(21, 5), Fraction(7, 2), Fraction(3, 10)]),
    ((-1, 0, 1, 2, 3), [1, 4, 6, 4, 1]),
    ((0, 2, 7, 11, 12), [1, Fraction(154, 75), Fraction(66, 25), Fraction(14, 3),
                         Fraction(77, 25)]),
]


@pytest.mark.parametrize("d, values", PURE_VALUES)
def test_pure_diagram_values(d, values):
    diagram = pure_diagram(d)
    assert diagram.items() == [((i, di), v) for i, (di, v) in enumerate(zip(d, values))]
    assert _all_fractions(v for _, v in diagram.items())
    assert values == _hk(d)


HOMOGENEITY_CASES = [(30, 30, 4, 0), (300, 300, 8, 0), (31, 30, 5, -9), (301, 300, 10, -40)]


@pytest.mark.parametrize("seed, support, pdim, shift", HOMOGENEITY_CASES)
def test_decompose_is_homogeneous(seed, support, pdim, shift):
    # decompose(q * T) = q * decompose(T), with q far from the small
    # coefficients of the other chains so the int pairs get large
    terms, _ = _chain_terms_and_table(random.Random(seed), support, pdim)
    terms = tuple((c, tuple(x + shift for x in d)) for c, d in terms)
    table = _table_of(terms)
    for q in (Fraction(7, 3), Fraction(10**30, 7), Fraction(1, 2**61 - 1)):
        scaled = BettiTable({key: v * q for key, v in table.items()})
        decomposition = decompose(scaled)
        assert decomposition.terms == tuple((c * q, d) for c, d in terms)
        verify_decomposition(scaled, decomposition)
