import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import bettibounds
from bettibounds import BettiTable, pure_diagram, variety_bounds, veronese_bounds
from bettibounds import cli, estimation
from bettibounds.cli import build_parser, main
from bettibounds.tablefile import dump
from conftest import mp_ln, mp_log_comb


@pytest.fixture
def worked_file(tmp_path, quotient_table):
    path = tmp_path / "worked.bt1"
    dump(quotient_table, path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "machine")
    assert code == 0, err
    return json.loads(out)


# -- pure -----------------------------------------------------------------------


def test_pure_text(capsys):
    code, out, _ = run(capsys, "pure", "0,2,4,5")
    assert code == 0
    assert "10/3" in out and "8/3" in out
    assert "totals: 1  10/3  5  8/3" in out


def test_pure_koszul_row(capsys):
    code, out, _ = run(capsys, "pure", "0,1,2,3")
    assert code == 0
    assert "totals: 1  3  3  1" in out
    # a Koszul diagram has a single row, labelled 0
    diagram_block = out.split("\n\n")[0].splitlines()
    row_labels = [line.split()[0] for line in diagram_block[1:]]
    assert row_labels == ["0:"]


def test_pure_rejects_non_increasing(capsys):
    code, _, err = run(capsys, "pure", "0,0,1")
    assert code == 1
    assert "strictly increasing" in err


def test_pure_negative_leading_degree(capsys):
    # a leading '-' needs the standard argparse separator
    code, out, _ = run(capsys, "pure", "--", "-2,0,1")
    assert code == 0
    assert "totals: 1  3  2" in out


def test_pure_leading_negative_degree_without_separator(capsys):
    text = run(capsys, "pure", "-3,1,2")
    assert text[0] == 0 and "totals: 1  5  4" in text[1]
    assert text == run(capsys, "pure", "--", "-3,1,2")
    machine = ("--format", "machine")
    assert run(capsys, "pure", "-3,1,2", *machine) == run(capsys, "pure", *machine, "--", "-3,1,2")
    assert run(capsys, "pure", "-x")[0] == 1


def test_pure_machine_round_trip(capsys):
    report = run_json(capsys, "pure", "0,2,4,5")
    assert report["status"] == "ok"
    assert report["command"] == "pure"
    assert report["inputs"]["degrees"] == [0, 2, 4, 5]
    rebuilt = BettiTable(
        {(e["i"], e["j"]): Fraction(e["value"]) for e in report["results"]["entries"]}
    )
    assert rebuilt == pure_diagram((0, 2, 4, 5))
    assert report["results"]["totals"] == ["1", "10/3", "5", "8/3"]


def test_pure_machine_output_builds_no_diagram(capsys, monkeypatch):
    expected = run(capsys, "pure", "0,2,4,5", "--format", "machine")

    def fail(table):
        raise AssertionError("format_diagram called under --format machine")

    monkeypatch.setattr(cli, "format_diagram", fail)
    assert run(capsys, "pure", "0,2,4,5", "--format", "machine") == expected
    code, out, _ = run(capsys, "pure", "0,10000000000", "--format", "machine")
    assert code == 0
    results = json.loads(out)["results"]
    assert (results["totals"], results["pdim"], results["reg"]) == (["1", "1"], 1, 9999999999)


# -- decompose --------------------------------------------------------------------


def test_decompose_text(capsys, worked_file):
    code, out, _ = run(capsys, "decompose", worked_file)
    assert code == 0
    assert out.splitlines() == [
        "3/10  (0,2,4,5)",
        "1/30  (0,3,4,5)",
        "1/3  (0,3,4,6)",
        "1/15  (0,3,5,6)",
        "4/15  (0,3,5)",
    ]


def test_decompose_single_diagram(capsys, tmp_path):
    path = tmp_path / "pure.bt1"
    dump(pure_diagram((0, 1, 2)), path)
    code, out, _ = run(capsys, "decompose", str(path))
    assert code == 0
    assert out.strip() == "1  (0,1,2)"


def test_decompose_machine(capsys, worked_file):
    report = run_json(capsys, "decompose", worked_file, "--check", "--codim", "2")
    assert report["results"]["coefficient_sum"] == "1"
    assert report["results"]["checked"] is True
    assert [t["coefficient"] for t in report["results"]["terms"]] == [
        "3/10", "1/30", "1/3", "1/15", "4/15",
    ]
    assert [t["type"] for t in report["results"]["terms"]] == [
        [0, 2, 4, 5], [0, 3, 4, 5], [0, 3, 4, 6], [0, 3, 5, 6], [0, 3, 5],
    ]


def test_decompose_check_flag(capsys, worked_file):
    code, out, _ = run(capsys, "decompose", worked_file, "--check")
    assert code == 0
    assert "check: ok" in out


def test_decompose_codim_violation(capsys, worked_file):
    # the decomposition has a length-2 type, so codim 3 must fail the check
    code, _, err = run(capsys, "decompose", worked_file, "--check", "--codim", "3")
    assert code == 2
    assert "length" in err


def test_decompose_outside_cone(capsys, tmp_path):
    path = tmp_path / "gap.bt1"
    path.write_text("BT1\n0 0 1\n2 2 1\n")
    code, _, err = run(capsys, "decompose", str(path))
    assert code == 2
    assert "cone" in err


@pytest.mark.parametrize("text, detail", [
    ("BT1\n0 0 1\n2 2 1\n", "column 1 is empty but lies below the projective dimension"),
    ("BT1\n0 5 1\n1 2 1\n", "column minima (5, 2) are not strictly increasing"),
])
def test_decompose_not_in_cone_message(capsys, tmp_path, text, detail):
    path = tmp_path / "table.bt1"
    path.write_text(text)
    expected = f"betti: table is not in the cone of pure diagrams: {detail}\n"
    for fmt in ("text", "machine"):
        assert run(capsys, "decompose", str(path), "--format", fmt) == (2, "", expected)


def test_decompose_parse_failures(capsys, tmp_path):
    bad = tmp_path / "bad.bt1"
    bad.write_text("BT1\n0 0 0\n")
    assert run(capsys, "decompose", str(bad))[0] == 1
    assert run(capsys, "decompose", str(tmp_path / "missing.bt1"))[0] == 1


def test_value_past_the_int_limit_is_a_parse_error(capsys, tmp_path):
    if not getattr(sys, "get_int_max_str_digits", lambda: 0)():
        pytest.skip("this interpreter has no int->str conversion limit")
    # main widens the limit to 2 * 10**6 + 4300 digits before it reads the file
    big = tmp_path / "big.bt1"
    big.write_text(f"BT1\n0 0 {'7' * 2100000}\n")
    code, out, err = run(capsys, "decompose", str(big))
    assert (code, out) == (1, "")
    assert err.startswith("betti: ") and err.count("\n") == 1 and "7777" not in err
    # --beta0 is parsed before main widens the limit
    beta0 = "7" * (sys.get_int_max_str_digits() + 1)
    argv = ("bounds", "module", "--codim", "2", "--pdim", "4", "--reg", "1", "-i", "2")
    code, out, err = run(capsys, *argv, "--beta0", beta0)
    assert (code, out) == (1, "")
    assert "7777" not in err


# -- bounds ---------------------------------------------------------------------

#: A small exact query per bounds target.
EXACT_ARGV = {
    "pure": ("bounds", "pure", "-N", "18", "-r", "2", "-i", "7"),
    "module": ("bounds", "module", "--codim", "2", "--pdim", "4", "--reg", "1", "-i", "2"),
    "veronese": ("bounds", "veronese", "-n", "2", "-d", "5", "-i", "7"),
    "variety": ("bounds", "variety", "--dim-l", "5", "--dim-x", "2", "--reg", "1", "-i", "2"),
}


#: Per target: its flags with a value each, and the target's own ``inputs``
#: of machine output, in order.
BOUND_INPUTS = {
    "pure": (("-N", "18", "-r", "2", "-i", "7"), [("N", 18), ("r", 2), ("i", 7)]),
    "module": (("--codim", "2", "--pdim", "4", "--reg", "1", "--beta0", "7/3", "-i", "2"),
               [("codim", 2), ("pdim", 4), ("reg", 1), ("beta0", "7/3"), ("i", 2)]),
    "veronese": (("-n", "2", "-d", "5", "-i", "7"), [("n", 2), ("d", 5), ("i", 7)]),
    "variety": (("--dim-l", "5", "--dim-x", "2", "--reg", "1", "-i", "2"),
                [("dim_l", 5), ("dim_x", 2), ("reg", 1), ("i", 2)]),
}


@pytest.mark.parametrize("estimate", [False, True])
@pytest.mark.parametrize("target", BOUND_INPUTS)
def test_bounds_inputs(capsys, target, estimate):
    flags, own_inputs = BOUND_INPUTS[target]
    argv = ("bounds", target, *flags, *(("--estimate",) if estimate else ()))
    report = run_json(capsys, *argv)
    assert report["command"] == f"bounds {target}"
    assert list(report["inputs"].items()) == [
        ("precision", 40), ("paper_constants", False), ("max_exact_digits", 1000000),
        *own_inputs, ("estimate", estimate),
    ]
    assert report["results"]["mode"] == ("estimate" if estimate else "exact")
    if target == "veronese":
        assert report["results"]["N"] == 18
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[0] == "N = 18"


@pytest.mark.parametrize("target", BOUND_INPUTS)
def test_bounds_help_names_every_flag(capsys, target):
    code, out, _ = run(capsys, "bounds", target, "--help")
    assert code == 0
    flags = BOUND_INPUTS[target][0][::2]
    assert {*flags, "--estimate", "--max-exact-digits"} <= set(out.split())


def test_bounds_pure(capsys):
    code, out, _ = run(capsys, "bounds", "pure", "-N", "18", "-r", "2", "-i", "7")
    assert code == 0
    assert "lower = 884/9" in out
    assert "upper = 10310976" in out
    report = run_json(capsys, "bounds", "pure", "-N", "18", "-r", "2", "-i", "7")
    assert report["command"] == "bounds pure"
    assert Fraction(report["results"]["lower"]) == Fraction(884, 9)
    assert Fraction(report["results"]["upper"]) == 10310976


def test_bounds_module(capsys):
    report = run_json(
        capsys, "bounds", "module",
        "--codim", "2", "--pdim", "4", "--reg", "1", "--beta0", "3", "-i", "2",
    )
    assert report["results"] == {"mode": "exact", "lower": "3/2", "upper": "72"}


def test_bounds_veronese_exact(capsys):
    code, out, _ = run(capsys, "bounds", "veronese", "-n", "2", "-d", "5", "-i", "7")
    assert code == 0
    assert "N = 18" in out
    assert "lower = 884/9" in out
    assert "upper = 10310976" in out


VERONESE_PATHS = [(), ("--estimate",), ("--max-exact-digits", "1")]  # exact, estimate, fallback


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("flags", VERONESE_PATHS)
def test_bounds_veronese_computes_n_once(capsys, monkeypatch, flags, fmt):
    # N = C(n+d, n) - n - 1 has 180,000 digits at n = d = 300,000: one command builds it once
    calls, comb = [], math.comb

    def counting_comb(n, k):
        calls.append((n, k))
        return comb(n, k)

    monkeypatch.setattr(math, "comb", counting_comb)
    estimation.veronese_codim.cache_clear()
    argv = ("bounds", "veronese", "-n", "2", "-d", "5", "-i", "7", *flags, "--format", fmt)
    assert run(capsys, *argv)[0] == 0
    assert calls.count((7, 2)) == 1


def test_machine_output_never_formats_the_n_line(capsys, monkeypatch):
    formatted = []

    class Codim(int):  # records each formatting of N done by the CLI module
        def __format__(self, spec):
            if sys._getframe(1).f_globals.get("__name__") == cli.__name__:
                formatted.append(spec)
            return int.__format__(self, spec)

    real = estimation.veronese_codim
    monkeypatch.setattr(estimation, "veronese_codim", lambda n, d: estimation.VeroneseParams(
        n, d, Codim(real(n, d).codim)))
    for flags in VERONESE_PATHS:
        report = run_json(capsys, "bounds", "veronese", "-n", "2", "-d", "5", "-i", "7", *flags)
        assert report["results"]["N"] == 18
    assert formatted == []
    assert run(capsys, "bounds", "veronese", "-n", "2", "-d", "5", "-i", "7")[1].startswith(
        "N = 18\n")
    assert formatted == [""]


def test_bounds_veronese_estimate(capsys):
    report = run_json(
        capsys, "bounds", "veronese",
        "-n", "2", "-d", "1000000", "-i", "100000000000", "--estimate",
    )
    results = report["results"]
    assert results["mode"] == "estimate"
    assert results["exp_lo"] == 108661150966
    assert results["exp_hi"] == 108661151025
    assert results["digits_lo"] == results["exp_lo"] + 1
    assert results["digits_hi"] == results["exp_hi"] + 1


def test_bounds_variety_estimate(capsys):
    report = run_json(
        capsys, "bounds", "variety",
        "--dim-l", "6441720", "--dim-x", "2", "--reg", "3", "-i", "1000000",
        "--estimate",
    )
    assert report["results"]["exp_lo"] == 1207665
    assert report["results"]["exp_hi"] == 1207714


def test_bounds_variety_falls_back_when_too_large(capsys):
    code, out, _ = run(
        capsys, "bounds", "variety",
        "--dim-l", "6441720", "--dim-x", "2", "--reg", "3", "-i", "1000000",
    )
    assert code == 0
    assert "estimated instead" in out
    assert "exp_lo = 1207665" in out


def test_bounds_pure_too_large_falls_back(capsys):
    argv = ("bounds", "pure", "-N", "1000000000", "-r", "1", "-i", "100000000")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "estimated instead" in out
    results = run_json(capsys, *argv)["results"]
    shift = mp_ln(10**9)
    log_c = mp_log_comb(10**9, 10**8)
    ln10 = mp_ln(10)
    assert results["exp_lo"] <= (log_c - shift) / ln10
    assert (log_c + shift) / ln10 <= results["exp_hi"]


@pytest.mark.parametrize("argv, exact", [
    (("bounds", "pure", "-N", "10", "-r", "1", "-i", "3"), (Fraction(12), 1200)),
    (("bounds", "module", "--codim", "2", "--pdim", "4", "--reg", "1", "--beta0", "3",
      "-i", "2"), (Fraction(3, 2), 72)),
])
def test_estimate_flag_on_pure_and_module(capsys, argv, exact):
    report = run_json(capsys, *argv)
    assert report["results"] == {
        "mode": "exact", "lower": str(exact[0]), "upper": str(exact[1])
    }
    report = run_json(capsys, *argv, "--estimate")
    assert report["inputs"]["estimate"] is True
    results = report["results"]
    assert results["mode"] == "estimate"
    assert "note" not in results
    assert Fraction(10) ** results["exp_lo"] <= exact[0]
    assert exact[1] <= Fraction(10) ** results["exp_hi"]


# The over-budget power N**r once crashed the first query in str() and kept
# the second running for minutes.  Each pair is (argv, log10 lower, log10
# upper), the logs from mpmath at 50 digits.
with mpmath.workdps(50):
    POWER_DEFECTS = [
        (("bounds", "pure", "-N", "10", "-r", "2100000", "-i", "3"),
         mpmath.log10(120) - 2100000, mpmath.log10(120) + 2100000),
        (("bounds", "module", "--codim", "2", "--pdim", "4", "--reg", "3000000", "-i", "2"),
         -3000000 * mpmath.log10(2), mpmath.log10(6) + 6000000 * mpmath.log10(2)),
    ]


@pytest.mark.parametrize("argv, log10_lower, log10_upper", POWER_DEFECTS)
def test_over_budget_power_falls_back(capsys, argv, log10_lower, log10_upper):
    start = time.perf_counter()
    code = main([*argv, "--format", "machine"])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 0, err
    results = json.loads(out)["results"]
    assert results["mode"] == "estimate"
    assert "estimated instead" in results["note"]
    assert results["exp_lo"] <= log10_lower
    assert log10_upper <= results["exp_hi"]
    assert elapsed < 1


def test_power_factor_budget_boundary(capsys):
    # 10**6 has 7 digits and C(10, 0) = 1: only the power meets the budget
    argv = ("bounds", "pure", "-N", "10", "-r", "6", "-i", "0", "--max-exact-digits")
    exact = run_json(capsys, *argv, "7")["results"]
    assert exact == {"mode": "exact", "lower": "1/1000000", "upper": "1000000"}
    fallback = run_json(capsys, *argv, "6")["results"]
    assert fallback["mode"] == "estimate"
    assert fallback["note"].startswith("10**6 exceeds")
    assert fallback["exp_lo"] <= -6 and fallback["exp_hi"] >= 6


def test_over_budget_zero_lower_bound_is_domain_error(capsys):
    # i > codim: the lower bound is 0, which no digit bracket can enclose
    code, out, err = run(
        capsys, "bounds", "module",
        "--codim", "2", "--pdim", "4", "--reg", "3000000", "-i", "3",
    )
    assert code == 2
    assert out == ""
    assert "lower bound is zero" in err


def test_fallback_note_in_machine_output(capsys):
    argv = ("bounds", "veronese", "-n", "2", "-d", "100", "-i", "2000",
            "--max-exact-digits", "100")
    _, out, _ = run(capsys, *argv)
    results = run_json(capsys, *argv)["results"]
    assert results["note"] in out.splitlines()
    assert results["note"].endswith("estimated instead")
    assert (results["exp_lo"], results["exp_hi"]) == (1482, 1501)


#: Domain errors for every target; the exact bounds and --estimate check their
#: arguments in the same function.
DOMAIN_ERRORS = [
    ("bounds", "pure", "-N", "0", "-r", "1", "-i", "0"),
    ("bounds", "pure", "-N", "3", "-r", "-1", "-i", "0"),
    ("bounds", "module", "--codim", "3", "--pdim", "2", "--reg", "1", "-i", "1"),
    ("bounds", "veronese", "-n", "2", "-d", "5", "-i", "19"),
    ("bounds", "variety", "--dim-l", "5", "--dim-x", "6", "--reg", "1", "-i", "1"),
    ("bounds", "variety", "--dim-l", "0", "--dim-x", "0", "--reg", "1", "-i", "0"),
    ("bounds", "variety", "--dim-l", "5", "--dim-x", "2", "--reg", "1", "-i", "-1"),
    ("bounds", "module", "--codim", "-1", "--pdim", "2", "--reg", "1", "-i", "1"),
    ("bounds", "module", "--codim", "1", "--pdim", "2", "--reg", "-1", "-i", "1"),
]


@pytest.mark.parametrize("argv", DOMAIN_ERRORS)
def test_estimate_rejects_what_exact_rejects(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("betti: ") and err.endswith("\n")
    assert run(capsys, *argv, "--estimate") == (code, out, err)


@pytest.mark.parametrize("argv, pair", [
    (("bounds", "veronese", "-n", "2", "-d", "5", "-i", "0"), veronese_bounds(2, 5, 0)),
    (("bounds", "veronese", "-n", "2", "-d", "5", "-i", "18"), veronese_bounds(2, 5, 18)),
    (("bounds", "variety", "--dim-l", "20", "--dim-x", "2", "--reg", "1", "-i", "0"),
     variety_bounds(20, 2, 1, 0)),
    (("bounds", "variety", "--dim-l", "20", "--dim-x", "0", "--reg", "1", "-i", "20"),
     variety_bounds(20, 0, 1, 20)),
])
def test_end_column_fallback_encloses_exact_bounds(capsys, argv, pair):
    # the power (18**2 or 20**1) exceeds one digit, so the bracket stands in
    results = run_json(capsys, *argv, "--max-exact-digits", "1")["results"]
    assert results["mode"] == "estimate"
    assert results["note"].endswith("estimated instead")
    assert Fraction(10) ** results["exp_lo"] <= pair.lower
    assert pair.upper <= Fraction(10) ** results["exp_hi"]


def test_bounds_veronese_domain_error(capsys):
    code, _, err = run(capsys, "bounds", "veronese", "-n", "2", "-d", "5", "-i", "19")
    assert code == 2
    assert "[0, 18]" in err


def test_paper_constants_flag_changes_only_estimates(capsys):
    exact_plain = run(capsys, "bounds", "veronese", "-n", "2", "-d", "5", "-i", "7")
    exact_flagged = run(
        capsys, "bounds", "veronese", "-n", "2", "-d", "5", "-i", "7", "--paper-constants"
    )
    assert exact_plain == exact_flagged

    est_plain = run_json(
        capsys, "bounds", "veronese", "-n", "2", "-d", "100", "-i", "2000", "--estimate"
    )
    est_flagged = run_json(
        capsys, "bounds", "veronese", "-n", "2", "-d", "100", "-i", "2000",
        "--estimate", "--paper-constants",
    )
    assert est_plain["results"]["exp_lo"] == 1482
    assert est_plain["results"]["exp_hi"] == 1501
    assert est_flagged["results"]["exp_hi"] == 1502  # unshifted constants add one nat


def test_precision_flag(capsys):
    low = run_json(
        capsys, "bounds", "veronese", "-n", "2", "-d", "100", "-i", "2000",
        "--estimate", "--precision", "12",
    )
    assert low["results"]["exp_lo"] == 1482
    # argparse rejects a non-integer precision: usage error
    code, _, _ = run(
        capsys, "bounds", "veronese", "-n", "2", "-d", "5", "-i", "7",
        "--precision", "many",
    )
    assert code == 1
    # out of [1, MAX_PRECISION]: usage error on every target, exact paths too
    for bad in ("-5", "0", "2001"):
        for argv in EXACT_ARGV.values():
            assert run(capsys, *argv, "--precision", bad)[0] == 1
    top = run_json(
        capsys, "bounds", "veronese", "-n", "2", "-d", "100", "-i", "2000",
        "--estimate", "--precision", "2000",
    )
    assert top["results"]["exp_lo"] == 1482


def test_max_exact_digits_flag(capsys):
    code, out, _ = run(
        capsys, "bounds", "veronese", "-n", "2", "-d", "100", "-i", "2000",
        "--max-exact-digits", "100",
    )
    # over budget, and veronese supports estimation: falls back to a bracket
    assert code == 0
    assert "estimated instead" in out
    assert "exp_lo = 1482" in out
    # a budget below 1 digit is a usage error on every target
    for bad in ("-5", "0"):
        for argv in EXACT_ARGV.values():
            assert run(capsys, *argv, "--max-exact-digits", bad)[0] == 1
    for argv in EXACT_ARGV.values():
        assert run_json(capsys, *argv, "--max-exact-digits", "2001")["results"]["mode"] == "exact"


# -- dim-l -----------------------------------------------------------------------


def test_dim_l(capsys):
    code, out, _ = run(capsys, "dim-l", "-m", "3", "--delta", "13", "-e", "1000")
    assert code == 0
    assert "6441720" in out
    report = run_json(capsys, "dim-l", "-m", "3", "--delta", "1", "-e", "1")
    assert report["results"]["dim_l"] == 2
    report = run_json(capsys, "dim-l", "-m", "2", "--delta", "3", "-e", "4")
    assert report["results"]["dim_l"] == 11


def test_dim_l_domain_error(capsys):
    code, _, _ = run(capsys, "dim-l", "-m", "0", "--delta", "1", "-e", "1")
    assert code == 2


# -- exit-code contract -----------------------------------------------------------


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "bounds", "veronese", "-n", "2")[0] == 1   # missing flags
    assert run(capsys, "nonsense")[0] == 1                        # unknown command
    assert run(capsys, "bounds", "nonsense")[0] == 1              # unknown target
    assert run(capsys, "pure")[0] == 1                            # missing argument
    assert run(capsys, "pure", "a,b")[0] == 1                     # unparsable degrees
    assert run(capsys, *EXACT_ARGV["module"], "--beta0", "x")[0] == 1  # unparsable beta0


@pytest.mark.parametrize("argv", [
    ("pure", "0,2,4,5"),
    ("decompose", "table.bt1"),
    ("dim-l", "-m", "3", "--delta", "13", "-e", "1000"),
])
def test_bound_flags_only_on_bounds(capsys, argv):
    for flag in (("--precision", "4"), ("--paper-constants",), ("--max-exact-digits", "1")):
        code, out, err = run(capsys, *argv, *flag)
        assert (code, out) == (1, "")
        assert "unrecognized arguments" in err
    code, out, _ = run(capsys, argv[0], "--help")
    assert code == 0 and "--format" in out
    assert not {"--precision", "--paper-constants", "--max-exact-digits"} & set(out.split())


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int->str limit")
def test_main_leaves_the_int_str_limit_as_it_found_it(capsys):
    # a 5,001-digit -N is past the default limit of 4,300 digits, so parsing rejects it
    too_long = ("bounds", "pure", "-N", "1" + "0" * 5000, "-r", "0", "-i", "1", "--estimate")
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        for argv, code in [(too_long, 1), (("pure", "0,2"), 0), (too_long, 1)]:
            assert run(capsys, *argv)[0] == code
            assert sys.get_int_max_str_digits() == 4300
        sys.set_int_max_str_digits(0)
        assert run(capsys, "pure", "0,2")[0] == 0
        assert sys.get_int_max_str_digits() == 0
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("budget", ["1073739674", str(10**20)])
def test_huge_budget_gives_the_answer_of_the_default_budget(capsys, budget):
    # 2 * budget + 4300 is at least 2**31, past what sys.set_int_max_str_digits accepts
    argv = ("bounds", "pure", "-N", "5", "-r", "1", "-i", "2")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    expected = run(capsys, *argv)
    assert expected[0] == 0
    assert run(capsys, *argv, "--max-exact-digits", budget) == expected
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


def test_build_parser_is_built_once():
    assert build_parser() is build_parser()


def test_successive_calls_match_calls_with_a_fresh_parser(capsys, worked_file):
    # flags given in one call must not leak into the next through the shared parser
    veronese = ("bounds", "veronese", "-n", "2", "-d", "5", "-i", "7", "--format", "machine")
    power = ("bounds", "pure", "-N", "10", "-r", "6", "-i", "0")
    sequence = [
        (*veronese, "--estimate", "--precision", "60"),
        veronese,
        ("decompose", worked_file, "--check", "--codim", "2", "--format", "machine"),
        ("decompose", worked_file),
        ("pure", "0,2,4,5"),
        (*power, "--max-exact-digits", "6"),
        power,
        ("bounds", "nonsense"),
        ("decompose", worked_file, "--codim", "3"),
        ("dim-l", "-m", "3", "--delta", "13", "-e", "1000", "--format", "machine"),
    ]
    together = [run(capsys, *argv) for argv in sequence]
    alone = []
    for argv in sequence:
        build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    assert together == alone
    assert [code for code, _, _ in together] == [0, 0, 0, 0, 0, 0, 0, 1, 2, 0]


def test_python_dash_m_runs_the_cli():
    src = str(Path(bettibounds.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "bettibounds", "pure", "0,1,2"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "totals: 1  2  1" in proc.stdout
