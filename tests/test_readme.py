"""The README's quickstart runs as written and gives the values its comments state."""

import re
import shlex
from fractions import Fraction
from pathlib import Path

from bettibounds import BoundPair, DigitBracket
from bettibounds.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

# (expression on a line of the quickstart, what its comment says, its value)
STATED = [
    ("pure_diagram((0, 2, 4, 5))[1, 2]", "Fraction(10, 3)", Fraction(10, 3)),
    ("pure_bounds(18, 2, 7)", "BoundPair(lower=884/9, upper=10310976)",
     BoundPair(Fraction(884, 9), Fraction(10310976))),
    ("veronese_codim(2, 10**6).codim", "500001499998", 500001499998),
    ("veronese_digit_bracket(2, 10**6, 10**11)",
     "DigitBracket(exp_lo=108661150966, exp_hi=108661151025)",
     DigitBracket(108661150966, 108661151025)),
]


def _block(heading, language):
    section = README.split(heading, 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_library_quickstart(capsys):
    block = _block("## Library quickstart", "python")
    namespace = {}
    exec(block, namespace)
    printed = capsys.readouterr().out.splitlines()
    assert printed[:2] == ["3/10 (0, 2, 4, 5)", "1/30 (0, 3, 4, 5)"]
    assert "(3/10, (0,2,4,5)), (1/30, (0,3,4,5))" in block
    lines = [line.strip() for line in block.splitlines()]
    for expression, comment, value in STATED:
        assert any(line.startswith(expression) for line in lines), expression
        assert comment in block
        assert eval(expression, namespace) == value


def test_cli_dim_l_example(capsys):
    line = next(line for line in _block("## CLI", "text").splitlines()
                if line.startswith("betti dim-l"))
    command, comment = line.split("#")
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == f"dim |L| = {comment.strip()}\n"
    assert comment.strip() == "6441720"


def test_every_cli_line_runs(capsys, tmp_path):
    # table.bt1 is the README's BT1 example, whose codim is 2 (--codim 3 fails its check)
    table = tmp_path / "table.bt1"
    table.write_text(_block("### Table file format (BT1)", "text"), encoding="utf-8")
    for line in _block("## CLI", "text").splitlines():
        line = line.split("#")[0].replace("--codim C", "--codim 2")
        line = line.replace("table.bt1", shlex.quote(str(table)))
        argv = shlex.split(re.sub(r"\[[^]]*\]", "", line))
        assert argv[0] == "betti"
        for extra in ["", *re.findall(r"\[([^]]*)\]", line)]:  # each [option] on its own
            assert main([*argv[1:], *shlex.split(extra)]) == 0, (line, extra)
            capsys.readouterr()
