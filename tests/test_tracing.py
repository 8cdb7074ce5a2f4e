"""The benchmark's tracer still finds every boundary it wraps.

``bench/tracing.py`` replaces attributes of ``cli``, ``bounds``,
``estimation`` and ``tablefile`` with timed wrappers, as ``bench/client.py``
installs them.  A name that is removed, or that the CLI stops calling
through the wrapped attribute, would leave a per-layer metric at zero.  One
CLI call per traced span checks that each span is recorded and carries its
info.
"""

import importlib.util
from pathlib import Path

from bettibounds import bounds, cli, estimation, tablefile
from bettibounds.tablefile import dumps

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

#: (argv, span names the call must record); ``{path}`` is a BT1 file.
CALLS = [
    (("pure", "0,2,4,5"), {"diagrams.pure_diagram", "diagrams.format_diagram"}),
    (("decompose", "{path}", "--check"),
     {"tablefile.load", "decompose.decompose", "decompose.verify"}),
    (("bounds", "pure", "-N", "18", "-r", "2", "-i", "7"),
     {"bounds.exact", "bounds.budget_check"}),
    (("bounds", "module", "--codim", "2", "--pdim", "4", "--reg", "1", "-i", "2"),
     {"bounds.exact", "bounds.budget_check"}),
    (("bounds", "veronese", "-n", "2", "-d", "5", "-i", "7"),
     {"bounds.exact", "bounds.budget_check"}),
    (("bounds", "variety", "--dim-l", "5", "--dim-x", "2", "--reg", "1", "-i", "2"),
     {"bounds.exact", "bounds.budget_check"}),
    (("bounds", "veronese", "-n", "2", "-d", "5", "-i", "7", "--max-exact-digits", "1"),
     {"bounds.exact", "bounds.budget_check", "estimation.bracket"}),
    (("bounds", "veronese", "-n", "2", "-d", "5", "-i", "7", "--estimate",
      "--precision", "60"), {"estimation.bracket"}),
    (("bounds", "variety", "--dim-l", "5", "--dim-x", "2", "--reg", "1", "-i", "2",
      "--estimate", "--precision", "70"), {"estimation.bracket"}),
]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_is_recorded(capsys, tmp_path, quotient_table):
    tracing = _load_tracing()
    path = tmp_path / "worked.bt1"
    path.write_text(dumps(quotient_table), encoding="utf-8")
    modules = {"cli": cli, "bounds": bounds, "estimation": estimation, "tablefile": tablefile}
    originals = {(module, attribute): getattr(module, attribute)
                 for module, attribute, _, _ in tracing.targets(modules)}
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        for query, (argv, names) in enumerate(CALLS):
            with tracer.query(query):
                code = cli.main([arg.format(path=path) for arg in argv])
            assert code == 0, capsys.readouterr().err
            recorded = {span[0] for span in tracer.spans if span[4] == query}
            assert recorded == {"cli", *names}, argv
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert all(getattr(module, attribute) is original
               for (module, attribute), original in originals.items())

    spans = tracer.spans
    assert {span[0] for span in spans} == {"cli"} | {
        name for _, _, name, _ in tracing.targets(modules)
    }
    info = {}
    for name, _, _, parent, query, error, detail in spans:
        if name != "cli":
            assert parent >= 0 and spans[parent][4] == query
            info.setdefault(name, []).append((error, detail))
    assert info["diagrams.pure_diagram"] == [(None, 4)]  # len() of the diagram
    assert info["decompose.decompose"] == [(None, 5)]  # len() of the decomposition
    assert info["bounds.exact"] == [(None, None)] * 4 + [("TooLarge", None)]
    assert info["estimation.bracket"] == [(None, 40), (None, 60), (None, 70)]
    metrics = tracing.layer_metrics(spans, [1.0] * len(CALLS), 0)
    assert metrics["bounds.too_large"] == 1 / len(CALLS)
    assert metrics["decompose.terms"] == 5 / len(CALLS)
