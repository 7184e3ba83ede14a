"""Every function the benchmark traces still exists under its traced name.

``benchmark/spans.py`` patches gridjct by (module, attribute path), so a
rename or deletion there breaks ``benchmark/run.py --trace``.  This loads the
tracer from its file, installs it, runs one subcommand through the wrappers
and uninstalls it.  Nothing under ``benchmark/`` is changed.
"""

import importlib
import pathlib
import types

import gridjct
import gridjct.cli

SPANS_PY = pathlib.Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"


def _load_spans():
    """The tracer module, compiled from source so no bytecode is written."""
    module = types.ModuleType("benchmark_spans")
    exec(compile(SPANS_PY.read_text(), str(SPANS_PY), "exec"), vars(module))
    return module


def _traced(spans):
    """Whether each traced name currently resolves to a tracer wrapper."""
    out = []
    for mod_name, attr in spans.SPANS:
        owner = importlib.import_module(f"gridjct.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        out.append(hasattr(owner, "__wrapped__"))
    return out


def test_tracer_installs_on_every_traced_name_and_uninstalls(capsys):
    spans = _load_spans()
    assert not any(_traced(spans))
    tracer = spans.Tracer()
    try:
        tracer.install()  # a missing module or attribute raises here
        assert all(_traced(spans))
        assert gridjct.cli.main(["gen", "--family", "stconn", "--n", "2"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert {"cli.main", "cnf.gen_stconn", "cnf.to_dimacs"} <= {spans.SPAN_NAMES[i]
                                                               for i in tracer.name}
    assert not any(_traced(spans))
