"""The library names the benchmark calls and wraps must keep working.

``bench/run.py`` builds its tables with the eager builders and passes them
to ``minimal_assumption_sets``; ``bench/spans.py`` wraps each name of
``WRAPPED`` in the module it names.  Both are loaded here by path, as the
benchmark runs them, and nothing under ``bench/`` is changed.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib
import sys

import pytest

from aspexplain import cli, oracle
from aspexplain.aspif import parse_aspif
from aspexplain.ground import reconstruct

BENCH = pathlib.Path(__file__).parent.parent / "bench"
DATA = pathlib.Path(__file__).parent / "data"


def _load_bench(name: str):
    """bench/<name>.py as a module; run.py imports its siblings by their
    plain names, so the bench directory is on the path while it loads."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                      BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


spans = _load_bench("spans")
run = _load_bench("run")


@pytest.mark.parametrize("name, layer", sorted(spans.WRAPPED.items()))
def test_wrapped_names_are_in_their_layers(name, layer):
    module = importlib.import_module("aspexplain." + layer)
    assert callable(getattr(module, name, None)), (layer, name)


@pytest.mark.parametrize("name", ["p1", "coloring"])
def test_explain_all_runs_and_chooses_the_cli_u(name, capsys):
    path = DATA / f"{name}.aspif"
    g = reconstruct(parse_aspif(path.read_text()))
    models = oracle.enumerate_answer_sets(g)
    assert models
    for model in models:
        answer = sorted(model)
        _, report, graphs = run.explain_all(g, answer, validate=True)
        assert len(graphs) == len(g.named_ids())
        assert cli.main(["assumptions", str(path), "--answer",
                         " ".join(answer)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == \
            "U = {" + ", ".join(sorted(report.chosen_u)) + "}"
