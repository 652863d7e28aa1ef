"""The demand-driven SupportTable against the full merged table.

Every key of ``merge_supports(build_er, constraint_preprocessing)`` must
read the same row from the table, whatever order the rows are built in.
A cold ``explain`` must build only the rows its search reaches.
"""

from __future__ import annotations

import pathlib

import pytest

from aspexplain import cli, nodes, oracle, support
from aspexplain.aspif import parse_aspif
from aspexplain.constraints import constraint_preprocessing
from aspexplain.egraph import SupportTable, merge_supports
from aspexplain.errors import TooLarge
from aspexplain.ground import GroundProgram, reconstruct
from aspexplain.support import build_er

from test_golden import positive_chain
from test_shrink import families

DATA = pathlib.Path(__file__).parent / "data"


def check_table(g, A) -> int:
    """Compares a fresh table with the full tables; returns the keys."""
    merged = merge_supports(build_er(g, A), constraint_preprocessing(g, A))
    table = SupportTable(g, A)
    # The literal rows first, in reverse key order, so that expansion rows
    # are kept in another order than the full build keeps them.
    literal_kinds = (nodes.ATOM, nodes.NEG_ATOM)
    for key in reversed(merged):
        if key.kind in literal_kinds:
            assert table.get(key) == merged[key], key
    for key, row in merged.items():
        assert key in table, key
        assert table.get(key) == row, key
    for aid in g.named_ids():
        name = g.display_atom(aid)
        opposite = nodes.literal_node(name, aid not in A)
        assert opposite not in table
        for positive in (True, False):
            tc = nodes.constraint_node(name, positive)
            assert (tc in table) == (tc in merged)
    assert nodes.atom_node("no such atom") not in table
    return len(merged)


@pytest.mark.parametrize("n_atoms", [6, 8, 10])
@pytest.mark.parametrize("p_choice", [0.0, 0.5])
def test_random_programs_match_full_table(n_atoms, p_choice):
    answers = 0
    for seed in range(200):
        g = oracle.random_program(seed, n_atoms=n_atoms, n_rules=12,
                                  p_choice=p_choice)
        try:
            models = oracle.enumerate_answer_sets(g)
        except TooLarge:
            continue
        for model in models:
            check_table(g, g.answer_from_names(sorted(model)))
            answers += 1
    assert answers > 80, answers


@pytest.mark.parametrize("name", ["p1", "coloring"])
def test_bundled_examples_match_full_table(name):
    g = reconstruct(parse_aspif((DATA / f"{name}.aspif").read_text()))
    for model in oracle.enumerate_answer_sets(g):
        assert check_table(g, g.answer_from_names(sorted(model))) > 0


def test_cold_explain_builds_few_rows(monkeypatch, tmp_path, capsys):
    # The ring's colour of vertex 1 reaches its rule, the edge constraints
    # on it and the neighbours' colours; U is empty, so the assumption
    # analysis reads no row.
    inst = families.ring(120)
    path = tmp_path / "ring.aspif"
    path.write_text(inst.text)
    g = reconstruct(parse_aspif(inst.text))
    assert len(g.named_ids()) == 603
    rows = 0

    def counting(*args, **kwargs):
        nonlocal rows
        rows += 1
        return support.er_row(*args, **kwargs)

    monkeypatch.setattr("aspexplain.egraph.er_row", counting)
    for root in ("colored(1,green)", "~colored(1,red)"):
        rows = 0
        code = cli.main(["explain", str(path), "--answer",
                         " ".join(inst.answer), "--root", root])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("digraph explanation {")
        assert 0 < rows <= 20, (root, rows)


def test_cold_explain_of_a_chain_tip_builds_each_row_once(monkeypatch,
                                                          tmp_path, capsys):
    # x(1).  x(i) :- x(i-1).  The tip's graph holds every atom, so the
    # search reads every row, and each must be built once.  A named body
    # literal resolves to itself, so no row resolves one.
    n = 500
    path = tmp_path / "chain.aspif"
    path.write_text(positive_chain(n, reverse=False))
    rows = 0
    resolved = []
    resolve_aux = GroundProgram.resolve_aux

    def counting(*args, **kwargs):
        nonlocal rows
        rows += 1
        return support.er_row(*args, **kwargs)

    def recording(self, lit):
        resolved.append(abs(lit) in self.named)
        return resolve_aux(self, lit)

    monkeypatch.setattr("aspexplain.egraph.er_row", counting)
    monkeypatch.setattr(GroundProgram, "resolve_aux", recording)
    code = cli.main(["explain", str(path), "--answer",
                     " ".join(f"x({i})" for i in range(1, n + 1)),
                     "--root", f"x({n})"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count(" -> ") == n
    assert rows == n
    assert not any(resolved)


@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_cold_explain_of_a_false_atom_draws_few_sets(monkeypatch, tmp_path,
                                                    capsys, fmt):
    # ~d has 12 rules, so its row stands for 4096 sets; the search takes
    # the first, and the shrink's graph of ~d takes it again.
    inst = families.loops(24, 12)
    path = tmp_path / "loops.aspif"
    path.write_text(inst.text)
    drawn = []
    iterate = support.FactoredRow.__iter__

    def counting(row):
        drawn.append(0)
        for s in iterate(row):
            drawn[-1] += 1
            yield s

    monkeypatch.setattr(support.FactoredRow, "__iter__", counting)
    code = cli.main(["explain", str(path), "--answer", " ".join(inst.answer),
                     "--root", "~d", "--format", fmt])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert "~d" in captured.out
    assert drawn and sum(drawn) <= 4, drawn


def cold_explain(monkeypatch, tmp_path, capsys, inst, root):
    """Runs a cold ``explain`` of ``root`` and returns the program it
    loaded."""
    path = tmp_path / f"{inst.family}.aspif"
    path.write_text(inst.text)
    loaded = []
    load = cli._load_program

    def recording(args):
        loaded.append(load(args))
        return loaded[-1]

    monkeypatch.setattr(cli, "_load_program", recording)
    code = cli.main(["explain", str(path), "--answer", " ".join(inst.answer),
                     "--root", root])
    assert code == 0
    assert capsys.readouterr().out.startswith("digraph explanation {")
    return loaded[0]


@pytest.mark.parametrize("inst, root", [
    (families.ring(30), "colored(1,green)"),
    (families.chain(200, False), "x(200)"),
    (families.chain(60, True), "x(60)"),
], ids=["ring", "chain", "chain-reverse"])
def test_cold_explain_without_false_nant_computes_no_well_founded_model(
        monkeypatch, tmp_path, capsys, inst, root):
    # NANT is empty, so TA is, and the check starts from no bounds.
    g = cold_explain(monkeypatch, tmp_path, capsys, inst, root)
    assert not g.nant
    assert "well_founded" not in g.aspif.__dict__


def test_cold_explain_with_false_nant_computes_the_well_founded_model(
        monkeypatch, tmp_path, capsys):
    # Each b(i) is false and occurs negated, so TA reads the model.
    g = cold_explain(monkeypatch, tmp_path, capsys, families.loops(6, 2),
                     "~d")
    assert "well_founded" in g.aspif.__dict__
