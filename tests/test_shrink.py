"""U-shrinking with one search per candidate against the full-pass shrink.

``reference_shrink`` is the shrink that builds a graph for every named
literal for each candidate U.  It stays here as the slow reference;
``minimal_assumption_sets`` must choose the same U, and
``_shrink_against_graphs`` must shrink every start set as it does.  The
loops programs come from the benchmark's generator, which does not import
aspexplain.
"""

from __future__ import annotations

import importlib.util
import pathlib
import random
import sys

import pytest

from aspexplain import assumptions, egraph, nodes, oracle
from aspexplain.aspif import parse_aspif
from aspexplain.constraints import constraint_preprocessing
from aspexplain.egraph import build_egraph, merge_supports, search_supports
from aspexplain.errors import NoValidGraph, TooLarge
from aspexplain.ground import reconstruct
from aspexplain.support import build_er


def _load_families():
    path = pathlib.Path(__file__).parent.parent / "bench" / "families.py"
    spec = importlib.util.spec_from_file_location("bench_families", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


families = _load_families()


def reference_shrink(g, A, table, chosen):
    def all_literals_explainable(u):
        for aid in sorted(g.named_ids()):
            root = nodes.literal_node(g.display_atom(aid), aid in A)
            try:
                build_egraph(table, u, root, max_graphs=1)
            except NoValidGraph:
                return False
        return True

    if not chosen or not all_literals_explainable(chosen):
        return chosen
    for name in sorted(chosen):
        if all_literals_explainable(chosen - {name}):
            chosen = chosen - {name}
    return chosen


def check_against_reference(g, A, extra_starts=()) -> frozenset[str]:
    """The starting set of the chosen U, after checking U against the
    reference shrink of that set; also checks the shrink of each of
    ``extra_starts``."""
    er = build_er(g, A)
    table = merge_supports(er, constraint_preprocessing(g, A))
    report = assumptions.minimal_assumption_sets(g, A, table=table)
    best = min(report.min_b_candidates, key=lambda c: tuple(sorted(c)))
    start = report.t_must | best
    assert report.chosen_u == reference_shrink(g, A, table, start)
    for other in extra_starts:
        assert assumptions._shrink_against_graphs(g, A, table, other) \
            == reference_shrink(g, A, table, other)
    return start


def test_random_programs_match_reference():
    # Besides the start U = T ∪ min(B), shrink all of TA and a random part
    # of it: far more of those removals succeed, and some fail.
    rng = random.Random(0)
    answers = shrunk = 0
    for seed in range(200):
        for n_atoms in (6, 8, 10):
            g = oracle.random_program(seed, n_atoms=n_atoms, n_rules=12,
                                      p_choice=0.5)
            try:
                models = oracle.enumerate_answer_sets(g)
            except TooLarge:
                continue
            for model in models:
                A = g.answer_from_names(sorted(model))
                ta = assumptions.tentative_assumptions(g, A)
                part = frozenset(a for a in sorted(ta) if rng.random() < 0.6)
                start = check_against_reference(g, A, (ta, part))
                answers += 1
                shrunk += bool(start)
    assert answers > 300 and shrunk > 50, (answers, shrunk)


@pytest.mark.parametrize("n,k", [(20, 5), (40, 8), (24, 11), (60, 0)])
def test_loops_match_reference(n, k):
    inst = families.loops(n, k)
    g = reconstruct(parse_aspif(inst.text))
    check_against_reference(g, g.answer_from_names(inst.answer))


def counted_searches(monkeypatch, g, A, table):
    """The report of minimal_assumption_sets and the number of graph
    searches its shrink ran whose root no earlier search had chosen: a
    root that is already chosen is explained by an earlier graph and costs
    no search."""
    calls = 0

    def counting(table, u, root, chosen):
        nonlocal calls
        calls += root not in chosen
        return search_supports(table, u, root, chosen)

    with monkeypatch.context() as patch:
        patch.setattr(assumptions, "search_supports", counting)
        report = assumptions.minimal_assumption_sets(g, A, table=table)
    return report, calls


def shrink_builds(monkeypatch, n: int) -> int:
    inst = families.loops(n)
    g = reconstruct(parse_aspif(inst.text))
    A = g.answer_from_names(inst.answer)
    er = build_er(g, A)
    table = merge_supports(er, constraint_preprocessing(g, A))
    report, calls = counted_searches(monkeypatch, g, A, table)
    assert sorted(report.chosen_u) == inst.expect["u"]
    return calls


def test_shrink_builds_scale_linearly(monkeypatch):
    # Doubling the loops doubles the literals; searching every literal for
    # every candidate U quadruples the searches (3.8x from 40 to 80).  Here
    # loops(40) and loops(80) take 81 and 161 searches.
    small = shrink_builds(monkeypatch, 40)
    large = shrink_builds(monkeypatch, 80)
    assert large <= 2.5 * small, (small, large)


def test_rejected_candidates_format_no_message(monkeypatch):
    # Every one of the 20 candidates of loops(20) is rejected; none may
    # build a NoValidGraph, whose message sorts the whole assumed set.
    inst = families.loops(20)
    g = reconstruct(parse_aspif(inst.text))
    A = g.answer_from_names(inst.answer)

    def unexpected(*args):
        raise AssertionError("the shrink built a NoValidGraph")

    monkeypatch.setattr(egraph, "NoValidGraph", unexpected)
    report = assumptions.minimal_assumption_sets(g, A)
    assert sorted(report.chosen_u) == inst.expect["u"]


def false_chain(n: int):
    """x(i) :- x(i+1) for i < n.  x(n) :- not y.  y :- not x(1)."""
    lines = ["asp 1 0 0"]
    lines += [f"1 0 1 {i} 0 1 {i + 1}" for i in range(1, n)]
    lines += [f"1 0 1 {n} 0 1 -{n + 1}", f"1 0 1 {n + 1} 0 1 -1"]
    lines += [f"4 {len(f'x({i})')} x({i}) 1 {i}" for i in range(1, n + 1)]
    lines += [f"4 1 y 1 {n + 1}", "0\n"]
    return reconstruct(parse_aspif("\n".join(lines)))


@pytest.mark.parametrize("n", [50, 600])
def test_first_pass_skips_literals_of_earlier_graphs(monkeypatch, n):
    # Under U = {x(1)} the graph of ~x(2) runs down the chain to y and back
    # to ~x(1), so it covers every literal but ~x(1), which is searched
    # first; the one candidate, U = {}, costs one more search.  Searching
    # for every literal took n + 2 searches, each walking the chain.
    g = false_chain(n)
    A = g.answer_from_names(["y"])
    er = build_er(g, A)
    table = merge_supports(er, constraint_preprocessing(g, A))
    report, calls = counted_searches(monkeypatch, g, A, table)
    assert report.chosen_u == frozenset({"x(1)"})
    assert calls == 3
    if n < 100:  # the reference builds n + 2 graphs of up to n + 2 nodes
        check_against_reference(g, A)
