"""End-to-end acceptance checks, one test per release criterion.

Every test here exercises the pipeline through its public surface and
freezes the expected artifacts for the bundled programs.  The conftest
hook prints one PASS/FAIL line per test, so a verbose run doubles as the
release report.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from aspexplain import nodes, oracle
from aspexplain.aspif import parse_aspif
from aspexplain.assumptions import minimal_assumption_sets
from aspexplain.constraints import constraint_preprocessing
from aspexplain.egraph import (
    build_egraph,
    egraph_from_json,
    merge_supports,
    validate_egraph,
)
from aspexplain.errors import NoSupport, NoValidGraph, UnviolableConstraint
from aspexplain.ground import reconstruct
from aspexplain.support import build_er

DATA = Path(__file__).parent / "data"

CHOICE_LABEL = "1<={(m(1), n(1)), (m(2), n(2))}<=1"

CANONICAL_M1_EDGES = {
    ("m(1)", "c", "plus"),
    ("m(1)", "n(1)", "plus"),
    ("m(1)", "+choice", "bullet"),
    ("m(1)", "triggered_constraint(m(1))", "diamond"),
    ("triggered_constraint(m(1))", "~b", "minus"),
    ("~b", "~a", "minus"),
    ("~a", "assume", "circ"),
    ("c", "~a", "minus"),
    ("c", "triggered_constraint(c)", "diamond"),
    ("triggered_constraint(c)", CHOICE_LABEL, "plus"),
    (CHOICE_LABEL, "(m(1), n(1))", "plus"),
    ("(m(1), n(1))", "*True", "oplus"),
    ("n(1)", "⊤", "circ"),
}

SWEEP_SEEDS = 1000
SWEEP_TIME_BUDGET = 300.0


def pipeline(g, answer):
    er = build_er(g, answer)
    ec = constraint_preprocessing(g, answer)
    table = merge_supports(er, ec)
    report = minimal_assumption_sets(g, answer, table=table)
    return table, report.chosen_u


def triples(graph):
    return {(e.source.render(), e.target.render(), e.label)
            for e in graph.edges}


def renders(table, key):
    return [{member.render() for member in s} for s in table[key]]


def test_parse_and_reconstruct_running_example():
    """The bundled running example parses to the expected statement counts
    and reconstructs both the plain constraint and the folded choice-test
    constraint, in under a second."""
    text = (DATA / "p1.aspif").read_text()
    start = time.monotonic()
    prog = parse_aspif(text)
    g = reconstruct(prog)
    elapsed = time.monotonic() - start

    assert len(prog.rules) == 13
    assert len(prog.outputs) == 7
    assert len(prog.externals) == 2

    assert g.rule_text(g.rules[4]) == ":- b, m(1)."
    folded = [g.rule_text(r) for r in g.constraints()
              if CHOICE_LABEL in g.rule_text(r)]
    assert folded == [f":- l(6), not {CHOICE_LABEL}."]
    assert elapsed < 1.0


def test_support_tables_running_example(p1, p1_answer):
    """The rule table and the constraint table for the running example
    match the frozen key order and supported sets exactly."""
    er = build_er(p1, p1_answer)
    assert [k.render() for k in er] == [
        "c", "~a", "~b", "m(1)", "~m(2)", "n(1)", "n(2)"]
    assert renders(er, nodes.atom_node("c")) == [{"~a"}]
    assert renders(er, nodes.neg_atom_node("a")) == [{"c"}]
    assert renders(er, nodes.neg_atom_node("b")) == [{"~a"}]
    assert renders(er, nodes.atom_node("m(1)")) == [{"c", "n(1)", "+choice"}]
    assert renders(er, nodes.neg_atom_node("m(2)")) == [
        {"c", "n(2)", "-choice"}]
    assert renders(er, nodes.atom_node("n(1)")) == [{"⊤"}]
    assert renders(er, nodes.atom_node("n(2)")) == [{"⊤"}]

    ec = constraint_preprocessing(p1, p1_answer)
    by_render = {k.render(): k for k in ec}
    assert set(by_render) == {
        "m(1)", "triggered_constraint(m(1))", "c", "triggered_constraint(c)",
        CHOICE_LABEL, "(m(1), n(1))"}
    assert renders(ec, by_render["m(1)"]) == [
        {"triggered_constraint(m(1))"}]
    assert renders(ec, by_render["triggered_constraint(m(1))"]) == [{"~b"}]
    assert renders(ec, by_render["c"]) == [{"triggered_constraint(c)"}]
    assert renders(ec, by_render["triggered_constraint(c)"]) == [
        {CHOICE_LABEL}]
    assert renders(ec, by_render[CHOICE_LABEL]) == [{"(m(1), n(1))"}]
    assert renders(ec, by_render["(m(1), n(1))"]) == [{"*True"}]

    # Structural shape of the choice machinery: bounds 1..1 over the two
    # element/condition pairs, and the satisfied tuple lists its element
    # first.  Labels above are this implementation's deterministic
    # rendering of that structure.
    choice = by_render[CHOICE_LABEL]
    lower, upper, elements = choice.payload
    assert (lower, upper) == (1, 1)
    assert {frozenset(name for name, _ in elem) for elem in elements} == {
        frozenset({"m(1)", "n(1)"}), frozenset({"m(2)", "n(2)"})}
    assert [name for name, _ in by_render["(m(1), n(1))"].payload] == [
        "m(1)", "n(1)"]


def test_assumption_analysis_running_example(p1, p1_answer):
    """The assumption report for the running example: a and b are
    tentative, b has the one derivation through a, no cycle needs
    breaking, and a alone must be assumed."""
    report = minimal_assumption_sets(p1, p1_answer)
    assert report.ta == frozenset({"a", "b"})
    assert report.t_deferred == frozenset({"b"})
    assert report.t_must == frozenset({"a"})
    assert report.da == {"b": [frozenset({"a"})]}
    assert report.min_b_candidates == [frozenset()]
    assert report.chosen_u == frozenset({"a"})


def test_canonical_explanation_graph(p1, p1_answer):
    """The first graph built for m(1) in the running example has exactly
    the thirteen frozen edges and passes validation."""
    e, u = pipeline(p1, p1_answer)
    graphs = build_egraph(e, u, nodes.atom_node("m(1)"))
    graph = graphs[0]
    assert triples(graph) == CANONICAL_M1_EDGES
    assert validate_egraph(graph, e, u)


def test_coloring_graph_features(coloring_text):
    """For the triangle-coloring program, the graph for colored(1,red)
    shows the chosen color, the two rejected alternatives, and the
    edge-coloring constraint annotation, in under two seconds."""
    start = time.monotonic()
    g = reconstruct(parse_aspif(coloring_text))
    answer = g.answer_from_names(
        (DATA / "coloring_answer.txt").read_text().split())
    e, u = pipeline(g, answer)
    graph = build_egraph(e, u, nodes.atom_node("colored(1,red)"))[0]
    elapsed = time.monotonic() - start

    t = triples(graph)
    assert ("colored(1,red)", "+choice", "bullet") in t
    assert ("~colored(2,red)", "-choice", "bullet") in t
    assert ("~colored(3,red)", "-choice", "bullet") in t
    assert ("colored(1,red)",
            "triggered_constraint(colored(1,red))", "diamond") in t
    assert any(src == "triggered_constraint(colored(1,red))"
               for src, _, _ in t)
    assert validate_egraph(graph, e, u)
    assert elapsed < 2.0


def _run_sweep():
    """Shared random-program sweep: build and validate one graph per
    literal per answer set, retry every strict subset of the chosen
    assumption set, and keep each graph's edges for later checks."""
    start = time.monotonic()
    counts = {"models": 0, "literals": 0,
              "support": 0, "constraint": 0, "build": 0, "minimal": 0}
    edge_lists = []

    def graphs_for_all(g, A, table, u):
        built = []
        for aid in sorted(g.named_ids()):
            root = nodes.literal_node(g.display_atom(aid), aid in A)
            try:
                graph = build_egraph(table, u, root, max_graphs=1)[0]
            except NoValidGraph:
                return None
            if not validate_egraph(graph, table, u):
                return None
            built.append(graph)
        return built

    for seed in range(SWEEP_SEEDS):
        g = oracle.random_program(seed)
        for model in oracle.enumerate_answer_sets(g):
            counts["models"] += 1
            A = g.answer_from_names(sorted(model))
            try:
                er = build_er(g, A)
            except NoSupport:
                counts["support"] += 1
                continue
            if any(not er[nodes.atom_node(g.display_atom(aid))]
                   or any(not s
                          for s in er[nodes.atom_node(g.display_atom(aid))])
                   for aid in g.named_ids() if aid in A):
                counts["support"] += 1
                continue
            try:
                ec = constraint_preprocessing(g, A)
            except UnviolableConstraint:
                counts["constraint"] += 1
                continue
            table = merge_supports(er, ec)
            report = minimal_assumption_sets(g, A, table=table)
            u = report.chosen_u
            built = graphs_for_all(g, A, table, u)
            if built is None:
                counts["build"] += 1
                continue
            counts["literals"] += len(built)
            for graph in built:
                edge_lists.append(graph.doc()["edges"])
            if any(graphs_for_all(g, A, table, frozenset(sub)) is not None
                   for k in range(len(u))
                   for sub in itertools.combinations(sorted(u), k)):
                counts["minimal"] += 1
    return counts, edge_lists, time.monotonic() - start


_SWEEP_CACHE = None


def sweep_results():
    global _SWEEP_CACHE
    if _SWEEP_CACHE is None:
        _SWEEP_CACHE = _run_sweep()
    return _SWEEP_CACHE


def test_random_program_sweep():
    """Across 1000 seeded random programs, every answer set yields
    nonempty supported sets, no impossible constraint, a valid graph for
    every literal under the chosen assumption set, and no strict subset
    of that set suffices — with time to spare."""
    counts, _, elapsed = sweep_results()
    assert counts["models"] >= 500
    assert counts["literals"] >= 3000
    assert counts["support"] == 0
    assert counts["constraint"] == 0
    assert counts["build"] == 0
    assert counts["minimal"] == 0
    assert elapsed < SWEEP_TIME_BUDGET


def test_explain_determinism(p1, p1_answer, tmp_path):
    """Two separate explain invocations (different hash seeds) emit
    byte-identical DOT and JSON, and the JSON rebuilds the same graph."""
    outputs = {}
    for fmt in ("dot", "json"):
        for run, hash_seed in (("first", "1"), ("second", "2")):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=str(DATA.parent.parent / "src"))
            proc = subprocess.run(
                [sys.executable, "-m", "aspexplain.cli", "explain",
                 str(DATA / "p1.aspif"),
                 "--answer-set", str(DATA / "p1_answer.txt"),
                 "--root", "m(1)", "--format", fmt],
                capture_output=True, env=env, check=True)
            outputs[fmt, run] = proc.stdout
        assert outputs[fmt, "first"] == outputs[fmt, "second"]

    text = outputs["json", "first"].decode()
    doc = json.loads(text)
    assert set(doc) == {"root", "nodes", "edges"}
    rebuilt = egraph_from_json(text)
    e, u = pipeline(p1, p1_answer)
    assert rebuilt == build_egraph(e, u, nodes.atom_node("m(1)"))[0]


def test_plus_edge_acyclicity(p1, p1_answer):
    """No graph emitted by the sweep (nor the canonical one) contains a
    directed cycle of plus-labeled edges, per an independent checker."""

    def has_plus_cycle(edges):
        adjacency = {}
        for edge in edges:
            if edge["label"] == "plus":
                adjacency.setdefault(edge["from"], []).append(edge["to"])
        state = {}
        for origin in adjacency:
            if state.get(origin):
                continue
            stack = [(origin, iter(adjacency[origin]))]
            state[origin] = "open"
            while stack:
                vertex, successors = stack[-1]
                for nxt in successors:
                    if state.get(nxt) == "open":
                        return True
                    if nxt not in state and nxt in adjacency:
                        state[nxt] = "open"
                        stack.append((nxt, iter(adjacency[nxt])))
                        break
                else:
                    state[vertex] = "done"
                    stack.pop()
        return False

    assert has_plus_cycle([
        {"from": "x", "to": "y", "label": "plus"},
        {"from": "y", "to": "x", "label": "plus"}])
    assert not has_plus_cycle([
        {"from": "x", "to": "y", "label": "plus"},
        {"from": "y", "to": "x", "label": "minus"}])

    e, u = pipeline(p1, p1_answer)
    canonical = build_egraph(e, u, nodes.atom_node("m(1)"))[0]
    assert not has_plus_cycle(canonical.doc()["edges"])

    _, edge_lists, _ = sweep_results()
    assert len(edge_lists) >= 3000
    assert not any(has_plus_cycle(edges) for edges in edge_lists)
