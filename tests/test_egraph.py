"""Tests for table merging and explanation graph construction."""

from __future__ import annotations

import os
import pathlib
import random
import re
import subprocess
import sys
import time

import pytest

from aspexplain import nodes, oracle
from aspexplain.aspif import parse_aspif
from aspexplain.assumptions import minimal_assumption_sets
from aspexplain.constraints import constraint_preprocessing
from aspexplain.egraph import (
    EEdge,
    ExplanationGraph,
    _cycle_safe,
    _scc_index,
    build_egraph,
    egraph_from_json,
    find_egraphs,
    merge_supports,
    search_supports,
    to_dot,
    to_json,
    validate_egraph,
)
from aspexplain.errors import NoValidGraph, TooLarge, UnknownLiteral
from aspexplain.ground import reconstruct
from aspexplain.support import build_er

from test_bench_names import _load_bench

checks = _load_bench("checks")


def build(body: str):
    return reconstruct(parse_aspif("asp 1 0 0\n" + body + "0\n"))


def pipeline(g, answer):
    """Merged support table and chosen assumption set for one answer set."""
    er = build_er(g, answer)
    ec = constraint_preprocessing(g, answer)
    table = merge_supports(er, ec)
    report = minimal_assumption_sets(g, answer, table=table)
    return table, report.chosen_u


def triples(graph):
    return {(e.source.render(), e.target.render(), e.label)
            for e in graph.edges}


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


class TestMergeSupports:
    def test_running_example_shared_key(self, p1, p1_answer):
        e, _ = pipeline(p1, p1_answer)
        m1 = e[nodes.atom_node("m(1)")]
        assert len(m1) == 1
        assert {n.render() for n in m1[0]} == {
            "c", "n(1)", "+choice", "triggered_constraint(m(1))"}

    def test_key_only_in_rule_table(self, p1, p1_answer):
        e, _ = pipeline(p1, p1_answer)
        assert e[nodes.neg_atom_node("a")] == [
            frozenset({nodes.atom_node("c")})]

    def test_both_empty(self):
        assert merge_supports({}, {}) == {}

    def test_constraint_only_keys_come_after(self, p1, p1_answer):
        er = build_er(p1, p1_answer)
        ec = constraint_preprocessing(p1, p1_answer)
        e = merge_supports(er, ec)
        keys = list(e)
        assert keys[:len(er)] == list(er)
        assert all(k in ec for k in keys[len(er):])


class TestBuildCanonicalGraph:
    def test_thirteen_edges(self, p1, p1_answer):
        e, u = pipeline(p1, p1_answer)
        assert u == {"a"}
        graphs = build_egraph(e, u, nodes.atom_node("m(1)"))
        assert len(graphs) == 1
        graph = graphs[0]
        assert len(graph.edges) == 13
        assert triples(graph) == CANONICAL_M1_EDGES
        assert validate_egraph(graph, e, u)

    def test_fact_root_single_edge(self, p1, p1_answer):
        e, u = pipeline(p1, p1_answer)
        graphs = build_egraph(e, u, nodes.atom_node("n(1)"))
        assert len(graphs) == 1
        graph = graphs[0]
        assert len(graph.nodes) == 2
        assert triples(graph) == {("n(1)", "⊤", "circ")}
        assert validate_egraph(graph, e, u)

    def test_false_atom_queried_negatively(self, p1, p1_answer):
        e, u = pipeline(p1, p1_answer)
        graphs = build_egraph(e, u, nodes.neg_atom_node("m(2)"))
        graph = graphs[0]
        assert ("~m(2)", "-choice", "bullet") in triples(graph)
        assert validate_egraph(graph, e, u)

    def test_assumed_atom_root(self, p1, p1_answer):
        e, u = pipeline(p1, p1_answer)
        graphs = build_egraph(e, u, nodes.neg_atom_node("a"))
        assert triples(graphs[0]) == {("~a", "assume", "circ")}

    def test_coloring_features(self, coloring, coloring_answer):
        e, u = pipeline(coloring, coloring_answer)
        assert u == frozenset()
        graphs = build_egraph(e, u, nodes.atom_node("colored(1,red)"))
        graph = graphs[0]
        t = triples(graph)
        assert ("colored(1,red)", "+choice", "bullet") in t
        assert ("colored(1,red)",
                "triggered_constraint(colored(1,red))", "diamond") in t
        assert ("~colored(2,red)", "-choice", "bullet") in t
        assert ("~colored(3,red)", "-choice", "bullet") in t
        assert any(label == "oplus" and target == "*True"
                   for _, target, label in t)
        assert validate_egraph(graph, e, u)


class TestRootErrors:
    def test_true_atom_queried_negatively(self, p1, p1_answer):
        e, u = pipeline(p1, p1_answer)
        with pytest.raises(UnknownLiteral) as err:
            build_egraph(e, u, nodes.neg_atom_node("m(1)"))
        assert "true" in str(err.value)
        assert "m(1)" in str(err.value)

    def test_false_atom_queried_positively(self, p1, p1_answer):
        e, u = pipeline(p1, p1_answer)
        with pytest.raises(UnknownLiteral) as err:
            build_egraph(e, u, nodes.atom_node("m(2)"))
        assert "false" in str(err.value)
        assert "~m(2)" in str(err.value)

    def test_unknown_atom(self, p1, p1_answer):
        e, u = pipeline(p1, p1_answer)
        with pytest.raises(UnknownLiteral):
            build_egraph(e, u, nodes.atom_node("zzz"))


class TestCycleHandling:
    def test_wrong_assumed_set_has_no_valid_graph(self):
        g = build(
            "1 0 1 1 0 1 -2\n"
            "1 0 1 2 0 1 -1\n"
            "4 1 a 1 1\n"
            "4 1 b 1 2\n"
        )
        answer = g.answer_from_names(["a"])
        e = merge_supports(build_er(g, answer), {})
        with pytest.raises(NoValidGraph):
            build_egraph(e, frozenset(), nodes.atom_node("a"))
        assert find_egraphs(e, frozenset(), nodes.atom_node("a")) == []
        graphs = build_egraph(e, frozenset({"b"}), nodes.atom_node("a"))
        assert find_egraphs(e, frozenset({"b"}), nodes.atom_node("a")) \
            == graphs
        assert triples(graphs[0]) == {
            ("a", "~b", "minus"), ("~b", "assume", "circ")}

    def test_plus_cycle_is_rejected(self):
        p, q = nodes.atom_node("p"), nodes.atom_node("q")
        e = {p: [frozenset({q})], q: [frozenset({p})]}
        graph = ExplanationGraph(
            p, (p, q),
            (EEdge(p, q, "plus"), EEdge(q, p, "plus")))
        assert not validate_egraph(graph, e, frozenset())
        with pytest.raises(NoValidGraph) as raised:
            build_egraph(e, ["s", "r", "s"], p)
        assert str(raised.value) == \
            "no valid explanation graph for p under assumed set {r, s}"
        assert find_egraphs(e, frozenset(), p) == []

    def test_all_minus_cycle_is_accepted(self):
        g = build(
            "1 1 1 1 0 0\n"
            "1 0 1 1 0 1 2\n"
            "1 0 1 2 0 1 3\n"
            "1 0 1 3 0 1 2\n"
            "1 0 1 4 0 1 -1\n"
            "4 1 w 1 1\n"
            "4 1 x 1 2\n"
            "4 1 y 1 3\n"
            "4 1 d 1 4\n"
        )
        answer = g.answer_from_names(["d"])
        e, u = pipeline(g, answer)
        assert u == frozenset()
        graphs = build_egraph(e, u, nodes.atom_node("d"))
        graph = graphs[0]
        t = triples(graph)
        assert ("~x", "~y", "minus") in t
        assert ("~y", "~x", "minus") in t
        assert validate_egraph(graph, e, u)


class TestValidateRejections:
    def test_removed_assume_edge(self, p1, p1_answer):
        e, u = pipeline(p1, p1_answer)
        graph = build_egraph(e, u, nodes.atom_node("m(1)"))[0]
        pruned = ExplanationGraph(
            graph.root,
            tuple(n for n in graph.nodes if n.kind != nodes.ASSUME),
            tuple(edge for edge in graph.edges
                  if edge.target.kind != nodes.ASSUME))
        assert not validate_egraph(pruned, e, u)

    def test_assumed_atom_appearing_positively(self, p1, p1_answer):
        e, u = pipeline(p1, p1_answer)
        graph = build_egraph(e, u, nodes.atom_node("m(1)"))[0]
        assert not validate_egraph(graph, e, u | {"m(1)"})

    def test_unreachable_node(self, p1, p1_answer):
        e, u = pipeline(p1, p1_answer)
        graph = build_egraph(e, u, nodes.atom_node("n(1)"))[0]
        stray = nodes.atom_node("n(2)")
        padded = ExplanationGraph(
            graph.root,
            graph.nodes + (stray, nodes.TOP_NODE),
            graph.edges + (EEdge(stray, nodes.TOP_NODE, "circ"),))
        assert not validate_egraph(padded, e, u)

    def test_support_set_must_match_table(self, p1, p1_answer):
        e, u = pipeline(p1, p1_answer)
        c, top = nodes.atom_node("c"), nodes.TOP_NODE
        graph = ExplanationGraph(c, (c, top), (EEdge(c, top, "circ"),))
        assert not validate_egraph(graph, e, u)


class TestValidateEachRejection:
    """One mutation of p1's canonical m(1) graph per rejection branch."""

    @pytest.fixture
    def canonical(self, p1, p1_answer):
        e, u = pipeline(p1, p1_answer)
        assert u == {"a"}
        graph = build_egraph(e, u, nodes.atom_node("m(1)"))[0]
        assert validate_egraph(graph, e, u)
        return graph, e, u

    def test_root_is_not_a_node(self, canonical):
        graph, e, u = canonical
        moved = ExplanationGraph(nodes.atom_node("zz"), graph.nodes,
                                 graph.edges)
        assert validate_egraph(moved, e, u) is False

    def test_edge_end_is_not_a_node(self, canonical):
        graph, e, u = canonical
        extra = EEdge(graph.root, nodes.atom_node("zz"), "plus")
        padded = ExplanationGraph(graph.root, graph.nodes,
                                  graph.edges + (extra,))
        assert validate_egraph(padded, e, u) is False

    def test_edge_label_is_not_its_targets(self, canonical):
        graph, e, u = canonical
        first, *rest = graph.edges
        wrong = "plus" if first.label == "minus" else "minus"
        relabelled = ExplanationGraph(
            graph.root, graph.nodes, (first._replace(label=wrong), *rest))
        assert validate_egraph(relabelled, e, u) is False

    def test_terminal_has_an_out_edge(self, canonical):
        graph, e, u = canonical
        terminal = next(n for n in graph.nodes
                        if n.kind in nodes.TERMINAL_KINDS)
        extra = EEdge(terminal, graph.root,
                      nodes.EDGE_LABEL[graph.root.kind])
        padded = ExplanationGraph(graph.root, graph.nodes,
                                  graph.edges + (extra,))
        assert validate_egraph(padded, e, u) is False

    def test_non_terminal_has_no_out_edge(self, canonical):
        graph, e, u = canonical
        cut = ExplanationGraph(graph.root, graph.nodes, tuple(
            edge for edge in graph.edges if edge.source != graph.root))
        assert validate_egraph(cut, e, u) is False

    def test_graph_rebuilt_from_json_is_refused(self, canonical):
        # A rebuilt node carries its kind, label and JSON position, not an
        # atom name, so it matches no table key.
        graph, e, u = canonical
        assert validate_egraph(egraph_from_json(to_json(graph)), e, u) \
            is False


class TestEnumeration:
    def test_alternative_rules_give_multiple_graphs(self):
        g = build(
            "1 0 1 1 0 1 2\n"
            "1 0 1 1 0 1 3\n"
            "1 0 1 2 0 0\n"
            "1 0 1 3 0 0\n"
            "4 1 a 1 1\n"
            "4 1 b 1 2\n"
            "4 1 c 1 3\n"
        )
        answer = g.answer_from_names(["a", "b", "c"])
        e, u = pipeline(g, answer)
        graphs = build_egraph(e, u, nodes.atom_node("a"))
        assert len(graphs) == 2
        assert ("a", "b", "plus") in triples(graphs[0])
        assert ("a", "c", "plus") in triples(graphs[1])
        assert graphs[0] != graphs[1]

    def test_cap_truncates(self):
        g = build(
            "1 0 1 1 0 1 2\n"
            "1 0 1 1 0 1 3\n"
            "1 0 1 2 0 0\n"
            "1 0 1 3 0 0\n"
            "4 1 a 1 1\n"
            "4 1 b 1 2\n"
            "4 1 c 1 3\n"
        )
        answer = g.answer_from_names(["a", "b", "c"])
        e, u = pipeline(g, answer)
        assert len(build_egraph(e, u, nodes.atom_node("a"),
                                max_graphs=1)) == 1

    def test_max_graphs_below_one_is_refused(self, p1, p1_answer):
        e, u = pipeline(p1, p1_answer)
        root = nodes.atom_node("n(1)")
        for cap in (0, -1):
            with pytest.raises(ValueError, match="max_graphs"):
                build_egraph(e, u, root, max_graphs=cap)
            with pytest.raises(ValueError, match="max_graphs"):
                find_egraphs(e, u, root, max_graphs=cap)


class TestSerialization:
    def test_dot_styles(self, p1, p1_answer):
        e, u = pipeline(p1, p1_answer)
        graph = build_egraph(e, u, nodes.atom_node("m(1)"))[0]
        dot = to_dot(graph)
        assert dot.startswith("digraph explanation {")
        assert '"n(1)" -> "⊤" [style=dotted];' in dot
        assert '"m(1)" -> "+choice" [style=dotted, color=orange];' in dot
        assert ('"m(1)" -> "triggered_constraint(m(1))" '
                "[style=dotted, color=green];" in dot)
        assert '"(m(1), n(1))" -> "*True" [style=solid, color=blue];' in dot
        assert '"~b" -> "~a" [style=dashed];' in dot
        assert '"m(1)" -> "c" [style=solid];' in dot

    def test_dot_ascii_fallback(self, p1, p1_answer):
        e, u = pipeline(p1, p1_answer)
        graph = build_egraph(e, u, nodes.atom_node("n(1)"))[0]
        dot = to_dot(graph, ascii_only=True)
        assert '"n(1)" -> "T" [style=dotted];' in dot
        assert "⊤" not in dot

    def test_json_round_trip(self, p1, p1_answer):
        e, u = pipeline(p1, p1_answer)
        graph = build_egraph(e, u, nodes.atom_node("m(1)"))[0]
        text = to_json(graph)
        rebuilt = egraph_from_json(text)
        assert rebuilt == graph
        assert to_json(rebuilt) == text
        doc = graph.doc()
        assert len(doc["edges"]) == 13
        assert len(doc["nodes"]) == len(graph.nodes)
        assert all(len(n["id"]) == 12 for n in doc["nodes"])

    def test_deterministic_output(self, p1, p1_answer):
        e1, u1 = pipeline(p1, p1_answer)
        e2, u2 = pipeline(p1, p1_answer)
        g1 = build_egraph(e1, u1, nodes.atom_node("m(1)"))[0]
        g2 = build_egraph(e2, u2, nodes.atom_node("m(1)"))[0]
        assert to_dot(g1) == to_dot(g2)
        assert to_json(g1) == to_json(g2)

    def test_dot_keeps_a_tuple_apart_from_its_atom(self):
        g = oracle.random_program(13)
        answer = g.answer_from_names(["a", "c", "d", "g"])
        graph = build_egraph(*pipeline(g, answer), nodes.atom_node("a"))[0]
        assert len(graph.nodes) == 5
        dot = to_dot(graph)
        assert dot_node_ids(dot) == len(graph.nodes)
        assert '  "a";\n' in dot
        assert '  "1<={g, h, a}" -> "a (tuple)" [style=solid];\n' in dot

    def test_dot_name_with_a_kind_added_is_still_free(self):
        # {a}.  a (tuple).  c :- 1<={a}, a, a (tuple).  The tuple node of a
        # renders as "a", and the atom "a (tuple)" already takes the name
        # the tuple would get.
        g = build(
            "1 1 1 1 0 0\n"
            "1 0 1 2 0 0\n"
            "1 0 1 4 1 1 1 1 1\n"
            "1 0 1 3 0 3 1 2 4\n"
            "4 1 a 1 1\n"
            "4 9 a (tuple) 1 2\n"
            "4 1 c 1 3\n"
        )
        answer = g.answer_from_names(["a", "a (tuple)", "c"])
        graph = build_egraph(*pipeline(g, answer), nodes.atom_node("c"))[0]
        dot = to_dot(graph)
        assert dot_node_ids(dot) == len(graph.nodes)
        assert '  "a (tuple)" -> "⊤" [style=dotted];\n' in dot
        assert ('  "1<={a}" -> "a (tuple) (tuple)" [style=solid];\n'
                in dot)
        assert '  "a (tuple) (tuple)" -> "*True"' in dot

    @pytest.mark.parametrize("name, quoted", [
        ("a\\", '"a\\\\"'),
        ('p("x\\"y")', '"p(\\"x\\\\\\"y\\")"')])
    def test_dot_escapes_backslash_before_quote(self, name, quoted):
        # A fact whose symbol holds a backslash: the name of its node
        # writes each backslash and each quote with a backslash before it.
        g = build(f"1 0 1 1 0 0\n4 {len(name)} {name} 1 1\n")
        answer = g.answer_from_names([name])
        graph = build_egraph(*pipeline(g, answer), nodes.atom_node(name))[0]
        dot = to_dot(graph)
        assert dot == (f'digraph explanation {{\n  {quoted};\n  "⊤";\n'
                       f'  {quoted} -> "⊤" [style=dotted];\n}}\n')
        # DOT reads a backslash as escaping the character after it.
        assert re.sub(r"\\(.)", r"\1", quoted[1:-1]) == name
        graph_nodes, edges = checks.parse_dot(dot)
        assert len(graph_nodes) == 2 and len(edges) == 1

    def test_ascii_dot_of_a_rebuilt_graph(self):
        # a.  b :- y.  b :- not a.  ~b rests on ~y, which has no rule, and
        # on the fact a.
        g = build(
            "1 0 1 1 0 0\n"
            "1 0 1 2 0 1 3\n"
            "1 0 1 2 0 1 -1\n"
            "4 1 a 1 1\n"
            "4 1 b 1 2\n"
            "4 1 y 1 3\n"
        )
        answer = g.answer_from_names(["a"])
        graph = build_egraph(*pipeline(g, answer),
                             nodes.neg_atom_node("b"))[0]
        assert {nodes.TOP_NODE, nodes.BOTTOM_NODE} <= set(graph.nodes)
        rebuilt = egraph_from_json(to_json(graph))
        dot = to_dot(graph, ascii_only=True)
        assert '"T"' in dot and '"F"' in dot
        assert to_dot(rebuilt, ascii_only=True) == dot
        assert to_dot(rebuilt) == to_dot(graph)

    def test_dot_node_ids_are_distinct_across_a_sweep(self):
        graphs = collisions = 0
        for seed in range(60):
            g = oracle.random_program(seed)
            for model in oracle.enumerate_answer_sets(g):
                answer = g.answer_from_names(sorted(model))
                e, u = pipeline(g, answer)
                for aid in sorted(g.named_ids()):
                    root = nodes.literal_node(g.display_atom(aid),
                                              aid in answer)
                    graph = build_egraph(e, u, root, max_graphs=1)[0]
                    for ascii_only in (False, True):
                        dot = to_dot(graph, ascii_only)
                        assert dot_node_ids(dot) == len(graph.nodes)
                        collisions += " (tuple)" in dot
                    graphs += 1
        assert graphs > 100 and collisions > 0


# {"not y"}.  t :- not y.  h :- 1 <= {"not y"; t}.  c :- h.  The graph of
# c for the answer {"not y", c} holds two tuple nodes that both render
# "not y": the tuple of the atom named "not y" and that of the literal
# "not y".
CLASH_TEXT = (
    "asp 1 0 0\n"
    "1 1 1 1 0 0\n"
    "1 0 1 5 0 1 -2\n"
    "1 0 1 4 1 1 2 1 1 5 1\n"
    "1 0 1 3 0 1 4\n"
    "4 5 not y 1 1\n"
    "4 1 y 1 2\n"
    "4 1 c 1 3\n"
    "0\n"
)

CLASH_SCRIPT = f"""
import hashlib
from aspexplain import nodes
from aspexplain.aspif import parse_aspif
from aspexplain.assumptions import minimal_assumption_sets
from aspexplain.egraph import SupportTable, build_egraph, to_dot, to_json
from aspexplain.ground import reconstruct
g = reconstruct(parse_aspif({CLASH_TEXT!r}))
A = g.answer_from_names(["not y", "c"])
table = SupportTable(g, A)
u = minimal_assumption_sets(g, A, table=table).chosen_u
graph = build_egraph(table, u, nodes.atom_node("c"))[0]
for text in (to_dot(graph), to_json(graph)):
    print(hashlib.sha1(text.encode()).hexdigest())
"""


def clash_graph():
    g = reconstruct(parse_aspif(CLASH_TEXT))
    answer = g.answer_from_names(["not y", "c"])
    return build_egraph(*pipeline(g, answer), nodes.atom_node("c"))[0]


class TestNodesThatRenderAlike:
    def test_two_tuples_render_alike(self):
        graph = clash_graph()
        tuples = [n for n in graph.nodes if n.kind == nodes.TUPLE]
        assert [n.label for n in tuples] == ["not y", "not y"]
        assert [n.payload for n in tuples] == [(("not y", True),),
                                               (("y", False),)]

    def test_same_output_across_hash_seeds(self):
        digests = set()
        for hash_seed in range(6):
            env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                       PYTHONPATH=str(pathlib.Path(__file__).parent.parent
                                      / "src"))
            proc = subprocess.run([sys.executable, "-c", CLASH_SCRIPT],
                                  capture_output=True, env=env, check=True)
            digests.add(proc.stdout)
        assert len(digests) == 1, digests

    def test_json_ids_are_unique_and_round_trip(self):
        graph = clash_graph()
        doc = graph.doc()
        assert len(graph.nodes) == 5
        assert len({entry["id"] for entry in doc["nodes"]}) == 5
        assert len({(e["from"], e["to"]) for e in doc["edges"]}) \
            == len(graph.edges) == 5
        text = to_json(graph)
        rebuilt = egraph_from_json(text)
        assert len(rebuilt.nodes) == 5 and len(rebuilt.edges) == 5
        assert to_json(rebuilt) == text
        assert to_dot(rebuilt) == to_dot(graph)
        assert dot_node_ids(to_dot(graph)) == 5


def dot_node_ids(dot: str) -> int:
    """Distinct node identifiers of a DOT text; edges name no others."""
    quoted = r'"((?:[^"\\]|\\.)*)"'
    declared = [re.match(r"  " + quoted, line).group(1)
                for line in dot.splitlines()[1:-1] if " -> " not in line]
    for line in dot.splitlines():
        if " -> " in line:
            ends = re.match(r"  " + quoted + " -> " + quoted, line).groups()
            assert set(ends) <= set(declared)
    return len(set(declared))


class TestOracleProperty:
    def test_every_literal_explainable_under_chosen_u(self):
        checked = 0
        for seed in range(12):
            g = oracle.random_program(seed)
            try:
                models = oracle.enumerate_answer_sets(g)
            except oracle.TooLarge:
                continue
            for model in models[:2]:
                answer = g.answer_from_names(sorted(model))
                e, u = pipeline(g, answer)
                for aid in sorted(g.named_ids()):
                    name = g.display_atom(aid)
                    root = nodes.literal_node(name, aid in answer)
                    graphs = build_egraph(e, u, root, max_graphs=4)
                    assert validate_egraph(graphs[0], e, u)
                    checked += 1
        assert checked > 20


def non_diamond(edges):
    kept = [edge for edge in edges if edge.label != "diamond"]
    adjacency: dict = {}
    for edge in kept:
        adjacency.setdefault(edge.source, []).append(edge.target)
    return kept, adjacency


def reference_cycle_safe(edges) -> bool:
    """_cycle_safe without its acyclic fast path: Tarjan on every graph."""
    kept, adjacency = non_diamond(edges)
    component = _scc_index(adjacency)
    return all(
        edge.label == "minus"
        for edge in kept
        if component.get(edge.source) is not None
        and component.get(edge.source) == component.get(edge.target))


def test_cycle_safe_matches_tarjan_reference():
    rng = random.Random(11)
    verdicts = {}
    for _ in range(4000):
        names = [nodes.atom_node(str(i)) for i in range(rng.randint(1, 8))]
        edges = [
            EEdge(rng.choice(names), rng.choice(names),
                  rng.choice(("plus", "minus", "diamond", "circ")))
            for _ in range(rng.randint(0, 12))]
        expected = reference_cycle_safe(edges)
        assert _cycle_safe(edges) == expected, edges
        cyclic = bool(_scc_index(non_diamond(edges)[1]))
        verdicts[expected, cyclic] = verdicts.get((expected, cyclic), 0) + 1
    # Acyclic graphs, safe cyclic ones and unsafe ones all occur.
    assert set(verdicts) == {(True, False), (True, True), (False, True)}
    assert min(verdicts.values()) > 100, verdicts


def reference_find_egraphs(e, u, root, max_graphs=64):
    """The graph search that tests for cycles only at a leaf: every pending
    node takes each of its supports in turn, and a leaf whose graph is not
    cycle safe is dropped."""
    assumed = frozenset(u)
    results = []

    def options(node):
        if node.kind == nodes.NEG_ATOM and node.payload[0] in assumed:
            return [frozenset({nodes.ASSUME_NODE})]
        if node.kind == nodes.ATOM and node.payload[0] in assumed:
            return []
        return e.get(node, [])

    def search(pending, chosen):
        while pending and (pending[0] in chosen
                           or pending[0].kind in nodes.TERMINAL_KINDS):
            pending = pending[1:]
        if not pending:
            edges = [EEdge(source, target, nodes.EDGE_LABEL[target.kind])
                     for source, support in chosen.items()
                     for target in support]
            if _cycle_safe(edges):
                key = nodes.ENode.sort_key
                edges.sort(key=lambda e: (key(e.source), key(e.target)))
                node_set = {root, *chosen, *(e.target for e in edges)}
                results.append(ExplanationGraph(
                    root, tuple(sorted(node_set, key=key)), tuple(edges)))
            return
        node = pending[0]
        for support in options(node):
            if len(results) >= max_graphs:
                return
            chosen[node] = support
            search(pending[1:] + tuple(nodes.sorted_nodes(support)), chosen)
            del chosen[node]

    search((root,), {})
    return results


def named_roots(g, answer):
    return [nodes.literal_node(g.display_atom(aid), aid in answer)
            for aid in sorted(g.named_ids())]


def test_search_matches_the_leaf_test_reference():
    roots = 0
    for seed in range(300):
        for n_atoms in (6, 8):
            g = oracle.random_program(seed, n_atoms=n_atoms)
            try:
                models = oracle.enumerate_answer_sets(g)
            except TooLarge:
                continue
            for model in models[:3]:
                answer = g.answer_from_names(sorted(model))
                e, u = pipeline(g, answer)
                for root in named_roots(g, answer):
                    expected = reference_find_egraphs(e, u, root)
                    assert find_egraphs(e, u, root) == expected, (seed, root)
                    roots += 1
    assert roots > 2000, roots


@pytest.mark.parametrize("example", ["p1", "coloring"])
def test_search_matches_the_leaf_test_reference_on_examples(example,
                                                            request):
    g = request.getfixturevalue(example)
    answer = request.getfixturevalue(example + "_answer")
    e, u = pipeline(g, answer)
    for root in named_roots(g, answer):
        assert find_egraphs(e, u, root) == reference_find_egraphs(e, u, root)


def backtrack(n: int):
    """f.  r :- x(1), ..., x(n).  x(i) :- r.  x(i) :- f.  Every x(i) tries
    {r} first, which closes the plus cycle r -> x(i) -> r."""
    x = range(3, n + 3)
    lines = ["asp 1 0 0", "1 0 1 1 0 0",
             f"1 0 1 2 0 {n} " + " ".join(map(str, x))]
    lines += [f"1 0 1 {i} 0 1 2" for i in x]
    lines += [f"1 0 1 {i} 0 1 1" for i in x]
    lines += ["4 1 f 1 1", "4 1 r 1 2"]
    lines += [f"4 {len(f'x({i - 2})')} x({i - 2}) 1 {i}" for i in x]
    return reconstruct(parse_aspif("\n".join(lines + ["0\n"])))


def backtrack_table(n: int):
    g = backtrack(n)
    return merge_supports(build_er(g, frozenset(g.named_ids())), {})


def test_backtrack_refuses_each_cycle_where_it_closes():
    # The leaf test tries all 2^n mixes of {r} and {f} first, which takes
    # minutes at n = 24.
    e = backtrack_table(24)
    started = time.perf_counter()
    graph, = find_egraphs(e, frozenset(), nodes.atom_node("r"), max_graphs=1)
    assert time.perf_counter() - started < 5
    assert ("x(24)", "f", "plus") in triples(graph)
    assert len(graph.nodes) == 27 and validate_egraph(graph, e, frozenset())
    small = backtrack_table(8)
    for root in small:
        assert find_egraphs(small, frozenset(), root) \
            == reference_find_egraphs(small, frozenset(), root)


def test_shared_supports_are_kept_across_searches():
    # A search over supports chosen by an earlier one leaves them as they
    # are and needs no support for a root already chosen.
    e = backtrack_table(4)
    chosen: dict = {}
    first = next(search_supports(e, frozenset(), nodes.atom_node("r"),
                                 chosen))
    assert first is chosen and len(chosen) == 6
    kept = dict(chosen)
    assert next(search_supports(e, frozenset(), nodes.atom_node("x(2)"),
                                chosen)) == kept
