import pytest

from aspexplain import nodes
from aspexplain.aspif import parse_aspif
from aspexplain.errors import NoSupport
from aspexplain.ground import reconstruct
from aspexplain.support import (
    build_er,
    choice_body_support,
    dump_table,
    er_key_order,
    supported_sets_false,
    supported_sets_true,
)

from test_ground import choice_specs


def build(body: str):
    return reconstruct(parse_aspif("asp 1 0 0\n" + body + "0\n"))


def atom(name):
    return nodes.atom_node(name)


def neg(name):
    return nodes.neg_atom_node(name)


@pytest.fixture(scope="module")
def p1_er(p1, p1_answer):
    return build_er(p1, p1_answer)


def test_p1_key_order(p1):
    assert [p1.display_atom(a) for a in er_key_order(p1)] == [
        "c", "a", "b", "m(1)", "m(2)", "n(1)", "n(2)"]


def test_p1_table_keys(p1_er):
    assert list(p1_er) == [
        atom("c"), neg("a"), neg("b"), atom("m(1)"), neg("m(2)"),
        atom("n(1)"), atom("n(2)")]


def test_p1_true_atom_supports(p1_er):
    assert p1_er[atom("c")] == [frozenset({neg("a")})]
    assert p1_er[atom("n(1)")] == [frozenset({nodes.TOP_NODE})]
    assert p1_er[atom("n(2)")] == [frozenset({nodes.TOP_NODE})]


def test_p1_choice_head_support(p1_er):
    assert p1_er[atom("m(1)")] == [
        frozenset({atom("c"), nodes.PLUS_CHOICE_NODE, atom("n(1)")})]


def test_p1_false_atom_supports(p1_er):
    assert p1_er[neg("a")] == [frozenset({atom("c")})]
    assert p1_er[neg("b")] == [frozenset({neg("a")})]
    assert p1_er[neg("m(2)")] == [
        frozenset({atom("c"), nodes.MINUS_CHOICE_NODE, atom("n(2)")})]


def test_p1_dump_matches_layout(p1_er):
    dump = dump_table(p1_er)
    assert "c : [{~a}]" in dump
    assert "~a : [{c}]" in dump
    assert "~b : [{~a}]" in dump
    assert "m(1) : [{c, n(1), +choice}]" in dump
    assert "~m(2) : [{c, n(2), -choice}]" in dump
    assert "n(1) : [{⊤}]" in dump
    assert dump_table(p1_er, ascii_only=True).count("[{T}]") == 2


def test_no_support_signals_bad_answer(p1):
    # b is never derivable when a is false.
    bad = p1.answer_from_names({"n(1)", "n(2)", "b"})
    with pytest.raises(NoSupport):
        supported_sets_true(p1, bad, p1.atom_id("b"))


def test_false_atom_without_rules_is_bottom():
    gp = build("4 1 p 1 1\n")
    assert supported_sets_false(gp, frozenset(), gp.atom_id("p")) == [
        frozenset({nodes.BOTTOM_NODE})]


def test_fact_supported_by_top():
    gp = build("5 1 2\n4 1 p 1 1\n")
    A = gp.answer_from_names({"p"})
    assert supported_sets_true(gp, A, gp.atom_id("p")) == [
        frozenset({nodes.TOP_NODE})]


def test_multiple_rules_for_true_atom():
    gp = build(
        "1 0 1 1 0 1 2\n1 0 1 1 0 1 -3\n"
        "5 2 2\n4 1 p 1 1\n4 1 q 1 2\n4 1 r 1 3\n"
    )
    A = gp.answer_from_names({"p", "q"})
    assert supported_sets_true(gp, A, gp.atom_id("p")) == [
        frozenset({atom("q")}), frozenset({neg("r")})]


def test_false_atom_cross_product():
    # p is headed by two rules; its falsity needs one falsifier from each.
    gp = build(
        "1 0 1 1 0 1 2\n1 0 1 1 0 2 3 -4\n"
        "4 1 p 1 1\n4 1 q 1 2\n4 1 r 1 3\n4 1 s 1 4\n"
    )
    A = gp.answer_from_names({"r", "s"})
    result = supported_sets_false(gp, A, gp.atom_id("p"))
    assert result == [frozenset({neg("q"), atom("s")})]


def test_false_atom_superset_options_dropped():
    gp = build(
        "1 0 1 1 0 1 2\n1 0 1 1 0 2 2 3\n"
        "4 1 p 1 1\n4 1 q 1 2\n4 1 r 1 3\n"
    )
    A = gp.answer_from_names(set())
    result = supported_sets_false(gp, A, gp.atom_id("p"))
    # {~q} defeats both rules; {~q, ~r} is a redundant superset.
    assert result == [frozenset({neg("q")})]


def test_aux_bodies_are_inlined(p1, p1_answer):
    # The aux behind "l(6)" resolves to c in m(1)'s support.
    sets = supported_sets_true(p1, p1_answer, p1.atom_id("m(1)"))
    assert sets == [frozenset({atom("c"), nodes.PLUS_CHOICE_NODE, atom("n(1)")})]


def test_choice_body_support_satisfied(p1, p1_answer):
    spec = choice_specs(p1)[0]
    node, expansion = choice_body_support(p1, spec, p1_answer)
    assert node.render() == "1<={(m(1), n(1)), (m(2), n(2))}<=1"
    t = nodes.tuple_node((("m(1)", True), ("n(1)", True)))
    assert expansion[node] == [frozenset({t})]
    assert expansion[t] == [frozenset({nodes.STAR_TRUE_NODE})]


def test_choice_body_support_empty(p1):
    spec = choice_specs(p1)[0]
    A = p1.answer_from_names({"n(1)", "n(2)", "a"})
    node, expansion = choice_body_support(p1, spec, A)
    assert expansion[node] == [frozenset({nodes.STAR_EMPTY_NODE})]


def test_spec_in_rule_body_expands():
    gp = build(
        "1 0 1 3 1 1 2 1 1 2 1\n"
        "1 0 1 4 0 1 3\n"
        "5 1 2\n4 1 p 1 1\n4 1 q 1 2\n4 1 g 1 3\n4 1 h 1 4\n"
    )
    A = gp.answer_from_names({"p", "g", "h"})
    table = build_er(gp, A)
    g_key = atom("g")
    [support] = table[g_key]
    [node] = list(support)
    assert node.render() == "1<={p, q}"
    t = nodes.tuple_node((("p", True),))
    assert table[node] == [frozenset({t})]
    assert table[t] == [frozenset({nodes.STAR_TRUE_NODE})]
    assert table[atom("p")] == [frozenset({nodes.TOP_NODE})]


def test_true_atom_invariant_random():
    from aspexplain.oracle import enumerate_answer_sets, random_program
    for seed in range(15):
        gp = random_program(seed, n_atoms=5, n_rules=6)
        for model in enumerate_answer_sets(gp):
            A = gp.answer_from_names(model)
            table = build_er(gp, A)
            for key, value in table.items():
                if key.kind != nodes.ATOM:
                    continue
                for support in value:
                    for member in support:
                        if member.kind == nodes.ATOM:
                            assert member.payload[0] in model
                        if member.kind == nodes.NEG_ATOM:
                            assert member.payload[0] not in model
