import pytest

from aspexplain import nodes
from aspexplain.aspif import parse_aspif
from aspexplain.constraints import constraint_preprocessing, constraint_saviors
from aspexplain.errors import UnviolableConstraint
from aspexplain.ground import ChoiceAtomSpec, reconstruct

from test_ground import choice_specs


def build(body: str):
    return reconstruct(parse_aspif("asp 1 0 0\n" + body + "0\n"))


def atom(name):
    return nodes.atom_node(name)


def neg(name):
    return nodes.neg_atom_node(name)


def tc(name, positive=True):
    return nodes.constraint_node(name, positive)


@pytest.fixture(scope="module")
def p1_ec(p1, p1_answer):
    return constraint_preprocessing(p1, p1_answer)


def test_p1_ec_keys_in_order(p1_ec):
    rendered = [k.render() for k in p1_ec]
    assert rendered == [
        "m(1)",
        "triggered_constraint(m(1))",
        "c",
        "triggered_constraint(c)",
        "1<={(m(1), n(1)), (m(2), n(2))}<=1",
        "(m(1), n(1))",
    ]


def test_p1_plain_constraint(p1_ec):
    assert p1_ec[atom("m(1)")] == [frozenset({tc("m(1)")})]
    assert p1_ec[tc("m(1)")] == [frozenset({neg("b")})]


def test_p1_choice_constraint(p1_ec, p1):
    choice_node = p1.spec_node(choice_specs(p1)[0])
    assert p1_ec[atom("c")] == [frozenset({tc("c")})]
    assert p1_ec[tc("c")] == [frozenset({choice_node})]
    t = nodes.tuple_node((("m(1)", True), ("n(1)", True)))
    assert p1_ec[choice_node] == [frozenset({t})]
    assert p1_ec[t] == [frozenset({nodes.STAR_TRUE_NODE})]


def choice_constraint(g):
    """The one constraint of g with a choice occurrence, and its one
    resolved body."""
    [rule] = [r for r in g.constraints()
              if any(isinstance(t, ChoiceAtomSpec)
                     for t in (*r.pos_body, *r.neg_body))]
    [body] = g.constraint_bodies(rule)
    return rule, body


def saviors_of(g, names):
    """The saviors of g's choice constraint under the answer ``names``, and
    the table rows of its bound nodes."""
    rule, body = choice_constraint(g)
    _, saviors, expansion = constraint_saviors(
        g, g.answer_from_names(names), rule, body)
    return saviors, expansion


# ":- c, 2 <= {a; b}." with a, b and c chosen freely: the choice occurrence
# sits in the positive body.
POS_BODY_CHOICE = (
    "1 1 3 1 2 3 0 0\n"
    "1 0 1 4 0 1 1\n"
    "1 0 1 5 0 1 2\n"
    "1 0 1 6 1 2 2 4 1 5 1\n"
    "1 0 0 0 2 3 6\n"
    "4 1 a 1 1\n4 1 b 1 2\n4 1 c 1 3\n"
)


def test_saviors_neg_side_in_bounds(p1):
    # ":- l(6), not 1<={...}<=1": the bound holds, so ~bound fails.
    saviors, expansion = saviors_of(p1, {"n(1)", "n(2)", "c", "m(1)"})
    node = p1.spec_node(choice_specs(p1)[0], positive=True)
    assert saviors == [node]
    assert node.kind == nodes.CHOICE
    assert node.render() == "1<={(m(1), n(1)), (m(2), n(2))}<=1"
    t = nodes.tuple_node((("m(1)", True), ("n(1)", True)))
    assert expansion == {node: [frozenset({t})],
                         t: [frozenset({nodes.STAR_TRUE_NODE})]}


def test_saviors_neg_side_out_of_bounds_adds_none(p1):
    # The bound fails, so ~bound holds: only the failing literal saves.
    saviors, expansion = saviors_of(p1, {"n(1)", "n(2)", "a"})
    assert saviors == [neg("c")]
    assert expansion == {}


def test_saviors_pos_side_out_of_bounds():
    gp = build(POS_BODY_CHOICE)
    saviors, expansion = saviors_of(gp, {"a"})
    node = gp.spec_node(choice_specs(gp)[0], positive=False)
    assert saviors == [neg("c"), node]
    assert node.kind == nodes.NEG_CHOICE
    assert node.render() == "~(2<={a, b})"
    t = nodes.tuple_node((("a", True),))
    assert expansion == {node: [frozenset({t})],
                         t: [frozenset({nodes.STAR_TRUE_NODE})]}


def test_saviors_pos_side_in_bounds_adds_none():
    gp = build(POS_BODY_CHOICE)
    saviors, expansion = saviors_of(gp, {"a", "b"})
    assert saviors == [neg("c")]
    assert expansion == {}
    with pytest.raises(UnviolableConstraint):
        saviors_of(gp, {"a", "b", "c"})


def test_no_constraints_empty_table():
    gp = build("1 0 1 1 0 0\n4 1 p 1 1\n")
    assert constraint_preprocessing(gp, gp.answer_from_names({"p"})) == {}


def test_two_atom_constraint():
    gp = build("1 0 1 1 0 0\n1 0 0 0 2 1 2\n4 1 p 1 1\n4 1 q 1 2\n")
    ec = constraint_preprocessing(gp, gp.answer_from_names({"p"}))
    assert ec[atom("p")] == [frozenset({tc("p")})]
    assert ec[tc("p")] == [frozenset({neg("q")})]
    assert atom("q") not in ec and neg("q") not in ec


def test_violated_constraint_raises():
    gp = build("1 0 1 1 0 0\n1 0 0 0 1 1\n4 1 p 1 1\n")
    with pytest.raises(UnviolableConstraint):
        constraint_preprocessing(gp, gp.answer_from_names({"p"}))


def test_negative_violation_literal():
    # ":- not p, q" with p false and q false: ~p holds, savior is ~q.
    gp = build("1 0 0 0 2 -1 2\n4 1 p 1 1\n4 1 q 1 2\n")
    ec = constraint_preprocessing(gp, gp.answer_from_names(set()))
    assert ec[neg("p")] == [frozenset({tc("p", positive=False)})]
    assert ec[tc("p", positive=False)] == [frozenset({neg("q")})]
    assert list(ec[tc("p", positive=False)][0])[0] == neg("q")


def test_multiple_constraints_same_violation_compose():
    # Both constraints blame p; their saviors conjoin in one entry.
    gp = build(
        "1 0 1 1 0 0\n"
        "1 0 0 0 2 1 2\n"
        "1 0 0 0 2 1 3\n"
        "4 1 p 1 1\n4 1 q 1 2\n4 1 r 1 3\n"
    )
    ec = constraint_preprocessing(gp, gp.answer_from_names({"p"}))
    assert ec[atom("p")] == [frozenset({tc("p")})]
    assert ec[tc("p")] == [frozenset({neg("q"), neg("r")})]


def test_multiple_saviors_stay_alternatives():
    gp = build(
        "1 0 1 1 0 0\n"
        "1 0 0 0 3 1 2 3\n"
        "4 1 p 1 1\n4 1 q 1 2\n4 1 r 1 3\n"
    )
    ec = constraint_preprocessing(gp, gp.answer_from_names({"p"}))
    assert ec[tc("p")] == [frozenset({neg("q")}), frozenset({neg("r")})]


def test_aux_alternatives_act_as_separate_constraints():
    # aux 3 is q or r; ":- p, aux" must be saved against both alternatives.
    gp = build(
        "1 0 1 1 0 0\n"
        "1 0 1 4 0 1 2\n"
        "1 0 1 4 0 1 3\n"
        "1 0 0 0 2 1 4\n"
        "4 1 p 1 1\n4 1 q 1 2\n4 1 r 1 3\n"
    )
    ec = constraint_preprocessing(gp, gp.answer_from_names({"p"}))
    assert ec[atom("p")] == [frozenset({tc("p")})]
    assert ec[tc("p")] == [frozenset({neg("q"), neg("r")})]


def test_coloring_edge_constraints(coloring, coloring_answer):
    ec = constraint_preprocessing(coloring, coloring_answer)
    key = atom("colored(1,red)")
    node = tc("colored(1,red)")
    assert ec[key] == [frozenset({node})]
    assert ec[node] == [
        frozenset({neg("colored(2,red)"), neg("colored(3,red)")})]


def test_coloring_bound_constraints(coloring, coloring_answer):
    ec = constraint_preprocessing(coloring, coloring_answer)
    node = tc("node(1)")
    [entry] = ec[tc("node(1)")]
    [savior] = list(entry)
    assert savior.kind == nodes.CHOICE
    assert savior.render().startswith("1<={")
    assert ec[atom("node(1)")] == [frozenset({node})]
