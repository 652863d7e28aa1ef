import pytest
from hypothesis import given
from hypothesis import strategies as st

from aspexplain.aspif import (
    AspifProgram,
    NormalBody,
    OpaqueStatement,
    OutputStatement,
    RuleStatement,
    WeightBody,
    emit_aspif,
    parse_aspif,
)
from aspexplain.errors import MalformedHeader, MissingTerminator, TruncatedStatement


def test_p1_statement_counts(p1_program):
    assert len(p1_program.rules) == 13
    assert len(p1_program.outputs) == 7
    assert len(p1_program.externals) == 2


def test_typed_lists_are_computed_once(p1_text):
    program = parse_aspif(p1_text)
    assert program.rules is program.rules
    assert program.outputs is program.outputs
    assert program.externals is program.externals
    assert program.atom_ids() is program.atom_ids()
    assert program.definitions is program.definitions


def test_definitions_follow_file_order(p1_program):
    rules = p1_program.rules
    definitions = p1_program.definitions
    assert set(definitions) == {h for r in rules for h in r.head}
    for head, stmts in definitions.items():
        assert stmts == [r for r in rules if head in r.head]
    assert p1_program.atom_ids() == frozenset(range(1, 14))


def test_p1_symbols(p1_program):
    symbols = {s.condition[0]: s.symbol for s in p1_program.outputs}
    assert symbols == {1: "n(1)", 2: "n(2)", 3: "c", 4: "a",
                       5: "b", 7: "m(1)", 8: "m(2)"}


def test_p1_weight_bodies(p1_program):
    weight_rules = [r for r in p1_program.rules
                    if isinstance(r.body, WeightBody)]
    assert len(weight_rules) == 2
    lo, hi = sorted(weight_rules, key=lambda r: r.body.lower)
    assert lo.body.lower == 1
    assert hi.body.lower == 2
    assert lo.body.elements == hi.body.elements == ((9, 1), (10, 1))


def test_p1_choice_heads(p1_program):
    choice = [r for r in p1_program.rules if r.is_choice]
    assert [r.head for r in choice] == [(7,), (8,)]


def test_round_trip_is_byte_identical(p1_text):
    assert emit_aspif(parse_aspif(p1_text)) == p1_text


def test_coloring_round_trip(coloring_text):
    assert emit_aspif(parse_aspif(coloring_text)) == coloring_text


def test_blank_lines_and_comments_are_skipped():
    text = "asp 1 0 0\n\n% a comment\n1 0 1 2 0 0\n4 1 p 1 2\n0\n"
    program = parse_aspif(text)
    assert len(program.rules) == 1
    assert program.outputs[0].symbol == "p"


def test_missing_header():
    with pytest.raises(MalformedHeader):
        parse_aspif("asp 2 0 0\n0\n")
    with pytest.raises(MalformedHeader):
        parse_aspif("1 0 1 2 0 0\n0\n")


def test_missing_terminator():
    with pytest.raises(MissingTerminator):
        parse_aspif("asp 1 0 0\n1 0 1 2 0 0\n")


def test_truncated_rule():
    with pytest.raises(TruncatedStatement):
        parse_aspif("asp 1 0 0\n1 0 1 2 0\n0\n")


def test_truncated_weight_body():
    with pytest.raises(TruncatedStatement):
        parse_aspif("asp 1 0 0\n1 0 1 2 1 3 2 4 1 5\n0\n")


def test_negative_weight_is_rejected():
    # A negative weight makes a body weaker as literals become true, so
    # neither the least model nor the well-founded model would be sound.
    with pytest.raises(TruncatedStatement, match="negative weight"):
        parse_aspif("asp 1 0 0\n1 0 1 2 1 0 1 -1 -1\n0\n")
    parse_aspif("asp 1 0 0\n1 0 1 2 1 0 1 -1 0\n0\n")


def test_content_after_terminator():
    with pytest.raises(TruncatedStatement):
        parse_aspif("asp 1 0 0\n0\n1 0 1 2 0 0\n")


def test_output_symbol_length_is_respected():
    text = "asp 1 0 0\n4 6 p(a,b) 1 3\n0\n"
    program = parse_aspif(text)
    assert program.outputs[0].symbol == "p(a,b)"
    assert program.outputs[0].condition == (3,)


def test_unknown_tag_is_kept_opaque():
    text = "asp 1 0 0\n7 0 1 2 3\n0\n"
    program = parse_aspif(text)
    opaque = [s for s in program.statements if isinstance(s, OpaqueStatement)]
    assert len(opaque) == 1
    assert emit_aspif(program) == text


def test_external_values(p1_program):
    assert [(e.atom, e.value) for e in p1_program.externals] == [(1, 2), (2, 2)]


atom_ids = st.integers(min_value=1, max_value=40)
literals = st.builds(lambda a, s: a * s, atom_ids, st.sampled_from((1, -1)))


def normal_rules():
    return st.builds(
        lambda ht, heads, body: RuleStatement(ht, tuple(heads),
                                              NormalBody(tuple(body))),
        st.sampled_from((0, 1)),
        st.lists(atom_ids, max_size=3),
        st.lists(literals, max_size=4),
    )


def weight_rules():
    return st.builds(
        lambda head, lower, elems: RuleStatement(
            0, (head,), WeightBody(lower, tuple(elems))),
        atom_ids,
        st.integers(min_value=0, max_value=9),
        st.lists(st.tuples(literals, st.integers(min_value=1, max_value=5)),
                 min_size=1, max_size=4),
    )


def outputs():
    names = st.text(alphabet="abcxyz(),123", min_size=1, max_size=8)
    return st.builds(lambda n, c: OutputStatement(n, tuple(c)),
                     names, st.lists(atom_ids, max_size=2))


@given(st.lists(st.one_of(normal_rules(), weight_rules(), outputs()),
                max_size=12))
def test_emit_parse_round_trip(statements):
    program = AspifProgram(list(statements))
    text = emit_aspif(program)
    assert parse_aspif(text) == program
    assert emit_aspif(parse_aspif(text)) == text
