from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspexplain import oracle
from aspexplain.aspif import (
    BODY_NORMAL,
    BODY_WEIGHT,
    HEAD_CHOICE,
    HEAD_DISJUNCTIVE,
    AspifProgram,
    ExternalStatement,
    NormalBody,
    OpaqueStatement,
    OutputStatement,
    RuleStatement,
    WeightBody,
    emit_aspif,
    parse_aspif,
)
from aspexplain.errors import MalformedHeader, MissingTerminator, TruncatedStatement

DATA = Path(__file__).parent / "data"


def test_p1_statement_counts(p1_program):
    assert len(p1_program.rules) == 13
    assert len(p1_program.outputs) == 7
    assert len(p1_program.externals) == 2


def test_typed_lists_are_computed_once(p1_text):
    program = parse_aspif(p1_text)
    assert program.rules is program.rules
    assert program.outputs is program.outputs
    assert program.externals is program.externals
    assert program.atom_ids is program.atom_ids
    assert program.definitions is program.definitions


def test_definitions_follow_file_order(p1_program):
    rules = p1_program.rules
    definitions = p1_program.definitions
    assert set(definitions) == {h for r in rules for h in r.head}
    for head, stmts in definitions.items():
        assert stmts == [r for r in rules if head in r.head]
    assert p1_program.atom_ids == frozenset(range(1, 14))


def walked_indexes(program: AspifProgram):
    """The typed lists, definitions, atom ids and counter rows derived by
    separate walks over ``statements``, as they were before each statement
    was filed as it was read.  A counter row is (head atoms, is choice,
    lower bound); then come the rows that fire with no literal, the rows
    with negative literals, and the occurrences, which map each atom to
    the (row, weight) pairs of its positive and of its negative body
    occurrences."""
    statements = program.statements
    rules = [s for s in statements if isinstance(s, RuleStatement)]
    outputs = [s for s in statements if isinstance(s, OutputStatement)]
    externals = [s for s in statements if isinstance(s, ExternalStatement)]
    definitions: dict = {}
    for stmt in rules:
        for head in stmt.head:
            definitions.setdefault(head, []).append(stmt)
    ids = {stmt.atom for stmt in externals}
    for stmt in rules:
        ids.update(stmt.head)
        ids.update(map(abs, stmt.body.literals))
    for stmt in outputs:
        ids.update(map(abs, stmt.condition))
    rows, ready, negated = [], [], []
    positive: dict = {}
    negative: dict = {}
    for head_type, head, body in rules:
        if head_type == 0 and not head:
            continue
        index = len(rows)
        pairs = body.elements if isinstance(body, WeightBody) \
            else [(lit, 1) for lit in body.literals]
        lower = body.lower if isinstance(body, WeightBody) \
            else len(body.literals)
        for lit, weight in pairs:
            if lit > 0:
                positive.setdefault(lit, []).append((index, weight))
            else:
                negative.setdefault(-lit, []).append((index, weight))
        if any(lit < 0 for lit, _ in pairs):
            negated.append(index)
        elif lower <= 0:
            ready.append(index)
        rows.append((head, head_type == 1, lower))
    constraints = [s for s in rules if s.head_type == 0 and not s.head]
    return (rules, outputs, externals, constraints, definitions,
            frozenset(ids), rows, ready, negated, positive, negative)


def filed_indexes(program: AspifProgram):
    """The same, as the program filed them."""
    rows = [(head, choice, lower) for (head, choice), lower
            in zip(program._heads, program._template)]
    return (program.rules, program.outputs, program.externals,
            program.constraints, program.definitions,
            program.atom_ids, rows, program._ready, program._negated,
            dict(program._positive), dict(program._negative))


def bundled_programs():
    for name in ("p1.aspif", "coloring.aspif"):
        yield parse_aspif((DATA / name).read_text())


def random_aspif_programs():
    for seed in range(100):
        yield oracle.random_program(seed, n_atoms=8, p_choice=0.5).aspif


def hand_built_programs():
    # Facts, a repeated literal, a repeated head, a weight body with a zero
    # lower bound and negative elements, a constraint, an external read
    # nowhere else and an opaque statement.
    statements = [
        RuleStatement(0, (1,), NormalBody(())),
        RuleStatement(0, (2,), NormalBody((1, 1, -3))),
        RuleStatement(1, (3, 3), NormalBody((-2,))),
        RuleStatement(0, (4,), WeightBody(0, ((-1, 2), (5, 1)))),
        RuleStatement(0, (), NormalBody((4, -6))),
        ExternalStatement(7, 2),
        OpaqueStatement("7 0 1 2 3"),
        OutputStatement("a", (1,)),
    ]
    yield AspifProgram(statements)
    program = AspifProgram(list(statements))
    yield parse_aspif(emit_aspif(program))


@pytest.mark.parametrize("source", [bundled_programs, random_aspif_programs,
                                    hand_built_programs])
def test_one_pass_load_matches_separate_walks(source):
    for program in source():
        assert filed_indexes(program) == walked_indexes(program)


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
    choice = [r for r in p1_program.rules if r.head_type == HEAD_CHOICE]
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


# Every parse error with its class and full message, recorded before the
# line reader converted each line's fields at once.  Reads run in field
# order, so where a line has several faults the first field's error wins.
PARSE_ERRORS = [
    pytest.param(
        "asp 2 0 0\n0\n", MalformedHeader,
        "line 1: expected 'asp 1 0 0' header, got 'asp 2 0 0'",
        id="bad_header"),
    pytest.param(
        "1 0 1 2 0 0\n0\n", MalformedHeader,
        "line 1: expected 'asp 1 0 0' header, got '1 0 1 2 0 0'",
        id="statement_before_header"),
    pytest.param(
        "% only a comment\n", MalformedHeader,
        "empty input: no 'asp 1 0 0' header",
        id="empty_input"),
    pytest.param(
        "asp 1 0 0\n1 0 1 2 0 0\n", MissingTerminator,
        "input ended without the '0' terminator",
        id="no_terminator"),
    pytest.param(
        "asp 1 0 0\n0\n1 0 1 2 0 0\n", TruncatedStatement,
        "line 3: content after the '0' terminator: '1 0 1 2 0 0'",
        id="after_terminator"),
    pytest.param(
        "asp 1 0 0\n1 2 0 0 0\n0\n", TruncatedStatement,
        "line 2: unknown head type 2",
        id="unknown_head_type"),
    pytest.param(
        "asp 1 0 0\n1 0 1 2 2 0\n0\n", TruncatedStatement,
        "line 2: unknown body type 2",
        id="unknown_body_type"),
    pytest.param(
        "asp 1 0 0\n1 x 1 2 0 0\n0\n", TruncatedStatement,
        "line 2: expected integer head type, got 'x'",
        id="head_type_token"),
    pytest.param(
        "asp 1 0 0\n1\n0\n", TruncatedStatement,
        "line 2: expected head type, statement ends early: '1'",
        id="head_type_end"),
    pytest.param(
        "asp 1 0 0\n1 0 x\n0\n", TruncatedStatement,
        "line 2: expected integer head atom count, got 'x'",
        id="head_count_token"),
    pytest.param(
        "asp 1 0 0\n1 0\n0\n", TruncatedStatement,
        "line 2: expected head atom count, statement ends early: '1 0'",
        id="head_count_end"),
    pytest.param(
        "asp 1 0 0\n1 0 2 2 x 0 0\n0\n", TruncatedStatement,
        "line 2: expected integer head atom, got 'x'",
        id="head_atom_token"),
    pytest.param(
        "asp 1 0 0\n1 0 2 2\n0\n", TruncatedStatement,
        "line 2: expected head atom, statement ends early: '1 0 2 2'",
        id="head_atom_end"),
    pytest.param(
        "asp 1 0 0\n1 0 1 2 x 0\n0\n", TruncatedStatement,
        "line 2: expected integer body type, got 'x'",
        id="body_type_token"),
    pytest.param(
        "asp 1 0 0\n1 0 1 2\n0\n", TruncatedStatement,
        "line 2: expected body type, statement ends early: '1 0 1 2'",
        id="body_type_end"),
    pytest.param(
        "asp 1 0 0\n1 0 1 2 0 x\n0\n", TruncatedStatement,
        "line 2: expected integer body literal count, got 'x'",
        id="body_count_token"),
    pytest.param(
        "asp 1 0 0\n1 0 1 2 0\n0\n", TruncatedStatement,
        "line 2: expected body literal count, statement ends early: '1 0 1 2 0'",
        id="body_count_end"),
    pytest.param(
        "asp 1 0 0\n1 0 1 2 0 2 3 y\n0\n", TruncatedStatement,
        "line 2: expected integer body literal, got 'y'",
        id="body_literal_token"),
    pytest.param(
        "asp 1 0 0\n1 0 1 2 0 2 3\n0\n", TruncatedStatement,
        "line 2: expected body literal, statement ends early: '1 0 1 2 0 2 3'",
        id="body_literal_end"),
    pytest.param(
        "asp 1 0 0\n1 0 1 2 1 x 1 3 1\n0\n", TruncatedStatement,
        "line 2: expected integer lower bound, got 'x'",
        id="lower_bound_token"),
    pytest.param(
        "asp 1 0 0\n1 0 1 2 1\n0\n", TruncatedStatement,
        "line 2: expected lower bound, statement ends early: '1 0 1 2 1'",
        id="lower_bound_end"),
    pytest.param(
        "asp 1 0 0\n1 0 1 2 1 1 x 3 1\n0\n", TruncatedStatement,
        "line 2: expected integer weight element count, got 'x'",
        id="weight_count_token"),
    pytest.param(
        "asp 1 0 0\n1 0 1 2 1 1\n0\n", TruncatedStatement,
        "line 2: expected weight element count, statement ends early: '1 0 1 2 1 1'",
        id="weight_count_end"),
    pytest.param(
        "asp 1 0 0\n1 0 1 2 1 1 2 3 1 z 1\n0\n", TruncatedStatement,
        "line 2: expected integer weight literal, got 'z'",
        id="weight_literal_token"),
    pytest.param(
        "asp 1 0 0\n1 0 1 2 1 1 2 3 1\n0\n", TruncatedStatement,
        "line 2: expected weight literal, statement ends early: '1 0 1 2 1 1 2 3 1'",
        id="weight_literal_end"),
    pytest.param(
        "asp 1 0 0\n1 0 1 2 1 1 2 3 1 4 w\n0\n", TruncatedStatement,
        "line 2: expected integer weight, got 'w'",
        id="weight_token"),
    pytest.param(
        "asp 1 0 0\n1 0 1 2 1 1 2 3 1 4\n0\n", TruncatedStatement,
        "line 2: expected weight, statement ends early: '1 0 1 2 1 1 2 3 1 4'",
        id="weight_end"),
    pytest.param(
        "asp 1 0 0\n1 0 1 2 0 0 7 x\n0\n", TruncatedStatement,
        "line 2: trailing tokens '7 x' after statement",
        id="rule_trailing"),
    pytest.param(
        "asp 1 0 0\n1 0 1 2 1 0 2 3 1 -4 -1\n0\n", TruncatedStatement,
        "line 2: negative weight in a weight body",
        id="negative_weight"),
    pytest.param(
        "asp 1 0 0\n4 1\n0\n", TruncatedStatement,
        "line 2: output statement too short: '4 1'",
        id="output_too_short"),
    pytest.param(
        "asp 1 0 0\n4 x a 0\n0\n", TruncatedStatement,
        "line 2: bad symbol length 'x'",
        id="output_bad_length"),
    pytest.param(
        "asp 1 0 0\n4 9 abc 0\n0\n", TruncatedStatement,
        "line 2: symbol shorter than declared length",
        id="output_short_symbol"),
    pytest.param(
        "asp 1 0 0\n4 1 a x\n0\n", TruncatedStatement,
        "line 2: expected integer condition literal count, got 'x'",
        id="condition_count_token"),
    pytest.param(
        "asp 1 0 0\n4 3 abc\n0\n", TruncatedStatement,
        "line 2: expected condition literal count, statement ends early: "
        "'4 3 abc'",
        id="condition_count_end"),
    pytest.param(
        "asp 1 0 0\n4 1 a 2 3 q\n0\n", TruncatedStatement,
        "line 2: expected integer condition literal, got 'q'",
        id="condition_literal_token"),
    pytest.param(
        "asp 1 0 0\n4 1 a 2 3\n0\n", TruncatedStatement,
        "line 2: expected condition literal, statement ends early: "
        "'4 1 a 2 3'",
        id="condition_literal_end"),
    pytest.param(
        "asp 1 0 0\n4 1 a 1 3 4\n0\n", TruncatedStatement,
        "line 2: trailing tokens '4' after statement",
        id="output_trailing"),
    pytest.param(
        "asp 1 0 0\n5 x 2\n0\n", TruncatedStatement,
        "line 2: expected integer atom, got 'x'",
        id="external_atom_token"),
    pytest.param(
        "asp 1 0 0\n5\n0\n", TruncatedStatement,
        "line 2: expected atom, statement ends early: '5'",
        id="external_atom_end"),
    pytest.param(
        "asp 1 0 0\n5 3 v\n0\n", TruncatedStatement,
        "line 2: expected integer external value, got 'v'",
        id="external_value_token"),
    pytest.param(
        "asp 1 0 0\n5 3\n0\n", TruncatedStatement,
        "line 2: expected external value, statement ends early: '5 3'",
        id="external_value_end"),
    pytest.param(
        "asp 1 0 0\n5 3 2 1\n0\n", TruncatedStatement,
        "line 2: trailing tokens '1' after statement",
        id="external_trailing"),
    pytest.param(
        "asp 1 0 0\n1 7 x\n0\n", TruncatedStatement,
        "line 2: unknown head type 7",
        id="first_error_wins"),
    pytest.param(
        "asp 1 0 0\n1 0 1 2 1 0 2 3 -1 4\n0\n", TruncatedStatement,
        "line 2: expected weight, statement ends early: '1 0 1 2 1 0 2 3 -1 4'",
        id="negative_weight_then_truncated"),
    pytest.param(
        "asp 1 0 0\n1 0 1 2 1 0 1 3 -1 9\n0\n", TruncatedStatement,
        "line 2: negative weight in a weight body",
        id="negative_weight_before_trailing"),
    pytest.param(
        "asp 1 0 0\n1 0 1 2 3 0 0 0\n0\n", TruncatedStatement,
        "line 2: unknown body type 3",
        id="unknown_body_type_before_trailing"),
]


@pytest.mark.parametrize("text, error, message", PARSE_ERRORS)
def test_parse_error_message(text, error, message):
    with pytest.raises(error) as info:
        parse_aspif(text)
    assert type(info.value) is error
    assert str(info.value) == message


# A negative count read nothing before, so these lines parsed as `:- .`, a
# fact, a rule with an empty weight body, and an output with no condition.
@pytest.mark.parametrize("line, what", [
    ("1 0 -1 0 0", "head atom count -1"),
    ("1 0 1 1 0 -2", "body literal count -2"),
    ("1 0 1 1 1 0 -3", "weight element count -3"),
    ("4 1 a -1", "condition literal count -1"),
])
def test_negative_count_is_rejected(line, what):
    with pytest.raises(TruncatedStatement) as info:
        parse_aspif(f"asp 1 0 0\n{line}\n0\n")
    assert str(info.value) == f"line 2: negative {what}"


def test_negative_symbol_length_is_rejected():
    # A negative length sliced from the end of the line: this line named
    # atom 7 "abc 1 " and parsed.
    with pytest.raises(TruncatedStatement) as info:
        parse_aspif("asp 1 0 0\n4 -3 abc 1 1 7\n0\n")
    assert str(info.value) == "line 2: negative symbol length -3"


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


def statement_types(program: AspifProgram) -> list:
    """The type of each statement, and of each rule's body."""
    return [(type(s), type(s.body) if isinstance(s, RuleStatement) else None)
            for s in program.statements]


def generated_texts():
    from test_shrink import families

    for path in sorted(DATA.glob("*.aspif")):
        yield path.read_text()
    for instance in (families.ring(30), families.loops(24, 11),
                     families.chain(64, True)):
        yield instance.text
    for seed in range(50):
        yield emit_aspif(oracle.random_program(seed).aspif)


def test_parse_files_as_a_hand_built_program_does():
    # The parser files each line from its integers; a program built from
    # the same statements files them by their type.
    for text in generated_texts():
        parsed = parse_aspif(text)
        built = AspifProgram(parsed.statements)
        assert parsed.statements == built.statements
        assert statement_types(parsed) == statement_types(built)
        assert filed_indexes(parsed) == filed_indexes(built)


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


@given(st.lists(st.one_of(normal_rules(), weight_rules(), outputs()),
                max_size=12))
def test_one_pass_load_of_any_statements(statements):
    program = AspifProgram(list(statements))
    assert filed_indexes(program) == walked_indexes(program)
    parsed = parse_aspif(emit_aspif(program))
    assert filed_indexes(parsed) == walked_indexes(parsed)


class _Fields:
    """The whitespace-separated integer fields of one line, for a line the
    positional reads reject.

    The tokens are converted at once; ``ints`` holds them all, or, if one is
    not an integer, the integers before it.  Readers take fields by position
    and in field order, and a read past ``ints`` raises the error of that
    first missing or non-integer field, so the message is built only when a
    line fails.
    """

    __slots__ = ("tokens", "line", "lineno", "ints")

    def __init__(self, tokens: list[str], line: str, lineno: int):
        self.tokens = tokens
        self.line = line
        self.lineno = lineno
        try:
            self.ints = tuple(map(int, tokens))
        except ValueError:
            ints = []
            for token in tokens:
                try:
                    ints.append(int(token))
                except ValueError:
                    break
            self.ints = tuple(ints)

    def missing(self, what: str) -> TruncatedStatement:
        """The error of reading ``what`` just past the integer prefix."""
        pos = len(self.ints)
        if pos < len(self.tokens):
            return TruncatedStatement(
                f"line {self.lineno}: expected integer {what}, "
                f"got {self.tokens[pos]!r}")
        return TruncatedStatement(
            f"line {self.lineno}: expected {what}, statement ends early: "
            f"{self.line!r}")

    def take(self, pos: int, what: str) -> int:
        if pos < len(self.ints):
            return self.ints[pos]
        raise self.missing(what)

    def count(self, pos: int, what: str) -> int:
        if pos >= len(self.ints):
            raise self.missing(what)
        n = self.ints[pos]
        if n < 0:
            raise TruncatedStatement(f"line {self.lineno}: negative {what} {n}")
        return n

    def span(self, pos: int, end: int, what: str) -> tuple[int, ...]:
        if end > len(self.ints):
            raise self.missing(what)
        return self.ints[pos:end]

    def finish(self, pos: int) -> None:
        if pos != len(self.tokens):
            extra = " ".join(self.tokens[pos:])
            raise TruncatedStatement(
                f"line {self.lineno}: trailing tokens {extra!r} after statement")


def _read_rule(fields: _Fields) -> RuleStatement:
    # Field 0 is the tag.
    head_type = fields.take(1, "head type")
    if head_type not in (HEAD_DISJUNCTIVE, HEAD_CHOICE):
        raise TruncatedStatement(
            f"line {fields.lineno}: unknown head type {head_type}")
    pos = 3 + fields.count(2, "head atom count")
    head = fields.span(3, pos, "head atom")
    body_type = fields.take(pos, "body type")
    if body_type == BODY_NORMAL:
        end = pos + 2 + fields.count(pos + 1, "body literal count")
        body: NormalBody | WeightBody = NormalBody(
            fields.span(pos + 2, end, "body literal"))
    elif body_type == BODY_WEIGHT:
        lower = fields.take(pos + 1, "lower bound")
        start = pos + 3
        end = start + 2 * fields.count(pos + 2, "weight element count")
        ints = fields.ints
        if end > len(ints):
            raise fields.missing(
                "weight" if (len(ints) - start) % 2 else "weight literal")
        weights = ints[start + 1:end:2]
        if any(weight < 0 for weight in weights):
            raise TruncatedStatement(
                f"line {fields.lineno}: negative weight in a weight body")
        body = WeightBody(lower, tuple(zip(ints[start:end:2], weights)))
    else:
        raise TruncatedStatement(
            f"line {fields.lineno}: unknown body type {body_type}")
    fields.finish(end)
    return RuleStatement(head_type, head, body)


def reference_parse_line(line: str, lineno: int = 2):
    """The statement of a rule, output or external line, or the error of its
    first faulty field, read field by field by a cursor over the integer
    prefix: the reader the parser used for any line its positional read
    rejected, kept as the reference of the one positional reader."""
    tokens = line.split()
    tag = tokens[0]
    if tag == "1":
        return _read_rule(_Fields(tokens, line, lineno))
    if tag == "4":
        rest = line.split(None, 2)
        if len(rest) < 3:
            raise TruncatedStatement(
                f"line {lineno}: output statement too short: {line!r}")
        try:
            length = int(rest[1])
        except ValueError:
            raise TruncatedStatement(
                f"line {lineno}: bad symbol length {rest[1]!r}") from None
        if length < 0:
            raise TruncatedStatement(
                f"line {lineno}: negative symbol length {length}")
        tail = rest[2]
        if len(tail) < length:
            raise TruncatedStatement(
                f"line {lineno}: symbol shorter than declared length")
        symbol, tail = tail[:length], tail[length:]
        fields = _Fields(tail.split(), line, lineno)
        end = 1 + fields.count(0, "condition literal count")
        condition = fields.span(1, end, "condition literal")
        fields.finish(end)
        return OutputStatement(symbol, condition)
    assert tag == "5"
    fields = _Fields(tokens, line, lineno)
    atom = fields.take(1, "atom")
    value = fields.take(2, "external value")
    fields.finish(3)
    return ExternalStatement(atom, value)


VALID_LINES = (
    "1 0 1 2 0 2 3 -4",
    "1 1 2 2 3 0 0",
    "1 0 0 0 1 -5",
    "1 0 1 2 1 1 2 3 1 -4 2",
    "1 1 1 6 1 0 1 7 0",
    "4 1 a 1 3",
    "4 4 p(1) 0",
    "5 3 2",
)
EDIT_TOKENS = ("0", "1", "2", "-1", "-3", "7", "99", "x", "y")


@st.composite
def edited_lines(draw):
    """A valid line with one to three token edits after its tag."""
    tokens = draw(st.sampled_from(VALID_LINES)).split()
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(
            ("truncate", "replace", "insert", "delete", "append")))
        pos = draw(st.integers(1, len(tokens)))
        token = draw(st.sampled_from(EDIT_TOKENS))
        if edit == "truncate":
            del tokens[pos:]
        elif edit == "insert":
            tokens.insert(pos, token)
        elif edit == "append":
            tokens.append(token)
        elif pos < len(tokens):
            if edit == "replace":
                tokens[pos] = token
            else:
                del tokens[pos]
    return " ".join(tokens)


def outcome(read, line):
    """What ``read`` makes of ``line``: the statement with its type and
    its body's type, or the error's type and message."""
    try:
        stmt = read(line)
    except TruncatedStatement as error:
        return type(error), str(error)
    return type(stmt), type(getattr(stmt, "body", None)), stmt


def parse_line(line: str):
    return parse_aspif(f"asp 1 0 0\n{line}\n0\n").statements[0]


@settings(max_examples=1500, derandomize=True, deadline=None, database=None)
@given(edited_lines())
def test_parse_matches_the_field_reader(line):
    assert outcome(parse_line, line) == outcome(reference_parse_line, line)
