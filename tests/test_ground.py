import pytest

from aspexplain.aspif import HEAD_CHOICE, WeightBody, parse_aspif
from aspexplain.errors import (
    AuxCycle,
    DuplicateSymbol,
    MultiLiteralOutputCondition,
    ReconstructionError,
    UnknownLiteral,
    UnsupportedWeightBody,
)
from aspexplain.ground import CHOICE, CONSTRAINT, NORMAL, ChoiceAtomSpec, reconstruct
from aspexplain.oracle import check_answer_set, enumerate_answer_sets
from aspexplain.support import build_er, dump_table

from test_cli import DATA, MIXED_WEIGHT_PAIR, element_chain


def choice_specs(gp) -> list[ChoiceAtomSpec]:
    """The distinct choice-atom occurrences of the rules, in rule order."""
    return list(dict.fromkeys(
        t for r in gp.rules for t in r.pos_body + r.neg_body
        if isinstance(t, ChoiceAtomSpec)))


def build(body: str):
    return reconstruct(parse_aspif("asp 1 0 0\n" + body + "0\n"))


def er_rows(gp, names, atoms) -> list[str]:
    """The E_r rows of the given atoms under an answer set, as dump_table
    prints them."""
    table = dump_table(build_er(gp, gp.answer_from_names(names)))
    return [line for line in table.splitlines()
            if line.split(" : ")[0].lstrip("~") in atoms]


def test_p1_rule_count(p1):
    assert len(p1.rules) == 8


def test_p1_rule_kinds(p1):
    kinds = [r.kind for r in p1.rules]
    assert kinds.count(NORMAL) == 4
    assert kinds.count(CHOICE) == 2
    assert kinds.count(CONSTRAINT) == 2


def test_p1_rule_texts(p1):
    texts = [p1.rule_text(r) for r in p1.rules]
    assert "c :- not a." in texts
    assert "a :- not b, not c." in texts
    assert "b :- a, c." in texts
    assert "l(6) :- c." in texts
    assert ":- b, m(1)." in texts
    assert ":- l(6), not 1<={(m(1), n(1)), (m(2), n(2))}<=1." in texts


def test_p1_choice_rules(p1):
    choice = [r for r in p1.rules if r.kind == CHOICE]
    assert [p1.display_atom(r.heads[0]) for r in choice] == ["m(1)", "m(2)"]
    # Each element's condition n(i) is a literal of its rule's body.
    heads = {"m(1)", "m(2)"}
    assert er_rows(p1, ["c", "m(1)", "n(1)", "n(2)"], heads) == [
        "m(1) : [{c, n(1), +choice}]", "~m(2) : [{c, n(2), -choice}]"]
    assert er_rows(p1, ["c", "m(2)", "n(1)", "n(2)"], heads) == [
        "~m(1) : [{c, n(1), -choice}]", "m(2) : [{c, n(2), +choice}]"]


def test_p1_choice_spec(p1):
    assert len(choice_specs(p1)) == 1
    spec = choice_specs(p1)[0]
    assert spec.lower == 1 and spec.upper == 1
    rendered = p1.spec_node(spec).render()
    assert rendered == "1<={(m(1), n(1)), (m(2), n(2))}<=1"
    elements = [tuple(p1.display_atom(abs(l)) for l in e)
                for e in spec.elements]
    assert elements == [("m(1)", "n(1)"), ("m(2)", "n(2)")]
    assert [p1.display_atom(e[0]) for e in spec.elements] == ["m(1)", "m(2)"]


def test_p1_facts(p1):
    assert sorted(p1.display_atom(a) for a in p1.facts) == ["n(1)", "n(2)"]
    assert p1.atom_id("n(1)") in p1.facts


def test_p1_nant(p1):
    assert p1.nant_names() == ["a", "b", "c"]


def test_p1_index_partition(p1):
    assert sum(len(v) for v in p1.index.values()) == len(p1.rules)
    assert len(p1.constraints()) == 2
    assert len(p1.rules_for_head(p1.atom_id("m(1)"))) == 1


def test_p1_aux_resolution(p1):
    assert p1.resolve_aux(6) == [frozenset({p1.atom_id("c")})]
    assert p1.resolve_aux(-6) == [frozenset({-p1.atom_id("c")})]


def test_p1_evaluation(p1, p1_answer):
    c = p1.atom_id("c")
    assert p1.lit_holds(c, p1_answer)
    assert not p1.lit_holds(p1.atom_id("a"), p1_answer)
    assert p1.lit_holds(6, p1_answer)
    spec = choice_specs(p1)[0]
    assert p1.spec_holds(spec, p1_answer)
    sat = p1.satisfied_elements(spec, p1_answer)
    assert len(sat) == 1 and p1.display_atom(sat[0][0]) == "m(1)"
    assert not p1.spec_holds(spec, p1_answer | {p1.atom_id("m(2)")})


def test_rules_for_head_follow_statement_order():
    # h heads a normal rule, a choice rule and another normal rule.
    gp = build(
        "1 0 1 1 0 1 2\n"
        "1 1 1 1 0 0\n"
        "1 0 1 1 0 1 -2\n"
        "1 0 0 0 2 1 2\n"
        "4 1 h 1 1\n4 1 q 1 2\n"
    )
    rules = gp.rules_for_head(gp.atom_id("h"))
    assert [r.kind for r in rules] == [NORMAL, CHOICE, NORMAL]
    assert [r.statement_index for r in rules] == [0, 1, 2]
    assert [r.statement_index for r in gp.constraints()] == [3]


def test_unnamed_external_is_a_fact():
    gp = build("5 3 2\n1 0 1 1 0 1 3\n4 1 p 1 1\n")
    assert gp.lit_holds(3, frozenset()) and not gp.lit_holds(-3, frozenset())
    assert gp.resolve_aux(3) == [frozenset()]
    assert gp.resolve_aux(-3) == []


def test_positive_recursion_through_auxiliaries_fails_loudly():
    # l3 :- l4.  l4 :- l3.  l4 :- p.  l5 :- 2 { l3 = 1, p = 1 }.
    # {l6}.  l7 :- l6.
    gp = build(
        "1 0 1 3 0 1 4\n1 0 1 4 0 1 3\n1 0 1 4 0 1 1\n"
        "1 0 1 5 1 2 2 3 1 1 1\n1 1 1 6 0 0\n1 0 1 7 0 1 6\n"
        "4 1 p 1 1\n"
    )
    p = frozenset({1})
    # A hidden atom is read through resolve_aux, as in a rule body.
    for lit in (3, -3, 4, -4):
        with pytest.raises(AuxCycle, match=f"auxiliary atom {abs(lit)} is "
                                           "defined through itself"):
            gp.lit_holds(lit, p)
    with pytest.raises(UnsupportedWeightBody,
                       match="auxiliary atom 5 is defined by a weight body"):
        gp.lit_holds(5, p)
    with pytest.raises(ReconstructionError,
                       match="auxiliary atom 6 occurs in a choice head"):
        gp.lit_holds(7, p)


def reference_lit_holds(gp, lit: int, answer: frozenset[int]) -> bool:
    """Whether a literal holds under the named answer set, by walking the
    definitions of its hidden atoms, as lit_holds did before it read them
    through resolve_aux.

    A named atom holds iff it is in ``answer`` and an unnamed external
    always holds.  An auxiliary atom holds iff one of its definitions does,
    read in order; a weight body sums over every element, a normal body
    stops at its first literal that fails.  An atom met again below itself
    is false there, so on a definition cycle the walk can be wrong where
    resolve_aux raises AuxCycle.  The walk keeps an explicit stack of the
    definitions being read, so a deep auxiliary chain costs no recursion.
    """

    named = {s.condition[0] for s in gp.aspif.outputs}
    facts = {s.atom for s in gp.aspif.externals}

    def leaf_value(aid):
        if aid in named:
            return aid in answer
        return True if aid in facts else None

    def definitions_hold(aid):
        value = False
        for stmt in gp.aspif.definitions.get(aid, []):
            if stmt.head_type == HEAD_CHOICE:
                raise ReconstructionError(
                    f"auxiliary atom {aid} occurs in a choice head")
            if isinstance(stmt.body, WeightBody):
                total = 0
                for body_lit, weight in stmt.body.elements:
                    if (yield body_lit):
                        total += weight
                value = total >= stmt.body.lower
            else:
                value = True
                for body_lit in stmt.body.literals:
                    if not (yield body_lit):
                        value = False
                        break
            if value:
                break
        return value

    value = leaf_value(abs(lit))
    if value is not None:
        return value if lit > 0 else not value
    # The literals whose definitions are being read, innermost last.
    frames = [(lit, definitions_hold(abs(lit)))]
    path = {abs(lit)}
    holds = None
    while True:
        try:
            lit = frames[-1][1].send(holds)
        except StopIteration as stop:
            lit = frames.pop()[0]
            path.discard(abs(lit))
            value = stop.value
        else:
            aid = abs(lit)
            value = leaf_value(aid)
            if value is None:
                if aid not in path:
                    path.add(aid)
                    frames.append((lit, definitions_hold(aid)))
                    holds = None
                    continue
                value = False
        holds = value if lit > 0 else not value
        if not frames:
            return holds


# p.  {q}.  {s}.  l5 :- q.  l5 :- s.  t :- p, not l5.  r :- 1 <= {t = 1}.
# The element (p, not l5) negates a hidden atom with two definitions.
NEGATED_ELEMENT = (
    "asp 1 0 0\n1 0 1 1 0 0\n1 1 1 2 0 0\n1 1 1 3 0 0\n"
    "1 0 1 5 0 1 2\n1 0 1 5 0 1 3\n1 0 1 6 0 2 1 -5\n1 0 1 4 1 1 1 6 1\n"
    "4 1 p 1 1\n4 1 q 1 2\n4 1 s 1 3\n4 1 r 1 4\n0\n")


def acyclic_programs():
    """Programs with no definition cycle, each with the stride at which
    its auxiliary atoms are compared: the reference walk reads the chain
    below each atom again, so every auxiliary atom of the 2000-level
    element chain would cost it quadratic time."""
    for name in ("p1.aspif", "coloring.aspif"):
        yield (DATA / name).read_text(), 1
    yield element_chain(2000), 50
    yield NEGATED_ELEMENT, 1


def readable_atoms(gp) -> set[int]:
    """The atoms that resolve_aux reads: all but those defined through a
    weight body, as the folded bound tests of choice atoms are."""
    readable = set()
    for aid in sorted(gp.aspif.atom_ids):
        try:
            gp.resolve_aux(aid)
        except UnsupportedWeightBody:
            continue
        readable.add(aid)
    return readable


def test_lit_holds_matches_reference_walk():
    for text, stride in acyclic_programs():
        gp = reconstruct(parse_aspif(text))
        in_elements = {abs(lit) for spec in choice_specs(gp)
                       for element in spec.elements for lit in element}
        readable = readable_atoms(gp)
        assert readable >= in_elements
        hidden = sorted(readable - gp.named.keys() - in_elements)
        checked = gp.named.keys() | in_elements | set(hidden[::stride])
        models = enumerate_answer_sets(gp)
        assert models
        for model in models:
            answer = gp.answer_from_names(model)
            for aid in checked:
                for lit in (aid, -aid):
                    assert gp.lit_holds(lit, answer) \
                        == reference_lit_holds(gp, lit, answer), (model, lit)


def test_element_condition_reads_a_negated_hidden_atom():
    gp = reconstruct(parse_aspif(NEGATED_ELEMENT))
    spec = choice_specs(gp)[0]
    assert [gp.term_text(abs(l), l > 0) for l in spec.elements[0]] \
        == ["p", "not l(5)"]
    for names, holds in ((["p", "r"], True), (["p", "q"], False),
                         (["p", "s"], False)):
        assert gp.spec_holds(spec, gp.answer_from_names(names)) == holds


def test_unknown_atom_name(p1):
    with pytest.raises(UnknownLiteral):
        p1.atom_id("zzz")


def test_check_answer_set_reports_unknown_name(p1):
    with pytest.raises(UnknownLiteral) as err:
        check_answer_set(p1, ["zzz"])
    assert str(err.value) == "unknown atom 'zzz'"


def test_named_ids_follow_output_order():
    gp = build("1 0 1 3 0 1 1\n4 1 b 1 2\n4 1 c 1 3\n4 1 a 1 1\n")
    assert gp.named_ids() == [2, 3, 1]
    assert list(gp.named.items()) == [(2, "b"), (3, "c"), (1, "a")]


def test_display_atom_of_unnamed_atoms():
    # Atom 2 is an unnamed external, atom 3 a hidden atom, atom 9 unused.
    gp = build("1 0 1 3 0 1 2\n1 0 1 1 0 1 3\n5 2 2\n4 1 p 1 1\n")
    assert gp.facts == {2}
    assert [gp.display_atom(a) for a in (1, 2, 3, 9)] \
        == ["p", "l(2)", "l(3)", "l(9)"]


def test_duplicate_symbol_name():
    with pytest.raises(DuplicateSymbol) as err:
        build("4 1 a 1 1\n4 1 a 1 2\n")
    assert str(err.value) == "symbol 'a' named twice"


def test_atom_named_twice():
    with pytest.raises(DuplicateSymbol) as err:
        build("4 1 a 1 1\n4 1 b 1 1\n")
    assert str(err.value) == "atom 1 named twice ('a' and 'b')"


def test_output_condition_must_be_single_positive():
    with pytest.raises(MultiLiteralOutputCondition):
        build("4 1 p 2 1 2\n")
    with pytest.raises(MultiLiteralOutputCondition):
        build("4 1 p 1 -1\n")
    with pytest.raises(MultiLiteralOutputCondition):
        build("4 1 p 0\n")


def test_disjunctive_head_rejected():
    with pytest.raises(ReconstructionError):
        build("1 0 2 1 2 0 0\n4 1 p 1 1\n4 1 q 1 2\n")


def test_aux_cycle_detected():
    gp = build("1 0 1 2 0 1 3\n1 0 1 3 0 1 2\n1 0 1 1 0 1 2\n4 1 p 1 1\n")
    with pytest.raises(AuxCycle):
        gp.resolve_aux(2)


def test_aux_alternatives_resolve_disjunctively():
    # aux 4 is defined twice; aux 5 chains through it under negation.
    gp = build(
        "1 0 1 4 0 1 1\n"
        "1 0 1 4 0 2 2 -3\n"
        "1 0 1 5 0 1 4\n"
        "1 0 1 6 0 1 -4\n"
        "4 1 p 1 1\n4 1 q 1 2\n4 1 r 1 3\n4 1 h 1 6\n"
    )
    p, q, r = gp.atom_id("p"), gp.atom_id("q"), gp.atom_id("r")
    assert gp.resolve_aux(4) == [frozenset({p}), frozenset({q, -r})]
    assert sorted(gp.resolve_aux(-4), key=sorted) == sorted(
        [frozenset({-p, -q}), frozenset({-p, r})], key=sorted)


def test_lower_bound_only_weight_rule_folds():
    gp = build(
        "1 0 1 3 1 2 2 1 1 2 1\n"
        "1 0 0 0 1 3\n"
        "4 1 p 1 1\n4 1 q 1 2\n4 1 h 1 3\n"
    )
    rule = gp.rules_for_head(gp.atom_id("h"))[0]
    assert len(rule.pos_body) == 1
    spec = rule.pos_body[0]
    assert isinstance(spec, ChoiceAtomSpec)
    assert spec.lower == 2 and spec.upper is None
    assert gp.spec_node(spec).render() == "2<={p, q}"


def test_uniform_weights_scale_bounds():
    gp = build(
        "1 0 1 3 1 4 2 1 2 2 2\n"
        "4 1 p 1 1\n4 1 q 1 2\n4 1 h 1 3\n"
    )
    spec = gp.rules_for_head(gp.atom_id("h"))[0].pos_body[0]
    assert spec.lower == 2


def test_mixed_weights_stay_opaque_with_warning():
    gp = build(
        "1 0 1 3 1 2 2 1 1 2 2\n"
        "4 1 p 1 1\n4 1 q 1 2\n4 1 h 1 3\n"
    )
    rule = gp.rules_for_head(gp.atom_id("h"))[0]
    assert rule.raw_weight is not None
    assert any("mixes weights" in w for w in gp.warnings)
    assert "2<={" in gp.rule_text(rule)


def test_mixed_weight_bound_pair_warns_once_per_atom():
    # Folding ok reads lo's weight body again with hi's bound.
    gp = build(MIXED_WEIGHT_PAIR)
    assert gp.warnings == [
        f"weight body for atom {aid} mixes weights [1, 2]; kept opaque"
        for aid in (7, 8)]
    assert gp.rule_text(gp.constraints()[0]) == ":- not l(9)."


@pytest.mark.parametrize("rule, why", [
    ("1 0 1 3 1 1 1 -2 1", "has a negative element -2"),
    ("1 0 1 3 1 0 1 2 0", "has weight 0, below 1"),
    ("1 0 1 3 1 1 1 5 1",
     "has element 5, which is neither named nor a tuple atom"),
])
def test_every_opaque_weight_body_warns_once(rule, why):
    # The same statement twice is one (atom, body), so one warning.
    gp = build(f"{rule}\n{rule}\n4 1 p 1 2\n4 1 h 1 3\n")
    assert gp.warnings == [f"weight body for atom 3 {why}; kept opaque"]
    assert all(r.raw_weight is not None for r in gp.rules_for_head(3))


def test_constraint_weight_body_folds():
    # {c; d}.  :- 2 <= {c=1, d=1}.  :- 1 <= {(c, not d)}.
    gp = build("1 1 2 1 2 0 0\n1 0 0 1 2 2 1 1 2 1\n1 0 1 5 0 2 -2 1\n"
               "1 0 0 1 1 1 5 1\n4 1 c 1 1\n4 1 d 1 2\n")
    assert [gp.rule_text(r) for r in gp.rules] == [
        "{c, d}.", ":- 2<={c, d}.", ":- 1<={(c, not d)}."]
    assert all(r.raw_weight is None for r in gp.constraints())
    assert (gp.warnings, gp.nant) == ([], frozenset())


def test_opaque_constraint_weight_body_names_its_statement():
    # {c; d}.  :- 1 <= {c=1, d=2}.
    gp = build("1 1 2 1 2 0 0\n1 0 0 1 1 2 1 1 2 2\n4 1 c 1 1\n4 1 d 1 2\n")
    assert gp.warnings == ["weight body of the constraint from statement 1 "
                           "mixes weights [1, 2]; kept opaque"]
    assert gp.constraints()[0].raw_weight is not None


def test_coloring_choice_conditions(coloring, coloring_answer):
    c1r = coloring.atom_id("colored(1,red)")
    rules = coloring.rules_for_head(c1r)
    assert len(rules) == 1 and rules[0].kind == CHOICE
    names = [coloring.display_atom(a) for a in coloring_answer]
    assert er_rows(coloring, names, {f"colored(1,{c})"
                                     for c in ("red", "green", "blue")}) == [
        "colored(1,red) : [{color(red), node(1), +choice}]",
        "~colored(1,green) : [{color(green), node(1), -choice}]",
        "~colored(1,blue) : [{color(blue), node(1), -choice}]"]


def test_free_choice_conditions_from_siblings():
    # Two sibling choice statements with no bound machinery, and facts d,
    # cp and cq: each row holds its own rule's body, condition included.
    gp = build(
        "1 1 1 2 0 2 1 3\n"
        "1 1 1 4 0 2 1 5\n"
        "1 0 1 1 0 0\n1 0 1 3 0 0\n1 0 1 5 0 0\n"
        "4 1 d 1 1\n4 1 p 1 2\n4 2 cp 1 3\n4 1 q 1 4\n4 2 cq 1 5\n"
    )
    assert er_rows(gp, ["cp", "cq", "d", "p"], {"p", "q"}) == [
        "p : [{cp, d, +choice}]", "~q : [{cq, d, -choice}]"]
    assert er_rows(gp, ["cp", "cq", "d", "q"], {"p", "q"}) == [
        "~p : [{cp, d, -choice}]", "q : [{cq, d, +choice}]"]


def test_coloring_shape(coloring):
    kinds = [r.kind for r in coloring.rules]
    assert kinds.count(CHOICE) == 9
    assert kinds.count(CONSTRAINT) == 12
    assert len(choice_specs(coloring)) == 3
    for spec in choice_specs(coloring):
        assert (spec.lower, spec.upper) == (1, 1)
        assert len(spec.elements) == 3
    # Negation only occurs inside the folded bound tests, which do not count.
    assert coloring.nant_names() == []


def test_reconstruction_keeps_the_parsed_program(p1, p1_program):
    assert p1.aspif is p1_program


def test_each_choice_element_is_read_once(monkeypatch):
    # A bound pair `ok :- lo, not hi` folds the weight bodies of `lo` and
    # `hi`, which hold the same tuple atoms; each is read once.
    from test_shrink import families

    from aspexplain.ground import _ChoiceFolder

    reads = []
    element_for = _ChoiceFolder._element_for

    def counting(self, aid):
        reads.append(aid)
        return element_for(self, aid)

    monkeypatch.setattr(_ChoiceFolder, "_element_for", counting)
    reconstruct(parse_aspif(families.ring(30).text))
    assert len(reads) == len(set(reads)) == 90
