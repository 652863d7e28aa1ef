"""Supported sets for true and false atoms under a given answer set.

The table maps literal nodes to rows: sequences of supported sets.  A true
atom gets one set per rule that derives it; a false atom gets the
cross-product of per-rule falsifiers, since its falsity must defeat every
rule at once.  That product is cut at its first _CROSS_CAP (4096) sets.
When the atom has two or more rules whose falsifier lists are antichains
that share no node, the product needs no minimise pass, and the row is a
FactoredRow: it keeps the lists and unions them only as it is iterated, so
a reader that takes its first set builds one union, not 4096.  Any other
row is a list.
Choice-atom occurrences contribute marker nodes (+choice/-choice, bound
nodes, tuples, *True/*Empty) alongside the plain literals.
"""

from __future__ import annotations

import itertools
import math

from . import nodes
from .errors import NoSupport
from .ground import (
    CHOICE,
    ChoiceAtomSpec,
    GroundProgram,
    GroundRule,
    _dedupe_sets,
    _minimize_sets,
    _union_product,
    alternative_holds,
)

_CROSS_CAP = 4096
_BOTTOM = frozenset({nodes.BOTTOM_NODE})


class FactoredRow:
    """A false atom's row kept as its factors, one falsifier list per rule.

    It stands for the list of the unions of one set from each factor, in
    product order (the first factor outermost), cut at _CROSS_CAP, with an
    empty union read as {⊥}.  It iterates that list, has its len() and
    equals it; ``total`` is the uncut size.  The factors must be disjoint
    antichains (_disjoint_antichains), so the unions are minimal and
    distinct.
    """

    __slots__ = ("factors", "total")
    __hash__ = None

    def __init__(self, factors):
        self.factors = tuple(factors)
        self.total = math.prod(map(len, self.factors))

    def __iter__(self):
        for combo in itertools.islice(itertools.product(*self.factors),
                                      _CROSS_CAP):
            yield frozenset().union(*combo) or _BOTTOM

    def __len__(self) -> int:
        return min(self.total, _CROSS_CAP)

    def __eq__(self, other):
        if isinstance(other, (FactoredRow, list)):
            return list(self) == list(other)
        return NotImplemented


def join_row(row, extra: frozenset):
    """``row`` with ``extra`` (a triggered_constraint node) added to each
    set: a list is unioned and deduped, and a FactoredRow, which must share
    no node with ``extra``, takes it as one more factor."""
    if not isinstance(row, FactoredRow):
        return _dedupe_sets([s | extra for s in row])
    if not any(map(any, row.factors)):
        # The one union is empty and reads as {⊥}, which the join keeps.
        extra = extra | _BOTTOM
    return FactoredRow((*row.factors, [extra]))


def _cross_union(option_lists) -> list[frozenset]:
    """Cross product of choices, unioned, in product order; the first
    _CROSS_CAP combinations only.  A single list under the cap is returned
    as it is, so callers must not change the result."""
    if len(option_lists) == 1 and len(option_lists[0]) <= _CROSS_CAP:
        return option_lists[0]
    return _union_product(option_lists, cap=_CROSS_CAP)


def choice_body_support(g: GroundProgram, x: ChoiceAtomSpec, A: frozenset[int],
                        positive: bool = True):
    """The node for a choice-atom occurrence plus its table expansion."""
    node = g.spec_node(x, positive)
    satisfied = g.satisfied_elements(x, A)
    expansion: dict = {}
    if satisfied:
        tuple_nodes = [g.tuple_node(e) for e in satisfied]
        expansion[node] = [frozenset(tuple_nodes)]
        for tn in tuple_nodes:
            expansion[tn] = [frozenset({nodes.STAR_TRUE_NODE})]
    else:
        expansion[node] = [frozenset({nodes.STAR_EMPTY_NODE})]
    return node, expansion


def _merge_expansion(table, expansion) -> None:
    for key, value in expansion.items():
        table.setdefault(key, value)


def _term_true_options(g, term, positive, A, expansion):
    """Ways the body term, or its negation when not ``positive``, holds
    under A, as node sets.  A named atom's literal resolves to itself, so
    it holds by membership in A, as its memoised g.lit_option; a hidden
    atom's holds as its resolved alternatives that hold."""
    if isinstance(term, ChoiceAtomSpec):
        if g.spec_holds(term, A) == positive:
            node, fragment = choice_body_support(g, term, A, positive)
            _merge_expansion(expansion, fragment)
            return [frozenset({node})]
        return []
    if term in g.named:
        return g.lit_option(term if positive else -term) \
            if (term in A) == positive else []
    return [frozenset(map(g.lit_node, alt))
            for alt in g.resolve_aux(term if positive else -term)
            if alternative_holds(alt, A)]


def _body_true_options(g, rule: GroundRule, A, expansion):
    """One supported set per way of satisfying the body; [] if unsatisfied.
    Every term is evaluated, so that the first error is the one the body
    order meets."""
    rule.check_interpreted()
    per_term = []
    for term in rule.pos_body:
        per_term.append(_term_true_options(g, term, True, A, expansion))
    for term in rule.neg_body:
        per_term.append(_term_true_options(g, term, False, A, expansion))
    return _cross_union(per_term)


def supported_sets_true(g: GroundProgram, A: frozenset[int], c: int,
                        expansion: dict | None = None):
    """Supported sets for an atom true in A, one per applicable rule.

    A choice rule adds +choice, or -choice for a false head, to each body
    option: the conditions of the head's choice element are literals of
    that body, so they are in it already.
    """
    expansion = {} if expansion is None else expansion
    sets: list[frozenset[nodes.ENode]] = []
    if c in g.facts:
        sets.append(frozenset({nodes.TOP_NODE}))
    for rule in g.rules_for_head(c):
        body_options = _body_true_options(g, rule, A, expansion)
        for option in body_options:
            if rule.kind == CHOICE:
                option = option | {nodes.PLUS_CHOICE_NODE}
            # An empty-bodied rule supports its head unconditionally.
            sets.append(option or frozenset({nodes.TOP_NODE}))
    if len(sets) > 1:
        sets = _dedupe_sets(sets)
    elif not sets:
        raise NoSupport(
            f"{g.display_atom(c)} is in the answer set but no rule supports "
            "it; the interpretation is not an answer set")
    return sets


def supported_sets_false(g: GroundProgram, A: frozenset[int], c: int,
                         expansion: dict | None = None):
    """Supported sets for an atom false in A: defeat every rule at once.

    Raises NoSupport when the atom is a fact or heads a non-choice rule
    whose body holds under A, which then is not an answer set.
    """
    expansion = {} if expansion is None else expansion
    if c in g.facts:
        raise NoSupport(
            f"{g.display_atom(c)} is a fact but not in the answer set; the "
            "interpretation is not an answer set")
    rules = g.rules_for_head(c)
    if not rules:
        return [_BOTTOM]
    per_rule = []
    for rule in rules:
        options: list[frozenset[nodes.ENode]] = []
        body_options = _body_true_options(g, rule, A, expansion)
        if rule.kind == CHOICE and body_options:
            # The body fires but this element was not chosen.
            for option in body_options:
                options.append(option | {nodes.MINUS_CHOICE_NODE})
        elif body_options:
            raise NoSupport(
                f"{g.display_atom(c)} is not in the answer set but the body "
                f"of \"{g.rule_text(rule)}\" holds; the interpretation is "
                "not an answer set")
        else:
            # A body fails through any one term that does not hold.
            for terms, positive in ((rule.pos_body, False),
                                    (rule.neg_body, True)):
                for term in terms:
                    options.extend(_term_true_options(g, term, positive, A,
                                                      expansion))
            options = _minimize_sets(options)
        per_rule.append(options)
    return _false_row(per_rule)


def _false_row(per_rule):
    """The row of a false atom from its rules' falsifier lists: the first
    _CROSS_CAP unions of their product, minimised, with an empty union read
    as {⊥}.  It is a FactoredRow when there are two or more lists and they are
    disjoint antichains, else a list."""
    disjoint = _disjoint_antichains(per_rule)
    if disjoint and len(per_rule) > 1:
        return FactoredRow(per_rule)
    combined = _cross_union(per_rule)
    if not disjoint:
        combined = _minimize_sets(combined)
    # Unconditional falsity renders with the same glyph as a missing rule.
    return [s or _BOTTOM for s in combined]


def _disjoint_antichains(per_rule) -> bool:
    """Whether each rule's falsifiers are distinct and none holds another,
    and no node occurs in the falsifiers of two rules.

    The product of such lists is minimal and has no duplicate, so
    _minimize_sets would return it unchanged.  Let S and T be two unions
    in it, of s_i and t_i from each list i.  The lists share no node, so
    the part of S within the nodes of list i is s_i, and that of T is t_i.
    If S is a subset of T, each s_i is a subset of t_i, and the list being
    an antichain of distinct sets, s_i is t_i.  So S and T come from the
    same combination and are the same set.  A prefix of the product, as
    _cross_union keeps, is minimal and duplicate-free too.
    """
    seen: set = set()
    total = 0
    for options in per_rule:
        members = set().union(*options)
        seen |= members
        total += len(members)
        if total != len(seen):
            return False
        if len(options) > 1 and _minimize_sets(options) != options:
            return False
    return True


def er_key_order(g: GroundProgram) -> list[int]:
    """Named atoms: rule heads in statement order, then facts in external
    statement order, then the rest in output order."""
    named = g.named
    heads = (h for rule in g.rules for h in rule.heads if h in named)
    facts = (s.atom for s in g.aspif.externals if s.atom in named)
    return list(dict.fromkeys(itertools.chain(heads, facts, named)))


def er_row(g: GroundProgram, A: frozenset[int], aid: int, expansion: dict):
    """The E_r key of a named atom, its literal under A, and its row; the
    rows of the choice and tuple nodes the row holds go to ``expansion``."""
    if aid in A:
        return g.lit_node(aid), supported_sets_true(g, A, aid, expansion)
    return g.lit_node(-aid), supported_sets_false(g, A, aid, expansion)


def build_er(g: GroundProgram, A: frozenset[int]):
    """The full supported-set table for every named atom."""
    table: dict[nodes.ENode, list[frozenset[nodes.ENode]]] = {}
    for aid in er_key_order(g):
        expansion: dict = {}
        key, value = er_row(g, A, aid, expansion)
        table[key] = value
        _merge_expansion(table, expansion)
    return table


def check_rules(g: GroundProgram, A: frozenset[int]) -> None:
    """Raise the first UnsupportedWeightBody, AuxCycle or
    ReconstructionError that build_er, then constraint_preprocessing,
    would raise, without building a row.

    build_er reads the rules of the named atoms in er_key_order (for atoms
    with rules, the index's key order), and each rule's terms in body
    order; constraint_preprocessing resolves each constraint's body, in
    order, and evaluates its choice occurrences when it has a resolved
    body.  An auxiliary atom raises when it is resolved: as a body
    literal, or, through lit_holds, as a literal of a choice element.  So
    only the rules marked ``can_raise`` are read, and in them only hidden
    literals and hidden occurrences.  Resolution is memoised per program,
    so the rows built later reuse it.
    """
    named = g.named
    for head, rules in g.index.items():
        for rule in rules if head in named else ():
            if rule.can_raise:
                rule.check_interpreted()
                for terms, sign in ((rule.pos_body, 1), (rule.neg_body, -1)):
                    for term in terms:
                        if isinstance(term, ChoiceAtomSpec):
                            if term.hidden:
                                g.satisfied_elements(term, A)
                        elif term not in named:
                            g.resolve_aux(sign * term)
    for rule in g.constraints():
        if rule.can_raise and g.constraint_bodies(rule):
            for term in (*rule.pos_body, *rule.neg_body):
                if isinstance(term, ChoiceAtomSpec) and term.hidden:
                    g.satisfied_elements(term, A)


def dump_table(table, ascii_only: bool = False) -> str:
    """Render a support table one ``key : [{...}, ...]`` line per key."""
    lines = []
    for key, value in table.items():
        rendered_sets = []
        for support in value:
            members = ", ".join(n.render(ascii_only)
                                for n in nodes.sorted_nodes(support))
            rendered_sets.append("{" + members + "}")
        lines.append(f"{key.render(ascii_only)} : [{', '.join(rendered_sets)}]")
    return "\n".join(lines)
