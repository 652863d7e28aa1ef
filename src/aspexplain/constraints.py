"""Constraint preprocessing: the E_c table.

For every integrity constraint, the literals of its body that hold under
the answer set are the "violation" side; the body terms that fail are the
"saviors" that keep the constraint from firing.  Each violating literal is
annotated with a triggered_constraint node whose supports are the saviors.
A savior is a failing body term, read as a false atom's rule falsifier is
read in E_r: a literal that fails, or the bound node of a folded choice
occurrence whose bound test fails in the positive body or holds in the
negative body.
"""

from __future__ import annotations

from . import nodes
from .errors import UnviolableConstraint
from .ground import ChoiceAtomSpec, GroundProgram, GroundRule, _dedupe_sets
from .support import _merge_expansion, _term_true_options


def constraint_saviors(g: GroundProgram, A: frozenset[int], rule: GroundRule,
                      body: frozenset[int]):
    """The violating literals of one resolved constraint body under A, its
    saviors, and the table rows of the bound nodes among them.

    The saviors are the negations of the body literals that fail, in node
    order, then the bound nodes of the choice occurrences that fail, in
    body order: positive body, then negative body.  Raises
    UnviolableConstraint when there is none.
    """
    violation: list[int] = []
    support: list[int] = []
    for lit in sorted(body, key=lambda l: g.lit_node(l).sort_key()):
        if g.lit_holds(lit, A):
            violation.append(lit)
        else:
            support.append(-lit)

    choice_support: list[nodes.ENode] = []
    expansion: dict = {}
    for terms, positive in ((rule.pos_body, False), (rule.neg_body, True)):
        for term in terms:
            if isinstance(term, ChoiceAtomSpec):
                for option in _term_true_options(g, term, positive, A,
                                                 expansion):
                    choice_support.extend(option)

    if not support and not choice_support:
        raise UnviolableConstraint(
            f"constraint \"{g.rule_text(rule)}\" fires under the given "
            "interpretation; it is not an answer set")
    saviors = [g.lit_node(lit) for lit in support] + choice_support
    return violation, saviors, expansion


def constraint_preprocessing(g: GroundProgram, A: frozenset[int]):
    """Build E_c for every constraint of the program under A.

    Each violating literal L gets the row {triggered_constraint(L)}, whose
    own row takes one savior from each body that L violates.
    """
    ec: dict[nodes.ENode, list[frozenset[nodes.ENode]]] = {}
    for rule in g.constraints():
        for body in g.constraint_bodies(rule):
            violation, saviors, expansion = constraint_saviors(g, A, rule,
                                                               body)
            if not violation:
                continue
            for lit in violation:
                tc = nodes.constraint_node(g.display_atom(abs(lit)), lit > 0)
                ec.setdefault(g.lit_node(lit), []).append(frozenset({tc}))
                prior = ec.get(tc, [frozenset()])
                ec[tc] = [c | {s} for c in prior for s in saviors]
            _merge_expansion(ec, expansion)
    return {key: _dedupe_sets(value) for key, value in ec.items()}
