"""Constraint preprocessing: the E_c table.

For every integrity constraint, the literals of its body that hold under
the answer set are the "violation" side; the literals that fail are the
"saviors" that keep the constraint from firing.  Each violating literal is
annotated with a triggered_constraint node whose supports are the saviors.
A constraint whose body contains a folded choice occurrence contributes a
bound node as its savior when the bound test fails on the firing side.
"""

from __future__ import annotations

from . import nodes
from .errors import NotApplicable, UnviolableConstraint
from .ground import ChoiceAtomSpec, GroundProgram, GroundRule, _dedupe_sets
from .support import _merge_expansion, choice_body_support

POS_BODY = "pos_body"
NEG_BODY = "neg_body"


def classify_choice_support(g: GroundProgram, x: ChoiceAtomSpec, side: str,
                            A: frozenset[int]) -> nodes.ENode:
    """The bound node saving a constraint, per occurrence side.

    Raises NotApplicable when the occurrence does not falsify the body
    (the bound test holds on the side that would let the constraint fire).
    """
    in_bounds = g.spec_holds(x, A)
    if side == POS_BODY:
        if not in_bounds:
            return g.spec_node(x, positive=False)
    elif in_bounds:
        return g.spec_node(x, positive=True)
    raise NotApplicable(
        f"bound test {g.spec_node(x).render()} does not falsify the "
        f"constraint on side {side}")


def _choice_occurrences(rule: GroundRule) -> list[tuple[ChoiceAtomSpec, str]]:
    return [(t, POS_BODY) for t in rule.pos_body
            if isinstance(t, ChoiceAtomSpec)] \
        + [(t, NEG_BODY) for t in rule.neg_body
           if isinstance(t, ChoiceAtomSpec)]


def check_constraints(g: GroundProgram, A: frozenset[int]) -> None:
    """Raise the first UnsupportedWeightBody, AuxCycle or
    ReconstructionError that constraint_preprocessing would raise: each
    constraint's body is resolved, and its choice occurrences are evaluated
    when it has a resolved body."""
    for rule in g.constraints():
        if g.constraint_bodies(rule):
            for spec, _ in _choice_occurrences(rule):
                g.satisfied_elements(spec, A)


def constraint_saviors(g: GroundProgram, A: frozenset[int], rule: GroundRule,
                      body: frozenset[int]):
    """The violating literals of one resolved constraint body under A, its
    saviors, and the table rows of the bound nodes among them.

    The saviors are the negations of the body literals that fail, in node
    order, then the bound nodes of the choice occurrences that falsify the
    body.  Raises UnviolableConstraint when there is none.
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
    for spec, side in _choice_occurrences(rule):
        try:
            node = classify_choice_support(g, spec, side, A)
        except NotApplicable:
            continue
        _, fragment = choice_body_support(
            g, spec, A, positive=node.kind == nodes.CHOICE)
        _merge_expansion(expansion, fragment)
        choice_support.append(node)

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
