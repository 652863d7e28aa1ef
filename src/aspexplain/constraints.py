"""Constraint preprocessing: the E_c table.

For every integrity constraint, the literals of its body that hold under
the answer set are the "violation" side; the literals that fail are the
"saviors" that keep the constraint from firing.  Each violating literal is
annotated with a triggered_constraint node whose supports are the saviors.
A constraint whose body contains a folded choice occurrence contributes a
bound node as its savior when the bound test fails on the firing side.
"""

from __future__ import annotations

import itertools

from . import nodes
from .errors import NotApplicable, UnsupportedWeightBody, UnviolableConstraint
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


def _resolved_bodies(g: GroundProgram, rule: GroundRule):
    """Expand auxiliary body atoms into alternatives of named literals.

    Each alternative behaves like a separate constraint with the same
    choice occurrences.
    """
    if rule.raw_weight is not None:
        raise UnsupportedWeightBody(
            f"constraint from statement {rule.statement_index} kept opaque: "
            "heterogeneous weight body")
    per_term: list[list[frozenset[int]]] = []
    specs: list[tuple[ChoiceAtomSpec, str]] = []
    for term in rule.pos_body:
        if isinstance(term, ChoiceAtomSpec):
            specs.append((term, POS_BODY))
        else:
            per_term.append(g.resolve_aux(term))
    for term in rule.neg_body:
        if isinstance(term, ChoiceAtomSpec):
            specs.append((term, NEG_BODY))
        else:
            per_term.append(g.resolve_aux(-term))
    bodies = [frozenset()]
    for alternatives in per_term:
        bodies = [b | alt for b, alt in itertools.product(bodies, alternatives)]
    return _dedupe_sets(bodies), specs


def constraint_preprocessing(g: GroundProgram, A: frozenset[int]):
    """Build E_c for every constraint of the program under A."""
    ec: dict[nodes.ENode, list[frozenset[nodes.ENode]]] = {}
    for rule in g.constraints():
        bodies, specs = _resolved_bodies(g, rule)
        for body in bodies:
            _process_constraint(g, A, rule, body, specs, ec)
    return {key: _dedupe_sets(value) for key, value in ec.items()}


def _process_constraint(g, A, rule, body, specs, ec) -> None:
    violation: list[int] = []
    support: list[int] = []
    for lit in sorted(body, key=lambda l: g.lit_node(l).sort_key()):
        if g.lit_holds(lit, A):
            violation.append(lit)
        else:
            support.append(-lit)

    choice_support: list[nodes.ENode] = []
    expansion: dict = {}
    for spec, side in specs:
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
    if not violation:
        return

    saviors = [g.lit_node(lit) for lit in support] + choice_support
    for lit in violation:
        v_node = g.lit_node(lit)
        name = g.display_atom(abs(lit))
        tc = nodes.constraint_node(name, lit > 0)
        ec.setdefault(v_node, []).append(frozenset({tc}))
        prior = ec.get(tc, [frozenset()])
        ec[tc] = [c | {s} for c in prior for s in saviors]
    _merge_expansion(ec, expansion)
