"""Node vocabulary for support tables and explanation graphs.

A node is a (kind, payload, label) named tuple, so it hashes and compares
by its fields in C.  Payloads hold display names, not atom ids, so tables
and graphs can be rendered and serialized without the program they came
from.  Each constructor below computes the label once, when it makes the
node, and the seven terminal nodes are the ``*_NODE`` constants, made at
import; a node rebuilt from JSON takes the label that was serialized.
Rendering returns the label, except that ``⊤`` and ``⊥`` read ``T`` and
``F`` in ASCII, and nodes sort by the rank of their kind, then by label,
then by payload, so two nodes that render alike still sort the same way
in every process.
"""

from __future__ import annotations

from typing import NamedTuple

ATOM = "atom"
NEG_ATOM = "neg_atom"
TOP = "top"
BOTTOM = "bottom"
ASSUME = "assume"
PLUS_CHOICE = "plus_choice"
MINUS_CHOICE = "minus_choice"
STAR_TRUE = "star_true"
STAR_EMPTY = "star_empty"
TUPLE = "tuple"
CHOICE = "choice_pos"
NEG_CHOICE = "choice_neg"
CONSTRAINT = "triggered_constraint"

TERMINAL_KINDS = frozenset(
    {TOP, BOTTOM, ASSUME, PLUS_CHOICE, MINUS_CHOICE, STAR_TRUE, STAR_EMPTY})

# Edge labels are a function of the target node's kind.
EDGE_LABEL = {
    ATOM: "plus",
    NEG_ATOM: "minus",
    TOP: "circ",
    BOTTOM: "circ",
    ASSUME: "circ",
    PLUS_CHOICE: "bullet",
    MINUS_CHOICE: "bullet",
    CONSTRAINT: "diamond",
    STAR_TRUE: "oplus",
    STAR_EMPTY: "oslash",
    TUPLE: "plus",
    CHOICE: "plus",
    NEG_CHOICE: "minus",
}

_KIND_RANK = {
    ATOM: 0, NEG_ATOM: 1, CHOICE: 2, NEG_CHOICE: 3, TUPLE: 4, CONSTRAINT: 5,
    PLUS_CHOICE: 6, MINUS_CHOICE: 7, STAR_TRUE: 8, STAR_EMPTY: 9,
    TOP: 10, BOTTOM: 11, ASSUME: 12,
}

_ASCII_LABELS = {TOP: "T", BOTTOM: "F"}


class ENode(NamedTuple):
    kind: str
    payload: tuple
    label: str

    def render(self, ascii_only: bool = False) -> str:
        if ascii_only and self.kind in _ASCII_LABELS:
            return _ASCII_LABELS[self.kind]
        return self.label

    def sort_key(self) -> tuple:
        return (_KIND_RANK[self.kind], self.label, self.payload)


def _render_tuple(items: tuple) -> str:
    parts = [name if positive else "not " + name for name, positive in items]
    if len(parts) == 1:
        return parts[0]
    return "(" + ", ".join(parts) + ")"


def atom_node(name: str) -> ENode:
    return ENode(ATOM, (name,), name)


def neg_atom_node(name: str) -> ENode:
    return ENode(NEG_ATOM, (name,), "~" + name)


def literal_node(name: str, positive: bool) -> ENode:
    return atom_node(name) if positive else neg_atom_node(name)


TOP_NODE = ENode(TOP, (), "⊤")
BOTTOM_NODE = ENode(BOTTOM, (), "⊥")
ASSUME_NODE = ENode(ASSUME, (), "assume")
PLUS_CHOICE_NODE = ENode(PLUS_CHOICE, (), "+choice")
MINUS_CHOICE_NODE = ENode(MINUS_CHOICE, (), "-choice")
STAR_TRUE_NODE = ENode(STAR_TRUE, (), "*True")
STAR_EMPTY_NODE = ENode(STAR_EMPTY, (), "*Empty")


def tuple_node(items: tuple[tuple[str, bool], ...]) -> ENode:
    items = tuple(items)
    return ENode(TUPLE, items, _render_tuple(items))


def choice_node(lower: int, upper: int | None,
                tuples: tuple[tuple, ...], positive: bool = True) -> ENode:
    tuples = tuple(tuples)
    inner = "{" + ", ".join(_render_tuple(t) for t in tuples) + "}"
    label = f"{lower}<={inner}" if upper is None \
        else f"{lower}<={inner}<={upper}"
    if positive:
        return ENode(CHOICE, (lower, upper, tuples), label)
    return ENode(NEG_CHOICE, (lower, upper, tuples), "~(" + label + ")")


def constraint_node(name: str, positive: bool) -> ENode:
    lit = name if positive else "~" + name
    return ENode(CONSTRAINT, ((name, positive),),
                 f"triggered_constraint({lit})")


def sorted_nodes(nodes) -> list[ENode]:
    return sorted(nodes, key=ENode.sort_key)
