"""Node vocabulary for support tables and explanation graphs.

A node is a (kind, payload) named tuple, so it hashes and compares by its
fields in C.  Payloads hold display names, not atom ids, so tables and
graphs can be rendered and serialized without the program they came from.
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

_FIXED_LABELS = {
    ASSUME: ("assume", "assume"),
    PLUS_CHOICE: ("+choice", "+choice"),
    MINUS_CHOICE: ("-choice", "-choice"),
    STAR_TRUE: ("*True", "*True"),
    STAR_EMPTY: ("*Empty", "*Empty"),
    TOP: ("⊤", "T"),
    BOTTOM: ("⊥", "F"),
}


class ENode(NamedTuple):
    kind: str
    payload: tuple = ()
    # Set on nodes rebuilt from serialized graphs, where only the rendered
    # label survives.
    label_override: str | None = None

    def render(self, ascii_only: bool = False) -> str:
        if self.label_override is not None:
            return self.label_override
        if self.kind in _FIXED_LABELS:
            pretty, plain = _FIXED_LABELS[self.kind]
            return plain if ascii_only else pretty
        if self.kind == ATOM:
            return self.payload[0]
        if self.kind == NEG_ATOM:
            return "~" + self.payload[0]
        if self.kind == TUPLE:
            return _render_tuple(self.payload)
        if self.kind == CHOICE:
            return _render_bounds(self.payload)
        if self.kind == NEG_CHOICE:
            return "~(" + _render_bounds(self.payload) + ")"
        if self.kind == CONSTRAINT:
            return "triggered_constraint(%s)" % _render_lit(self.payload[0])
        raise ValueError(f"unknown node kind {self.kind!r}")

    def sort_key(self) -> tuple:
        return (_KIND_RANK[self.kind], self.render())


def _render_lit(item: tuple[str, bool]) -> str:
    name, positive = item
    return name if positive else "~" + name


def _render_tuple(items: tuple) -> str:
    parts = [name if positive else "not " + name for name, positive in items]
    if len(parts) == 1:
        return parts[0]
    return "(" + ", ".join(parts) + ")"


def _render_bounds(payload: tuple) -> str:
    lower, upper, tuples = payload
    inner = "{" + ", ".join(_render_tuple(t) for t in tuples) + "}"
    if upper is None:
        return f"{lower}<={inner}"
    return f"{lower}<={inner}<={upper}"


def atom_node(name: str) -> ENode:
    return ENode(ATOM, (name,))


def neg_atom_node(name: str) -> ENode:
    return ENode(NEG_ATOM, (name,))


def literal_node(name: str, positive: bool) -> ENode:
    return atom_node(name) if positive else neg_atom_node(name)


def top_node() -> ENode:
    return ENode(TOP)


def bottom_node() -> ENode:
    return ENode(BOTTOM)


def assume_node() -> ENode:
    return ENode(ASSUME)


def plus_choice_node() -> ENode:
    return ENode(PLUS_CHOICE)


def minus_choice_node() -> ENode:
    return ENode(MINUS_CHOICE)


def star_true_node() -> ENode:
    return ENode(STAR_TRUE)


def star_empty_node() -> ENode:
    return ENode(STAR_EMPTY)


def tuple_node(items: tuple[tuple[str, bool], ...]) -> ENode:
    return ENode(TUPLE, tuple(items))


def choice_node(lower: int, upper: int | None,
                tuples: tuple[tuple, ...], positive: bool = True) -> ENode:
    kind = CHOICE if positive else NEG_CHOICE
    return ENode(kind, (lower, upper, tuple(tuples)))


def constraint_node(name: str, positive: bool) -> ENode:
    return ENode(CONSTRAINT, ((name, positive),))


def edge_label(target: ENode) -> str:
    return EDGE_LABEL[target.kind]


def sorted_nodes(nodes) -> list[ENode]:
    return sorted(nodes, key=ENode.sort_key)
