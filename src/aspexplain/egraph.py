"""Explanation graphs: merge support tables, build, validate, serialize.

The rule-support and constraint-support tables are merged key-wise into a
single table E.  An explanation graph for a literal picks exactly one
supported set per reachable node; edge labels follow the target node's
kind.  Cycle safety: after dropping the side-condition edges into
triggered-constraint nodes, every edge inside a strongly connected
component must be a minus edge, so positive support is acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from . import nodes
from .constraints import check_constraints, constraint_saviors
from .errors import NoValidGraph, UnknownLiteral
from .ground import _dedupe_sets
from .support import FactoredRow, _merge_expansion, check_rules, er_row

DEFAULT_MAX_GRAPHS = 64


class EEdge(NamedTuple):
    source: nodes.ENode
    target: nodes.ENode
    label: str


@dataclass(eq=False)
class ExplanationGraph:
    root: nodes.ENode
    nodes: tuple[nodes.ENode, ...]
    edges: tuple[EEdge, ...]
    _doc_cache: dict | None = field(default=None, repr=False)

    def doc(self) -> dict:
        """Serializable form; also the basis of structural equality."""
        if self._doc_cache is None:
            import hashlib

            ids = {
                n: hashlib.sha1(
                    (n.kind + "\x00" + n.label).encode()).hexdigest()[:12]
                for n in self.nodes
            }
            self._doc_cache = {
                "root": ids[self.root],
                "nodes": [
                    {"id": ids[n], "kind": n.kind, "label": n.label}
                    for n in self.nodes
                ],
                "edges": [
                    {"from": ids[e.source], "to": ids[e.target],
                     "label": e.label}
                    for e in self.edges
                ],
            }
        return self._doc_cache

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExplanationGraph):
            return NotImplemented
        return self.doc() == other.doc()


def merge_supports(er: dict, ec: dict) -> dict:
    """Key-wise merge: shared keys take the pairwise union product.

    A FactoredRow stays factored: the one set of a literal's E_c row, its
    triggered_constraint node, which is in no E_r set, joins it as one
    more factor."""
    merged: dict[nodes.ENode, list[frozenset]] = {}
    for key in list(er) + [k for k in ec if k not in er]:
        left = er.get(key)
        right = ec.get(key)
        if left is None or right is None:
            combined = left if left is not None else right
        elif isinstance(left, FactoredRow) and len(right) == 1:
            combined = left.joined(right[0])
        else:
            combined = [r | c for r in left for c in right]
        merged[key] = combined if isinstance(combined, FactoredRow) \
            else _dedupe_sets(combined)
    return merged


_LITERAL_KINDS = (nodes.ATOM, nodes.NEG_ATOM)
_ASSUMED = (frozenset({nodes.assume_node()}),)  # the support of an assumed ~X
_UNBUILT = object()  # a row not built yet; a built row may be None


class SupportTable:
    """The table merge_supports(build_er(g, A), constraint_preprocessing(g,
    A)) builds, with each row built when it is first read.

    A literal's row is its E_r row; where the literal L holds in constraint
    bodies, each set also holds triggered_constraint(L), whose row takes
    one savior from each of those bodies, in constraint order.  A choice or
    tuple row depends only on its key and is stored when a row holding the
    node is built.  Building the table raises the first reconstruction
    error the full build would raise, so a query fails as the full build
    does.
    """

    def __init__(self, g, A: frozenset[int]):
        check_rules(g, A)
        check_constraints(g, A)
        self._g = g
        self._A = A
        self._index = g.constraint_index
        self._rows: dict = {}

    def get(self, node: nodes.ENode, default=None):
        row = self._row(node)
        return default if row is None else row

    def __contains__(self, node: nodes.ENode) -> bool:
        return self._row(node) is not None

    def items(self):
        """The rows built so far, as (key, row) pairs."""
        return [(key, row) for key, row in self._rows.items()
                if row is not None]

    def _holding(self, name: str, positive: bool) -> int | None:
        """The signed id of a named literal that holds under A, or None."""
        try:
            aid = self._g.atom_id(name)
        except UnknownLiteral:
            return None
        if (aid in self._A) != positive:
            return None
        return aid if positive else -aid

    def _row(self, node: nodes.ENode):
        """The row of ``node``, None if it is not a key."""
        row = self._rows.get(node, _UNBUILT)
        if row is not _UNBUILT:
            return row
        kind = node.kind
        if kind == nodes.CONSTRAINT:
            row = self._constraint_row(*node.payload[0])
        elif kind in _LITERAL_KINDS:
            row = self._literal_row(node)
        else:
            return None
        self._rows[node] = row
        return row

    def _literal_row(self, node: nodes.ENode):
        name, positive = node.payload[0], node.kind == nodes.ATOM
        lit = self._holding(name, positive)
        if lit is None:
            return None
        expansion: dict = {}
        _, row = er_row(self._g, self._A, abs(lit), expansion)
        _merge_expansion(self._rows, expansion)
        if lit not in self._index:
            return row
        tc = frozenset({nodes.constraint_node(name, positive)})
        if isinstance(row, FactoredRow):
            return row.joined(tc)
        return _dedupe_sets([s | tc for s in row])

    def _constraint_row(self, name: str, positive: bool):
        bodies = self._index.get(self._holding(name, positive))
        if bodies is None:
            return None
        rows = [frozenset()]
        for rule, body in bodies:
            _, saviors, expansion = constraint_saviors(self._g, self._A,
                                                       rule, body)
            _merge_expansion(self._rows, expansion)
            rows = [c | {s} for c in rows for s in saviors]
        return _dedupe_sets(rows)


def build_egraph(e: dict, u, root: nodes.ENode,
                 max_graphs: int = DEFAULT_MAX_GRAPHS) -> list[ExplanationGraph]:
    """All valid explanation graphs for a literal, canonical one first;
    raises NoValidGraph when there is none."""
    results = find_egraphs(e, u, root, max_graphs)
    if not results:
        joined = ", ".join(sorted(frozenset(u)))
        raise NoValidGraph(
            f"no valid explanation graph for {root.render()} "
            f"under assumed set {{{joined}}}")
    return results


def find_egraphs(e: dict, u, root: nodes.ENode,
                 max_graphs: int = DEFAULT_MAX_GRAPHS) -> list[ExplanationGraph]:
    """The graphs build_egraph gives, or [] when there is none."""
    assumed = frozenset(u)
    _check_root(e, root)
    results: list[ExplanationGraph] = []

    def options(node: nodes.ENode):
        if node.kind == nodes.NEG_ATOM and node.payload[0] in assumed:
            return _ASSUMED
        if node.kind == nodes.ATOM and node.payload[0] in assumed:
            return []
        return e.get(node, [])

    # Depth-first search over one support choice per pending node, with an
    # explicit stack so that long chains do not meet the recursion limit.
    # Not on ground.run_deep: a generator per node made minimal_assumption_sets
    # on the bench loops tables 15-25% slower (2-core Xeon, Python 3.11).
    # A frame holds a node, the nodes pending after it, and its untried
    # supports; the node is in ``chosen`` while a support of it is tried.
    chosen: dict[nodes.ENode, frozenset] = {}
    frames: list[tuple] = []
    pending: tuple = (root,)
    while True:
        if len(results) < max_graphs:
            while pending and (pending[0] in chosen
                               or pending[0].kind in nodes.TERMINAL_KINDS):
                pending = pending[1:]
            if pending:
                frames.append((pending[0], pending[1:],
                               iter(options(pending[0]))))
            else:
                graph = _assemble(root, chosen)
                if graph is not None:
                    results.append(graph)
        while frames:
            node, rest, supports = frames[-1]
            if node in chosen:
                del chosen[node]
                if len(results) >= max_graphs:
                    frames.pop()
                    continue
            support = next(supports, None)
            if support is None:
                frames.pop()
                continue
            chosen[node] = support
            if len(support) == 1:
                pending = rest + tuple(support)
            else:
                pending = rest + tuple(nodes.sorted_nodes(support))
            break
        else:
            break
    return results


def _check_root(e: dict, root: nodes.ENode) -> None:
    if root in e:
        return
    if root.kind in (nodes.ATOM, nodes.NEG_ATOM):
        name = root.payload[0]
        opposite = nodes.literal_node(name, root.kind == nodes.NEG_ATOM)
        if opposite in e:
            status = "true" if opposite.kind == nodes.ATOM else "false"
            raise UnknownLiteral(
                f"cannot explain {root.render()}: {name} is {status} in the "
                f"answer set; query {opposite.render()} instead")
    raise UnknownLiteral(
        f"cannot explain {root.render()}: not a literal of the program")


def _assemble(root: nodes.ENode, chosen: dict) -> ExplanationGraph | None:
    """The graph of the chosen supports, or None if it is not cycle safe.
    The cycle test reads the edges unsorted, so a rejected candidate is
    never sorted."""
    label = nodes.EDGE_LABEL
    edges = [EEdge(source, target, label[target.kind])
             for source, support in chosen.items() for target in support]
    if not _cycle_safe(edges):
        return None
    node_set = {root, *chosen}
    node_set.update(edge.target for edge in edges)
    return _sorted_graph(root, node_set, edges)


def _sorted_graph(root: nodes.ENode, node_set,
                  edges: list) -> ExplanationGraph:
    """The graph with nodes and edges in sort-key order."""
    key = nodes.ENode.sort_key
    edges.sort(key=lambda e: (key(e.source), key(e.target)))
    return ExplanationGraph(root, tuple(sorted(node_set, key=key)),
                            tuple(edges))


def _cycle_safe(edges) -> bool:
    """Inside any SCC of the non-diamond subgraph, only minus edges.

    Most graphs have no cycle (about three in four of those built while
    explaining even negative loops or small random programs, and every
    one on positive chains), which a Kahn pass shows in linear time; only
    a graph with a cycle goes on to Tarjan."""
    adjacency: dict[nodes.ENode, list[nodes.ENode]] = {}
    indegree: dict[nodes.ENode, int] = {}
    kept = []
    for edge in edges:
        source, target, label = edge
        if label == "diamond":
            continue
        kept.append(edge)
        adjacency.setdefault(source, []).append(target)
        indegree[target] = indegree.get(target, 0) + 1
    ready = [node for node in adjacency if node not in indegree]
    while ready:
        for target in adjacency.get(ready.pop(), ()):
            indegree[target] -= 1
            if not indegree[target]:
                ready.append(target)
    if not any(indegree.values()):
        return True
    component = _scc_index(adjacency)
    return all(
        edge.label == "minus"
        for edge in kept
        if component.get(edge.source) is not None
        and component.get(edge.source) == component.get(edge.target))


def _scc_index(adjacency: dict) -> dict:
    """Tarjan; maps each node to its component id, singletons excluded
    unless self-looped."""
    index: dict[nodes.ENode, int] = {}
    low: dict[nodes.ENode, int] = {}
    on_stack: set[nodes.ENode] = set()
    stack: list[nodes.ENode] = []
    component: dict[nodes.ENode, int] = {}
    comp_counter = 0

    for start in list(adjacency):
        if start in index:
            continue
        # Each frame is a node and the iterator over its remaining targets.
        # Frames, not ground.run_deep: a generator per node gained nothing
        # and measured up to 10% slower (minimal_assumption_sets on the
        # bench loops tables).
        index[start] = low[start] = len(index)
        stack.append(start)
        on_stack.add(start)
        frames = [(start, iter(adjacency.get(start, ())))]
        while frames:
            v, targets = frames[-1]
            for w in targets:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    frames.append((w, iter(adjacency.get(w, ()))))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    members = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        members.append(w)
                        if w == v:
                            break
                    if len(members) > 1 or v in adjacency.get(v, ()):
                        for w in members:
                            component[w] = comp_counter
                        comp_counter += 1
    return component


def validate_egraph(g: ExplanationGraph, e: dict, u) -> bool:
    assumed = frozenset(u)
    node_set = set(g.nodes)
    if g.root not in node_set:
        return False
    out: dict[nodes.ENode, set[nodes.ENode]] = {}
    for edge in g.edges:
        if edge.source not in node_set or edge.target not in node_set:
            return False
        if edge.label != nodes.edge_label(edge.target):
            return False
        out.setdefault(edge.source, set()).add(edge.target)
    for name in assumed:
        if nodes.atom_node(name) in node_set:
            return False
        neg = nodes.neg_atom_node(name)
        if neg in node_set and out.get(neg) != {nodes.assume_node()}:
            return False
    for node in node_set:
        if node.kind in nodes.TERMINAL_KINDS:
            if node in out:
                return False
            continue
        if node.kind == nodes.NEG_ATOM and node.payload[0] in assumed:
            continue
        neighbors = frozenset(out.get(node, ()))
        if not neighbors:
            return False
        if not any(neighbors == frozenset(s) for s in e.get(node, [])):
            return False
    reached = {g.root}
    frontier = [g.root]
    while frontier:
        for target in out.get(frontier.pop(), ()):
            if target not in reached:
                reached.add(target)
                frontier.append(target)
    if reached != node_set:
        return False
    return _cycle_safe(g.edges)


_DOT_STYLE = {
    "plus": "[style=solid]",
    "minus": "[style=dashed]",
    "circ": "[style=dotted]",
    "bullet": "[style=dotted, color=orange]",
    "diamond": "[style=dotted, color=green]",
    "oplus": "[style=solid, color=blue]",
    "oslash": "[style=solid, color=gray]",
}


def _quote(label: str) -> str:
    return '"' + label.replace('"', '\\"') + '"'


def to_dot(g: ExplanationGraph, ascii_only: bool = False) -> str:
    """Graphviz text.  DOT names a node by its label, so where two nodes of
    the graph render alike (a one-element tuple renders like its atom),
    each after the first is named with its kind added, as ``a (tuple)``,
    and added again until the name is free."""
    lines = ["digraph explanation {"]
    names: dict[nodes.ENode, str] = {}
    taken: set[str] = set()
    for node in g.nodes:
        label = node.render(ascii_only)
        while label in taken:
            label = f"{label} ({node.kind})"
        taken.add(label)
        names[node] = _quote(label)
        lines.append(f"  {names[node]};")
    for edge in g.edges:
        lines.append(
            f"  {names[edge.source]} -> {names[edge.target]} "
            f"{_DOT_STYLE[edge.label]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(g: ExplanationGraph) -> str:
    import json

    return json.dumps(g.doc(), sort_keys=True, indent=2) + "\n"


def egraph_from_json(text: str) -> ExplanationGraph:
    import json

    doc = json.loads(text)
    by_id = {entry["id"]: nodes.ENode(entry["kind"], (), entry["label"])
             for entry in doc["nodes"]}
    edges = [
        EEdge(by_id[entry["from"]], by_id[entry["to"]], entry["label"])
        for entry in doc["edges"]]
    return _sorted_graph(by_id[doc["root"]], by_id.values(), edges)
