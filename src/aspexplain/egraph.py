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
from .constraints import constraint_saviors
from .errors import NoValidGraph, UnknownLiteral
from .ground import _dedupe_sets
from .support import (FactoredRow, _merge_expansion, check_rules, er_row,
                      join_row)

DEFAULT_MAX_GRAPHS = 64


class EEdge(NamedTuple):
    source: nodes.ENode
    target: nodes.ENode
    label: str


_new = tuple.__new__  # makes an EEdge without its Python-level __new__


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

            ids = _distinct_names(
                self.nodes, lambda n: n.kind + "\x00" + n.label,
                lambda text: hashlib.sha1(text.encode()).hexdigest()[:12])
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

    Where the E_c row is one set, as a literal's triggered_constraint node
    is, join_row adds it, so a FactoredRow stays factored."""
    merged: dict[nodes.ENode, list[frozenset]] = {}
    for key in list(er) + [k for k in ec if k not in er]:
        left = er.get(key)
        right = ec.get(key)
        if left is None or right is None:
            row = left if left is not None else right
            merged[key] = row if isinstance(row, FactoredRow) \
                else _dedupe_sets(row)
        elif len(right) == 1:
            merged[key] = join_row(left, right[0])
        else:
            merged[key] = _dedupe_sets([r | c for r in left for c in right])
    return merged


_LITERAL_KINDS = (nodes.ATOM, nodes.NEG_ATOM)
_ASSUMED = (frozenset({nodes.ASSUME_NODE}),)  # the support of an assumed ~X
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
        if expansion:
            _merge_expansion(self._rows, expansion)
        if lit not in self._index:
            return row
        tc = nodes.constraint_node(name, positive)
        return join_row(row, frozenset({tc}))

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
    if max_graphs < 1:
        raise ValueError(f"max_graphs must be at least 1, not {max_graphs}")
    _check_root(e, root)
    label = nodes.EDGE_LABEL
    results: list[ExplanationGraph] = []
    for chosen in search_supports(e, u, root, {}):
        edges = [(source, target, label[target.kind])
                 for source, support in chosen.items() for target in support]
        results.append(_sorted_graph(
            root, {root, *chosen}.union(*chosen.values()), edges))
        if len(results) == max_graphs:
            break
    return results


def _sorted_graph(root: nodes.ENode, node_set, edges) -> ExplanationGraph:
    """The graph of (source, target, label) edges, its nodes sorted once
    and its edges by the positions of their ends."""
    order = nodes.sorted_nodes(node_set)
    at = {node: i for i, node in enumerate(order)}
    ranked = sorted([(at[source], at[target], label)
                     for source, target, label in edges])
    return ExplanationGraph(root, tuple(order), tuple([
        _new(EEdge, (order[i], order[j], label)) for i, j, label in ranked]))


def search_supports(e, u, root: nodes.ENode, chosen: dict):
    """Depth-first search over one support per node reachable from
    ``root``; yields ``chosen`` each time it holds a support for every such
    node, and undoes its own choices as it backtracks.

    Nodes already in ``chosen`` keep their supports.  A support that would
    close a cycle holding a non-minus edge is refused where it closes it:
    the cycle stays in every completion, so each leaf is cycle safe, and
    the valid leaves come in the order an unpruned search meets them.
    """
    assumed = frozenset(u)

    def options(node: nodes.ENode):
        if node.kind == nodes.NEG_ATOM and node.payload[0] in assumed:
            return _ASSUMED
        if node.kind == nodes.ATOM and node.payload[0] in assumed:
            return []
        return e.get(node, [])

    # An explicit stack, so that long chains do not meet the recursion
    # limit (a generator per node on ground.run_deep measured 15-25% slower
    # on the bench loops tables).  A frame holds a node, the nodes pending
    # after it, and its untried supports; the node is in ``chosen`` and
    # ``own`` while a support of it is tried.
    own: set[nodes.ENode] = set()
    frames: list[tuple] = []
    pending: tuple = (root,)
    while True:
        while pending and (pending[0] in chosen
                           or pending[0].kind in nodes.TERMINAL_KINDS):
            pending = pending[1:]
        if pending:
            frames.append((pending[0], pending[1:],
                           iter(options(pending[0]))))
        else:
            yield chosen
        while frames:
            node, rest, supports = frames[-1]
            if node in own:
                del chosen[node]
                own.remove(node)
            for support in supports:
                if own.isdisjoint(support) and node not in support \
                        or not _closes_bad_cycle(node, support, chosen, own):
                    break
            else:
                frames.pop()
                continue
            chosen[node] = support
            own.add(node)
            if len(support) == 1:
                pending = rest + tuple(support)
            else:
                pending = rest + tuple(nodes.sorted_nodes(support))
            break
        else:
            return


def _closes_bad_cycle(v: nodes.ENode, support, chosen: dict, own) -> bool:
    """Whether giving ``v`` the support closes a cycle with a non-minus
    edge: a walk from ``v`` through the support, then over the supports
    this search chose, back to ``v``.  A walk state records whether it
    passed a non-minus edge.  Edges into triggered constraints are diamond
    edges, which the cycle test drops, and nodes chosen before the search
    began reach none of its own."""
    seen: set[tuple] = set()
    stack = [(support, False)]
    while stack:
        targets, bad = stack.pop()
        for t in targets:
            if t.kind == nodes.CONSTRAINT:
                continue
            passed = bad or nodes.EDGE_LABEL[t.kind] != "minus"
            if t == v:
                if passed:
                    return True
            elif t in own and (t, passed) not in seen:
                seen.add((t, passed))
                stack.append((chosen[t], passed))
    return False


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


def _cycle_safe(edges) -> bool:
    """Inside any SCC of the non-diamond subgraph, only minus edges.

    Most graphs have no cycle, which a Kahn pass shows in linear time;
    only a graph with a cycle goes on to Tarjan.  Of the 2725 first graphs
    of every named literal in every answer set of random_program seeds
    0..119 with 8, 9 and 10 atoms, 637 (23%) reach Tarjan, and this test
    of all of them took 23-26 ms against 30-32 ms for Tarjan alone (best
    of 7, 2-core Xeon)."""
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
        # Frames, not ground.run_deep: on the _cycle_safe sample a
        # generator per node took 32-36 ms against 22-24 ms, and on a
        # 20000-node ring 50-54 ms against 39-40 ms.
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
    """Whether ``g`` is a valid explanation graph under the table ``e`` and
    the assumed set ``u``.  It checks graphs whose nodes come from the
    table: a node rebuilt by egraph_from_json carries no atom name, so it
    matches no key, and such a graph is refused."""
    assumed = frozenset(u)
    node_set = set(g.nodes)
    if g.root not in node_set:
        return False
    out: dict[nodes.ENode, set[nodes.ENode]] = {}
    for edge in g.edges:
        if edge.source not in node_set or edge.target not in node_set:
            return False
        if edge.label != nodes.EDGE_LABEL[edge.target.kind]:
            return False
        out.setdefault(edge.source, set()).add(edge.target)
    for name in assumed:
        if nodes.atom_node(name) in node_set:
            return False
        neg = nodes.neg_atom_node(name)
        if neg in node_set and out.get(neg) != {nodes.ASSUME_NODE}:
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


def _distinct_names(graph_nodes, text, key=str) -> dict:
    """Each node's key(text(node)), distinct across the nodes: where an
    earlier node took it (a one-element tuple renders like its atom), the
    text is extended with the kind, as ``a (tuple)``, until the key is
    free."""
    names: dict[nodes.ENode, str] = {}
    taken: set[str] = set()
    for node in graph_nodes:
        t = text(node)
        while (name := key(t)) in taken:
            t += f" ({node.kind})"
        taken.add(name)
        names[node] = name
    return names


def _quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: ExplanationGraph, ascii_only: bool = False) -> str:
    """Graphviz text.  DOT names a node by its label, made distinct by
    _distinct_names, and quoted with ``\\`` and ``"`` escaped."""
    lines = ["digraph explanation {"]
    names = {node: _quote(name) for node, name in _distinct_names(
        g.nodes, lambda node: node.render(ascii_only)).items()}
    lines.extend(f"  {name};" for name in names.values())
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

    # A rebuilt node's payload is its position in the list, so nodes that
    # render alike stay apart and keep their order.
    doc = json.loads(text)
    by_id = {entry["id"]: nodes.ENode(entry["kind"], (i,), entry["label"])
             for i, entry in enumerate(doc["nodes"])}
    edges = [(by_id[entry["from"]], by_id[entry["to"]], entry["label"])
             for entry in doc["edges"]]
    return _sorted_graph(by_id[doc["root"]], by_id.values(), edges)
