"""Output checks written independently of the code under test.

Cold requests are checked on the DOT file they write, with edge styles
and terminal glyphs taken from the README; sessions are checked on their
graph objects, where nodes that render alike stay distinct.  Every check
raises CheckFailed with a short name that becomes the failure kind.
"""

from __future__ import annotations

import re

# DOT edge style -> edge label, as documented in the README.
STYLE_LABEL = {
    "[style=solid]": "plus",
    "[style=dashed]": "minus",
    "[style=dotted]": "circ",
    "[style=dotted, color=orange]": "bullet",
    "[style=dotted, color=green]": "diamond",
    "[style=solid, color=blue]": "oplus",
    "[style=solid, color=gray]": "oslash",
}
TERMINALS = frozenset({"⊤", "⊥", "assume", "+choice", "-choice",
                       "*True", "*Empty"})
# The same terminals as node kinds of graph objects.
TERMINAL_KINDS = frozenset({"top", "bottom", "assume", "plus_choice",
                            "minus_choice", "star_true", "star_empty"})

_QUOTED = re.compile(r'"((?:[^"\\]|\\.)*)"')


class CheckFailed(Exception):
    def __init__(self, name: str, detail: str = ""):
        super().__init__(f"{name}: {detail}" if detail else name)
        self.name = name


def parse_dot(text: str):
    """(node labels, edges) of a rendered graph; edges are (src, dst, label).

    DOT identifies a node by its label, so two graph nodes that render the
    same are listed twice here and merged by any DOT reader.
    """
    lines = text.splitlines()
    if not lines or lines[0] != "digraph explanation {" or lines[-1] != "}":
        raise CheckFailed("dot_syntax", "missing digraph frame")
    graph_nodes, edges = [], []
    for line in lines[1:-1]:
        names = [m.replace('\\"', '"') for m in _QUOTED.findall(line)]
        if len(names) == 1 and line.strip().endswith('";'):
            graph_nodes.append(names[0])
        elif len(names) == 2 and " -> " in line:
            style = line[line.rindex('" ') + 2:].rstrip(";")
            if style not in STYLE_LABEL:
                raise CheckFailed("dot_syntax", f"unknown style {style}")
            edges.append((names[0], names[1], STYLE_LABEL[style]))
        else:
            raise CheckFailed("dot_syntax", line)
    return graph_nodes, edges


def label_collisions(dot_text: str) -> int:
    """Graph nodes that a DOT reader merges into another node."""
    graph_nodes, _ = parse_dot(dot_text)
    return len(graph_nodes) - len(set(graph_nodes))


def check_graph(graph_nodes, edges, root, terminal) -> None:
    """Structural check of one graph given as nodes, (src, dst, label)
    edges, its root and a terminal predicate.

    Dangling nodes: every node is reachable from the root, every edge ends
    at a listed node, terminals have no successors and every other node has
    one.  Positive cycles: in the subgraph without diamond edges, an edge
    inside a strongly connected component must be a minus edge.
    """
    listed = set(graph_nodes)
    if root not in listed:
        raise CheckFailed("root_missing", str(root))
    out = {n: [] for n in listed}
    for src, dst, _ in edges:
        if src not in listed or dst not in listed:
            raise CheckFailed("dangling_edge", f"{src} -> {dst}")
        out[src].append(dst)
    for node in listed:
        if terminal(node) == bool(out[node]):
            raise CheckFailed("dangling_node", str(node))
    seen, stack = {root}, [root]
    while stack:
        for nxt in out[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if seen != listed:
        raise CheckFailed("unreachable_node", str(len(listed - seen)))
    kept = [(s, d, lab) for s, d, lab in edges if lab != "diamond"]
    comp = _components(graph_nodes, kept)
    for src, dst, label in kept:
        if label != "minus" and comp[src] == comp[dst]:
            raise CheckFailed("positive_cycle", f"{src} -> {dst}")


def check_dot(text: str, root: str):
    """check_graph on rendered DOT; returns its edges."""
    graph_nodes, edges = parse_dot(text)
    if len(set(graph_nodes)) != len(graph_nodes):
        raise CheckFailed("dot_label_collision")
    check_graph(graph_nodes, edges, root, TERMINALS.__contains__)
    return edges


def check_egraph(graph) -> None:
    """check_graph on a graph object, whose nodes are distinct by identity."""
    edges = [(e.source, e.target, e.label) for e in graph.edges]
    check_graph(graph.nodes, edges, graph.root,
                lambda node: node.kind in TERMINAL_KINDS)


def _components(vertices, edges) -> dict[str, int]:
    """Strongly connected components (iterative Kosaraju)."""
    succ: dict[str, list[str]] = {v: [] for v in vertices}
    pred: dict[str, list[str]] = {v: [] for v in vertices}
    for src, dst, _ in edges:
        succ[src].append(dst)
        pred[dst].append(src)
    order, visited = [], set()
    for start in vertices:
        if start in visited:
            continue
        visited.add(start)
        stack = [(start, iter(succ[start]))]
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if nxt not in visited:
                    visited.add(nxt)
                    stack.append((nxt, iter(succ[nxt])))
                    break
            else:
                stack.pop()
                order.append(node)
    comp: dict[str, int] = {}
    for start in reversed(order):
        if start in comp:
            continue
        comp[start] = start_id = len(comp)
        stack = [start]
        while stack:
            for nxt in pred[stack.pop()]:
                if nxt not in comp:
                    comp[nxt] = start_id
                    stack.append(nxt)
    return comp


def reaches(edges, root: str, target: str) -> bool:
    out: dict[str, list[str]] = {}
    for src, dst, _ in edges:
        out.setdefault(src, []).append(dst)
    seen, stack = {root}, [root]
    while stack:
        node = stack.pop()
        if node == target:
            return True
        for nxt in out.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def root_label(root_arg: str) -> str:
    """The rendered node of a --root argument ('a' or 'not a')."""
    return "~" + root_arg[4:] if root_arg.startswith("not ") else root_arg


def check_cold(request, dot_text: str) -> None:
    """Checks on the output of one cold explain request."""
    inst = request.instance
    root = root_label(request.root)
    edges = check_dot(dot_text, root)
    if inst.family == "chain":
        expected = inst.expect["edges"]
        got = sorted((s, d) for s, d, _ in edges)
        if got != sorted(expected):
            raise CheckFailed("chain_edges",
                              f"{len(got)} edges, {len(expected)} expected")
    elif inst.family == "ring":
        leaf = "-choice" if root.startswith("~") else "+choice"
        if not reaches(edges, root, leaf):
            raise CheckFailed("ring_choice_leaf", f"{root} misses {leaf}")


def check_d_row(dump: str, pairs, expected: int) -> None:
    """The ~d row of dump_table(er) lists every pick of one b per rule."""
    rows = [line for line in dump.splitlines() if line.startswith("~d : ")]
    if len(rows) != 1:
        raise CheckFailed("d_row", f"{len(rows)} ~d rows")
    body = rows[0][len("~d : ["):-1]
    parts = body.split("}, {") if body else []
    sets = {frozenset(part.strip("{}").split(", ")) for part in parts}
    picks_one = all(len(s) == len(pairs)
                    and all(len(s & {"~" + x, "~" + y}) == 1 for x, y in pairs)
                    for s in sets)
    if not len(parts) == len(sets) == expected or not picks_one:
        raise CheckFailed("d_row", f"{len(parts)} sets, {expected} expected")
