"""
Coloring a triangle, and explaining one color choice
====================================================

A classic encoding: each node picks exactly one color through a choice
with cardinality bounds, and a constraint per edge forbids equal
colors.  The grounder expands the schematic rules over the 3-node
triangle; this walkthrough loads that ground output and asks why node 1
is red in one particular coloring.
"""

from pathlib import Path

from aspexplain import (
    build_egraph,
    build_er,
    constraint_preprocessing,
    enumerate_answer_sets,
    merge_supports,
    minimal_assumption_sets,
    nodes,
    parse_aspif,
    reconstruct,
    to_dot,
)

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"

g = reconstruct(parse_aspif((DATA / "coloring.aspif").read_text()))

# The recovered program: per node, three guarded choices plus one bound
# test; per edge, three color-clash constraints.
print("recovered rules:")
for rule in g.rules:
    print(" ", g.rule_text(rule))

# A triangle admits six proper 3-colorings.
models = enumerate_answer_sets(g)
print(f"\n{len(models)} colorings, e.g. " + ", ".join(
    sorted(m for m in models[0] if m.startswith("colored"))))

# Fix the coloring 1=red, 2=green, 3=blue and explain colored(1,red).
answer = g.answer_from_names((DATA / "coloring_answer.txt").read_text()
                             .split())
er = build_er(g, answer)
ec = constraint_preprocessing(g, answer)
table = merge_supports(er, ec)
report = minimal_assumption_sets(g, answer, table=table)

# Nothing needs to be assumed: the choices themselves settle every
# negated atom.
print("\ntentative assumptions:", sorted(report.ta))
print("assumed false:", sorted(report.chosen_u))

graph = build_egraph(table, report.chosen_u,
                     nodes.atom_node("colored(1,red)"))[0]

# The graph shows all three ingredients of the choice: the picked
# color (+choice), the rejected alternatives (-choice behind the bound
# test), and the edge constraints node 1 survives (diamond edges into
# triggered_constraint nodes).
print("\nedges touching markers:")
for edge in graph.edges:
    if edge.label in ("bullet", "diamond", "oplus"):
        print(f"  {edge.source.render()} -> {edge.target.render()}"
              f"  [{edge.label}]")

# The same picture from the command line:
#   aspexplain explain tests/data/coloring.aspif \
#       --answer-set tests/data/coloring_answer.txt \
#       --root 'colored(1,red)' --format dot
print(f"\nfull graph: {len(graph.nodes)} nodes, {len(graph.edges)} edges")
print(to_dot(graph))
