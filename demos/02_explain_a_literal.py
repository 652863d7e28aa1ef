"""
Why is m(1) in this answer set?
===============================

A literal is explained by a graph: each node is a literal (or a marker
like +choice), and its out-neighborhood is one of the node's supported
sets.  This walkthrough builds that graph step by step for m(1) in the
answer set {n(1), n(2), c, m(1)} of the running example.
"""

from aspexplain import (
    build_egraph,
    build_er,
    constraint_preprocessing,
    dump_table,
    merge_supports,
    minimal_assumption_sets,
    nodes,
    parse_aspif,
    reconstruct,
    to_dot,
    to_json,
)

ASPIF_TEXT = """\
asp 1 0 0
5 1 2
5 2 2
1 0 1 3 0 1 -4
1 0 1 4 0 2 -5 -3
1 0 1 5 0 2 4 3
1 0 1 6 0 1 3
1 0 0 0 2 7 5
1 1 1 7 0 2 6 1
1 1 1 8 0 2 6 2
1 0 1 9 0 2 1 7
1 0 1 10 0 2 2 8
1 0 1 11 1 1 2 9 1 10 1
1 0 1 12 1 2 2 9 1 10 1
1 0 1 13 0 2 11 -12
1 0 0 0 2 6 -13
4 4 n(1) 1 1
4 4 n(2) 1 2
4 1 b 1 5
4 1 c 1 3
4 1 a 1 4
4 4 m(1) 1 7
4 4 m(2) 1 8
0
"""

g = reconstruct(parse_aspif(ASPIF_TEXT))
answer = g.answer_from_names(["n(1)", "n(2)", "c", "m(1)"])

# Step 1: supported sets from the rules.  True atoms are keyed
# positively, false ones negatively; +choice / -choice record whether a
# choice rule picked the atom, ⊤ marks an external fact.
er = build_er(g, answer)
print("supported sets from rules:")
print(dump_table(er))

# Step 2: supported sets from the constraints.  Every literal that
# appears in a constraint which could have fired gains a
# triggered_constraint annotation explaining why the constraint is
# satisfied anyway.
ec = constraint_preprocessing(g, answer)
print("\nsupported sets from constraints:")
print(dump_table(ec))

# Step 3: which atoms must be assumed false?  NANT members outside the
# answer set are tentative; derivation analysis shows a's falsity only
# derives through the cycle a -> c -> a, so a must simply be assumed.
table = merge_supports(er, ec)
report = minimal_assumption_sets(g, answer, table=table)
print("\ntentative assumptions:", sorted(report.ta))
print("assumed false:", sorted(report.chosen_u))

# Step 4: the graph itself.  Every path from m(1) ends in a terminal
# (⊤, assume, +choice, *True, ...), and the only cycles left run
# through negative edges.
graph = build_egraph(table, report.chosen_u, nodes.atom_node("m(1)"))[0]
print("\nedges of the canonical graph:")
for edge in graph.edges:
    print(f"  {edge.source.render()} -> {edge.target.render()}"
          f"  [{edge.label}]")

# Step 5: render it.  DOT for graphviz, JSON for other tooling; both
# are byte-deterministic, and the JSON round-trips.
print("\n" + to_dot(graph))
print(to_json(graph))
