"""
Parsing aspif text and recovering the source-level program
==========================================================

Grounders compile choice rules and cardinality bounds into auxiliary
atoms and weight bodies before emitting aspif.  This walkthrough parses
one grounder output and recovers the program a person would recognize.
"""

from aspexplain import enumerate_answer_sets, parse_aspif, reconstruct

# The running example used throughout the package: one free-ish choice
# between m(1) and m(2) guarded by a cardinality bound, a three-atom
# negative loop among a, b, c, and two external facts n(1), n(2).
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

# Step 1: the statement-level view.  Tag 1 lines are rules, tag 4 lines
# map solver atom ids to display names, tag 5 lines mark externals.
program = parse_aspif(ASPIF_TEXT)
print(f"{len(program.rules)} rule statements, "
      f"{len(program.outputs)} output statements, "
      f"{len(program.externals)} external statements")

# Step 2: reconstruction.  Auxiliary atoms (ids without an output name)
# are folded away: the weight-body pair 11/12 plus atom 13 collapse back
# into the bound test 1<={...}<=1 inside the final constraint.
g = reconstruct(program)
print("\nrecovered rules:")
for rule in g.rules:
    print(" ", g.rule_text(rule))

# Step 3: the name table and the atoms that occur under default
# negation — those are the only candidates the assumption analysis will
# ever need to consider.
print("\nsymbols:")
for aid, name in g.named.items():
    print(f"  {name} = atom {aid}")
print("\nnegated atoms:", ", ".join(g.nant_names()))

# Step 4: the program has three answer sets; the exact search of the
# oracle enumerates them in a deterministic order.
print("\nanswer sets:")
for model in enumerate_answer_sets(g):
    print(" ", "{" + ", ".join(sorted(model)) + "}")
