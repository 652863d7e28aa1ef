"""Minimal assumption sets: which false atoms must be assumed false.

Atoms under default negation that are false in the answer set but not
well-founded-false may rest on unresolved negative cycles.  Derivation
paths through the support table sort them into T (no self-consistent
derivation; must be assumed) and T' (derivable from other tentative
atoms, recorded in DA).  Minimal cycle-breaking subsets of the DA
dependency relation complete the assumption set U = T ∪ min(B).

E is the support table the caller gives, or a SupportTable, which builds
only the rows the analysis reads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import nodes
from .aspif import HEAD_DISJUNCTIVE, AspifProgram, NormalBody, RuleStatement
from .egraph import SupportTable, search_supports
from .errors import TooLarge
from .ground import GroundProgram, _minimize_sets, _union_product, run_deep

_PATH_CAP = 512
_EXACT_SEARCH_LIMIT = 20


@dataclass(frozen=True)
class AssumptionReport:
    ta: frozenset[str]
    t_must: frozenset[str]
    t_deferred: frozenset[str]
    da: dict[str, list[frozenset[str]]] = field(default_factory=dict)
    min_b_candidates: list[frozenset[str]] = field(default_factory=list)
    chosen_u: frozenset[str] = frozenset()
    # False when more than _EXACT_SEARCH_LIMIT atoms take part in DA
    # cycles, so min(B) is one greedy break, not every minimal set.
    min_b_exact: bool = True


def well_founded(g: GroundProgram) -> tuple[frozenset[int], frozenset[int]]:
    """(true, false) atom ids of the well-founded model of ``g``'s program,
    computed once per program."""
    return g.aspif.well_founded


def tentative_assumptions(g: GroundProgram, A: frozenset[int]) -> frozenset[str]:
    """Atoms that may need to be assumed false: in NANT, false, undecided.
    The well-founded model is computed only when some NANT atom is false."""
    false = [a for a in g.nant if a not in A]
    wf_false = well_founded(g)[1] if false else ()
    return frozenset(g.display_atom(a) for a in false if a not in wf_false)


def derivation_analysis(table, ta: frozenset[str]):
    """Split TA into T (must assume) and T' (derivable), with DA, on E."""
    t_deferred = set()
    da: dict[str, list[frozenset[str]]] = {}
    for name in sorted(ta):
        ds = _path_ds(table, nodes.neg_atom_node(name), ta, name)
        if ds is not None:
            t_deferred.add(name)
            da[name] = ds
    t_must = set(ta) - t_deferred
    return frozenset(t_must), frozenset(t_deferred), da


_OPEN = object()  # a node whose D-sets need its supports expanded


def _leaf_ds(node, on_path, non_neg, ta, root):
    """The D-sets of a node that is decided without expanding it, or _OPEN."""
    # A triggered constraint derives no atom: its node only records why the
    # constraint did not fire, so a path ends there as at a terminal.
    if node.kind in nodes.TERMINAL_KINDS or node.kind == nodes.CONSTRAINT:
        return [frozenset()]
    if node.kind == nodes.NEG_ATOM and node.payload[0] in ta:
        name = node.payload[0]
        if name != root:
            return [frozenset({name})]
        if on_path:
            return None
    if node in on_path:
        # The cycle from ``node`` back to itself is valid only if it holds
        # no node but negative atoms.
        return [frozenset()] if on_path[node] == non_neg else None
    return _OPEN


def _path_ds(table, start, ta, root):
    """D-sets of all valid derivation paths below a node, or None.

    A path is invalid if it re-reaches the root or closes a cycle through
    any non-minus edge; other tentative atoms terminate a path and are
    collected.  The search recurses on :func:`run_deep`, so long chains do
    not meet the recursion limit.  Raises TooLarge when one node's D-sets,
    before minimisation, pass _PATH_CAP.
    """
    return run_deep(_expand_ds(table, start, ta, root, {}, 0))


def _expand_ds(table, node, ta, root, on_path, non_neg):
    """The D-sets of a node through its supports, or None.  ``on_path``
    maps each node on the path to the number of non-negative-atom nodes
    above it, and ``non_neg`` counts those above ``node``, so closing a
    cycle is checked in constant time."""
    supports = table.get(node)
    if supports is None:
        return None
    on_path[node] = non_neg
    non_neg += node.kind != nodes.NEG_ATOM
    results: list[frozenset[str]] = []
    for support in supports:
        lists = []
        for member in nodes.sorted_nodes(support):
            ds = _leaf_ds(member, on_path, non_neg, ta, root)
            if ds is _OPEN:
                ds = yield _expand_ds(table, member, ta, root, on_path,
                                      non_neg)
            if ds is None:
                break
            lists.append(ds)
        else:
            results += _union_product(lists, cap=_PATH_CAP + 1 - len(results))
            if len(results) > _PATH_CAP:
                raise TooLarge(f"the derivation paths below {node.render()} "
                               f"have more than {_PATH_CAP} D-sets")
    del on_path[node]
    return _minimize_sets(results) or None


def _stuck_after(da: dict):
    """A function from a set of broken DA keys to the DA keys that stay
    unresolved once those keys are assumed.

    DA reads as the rules ``k :- d``, one per D-set d of each key k; a key
    is resolved when it is in the least model of those rules with the
    broken keys and the atoms that are no key as facts."""
    names = set(da).union(*(d for ds in da.values() for d in ds))
    ids = {name: aid for aid, name in enumerate(names, start=1)}
    program = AspifProgram([
        RuleStatement(HEAD_DISJUNCTIVE, (ids[k],),
                      NormalBody(tuple(ids[a] for a in d)))
        for k, ds in da.items() for d in ds])
    base = [ids[a] for a in names if a not in da]

    def stuck_after(broken: frozenset[str]) -> set[str]:
        facts = base + [ids[a] for a in broken]
        resolved = program.least_model((), None, facts)
        return {k for k in da if ids[k] not in resolved}

    return stuck_after


def min_cycle_break(da: dict, stuck_after=None,
                    stuck=None) -> list[frozenset[str]]:
    """All subset-minimal sets breaking the DA dependency cycles, or one
    greedy break when more than _EXACT_SEARCH_LIMIT atoms take part in
    them.  ``stuck_after``, _stuck_after(da), and ``stuck``, the keys it
    leaves stuck with none broken, are computed when not given."""
    if stuck_after is None:
        stuck_after = _stuck_after(da)
    if stuck is None:
        stuck = stuck_after(frozenset())
    if not stuck:
        return [frozenset()]
    participants = sorted(stuck)
    if len(participants) > _EXACT_SEARCH_LIMIT:
        return [_greedy_break(da, stuck, stuck_after)]
    found = [frozenset({p}) for p in participants
             if not stuck_after(frozenset({p}))]
    # A larger set holding a singleton break is not minimal.
    pool = [p for p in participants if frozenset({p}) not in found]
    for size in range(2, len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            candidate = frozenset(combo)
            if any(f <= candidate for f in found):
                continue
            if not stuck_after(candidate):
                found.append(candidate)
    return found


def _greedy_break(da, pending, stuck_after) -> frozenset[str]:
    """Break, one at a time, the stuck key that the most D-sets of stuck
    keys hold, starting from the ``pending`` ones, until none is stuck."""
    broken: set[str] = set()
    while pending:
        counts = {p: 0 for p in pending}
        for k in pending:
            for d in da[k]:
                for a in d:
                    if a in counts:
                        counts[a] += 1
        broken.add(max(sorted(counts), key=lambda p: counts[p]))
        pending = stuck_after(frozenset(broken))
    return frozenset(broken)


def minimal_assumption_sets(g: GroundProgram, A: frozenset[int],
                            er=None, table=None) -> AssumptionReport:
    """TA, the T/T' split, min(B) candidates, and the chosen U.

    The path analysis over-approximates: a cycle it rejects only because
    it returns to the queried atom may still close through minus edges
    only, which a valid graph is allowed to do.  The chosen set is
    therefore shrunk against actual graph buildability, one atom at a time
    in sorted order; validity is monotone in the assumed set, so one pass
    reaches a subset-minimal U.  Each candidate U - {X} costs one graph
    search, for ~X.

    The analysis and the shrink read ``table``, the support table E, or
    SupportTable(g, A) when it is not given, which builds only the rows
    they read.  ``er`` is accepted for callers that pass E_r, and unused.
    """
    if table is None:
        table = SupportTable(g, A)
    ta = tentative_assumptions(g, A)
    t_must, t_deferred, da = derivation_analysis(table, ta)
    stuck_after = _stuck_after(da)
    stuck = stuck_after(frozenset())
    candidates = min_cycle_break(da, stuck_after, stuck)
    candidates.sort(key=lambda c: (len(c), tuple(sorted(c))))
    best = min(candidates, key=lambda c: tuple(sorted(c)))
    chosen = frozenset(t_must) | best
    chosen = _shrink_against_graphs(g, A, table, chosen)
    return AssumptionReport(
        ta=ta,
        t_must=t_must,
        t_deferred=t_deferred,
        da=da,
        min_b_candidates=candidates,
        chosen_u=chosen,
        min_b_exact=len(stuck) <= _EXACT_SEARCH_LIMIT,
    )


def _shrink_against_graphs(g, A, table, chosen: frozenset[str]):
    """Drop each atom of ``chosen`` in sorted order while every named
    literal keeps a valid graph.

    Once every literal has a graph under U, every literal has one under
    U - {X} exactly when ~X has one.  A graph under U that holds ~X ends
    there in the assumption; a graph of ~X under U - {X} can take its
    place, each of its nodes keeping that graph's support.  No edge leads
    out of the graph of ~X, so every cycle lies inside one part and stays
    safe, and no other node's options change, since no graph under U holds
    the atom X.  So each candidate costs one search.

    The first pass asks whether every literal has a graph with one search
    per literal over one shared choice of supports: a literal already
    chosen costs nothing, since the part of a valid graph reachable from
    any of its nodes is a valid graph for that node, and a later search
    that keeps those supports finds a graph whenever one exists, since
    the chosen nodes reach no other.  Neither pass assembles a graph.
    """
    if not chosen:
        return chosen
    supports: dict = {}
    for aid in sorted(g.named_ids()):
        root = nodes.literal_node(g.display_atom(aid), aid in A)
        if next(search_supports(table, chosen, root, supports), None) is None:
            return chosen
    for name in sorted(chosen):
        u = chosen - {name}
        if next(search_supports(table, u, nodes.neg_atom_node(name), {}),
                None) is not None:
            chosen = u
    return chosen
