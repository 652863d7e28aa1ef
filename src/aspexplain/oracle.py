"""Exact stable-model semantics for small ground programs.

This module deliberately reads rules from the raw parsed statements rather
than the reconstructed rule view, so its verdicts are independent of the
folding and support machinery it is used to cross-check.  Names and facts
come from the reconstructed program's name table (``GroundProgram.named``
and ``GroundProgram.facts``), and :func:`~aspexplain.ground.reconstruct`
has already rejected disjunctive heads.  The reduct's least model comes
from the aspif-level operator :meth:`AspifProgram.least_model`.  A total
interpretation M is stable iff it equals the least model of its reduct and
no constraint body holds in it: once M is that least model, it holds every
external and satisfies every other rule, so no separate classical check is
needed (see :meth:`_Checker.is_reduct_model`).

Checking and enumerating answer sets are one depth-first search,
:meth:`_Checker.search`, in the manner of the ``expand`` step of Smodels
(Simons, Niemelä & Soininen 2002).  A node assumes some atoms true and some
false and holds the bounds :meth:`AspifProgram.alternating_fixpoint` gives
under these assumptions, the operator behind the well-founded model the
assumption analysis uses.  It branches on the named atoms first, then on
the auxiliary atoms the bounds leave undecided, and checks each total
interpretation it reaches exactly.  Each node's bounds already passed the
constraint test, so a leaf, whose bounds are that one interpretation,
tests only the least model of its reduct.  :func:`enumerate_answer_sets`
starts from the well-founded model; :func:`check_answer_set` assumes every
named atom, from no bounds, so it branches on auxiliary atoms only.  Choice
bounds need no special treatment here: the grounder encodes them as
ordinary weight bodies and integrity constraints, checked directly.
"""

from __future__ import annotations

from .aspif import WeightBody, parse_aspif
from .errors import TooLarge

MAX_NAMED_ATOMS = 20
MAX_FREE_AUX = 12

Interpretation = frozenset  # of atom names


def _body_true(body, holds) -> bool:
    if isinstance(body, WeightBody):
        return sum(w for lit, w in body.elements if holds(lit)) >= body.lower
    return all(holds(lit) for lit in body.literals)


class _Checker:
    def __init__(self, g):
        self.program = g.aspif
        self.aux_ids = sorted(
            self.program.atom_ids - g.named.keys() - g.facts)

    def is_reduct_model(self, total: frozenset[int]) -> bool:
        """True iff ``total`` equals the least model of its reduct.

        Such a model holds every external, which the least model takes as
        a fact, and satisfies every rule that is not a constraint: a body
        that holds in ``total`` holds in the reduct, weights being
        non-negative, so the rule fires there and puts its head in the
        least model, which is ``total``; a choice rule is satisfied
        whatever it derives, and ``reconstruct`` rejects disjunctive heads.
        So ``total`` is an answer set iff, in addition, no constraint body
        holds in it.
        """
        return self.program.least_model(total, total) == total

    def violated(self, lower, upper) -> bool:
        """True iff a constraint body holds in every interpretation that
        contains ``lower`` and lies inside ``upper``."""
        def holds(lit: int) -> bool:
            return lit in lower if lit > 0 else -lit not in upper

        return any(_body_true(s.body, holds) for s in self.program.constraints)

    def bounds(self, true, false, parent):
        """The bounds of the answer sets that contain ``true`` and miss
        ``false``, or None when there is none: an assumption is
        contradicted or a constraint body holds between the bounds.

        ``parent`` holds bounds of the answer sets under weaker
        assumptions: a search node's, or (∅, every atom).  When the
        assumptions cover every atom they leave open, one interpretation
        is left, and it is returned as both bounds for the search's leaf
        to check.  Otherwise the alternating fixpoint is computed,
        starting from their upper bound less the atoms assumed false.
        """
        lower, upper = parent
        if upper - lower <= true | false:
            lower = upper = lower | (true & upper)
        else:
            lower, upper = self.program.alternating_fixpoint(
                true, false, upper - false)
        if false & lower or true - upper or self.violated(lower, upper):
            return None
        return lower, upper

    def search(self, true, false, bounds, free):
        """Yield the answer sets that contain ``true``, miss ``false`` and
        lie between ``bounds``, at most one per assignment of the named
        atoms.

        A depth-first search whose nodes hold assumptions and their
        :meth:`bounds`, each child computing its own from its parent's;
        ``bounds`` is the root's, None when it is cut.  A node branches on
        the first atom of ``free``, the named atoms that may be open, that
        its bounds leave undecided; once they decide every named atom, on
        the auxiliary atoms left undecided, in id order.  A leaf decides
        every atom, so its bounds are equal and its lower bound is the one
        interpretation to check.  Every node on the stack got its bounds
        from :meth:`bounds`, which found no constraint body that holds
        between them, here in that interpretation; so the leaf checks only
        that it is the least model of its reduct (:meth:`is_reduct_model`).
        The auxiliary atoms open at the node that first decides every named
        atom are capped by :data:`MAX_FREE_AUX`, as cyclic auxiliary
        definitions would branch on each.  Once one leaf below that node
        is stable, the rest are skipped.
        """
        stack = [] if bounds is None else [(true, false, bounds, None)]
        while stack:
            true, false, (lower, upper), base = stack.pop()
            atom = next((a for a in free if a in upper and a not in lower),
                        None)
            if atom is None:
                open_aux = [a for a in self.aux_ids
                            if a in upper and a not in lower]
                if base is None:
                    if len(open_aux) > MAX_FREE_AUX:
                        raise TooLarge(
                            f"{len(open_aux)} auxiliary atoms undetermined; "
                            f"enumeration cap is {MAX_FREE_AUX}")
                    # What this node's subtree leaves on the stack sits
                    # above ``base``.
                    base = len(stack)
                if not open_aux:
                    if self.is_reduct_model(lower):
                        yield lower
                        del stack[base:]
                    continue
                atom = open_aux[0]
            for child in ((true | {atom}, false), (true, false | {atom})):
                child_bounds = self.bounds(*child, (lower, upper))
                if child_bounds is not None:
                    stack.append((*child, child_bounds, base))


def check_answer_set(g, answer_names) -> bool:
    """True iff the named atoms form an answer set of the program.

    The search of :meth:`_Checker.search` with every named atom assumed:
    the listed ones true, the rest false.  Its root takes its bounds from
    (∅, every atom), not from the well-founded model, which the check does
    not need: one interpretation when every atom is named, else the
    alternating fixpoint under these assumptions.  It branches only on the
    auxiliary atoms left undecided.
    """
    checker = _Checker(g)
    true = g.answer_from_names(answer_names)
    false = frozenset(g.named.keys() - true)
    root = checker.bounds(true, false, (frozenset(), g.aspif.atom_ids))
    return next(checker.search(true, false, root, ()), None) is not None


def enumerate_answer_sets(g) -> list[Interpretation]:
    """All answer sets, projected to named atoms, in deterministic order.

    The search of :meth:`_Checker.search` from the well-founded model,
    branching first on the named atoms it leaves undecided, which must be
    at most ``MAX_NAMED_ATOMS``.  Answer sets come by size, then by
    undecided atom positions in name order, as
    :func:`itertools.combinations` does.
    """
    program, named = g.aspif, g.named
    checker = _Checker(g)
    wf_true, wf_false = program.well_founded
    decided = wf_true | wf_false
    free = sorted((a for a in named if a not in decided), key=named.get)
    if len(free) > MAX_NAMED_ATOMS:
        raise TooLarge(
            f"{len(free)} undecided named atoms exceed the enumeration cap "
            f"of {MAX_NAMED_ATOMS}")
    # The well-founded model is the fixpoint without assumptions.
    upper = program.atom_ids - wf_false
    root = None if checker.violated(wf_true, upper) else (wf_true, upper)
    found: list[tuple[list[int], Interpretation]] = []
    for lower in checker.search(frozenset(), frozenset(), root, free):
        chosen = [k for k, a in enumerate(free) if a in lower]
        found.append(([len(chosen), *chosen], frozenset(
            name for a, name in named.items() if a in lower)))
    found.sort(key=lambda item: item[0])
    return [names for _, names in found]


def random_program(seed: int, n_atoms: int = 8, n_rules: int = 10,
                   p_choice: float = 0.3):
    """Deterministic random ground program in the supported fragment.

    Returns a reconstructed program whose ``aspif`` text was produced by the
    same compilation scheme grounders use for choice bounds, so every call
    exercises the parse/reconstruct round trip.
    """
    import random

    from .ground import reconstruct

    rng = random.Random(seed)
    names = [chr(ord("a") + i) for i in range(n_atoms)]
    ids = {name: i + 1 for i, name in enumerate(names)}
    next_id = n_atoms + 1

    def fresh() -> int:
        nonlocal next_id
        next_id += 1
        return next_id - 1

    facts = [name for name in names if rng.random() < 0.15]
    statements: list[str] = []

    def lit(name: str, positive: bool) -> int:
        return ids[name] if positive else -ids[name]

    def rule(head: list[int], body: list[int], choice: bool = False) -> None:
        head_type = 1 if choice else 0
        parts = [1, head_type, len(head), *head, 0, len(body), *body]
        statements.append(" ".join(str(p) for p in parts))

    def weight_rule(head: int, lower: int, elems: list[tuple[int, int]]) -> None:
        parts = [1, 0, 1, head, 1, lower, len(elems)]
        for l, w in elems:
            parts += [l, w]
        statements.append(" ".join(str(p) for p in parts))

    def random_body(max_len: int, min_len: int = 0) -> list[int]:
        k = rng.randint(min_len, max_len)
        chosen = rng.sample(names, min(k, len(names)))
        return [lit(n, rng.random() >= 0.4) for n in chosen]

    for _ in range(n_rules):
        if not names:
            break
        roll = rng.random()
        if roll < p_choice:
            _compile_choice(rng, names, ids, rule, weight_rule, fresh,
                            random_body)
        elif roll < p_choice + 0.15:
            rule([], random_body(3, min_len=1))
        elif roll < p_choice + 0.25:
            head = rng.choice(names)
            k = rng.randint(1, min(3, len(names)))
            chosen = rng.sample(names, k)
            weight = rng.choice((1, 1, 2))
            lower = weight * rng.randint(1, k)
            weight_rule(ids[head], lower,
                        [(ids[n], weight) for n in chosen])
        else:
            head = rng.choice(names)
            rule([ids[head]], random_body(3))

    text_lines = ["asp 1 0 0"]
    text_lines.extend(statements)
    for name in facts:
        text_lines.append(f"5 {ids[name]} 2")
    for name in names:
        text_lines.append(f"4 {len(name)} {name} 1 {ids[name]}")
    text_lines.append("0")
    return reconstruct(parse_aspif("\n".join(text_lines) + "\n"))


def _compile_choice(rng, names, ids, rule, weight_rule, fresh, random_body):
    k = rng.randint(1, min(3, len(names)))
    elements = rng.sample(names, k)
    conditions = {}
    pool = [n for n in names if n not in elements]
    for element in elements:
        if pool and rng.random() < 0.3:
            conditions[element] = rng.choice(pool)
    body = random_body(2)

    body_aux = None
    if body:
        body_aux = fresh()
        rule([body_aux], body)

    for element in elements:
        stmt_body = [body_aux] if body_aux else []
        if element in conditions:
            stmt_body = stmt_body + [ids[conditions[element]]]
        rule([ids[element]], stmt_body, choice=True)

    tuple_ids = []
    for element in elements:
        taux = fresh()
        tuple_body = [ids[conditions[element]]] if element in conditions else []
        tuple_body = tuple_body + [ids[element]]
        rule([taux], tuple_body)
        tuple_ids.append(taux)

    bound_kind = rng.random()
    constraint_body = [body_aux] if body_aux else []
    elems = [(t, 1) for t in tuple_ids]
    if bound_kind < 0.6:
        lower = rng.randint(0, k)
        upper = rng.randint(lower, k)
        lo = fresh()
        weight_rule(lo, lower, elems)
        hi = fresh()
        weight_rule(hi, upper + 1, elems)
        ok = fresh()
        rule([ok], [lo, -hi])
        rule([], constraint_body + [-ok])
    elif bound_kind < 0.8:
        lo = fresh()
        weight_rule(lo, rng.randint(1, k), elems)
        rule([], constraint_body + [-lo])
    else:
        hi = fresh()
        weight_rule(hi, rng.randint(1, k), elems)
        rule([], constraint_body + [hi])
