"""Exact stable-model semantics for small ground programs.

This module deliberately works on the raw parsed statements rather than the
reconstructed rule view, so its verdicts are independent of the folding and
support machinery it is used to cross-check.  The reduct's least model comes
from the aspif-level operator :meth:`AspifProgram.least_model`.  A total
interpretation M is stable iff it equals the least model of its reduct and
no constraint body holds in it: once M is that least model, it holds every
external and satisfies every other rule, so no separate classical check is
needed (see :meth:`_Checker.is_stable`).
:func:`enumerate_answer_sets` searches the named atoms the well-founded
model leaves undecided, branching on one at a time and propagating with
:meth:`AspifProgram.alternating_fixpoint`, the operator behind the
well-founded model the assumption analysis uses; every assignment it
reaches is checked exactly.  Both read only the parsed statements, so the
oracle stays independent of folding.  Choice bounds need no special
treatment here: the grounder encodes them as ordinary weight bodies and
integrity constraints, which are checked directly.
"""

from __future__ import annotations

from .aspif import (
    HEAD_CHOICE,
    HEAD_DISJUNCTIVE,
    AspifProgram,
    WeightBody,
    parse_aspif,
)
from .errors import ReconstructionError, TooLarge, UnknownLiteral

MAX_NAMED_ATOMS = 20
MAX_FREE_AUX = 12

Interpretation = frozenset  # of atom names


def _name_map(program: AspifProgram) -> dict[str, int]:
    names: dict[str, int] = {}
    for stmt in program.outputs:
        if len(stmt.condition) == 1 and stmt.condition[0] > 0:
            names[stmt.symbol] = stmt.condition[0]
    return names


def _body_true(body, holds) -> bool:
    if isinstance(body, WeightBody):
        return sum(w for lit, w in body.elements if holds(lit)) >= body.lower
    return all(holds(lit) for lit in body.literals)


class _Checker:
    def __init__(self, program: AspifProgram):
        self.program = program
        for stmt in program.rules:
            if stmt.head_type == HEAD_DISJUNCTIVE and len(stmt.head) > 1:
                raise ReconstructionError(
                    "disjunctive heads are outside the supported fragment")
        self.names = _name_map(program)
        self.named_ids = set(self.names.values())
        self.externals = {s.atom for s in program.externals}
        self.aux_ids = sorted(
            program.atom_ids() - self.named_ids - self.externals)
        self.constraints = [s for s in program.rules if s.is_constraint]

    def complete(self, named_true: frozenset[int], lower=frozenset(),
                 upper=None) -> list[frozenset[int]]:
        """All total interpretations extending a guess over named atoms.

        Auxiliary atoms are fixed by a clamped alternating pass; the rare
        leftovers (cyclic auxiliary definitions) are enumerated.  The pass
        starts with the auxiliary atoms in ``lower`` true and those outside
        ``upper`` false, bounds that every answer set extending the guess
        lies between.
        """
        open_aux = set(self.aux_ids)
        true: set[int] = {a for a in self.externals
                          if a not in self.named_ids} | (open_aux & lower)
        false: set[int] = set() if upper is None else open_aux - upper
        open_aux -= true | false

        def value(atom: int) -> bool | None:
            if atom in self.named_ids:
                return atom in named_true
            if atom in self.externals:
                return True
            if atom in true:
                return True
            if atom in false:
                return False
            return None

        def lit_value(lit: int) -> bool | None:
            v = value(abs(lit))
            if v is None:
                return None
            return v if lit > 0 else not v

        def body_value(body) -> bool | None:
            if isinstance(body, WeightBody):
                floor = sum(w for lit, w in body.elements
                            if lit_value(lit) is True)
                ceiling = sum(w for lit, w in body.elements
                              if lit_value(lit) is not False)
                if floor >= body.lower:
                    return True
                if ceiling < body.lower:
                    return False
                return None
            values = [lit_value(lit) for lit in body.literals]
            if any(v is False for v in values):
                return False
            if all(v is True for v in values):
                return True
            return None

        changed = True
        while changed:
            changed = False
            for aux in sorted(open_aux):
                statements = self.program.definitions.get(aux, [])
                body_values = [body_value(s.body) for s in statements]
                derivable = any(
                    v is True and s.head_type != HEAD_CHOICE
                    for s, v in zip(statements, body_values))
                refutable = all(v is False for v in body_values) \
                    if statements else True
                if derivable:
                    true.add(aux)
                elif refutable:
                    false.add(aux)
                else:
                    continue
                open_aux.discard(aux)
                changed = True

        free = sorted(open_aux)
        if len(free) > MAX_FREE_AUX:
            raise TooLarge(
                f"{len(free)} auxiliary atoms undetermined; enumeration cap "
                f"is {MAX_FREE_AUX}")
        base = frozenset(true) | named_true
        completions = []
        for mask in range(1 << len(free)):
            extra = {free[i] for i in range(len(free)) if mask >> i & 1}
            completions.append(base | extra)
        return completions

    def is_stable(self, total: frozenset[int]) -> bool:
        """True iff ``total`` is an answer set.

        Suppose ``total`` equals the least model of its reduct.  That model
        holds every external, which the least model takes as a fact, and
        satisfies every rule that is not a constraint: a body that holds in
        ``total`` holds in the reduct, weights being non-negative, so the
        rule fires there and puts its head in the least model, which is
        ``total``; a choice rule is satisfied whatever it derives, and
        disjunctive heads are rejected when the checker is built.  So only
        the constraint bodies are left to check.
        """
        if self.program.least_model(total, total) != total:
            return False

        def holds(lit: int) -> bool:
            return (abs(lit) in total) == (lit > 0)

        return not any(_body_true(s.body, holds) for s in self.constraints)

    def violated(self, lower, upper) -> bool:
        """True iff a constraint body holds in every interpretation that
        contains ``lower`` and lies inside ``upper``."""
        def holds(lit: int) -> bool:
            return lit in lower if lit > 0 else -lit not in upper

        return any(_body_true(s.body, holds) for s in self.constraints)


def check_answer_set(g, answer_names) -> bool:
    """True iff the named atoms form an answer set of the program.

    Every answer set lies between the bounds of the well-founded model, so
    they seed :meth:`_Checker.complete` without changing the verdict; the
    model is cached per program, and the explanation reuses it.
    """
    checker = _Checker(g.aspif)
    named_true = set()
    for name in answer_names:
        if name not in checker.names:
            raise UnknownLiteral(f"unknown atom {name!r} in answer set")
        named_true.add(checker.names[name])
    wf_true, wf_false = g.aspif.well_founded()
    # Every named atom not listed is false; the guess must also cover facts.
    for total in checker.complete(frozenset(named_true), wf_true,
                                  g.aspif.atom_ids() - wf_false):
        if checker.is_stable(total):
            return True
    return False


def enumerate_answer_sets(g, max_named: int = MAX_NAMED_ATOMS) -> list[Interpretation]:
    """All answer sets, projected to named atoms, in deterministic order.

    A depth-first search over the named atoms the well-founded model leaves
    undecided, as in the ``expand`` step of Smodels (Simons, Niemelä &
    Soininen 2002).  A node assumes some of them true and some false and
    holds the bounds :meth:`AspifProgram.alternating_fixpoint` gives under
    these assumptions, starting from its parent's upper bound; the root
    holds the well-founded model.  A node is cut when an assumed-false atom
    is in the lower bound, an assumed-true one is outside the upper bound,
    or a constraint body holds between the bounds: no answer set extends
    it.  Otherwise it branches on the first atom it leaves undecided, and
    once it decides them all it checks its named atoms exactly, with the
    bounds as the seed of :meth:`_Checker.complete`.  The answer sets come
    by size, then by the positions of their undecided atoms in name order,
    as subsets come from :func:`itertools.combinations`.
    """
    program = g.aspif
    checker = _Checker(program)
    candidates = sorted(n for n, i in checker.names.items()
                        if i not in checker.externals)
    if len(candidates) > max_named:
        raise TooLarge(
            f"{len(candidates)} named atoms exceed the enumeration cap "
            f"of {max_named}")
    wf_true, wf_false = program.well_founded()
    decided = wf_true | wf_false
    free = [checker.names[n] for n in candidates
            if checker.names[n] not in decided]
    root = (wf_true, program.atom_ids() - wf_false)
    stack = [] if checker.violated(*root) else [(frozenset(), frozenset(),
                                                root)]
    found: list[tuple[list[int], Interpretation]] = []
    while stack:
        true, false, (lower, upper) = stack.pop()
        atom = next((a for a in free if a in upper and a not in lower), None)
        if atom is None:
            ids = frozenset(i for i in checker.named_ids if i in lower)
            if any(checker.is_stable(total)
                   for total in checker.complete(ids, lower, upper)):
                chosen = [k for k, a in enumerate(free) if a in lower]
                found.append(([len(chosen), *chosen], frozenset(
                    n for n, i in checker.names.items() if i in ids)))
            continue
        for child_true, child_false in ((true | {atom}, false),
                                        (true, false | {atom})):
            bounds = program.alternating_fixpoint(child_true, child_false,
                                                  upper)
            if not (child_false & bounds[0] or child_true - bounds[1]
                    or checker.violated(*bounds)):
                stack.append((child_true, child_false, bounds))
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
