"""The counter-based least-model operator against the rescanning fixpoint.

``rescanning_least_model`` is the fixpoint the well-founded model and the
answer-set check used before ``AspifProgram.least_model``: it rescans every
rule until nothing changes, which is quadratic on a chain listed in reverse
order but simple enough to trust.  It stays here as the slow reference, and
``reference_alternating_fixpoint`` builds the alternating fixpoint on it,
each bound from scratch every round.
"""

from __future__ import annotations

import random

import pytest

from aspexplain import oracle
from aspexplain.aspif import (
    HEAD_CHOICE,
    HEAD_DISJUNCTIVE,
    AspifProgram,
    WeightBody,
    parse_aspif,
)
from aspexplain.assumptions import well_founded
from aspexplain.ground import reconstruct


def rescanning_least_model(program: AspifProgram, interpretation,
                           choosable, facts=(),
                           blocked=frozenset()) -> set[int]:
    derived = {s.atom for s in program.externals} | set(facts)
    derived -= blocked

    def holds(lit: int) -> bool:
        if lit > 0:
            return lit in derived
        return -lit not in interpretation

    def body_true(body) -> bool:
        if isinstance(body, WeightBody):
            return sum(w for l, w in body.elements if holds(l)) >= body.lower
        return all(holds(l) for l in body.literals)

    changed = True
    while changed:
        changed = False
        for stmt in program.rules:
            if stmt.head_type == HEAD_DISJUNCTIVE and not stmt.head:
                continue
            if stmt.head_type == HEAD_CHOICE:
                if choosable is None:
                    continue
                targets = [h for h in stmt.head
                           if h in choosable and h not in derived]
            else:
                targets = [h for h in stmt.head if h not in derived]
            targets = [h for h in targets if h not in blocked]
            if targets and body_true(stmt.body):
                derived.update(targets)
                changed = True
    return derived


def reference_alternating_fixpoint(program: AspifProgram, true=frozenset(),
                                   false=frozenset(), possible=None):
    """The alternating fixpoint with both bounds computed from scratch by
    ``rescanning_least_model`` each round, as it was before the lower bound
    kept its counters between rounds."""
    atoms = program.atom_ids
    upper = atoms if possible is None else possible
    lower = None
    while True:
        new_lower = rescanning_least_model(program, upper, None, true)
        if new_lower == lower:
            return lower, upper
        lower = new_lower
        upper = rescanning_least_model(program, lower, atoms, (), false)


def rescanning_well_founded(g) -> tuple[frozenset[int], frozenset[int]]:
    program = g.aspif
    atoms = program.atom_ids
    true: set[int] = set()
    possible: set[int] = set(atoms)
    while True:
        new_true = rescanning_least_model(program, possible, None)
        new_possible = rescanning_least_model(program, new_true, atoms)
        if new_true == true and new_possible == possible:
            break
        true, possible = new_true, new_possible
    return frozenset(true), frozenset(atoms - possible)


def build(body: str):
    return reconstruct(parse_aspif("asp 1 0 0\n" + body + "0\n"))


def chain_text(n: int, reverse: bool) -> str:
    """x(i) :- x(i-1) for i = 2..n from the fact x(1)."""
    rules = [f"1 0 1 {i} 0 1 {i - 1}" for i in range(2, n + 1)]
    if reverse:
        rules.reverse()
    names = [f"4 {len(f'x({i})')} x({i}) 1 {i}" for i in range(1, n + 1)]
    return "\n".join(["5 1 2", *rules, *names]) + "\n"


def even_loops_text(n: int) -> str:
    """a(i) :- not b(i).  b(i) :- not a(i).  c :- a(1), ..., a(n)."""
    lines = []
    for i in range(n):
        a, b = 2 * i + 1, 2 * i + 2
        lines += [f"1 0 1 {a} 0 1 -{b}", f"1 0 1 {b} 0 1 -{a}",
                  f"4 {len(f'a({i})')} a({i}) 1 {a}",
                  f"4 {len(f'b({i})')} b({i}) 1 {b}"]
    c = 2 * n + 1
    body = " ".join(str(2 * i + 1) for i in range(n))
    lines += [f"1 0 1 {c} 0 {n} {body}", f"4 1 c 1 {c}"]
    return "\n".join(lines) + "\n"


# h :- 2 { not a = 1, not b = 1, c = 5 }.  c :- h.  a and b have no rules,
# so the negative literals alone reach the lower bound.
NEGATIVES_REACH_LOWER = (
    "1 0 1 4 1 2 3 -1 1 -2 1 3 5\n"
    "1 0 1 3 0 1 4\n"
    "4 1 a 1 1\n4 1 b 1 2\n4 1 c 1 3\n4 1 h 1 4\n"
)


# h :- 1 { not a = 2 }.  a has no rule, so it leaves the upper bound after
# the first round, and the counter of h's body drops from 1 past 0 to -1.
NEGATIVE_WEIGHT_PASSES_ZERO = "1 0 1 2 1 1 1 -1 2\n4 1 a 1 1\n4 1 h 1 2\n"


def random_programs():
    for seed in range(200):
        for n_atoms in (6, 8):
            yield oracle.random_program(seed, n_atoms=n_atoms, n_rules=12,
                                        p_choice=0.5)


def fixed_programs():
    yield build(chain_text(60, reverse=False))
    yield build(chain_text(60, reverse=True))
    yield build(even_loops_text(4))
    yield build(NEGATIVES_REACH_LOWER)
    yield build(NEGATIVE_WEIGHT_PASSES_ZERO)


def test_random_programs_cover_every_statement_kind():
    kinds = set()
    for g in random_programs():
        for stmt in g.aspif.rules:
            kinds.add("weight" if isinstance(stmt.body, WeightBody)
                      else "normal")
            kinds.add("choice" if stmt.head_type == HEAD_CHOICE else
                      "constraint" if not stmt.head else "rule")
    assert kinds == {"weight", "normal", "choice", "constraint", "rule"}


@pytest.mark.parametrize("source", [random_programs, fixed_programs])
def test_well_founded_matches_reference(source):
    for g in source():
        assert well_founded(g) == rescanning_well_founded(g)


@pytest.mark.parametrize("source", [random_programs, fixed_programs])
def test_reduct_least_model_matches_reference(source):
    rng = random.Random(5)
    for g in source():
        atoms = sorted(g.aspif.atom_ids)
        for _ in range(3):
            total = frozenset(a for a in atoms if rng.random() < 0.5)
            assert g.aspif.least_model(total, total) \
                == rescanning_least_model(g.aspif, total, total)


@pytest.mark.parametrize("source", [random_programs, fixed_programs])
def test_assumed_facts_and_blocked_atoms_match_reference(source):
    rng = random.Random(7)
    for g in source():
        atoms = sorted(g.aspif.atom_ids)
        for _ in range(3):
            interpretation = frozenset(a for a in atoms if rng.random() < 0.5)
            facts = frozenset(a for a in atoms if rng.random() < 0.2)
            blocked = frozenset(a for a in atoms if rng.random() < 0.2)
            for choosable in (None, interpretation):
                assert g.aspif.least_model(interpretation, choosable, facts,
                                           blocked) \
                    == rescanning_least_model(g.aspif, interpretation,
                                              choosable, facts, blocked)


@pytest.mark.parametrize("source", [random_programs, fixed_programs])
def test_alternating_fixpoint_matches_reference(source):
    # The assumptions grow one atom at a time, as along a branch of the
    # answer-set search, and each node starts from its parent's upper bound
    # less the atoms assumed false, as _Checker.bounds passes it.
    rng = random.Random(11)
    for g in source():
        program = g.aspif
        atoms = sorted(program.atom_ids)
        root = program.alternating_fixpoint()
        assert root == reference_alternating_fixpoint(program)
        for _ in range(3):
            true, false, (_, upper) = frozenset(), frozenset(), root
            for atom in rng.sample(atoms, min(4, len(atoms))):
                if rng.random() < 0.5:
                    true = true | {atom}
                else:
                    false = false | {atom}
                bounds = program.alternating_fixpoint(true, false,
                                                      upper - false)
                assert bounds == reference_alternating_fixpoint(
                    program, true, false, upper - false)
                _, upper = bounds


def test_enumerate_answer_sets_matches_reference(monkeypatch):
    def programs():
        for seed in range(60):
            yield oracle.random_program(seed, n_atoms=7, n_rules=12,
                                        p_choice=0.5)
        yield from fixed_programs()

    fast = [oracle.enumerate_answer_sets(g) for g in programs()]
    # Fresh programs, so the well-founded model at the root of the search
    # is not the one the counter-based operator cached.
    monkeypatch.setattr(AspifProgram, "least_model", rescanning_least_model)
    monkeypatch.setattr(AspifProgram, "alternating_fixpoint",
                        reference_alternating_fixpoint)
    assert fast == [oracle.enumerate_answer_sets(g) for g in programs()]
    assert any(fast)


def test_negative_literals_alone_reach_the_lower_bound():
    g = build(NEGATIVES_REACH_LOWER)
    assert g.aspif.least_model(frozenset(), frozenset()) == {3, 4}
    # With a true the negatives weigh 1 < 2 and c is not derivable first.
    assert g.aspif.least_model(frozenset({1}), frozenset()) == set()
    true, false = well_founded(g)
    assert true == {3, 4}
    assert false == {1, 2}


def test_well_founded_reverse_chain_makes_every_atom_true():
    g = build(chain_text(3000, reverse=True))
    true, false = well_founded(g)
    assert true == frozenset(range(1, 3001))
    assert false == frozenset()
