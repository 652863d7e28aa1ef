"""The table's check pass against the one it replaced.

``reference_check_rules`` is the earlier ``support.check_rules``, kept
unchanged: it read every rule of every named atom in ``er_key_order``, then
every constraint.  Faults injected into random programs and into the bundled
examples must make ``SupportTable(g, A)`` raise the error the reference
raises first, with the same type and message, or neither raises.
"""

from __future__ import annotations

import collections
import pathlib
import random

import pytest

from aspexplain import cli, egraph, oracle
from aspexplain.aspif import (
    AspifProgram,
    NormalBody,
    RuleStatement,
    WeightBody,
    parse_aspif,
)
from aspexplain.egraph import SupportTable
from aspexplain.errors import ReconstructionError
from aspexplain.ground import (
    ChoiceAtomSpec,
    GroundProgram,
    GroundRule,
    reconstruct,
)
from aspexplain.support import er_key_order

from test_shrink import families

DATA = pathlib.Path(__file__).parent / "data"


def reference_check_rules(g: GroundProgram, A: frozenset[int]) -> None:
    named = g.named
    for aid in er_key_order(g):
        for rule in g.rules_for_head(aid):
            rule.check_interpreted()
            for terms, sign in ((rule.pos_body, 1), (rule.neg_body, -1)):
                for term in terms:
                    if isinstance(term, ChoiceAtomSpec):
                        g.satisfied_elements(term, A)
                    elif term not in named:
                        # A named literal resolves to itself.
                        g.resolve_aux(sign * term)
    for rule in g.constraints():
        if g.constraint_bodies(rule):
            for term in (*rule.pos_body, *rule.neg_body):
                if isinstance(term, ChoiceAtomSpec):
                    g.satisfied_elements(term, A)


# --- faults -----------------------------------------------------------------

def rule(head, *body) -> RuleStatement:
    return RuleStatement(0, tuple(head), NormalBody(tuple(body)))


def choice(*head) -> RuleStatement:
    return RuleStatement(1, tuple(head), NormalBody(()))


def reader(rng, named, lit) -> RuleStatement:
    """A rule of a named atom, or a constraint, that reads ``lit`` or its
    negation."""
    lit = lit if rng.random() < 0.5 else -lit
    return rule([rng.choice(named)] if rng.random() < 0.7 else [], lit)


def mixed_weights(rng, named, fresh):
    # h :- 1 <= {a=1, b=2}, or the same weight body in a constraint.
    a, b = rng.choice(named), rng.choice(named)
    head = [rng.choice(named)] if rng.random() < 0.7 else []
    return [RuleStatement(0, tuple(head), WeightBody(1, ((a, 1), (b, 2))))]


def cycle(rng, named, fresh):
    # h :- x.  x :- y.  y :- x.
    x, y = fresh(), fresh()
    return [reader(rng, named, x), rule([x], y), rule([y], x)]


def hidden_choice_head(rng, named, fresh):
    # {x}.  h :- x.
    x = fresh()
    return [choice(x), reader(rng, named, x)]


def hidden_condition(rng, named, fresh):
    # A choice element (e, c) whose condition c raises when it is resolved,
    # which happens only where e holds: h :- 1 <= {(e, c)}, or the weight
    # atom w of that body read by a rule or a constraint.
    e, c, t, w = rng.choice(named), fresh(), fresh(), fresh()
    if rng.random() < 0.5:
        raising = [choice(c)]
        t_rule = rule([t], e, -c)
    else:
        d = fresh()
        raising = [rule([c], d), rule([d], c)]
        t_rule = rule([t], e, c)
    weight = WeightBody(1, ((t, 1),))
    if rng.random() < 0.5:
        users = [RuleStatement(0, (rng.choice(named),), weight)]
    else:
        users = [RuleStatement(0, (w,), weight), reader(rng, named, w)]
    return [*raising, t_rule, *users]


FAULTS = (mixed_weights, cycle, hidden_choice_head, hidden_condition)


def inject(program: AspifProgram, rng: random.Random) -> AspifProgram:
    """``program`` with one to three faults, their statements inserted at
    random places."""
    named = [s.condition[0] for s in program.outputs]
    next_id = max(program.atom_ids) + 1

    def fresh() -> int:
        nonlocal next_id
        next_id += 1
        return next_id - 1

    statements = list(program.statements)
    for _ in range(rng.randint(1, 3)):
        for stmt in rng.choice(FAULTS)(rng, named, fresh):
            statements.insert(rng.randint(0, len(statements)), stmt)
    return AspifProgram(statements)


def first_error(check, program: AspifProgram, names) -> tuple | None:
    g = reconstruct(program)
    try:
        check(g, g.answer_from_names(names))
    except ReconstructionError as error:
        return type(error).__name__, str(error)
    return None


def answers(g: GroundProgram, rng: random.Random) -> list[list[str]]:
    """Up to two answer sets of ``g`` and two random interpretations."""
    models = [sorted(m) for m in oracle.enumerate_answer_sets(g)[:2]]
    names = list(g.named.values())
    return models + [rng.sample(names, rng.randint(0, len(names)))
                     for _ in range(2)]


def compare(program: AspifProgram, rng: random.Random, outcomes) -> None:
    for names in answers(reconstruct(program), rng):
        faulty = inject(program, rng)
        expected = first_error(reference_check_rules, faulty, names)
        assert first_error(SupportTable, faulty, names) == expected
        outcomes[expected and expected[0]] += 1


def test_random_programs_raise_the_first_error_of_the_reference():
    outcomes = collections.Counter()
    for seed in range(150):
        rng = random.Random(seed)
        g = oracle.random_program(seed, n_atoms=6, n_rules=10,
                                  p_choice=rng.choice((0.0, 0.3, 0.6)))
        compare(g.aspif, rng, outcomes)
    # Every kind of error is met, and some programs raise none.
    assert set(outcomes) == {None, "UnsupportedWeightBody", "AuxCycle",
                             "ReconstructionError"}, outcomes
    assert min(outcomes.values()) > 10, outcomes


@pytest.mark.parametrize("name", ["p1", "coloring"])
def test_bundled_examples_raise_the_first_error_of_the_reference(name):
    program = parse_aspif((DATA / f"{name}.aspif").read_text())
    outcomes = collections.Counter()
    for seed in range(40):
        compare(program, random.Random(seed), outcomes)
    assert len(outcomes) >= 3, outcomes


def test_an_unfaulted_program_raises_in_neither():
    g = oracle.random_program(3)
    A = g.answer_from_names(sorted(oracle.enumerate_answer_sets(g)[0]))
    reference_check_rules(g, A)
    SupportTable(g, A)


# --- what a cold explain walks ---------------------------------------------

def test_cold_explain_of_a_ring_walks_each_body_once(monkeypatch, tmp_path,
                                                     capsys):
    # Of ring(120)'s 480 constraints, the 360 edge constraints have named
    # literals only: reconstruction files their bodies.  The 120 vertex
    # constraints :- l(body), not 1 <= {...} <= 1 read a hidden atom, which
    # the check pass resolves, once per vertex, with the 360 choice rules
    # {colored(v,c)} :- l(body), color(c) that read it.  No other rule can
    # raise, so the check pass reads no other rule.
    inst = families.ring(120)
    path = tmp_path / "ring.aspif"
    path.write_text(inst.text)
    computed = []
    walked = []
    visited = []
    checking = False
    bodies = GroundProgram.constraint_bodies
    resolve = GroundProgram._resolve
    check_interpreted = GroundRule.check_interpreted
    check_rules = egraph.check_rules
    loaded = []

    def counting_bodies(self, rule):
        if rule.statement_index not in self._body_memo:
            computed.append(rule.statement_index)
        return bodies(self, rule)

    def counting_resolve(self, lit, path):
        walked.append(lit)
        return resolve(self, lit, path)

    def counting_check(rule):
        if checking:
            visited.append(rule)
        return check_interpreted(rule)

    def check_pass(g, A):
        nonlocal checking
        filed = len(g._body_memo)
        checking = True
        try:
            check_rules(g, A)
        finally:
            checking = False
        loaded.append((g, filed))

    monkeypatch.setattr(GroundProgram, "constraint_bodies", counting_bodies)
    monkeypatch.setattr(GroundProgram, "_resolve", counting_resolve)
    monkeypatch.setattr(GroundRule, "check_interpreted", counting_check)
    monkeypatch.setattr(egraph, "check_rules", check_pass)
    code = cli.main(["explain", str(path), "--answer", " ".join(inst.answer),
                     "--root", "colored(1,green)"])
    assert code == 0
    assert capsys.readouterr().out.startswith("digraph explanation {")
    [(g, filed)] = loaded
    constraints = g.constraints()
    assert (len(constraints), filed) == (480, 360)
    # Each constraint's body is resolved at most once: the 120 vertex
    # constraints', by the check pass.
    assert len(computed) == len(set(computed)) == 120
    # Each hidden literal is walked at most once: the 120 vertex atoms.
    assert len(walked) == len(set(walked)) == 120
    # The check pass reads only the rules that can raise: the 360 choice
    # rules through their heads, and the 120 vertex constraints through
    # their bodies.
    can_raise = [r for r in g.rules if r.can_raise]
    assert len(visited) == len(can_raise) == 480
    assert {id(r) for r in visited} == {id(r) for r in can_raise}
    for rule in g.rules:
        hidden = [t for t in (*rule.pos_body, *rule.neg_body)
                  if isinstance(t, int) and t not in g.named]
        assert rule.can_raise == bool(hidden), rule
