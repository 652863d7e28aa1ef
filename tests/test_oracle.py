import gc
import itertools
import random
import statistics
import time
from pathlib import Path

import pytest

from aspexplain import oracle
from aspexplain.aspif import (
    HEAD_CHOICE,
    HEAD_DISJUNCTIVE,
    AspifProgram,
    WeightBody,
    emit_aspif,
    parse_aspif,
)
from aspexplain.errors import TooLarge, UnknownLiteral
from aspexplain.ground import reconstruct
from aspexplain.oracle import check_answer_set, enumerate_answer_sets, random_program


DATA = Path(__file__).parent / "data"


def build(body: str):
    return reconstruct(parse_aspif("asp 1 0 0\n" + body + "0\n"))


def test_p1_known_answer_set(p1):
    assert check_answer_set(p1, {"n(1)", "n(2)", "c", "m(1)"})


def test_p1_enumeration(p1):
    models = enumerate_answer_sets(p1)
    assert [sorted(m) for m in models] == [
        ["a", "n(1)", "n(2)"],
        ["c", "m(1)", "n(1)", "n(2)"],
        ["c", "m(2)", "n(1)", "n(2)"],
    ]


def test_p1_upper_bound_rejects_double_choice(p1):
    assert not check_answer_set(p1, {"n(1)", "n(2)", "c", "m(1)", "m(2)"})


def test_p1_empty_candidate_fails(p1):
    assert not check_answer_set(p1, set())


def test_p1_missing_fact_fails(p1):
    assert not check_answer_set(p1, {"n(2)", "c", "m(1)"})


def test_coloring_answer_set(coloring, coloring_answer):
    names = {coloring.display_atom(a) for a in coloring_answer}
    assert check_answer_set(coloring, names)


def test_coloring_same_color_rejected(coloring):
    names = {coloring.display_atom(a) for a in coloring.facts}
    names |= {"colored(1,red)", "colored(2,red)", "colored(3,blue)"}
    assert not check_answer_set(coloring, names)


def test_single_fact_program():
    gp = build("5 1 2\n4 1 p 1 1\n")
    assert [sorted(m) for m in enumerate_answer_sets(gp)] == [["p"]]


def test_odd_loop_has_no_answer_set():
    gp = build("1 0 1 1 0 1 -1\n4 1 p 1 1\n")
    assert enumerate_answer_sets(gp) == []
    assert not check_answer_set(gp, set())
    assert not check_answer_set(gp, {"p"})


def test_even_loop_has_two_answer_sets():
    gp = build("1 0 1 1 0 1 -2\n1 0 1 2 0 1 -1\n4 1 p 1 1\n4 1 q 1 2\n")
    assert [sorted(m) for m in enumerate_answer_sets(gp)] == [["p"], ["q"]]


def test_unsupported_atom_not_stable():
    gp = build("4 1 p 1 1\n")
    assert not check_answer_set(gp, {"p"})
    assert enumerate_answer_sets(gp) == [frozenset()]


def test_positive_loop_is_unfounded():
    gp = build("1 0 1 1 0 1 2\n1 0 1 2 0 1 1\n4 1 p 1 1\n4 1 q 1 2\n")
    assert [sorted(m) for m in enumerate_answer_sets(gp)] == [[]]


def test_free_choice_enumeration():
    gp = build("1 1 1 1 0 0\n4 1 p 1 1\n")
    assert [sorted(m) for m in enumerate_answer_sets(gp)] == [[], ["p"]]


def test_unknown_atom_in_answer(p1):
    with pytest.raises(UnknownLiteral):
        check_answer_set(p1, {"zzz"})


def test_enumeration_cap():
    lines = []
    for i in range(21):
        name = f"x{i:02d}"
        lines.append(f"4 {len(name)} {name} 1 {i + 1}")
    # With no rules all 21 atoms are decided false: nothing to branch on.
    assert enumerate_answer_sets(build("\n".join(lines) + "\n")) \
        == [frozenset()]
    choices = [f"1 1 1 {i + 1} 0 0" for i in range(21)]
    gp = build("\n".join(choices + lines) + "\n")
    with pytest.raises(TooLarge):
        enumerate_answer_sets(gp)


def test_generator_is_deterministic():
    a = random_program(7)
    b = random_program(7)
    assert emit_aspif(a.aspif) == emit_aspif(b.aspif)


def test_generator_varies_with_seed():
    texts = {emit_aspif(random_program(s).aspif) for s in range(8)}
    assert len(texts) > 1


def test_generator_round_trips():
    for seed in range(30):
        gp = random_program(seed, n_atoms=6)
        text = emit_aspif(gp.aspif)
        assert emit_aspif(parse_aspif(text)) == text
        reconstruct(parse_aspif(text))


def test_generator_empty_program():
    gp = random_program(0, n_atoms=0)
    assert gp.rules == []
    assert enumerate_answer_sets(gp) == [frozenset()]


def test_generator_answer_sets_verify():
    seen_models = 0
    for seed in range(25):
        gp = random_program(seed)
        for model in enumerate_answer_sets(gp):
            seen_models += 1
            assert check_answer_set(gp, model)
    assert seen_models > 0


def reference_names(program) -> dict[str, int]:
    """Symbol -> atom id, read from the output statements rather than from
    the reconstructed program's name table."""
    return {s.symbol: s.condition[0] for s in program.outputs}


def reference_facts(program) -> set[int]:
    """The external atoms, read from the external statements."""
    return {s.atom for s in program.externals}


def reference_is_stable(checker, total) -> bool:
    """The stability test that does not trust the least model: a classical
    pass over every external and rule, then the least model of the
    reduct."""
    def holds(lit: int) -> bool:
        return (abs(lit) in total) == (lit > 0)

    if any(atom not in total for atom in reference_facts(checker.program)):
        return False
    for stmt in checker.program.rules:
        body = stmt.body
        if isinstance(body, WeightBody):
            fires = sum(w for lit, w in body.elements if holds(lit)) \
                >= body.lower
        else:
            fires = all(holds(lit) for lit in body.literals)
        if not fires:
            continue
        if stmt.head_type == HEAD_DISJUNCTIVE and not stmt.head:
            return False
        if stmt.head_type == HEAD_DISJUNCTIVE \
                and not any(h in total for h in stmt.head):
            return False
    return checker.program.least_model(total, total) == total


def reference_complete(checker, named_true):
    """All total interpretations extending a guess over named atoms: the
    completion the search replaced.

    Auxiliary atoms are fixed by a clamped three-valued pass, repeated
    until nothing changes; the leftovers (cyclic auxiliary definitions)
    are enumerated, at most ``MAX_FREE_AUX`` of them.
    """
    named_ids = set(reference_names(checker.program).values())
    externals = reference_facts(checker.program)
    open_aux = set(checker.aux_ids)
    true = externals - named_ids
    false = set()

    def lit_value(lit: int) -> bool | None:
        atom = abs(lit)
        if atom in named_ids:
            value = atom in named_true
        elif atom in externals or atom in true:
            value = True
        elif atom in false:
            value = False
        else:
            return None
        return value if lit > 0 else not value

    def body_value(body) -> bool | None:
        if isinstance(body, WeightBody):
            floor = sum(w for lit, w in body.elements
                        if lit_value(lit) is True)
            ceiling = sum(w for lit, w in body.elements
                          if lit_value(lit) is not False)
            if floor >= body.lower:
                return True
            return False if ceiling < body.lower else None
        values = [lit_value(lit) for lit in body.literals]
        if False in values:
            return False
        return True if all(values) else None

    changed = True
    while changed:
        changed = False
        for aux in sorted(open_aux):
            statements = checker.program.definitions.get(aux, [])
            values = [body_value(s.body) for s in statements]
            if any(v is True and s.head_type != HEAD_CHOICE
                   for s, v in zip(statements, values)):
                true.add(aux)
            elif all(v is False for v in values):
                false.add(aux)
            else:
                continue
            open_aux.discard(aux)
            changed = True

    free = sorted(open_aux)
    if len(free) > oracle.MAX_FREE_AUX:
        raise TooLarge(
            f"{len(free)} auxiliary atoms undetermined; enumeration cap "
            f"is {oracle.MAX_FREE_AUX}")
    base = frozenset(true) | named_true
    return [base | {free[i] for i in range(len(free)) if mask >> i & 1}
            for mask in range(1 << len(free))]


def reference_check_answer_set(gp, answer_names) -> bool:
    """The check with an unseeded completion: the clamped pass decides the
    auxiliary atoms from the named guess alone."""
    checker = oracle._Checker(gp)
    names = reference_names(gp.aspif)
    named_true = frozenset(names[n] for n in answer_names)
    return any(reference_is_stable(checker, total)
               for total in reference_complete(checker, named_true))


@pytest.mark.parametrize("n_atoms", [6, 8])
@pytest.mark.parametrize("p_choice", [0.0, 0.5])
def test_is_stable_matches_classical_reference(n_atoms, p_choice):
    # Every guess over the named atoms when there are at most 64, otherwise
    # 64 drawn from the seed, and the answer sets; every completion of each.
    totals = stable = 0
    for seed in range(200):
        gp = random_program(seed, n_atoms=n_atoms, p_choice=p_choice)
        checker = oracle._Checker(gp)
        names = reference_names(gp.aspif)
        named = sorted(names.values())
        guesses = [frozenset(itertools.compress(named, mask))
                   for mask in itertools.product((0, 1), repeat=len(named))]
        if len(guesses) > 64:
            guesses = random.Random(seed).sample(guesses, 64)
        guesses += [frozenset(names[n] for n in model)
                    for model in enumerate_answer_sets(gp)]
        for guess in guesses:
            try:
                completions = reference_complete(checker, guess)
            except TooLarge:
                continue
            for total in completions:
                # The test the search applies at a leaf.
                verdict = checker.is_reduct_model(total) \
                    and not checker.violated(total, total)
                assert verdict == reference_is_stable(checker, total), \
                    (seed, sorted(total))
                totals += 1
                stable += verdict
    assert totals > 12000 and stable > 100, (totals, stable)


def test_seeded_check_matches_unseeded():
    checked = accepted = 0
    for seed in range(80):
        for n_atoms in (5, 6):
            gp = random_program(seed, n_atoms=n_atoms, p_choice=0.5)
            names = sorted(gp.display_atom(a) for a in gp.named_ids())
            for size in range(len(names) + 1):
                for subset in itertools.combinations(names, size):
                    try:
                        expected = reference_check_answer_set(gp, subset)
                    except TooLarge:
                        continue
                    verdict = check_answer_set(gp, subset)
                    assert verdict == expected, (seed, n_atoms, subset)
                    checked += 1
                    accepted += verdict
    assert checked > 4000 and accepted > 100, (checked, accepted)


def reference_check_from_well_founded(gp, answer_names) -> bool:
    """The check whose root propagates the assumptions from the
    well-founded model rather than from (∅, every atom)."""
    checker = oracle._Checker(gp)
    true = gp.answer_from_names(answer_names)
    false = frozenset(gp.named.keys() - true)
    wf_true, wf_false = gp.aspif.well_founded
    root = checker.bounds(true, false,
                          (wf_true, gp.aspif.atom_ids - wf_false))
    return next(checker.search(true, false, root, ()), None) is not None


def outcome(check, gp, names):
    """The check's verdict, or TooLarge when it raises that."""
    try:
        return check(gp, names)
    except TooLarge:
        return TooLarge


@pytest.mark.parametrize("n_atoms", [6, 8])
@pytest.mark.parametrize("p_choice", [0.0, 0.5])
def test_check_matches_the_check_from_the_well_founded_model(n_atoms,
                                                             p_choice):
    # Every answer set and 20 random guesses over the named atoms.
    checked = accepted = 0
    for seed in range(400):
        gp = random_program(seed, n_atoms=n_atoms, p_choice=p_choice)
        names = sorted(gp.display_atom(a) for a in gp.named_ids())
        try:
            guesses = [sorted(model) for model in enumerate_answer_sets(gp)]
        except TooLarge:
            guesses = []
        rng = random.Random(seed)
        guesses += [[n for n in names if rng.random() < 0.5]
                    for _ in range(20)]
        for guess in guesses:
            expected = outcome(reference_check_from_well_founded, gp, guess)
            assert outcome(check_answer_set, gp, guess) == expected, \
                (seed, guess)
            checked += 1
            accepted += expected is True
    assert checked > 8000 and accepted > 200, (checked, accepted)


def test_check_is_too_large_where_the_check_from_the_well_founded_model_is():
    # 13 even loops over hidden atoms, which no bound decides.
    lines = ["asp 1 0 0", "1 0 1 1 0 0", "4 1 p 1 1"]
    for i in range(2, 28, 2):
        lines += [f"1 0 1 {i} 0 1 -{i + 1}", f"1 0 1 {i + 1} 0 1 -{i}"]
    gp = reconstruct(parse_aspif("\n".join(lines + ["0\n"])))
    for check in (check_answer_set, reference_check_from_well_founded):
        assert outcome(check, gp, ["p"]) is TooLarge


def test_check_of_a_program_with_no_named_atom_computes_the_fixpoint():
    # With nothing to assume, the root's bounds are the alternating
    # fixpoint, which decides the 20 auxiliary atoms of this chain; kept
    # at (∅, every atom), they would leave all 20 open, over the cap.
    lines = ["asp 1 0 0", "1 0 1 1 0 0"]
    lines += [f"1 0 1 {i} 0 1 {i - 1}" for i in range(2, 21)]
    gp = reconstruct(parse_aspif("\n".join(lines + ["0\n"])))
    assert not gp.named
    assert check_answer_set(gp, [])


def aux_chain(n: int):
    """p :- l(3).  l(i) :- l(i+1) for 3 <= i < n.  l(n) :- not q."""
    lines = ["asp 1 0 0", "1 0 1 1 0 1 3"]
    lines += [f"1 0 1 {i} 0 1 {i + 1}" for i in range(3, n)]
    lines += [f"1 0 1 {n} 0 1 -2", "4 1 p 1 1", "4 1 q 1 2", "0\n"]
    return reconstruct(parse_aspif("\n".join(lines)))


def test_check_is_linear_on_an_auxiliary_chain(monkeypatch):
    # Unseeded, the clamped pass decides one level per pass over the open
    # auxiliary atoms: 6.2 s at 1500 levels and 25.3 s at 3000.
    def timed(n):
        gp = aux_chain(n)
        start = time.perf_counter()
        assert check_answer_set(gp, ["p"])
        elapsed = time.perf_counter() - start
        assert not check_answer_set(gp, ["p", "q"])
        return elapsed

    # The collector's passes over the heap earlier tests leave would be
    # timed too, and they do not scale with the chain.  The two sizes take
    # turns and each pair gives one ratio, so a slowdown of the host weighs
    # on both sizes of a pair alike; the median ratio of seven pairs is
    # compared with the bound.
    gc.collect()
    gc.disable()
    try:
        runs = [(timed(1500), timed(3000)) for _ in range(7)]
    finally:
        gc.enable()
    assert statistics.median(large / small for small, large in runs) < 3, runs

    # The work, counted apart from the timing: a fixed number of linear
    # least-model passes, whatever the depth.
    def passes(n):
        gp = aux_chain(n)
        calls = []
        least_model = AspifProgram.least_model

        def counting(self, *args, **kwargs):
            calls.append(None)
            return least_model(self, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(AspifProgram, "least_model", counting)
            assert check_answer_set(gp, ["p"])
        return len(calls)

    assert passes(1500) == passes(3000)


def test_check_of_a_folded_choice_makes_four_full_passes(
        monkeypatch, coloring_text):
    # A ring 3-colouring with its choice bounds compiled to
    # `ok :- lo, not hi`.  A full pass reads every rule to start the
    # counters of a least model: three for the fixpoint under the answer
    # (lower, upper, upper: the lower bound continues from its counters)
    # and one for the stability test.  The well-founded model is not
    # computed.
    gp = reconstruct(parse_aspif(coloring_text))
    answer = (DATA / "coloring_answer.txt").read_text().split()
    calls = {"_start": 0, "least_model": 0}

    def counting(name):
        method = getattr(AspifProgram, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return method(self, *args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(AspifProgram, name, counting(name))
    assert check_answer_set(gp, answer)
    assert calls == {"_start": 4, "least_model": 3}
    assert "well_founded" not in gp.aspif.__dict__


def test_check_tests_each_constraint_once(monkeypatch):
    # The bounds of every node already passed the constraint test, so the
    # leaf tests only the least model of the reduct: one `_body_true` call
    # per constraint statement, and a number of propagations that does not
    # grow with the ring.
    from test_shrink import families

    def counts(n):
        instance = families.ring(n)
        gp = reconstruct(parse_aspif(instance.text))
        calls = {"_body_true": 0, "_propagate": 0}
        body_true = oracle._body_true
        propagate = AspifProgram._propagate

        def counting_body_true(*args):
            calls["_body_true"] += 1
            return body_true(*args)

        def counting_propagate(self, *args, **kwargs):
            calls["_propagate"] += 1
            return propagate(self, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_body_true", counting_body_true)
            patch.setattr(AspifProgram, "_propagate", counting_propagate)
            assert check_answer_set(gp, instance.answer)
        constraints = len(gp.aspif.constraints)
        return calls, constraints

    small, constraints = counts(30)
    assert small["_body_true"] == constraints == 120
    assert counts(120)[0]["_propagate"] == small["_propagate"]
