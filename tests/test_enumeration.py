"""The branch-and-propagate answer-set search against two guess loops.

``reference_enumerate_answer_sets`` is the enumerator before guesses were
bounded by the well-founded model: it tries every subset of the non-fact
named atoms.  ``reference_bounded_enumerate_answer_sets`` is the enumerator
before the search: it tries every subset of the named atoms the
well-founded model leaves undecided.  Both complete each guess with the
clamped pass of ``reference_complete`` and stay here as slow references;
the search must return the same list in the same order.
"""

from __future__ import annotations

import itertools

import pytest

from aspexplain import cli, oracle
from aspexplain.aspif import (
    HEAD_CHOICE,
    HEAD_DISJUNCTIVE,
    WeightBody,
    parse_aspif,
)
from aspexplain.errors import TooLarge
from aspexplain.ground import reconstruct

from test_oracle import (
    reference_check_answer_set,
    reference_complete,
    reference_facts,
    reference_is_stable,
    reference_names,
)


def _subsets_by_size(items: list[str]):
    for size in range(len(items) + 1):
        yield from itertools.combinations(items, size)


def reference_enumerate_answer_sets(g, max_named: int = oracle.MAX_NAMED_ATOMS):
    checker = oracle._Checker(g)
    names_to_ids = reference_names(g.aspif)
    externals = reference_facts(g.aspif)
    named_facts = sorted(n for n, i in names_to_ids.items() if i in externals)
    candidates = sorted(n for n, i in names_to_ids.items()
                        if i not in externals)
    if len(candidates) > max_named:
        raise TooLarge(
            f"{len(candidates)} named atoms exceed the enumeration cap "
            f"of {max_named}")
    found = []
    for subset in _subsets_by_size(candidates):
        names = frozenset(named_facts) | frozenset(subset)
        ids = frozenset(names_to_ids[n] for n in names)
        if any(reference_is_stable(checker, total)
               for total in reference_complete(checker, ids)):
            found.append(names)
    return found


def reference_bounded_enumerate_answer_sets(
        g, max_named: int = oracle.MAX_NAMED_ATOMS):
    checker = oracle._Checker(g)
    names_to_ids = reference_names(g.aspif)
    externals = reference_facts(g.aspif)
    candidates = sorted(n for n, i in names_to_ids.items()
                        if i not in externals)
    if len(candidates) > max_named:
        raise TooLarge(
            f"{len(candidates)} named atoms exceed the enumeration cap "
            f"of {max_named}")
    wf_true, wf_false = g.aspif.well_founded
    decided = wf_true | wf_false
    forced = frozenset(n for n, i in names_to_ids.items() if i in wf_true)
    free = [n for n in candidates if names_to_ids[n] not in decided]
    found = []
    for subset in _subsets_by_size(free):
        names = forced | frozenset(subset)
        ids = frozenset(names_to_ids[n] for n in names)
        if any(reference_is_stable(checker, total)
               for total in reference_complete(checker, ids)):
            found.append(names)
    return found


def build(body: str):
    return reconstruct(parse_aspif("asp 1 0 0\n" + body + "0\n"))


def named(*pairs: tuple[int, str]) -> str:
    return "".join(f"4 {len(name)} {name} 1 {aid}\n" for aid, name in pairs)


# a(i) :- not b(i).  b(i) :- not a(i).  c :- a(1), ..., a(4).
# d :- b(1), b(2).  d :- b(3), b(4).
EVEN_LOOPS_WITH_D = (
    "".join(f"1 0 1 {2 * i + 1} 0 1 -{2 * i + 2}\n"
            f"1 0 1 {2 * i + 2} 0 1 -{2 * i + 1}\n" for i in range(4))
    + "1 0 1 9 0 4 1 3 5 7\n"
    + "1 0 1 10 0 2 2 4\n1 0 1 10 0 2 6 8\n"
    + named(*((2 * i + 1, f"a({i + 1})") for i in range(4)),
            *((2 * i + 2, f"b({i + 1})") for i in range(4)),
            (9, "c"), (10, "d"))
)

# p.  q :- p.  r :- not q.  s :- not r.  t has no rule.
ALL_DECIDED = (
    "1 0 1 1 0 0\n1 0 1 2 0 1 1\n1 0 1 3 0 1 -2\n1 0 1 4 0 1 -3\n"
    + named((1, "p"), (2, "q"), (3, "r"), (4, "s"), (5, "t"))
)

# p is an external fact.  q :- p.  {r}.  s :- not r.
NAMED_FACT = (
    "5 1 2\n1 0 1 2 0 1 1\n1 1 1 3 0 0\n1 0 1 4 0 1 -3\n"
    + named((1, "p"), (2, "q"), (3, "r"), (4, "s"))
)


def random_programs():
    for seed in range(20):
        for n_atoms in (6, 8, 10):
            yield oracle.random_program(seed, n_atoms=n_atoms, n_rules=12,
                                        p_choice=0.5)


def test_random_programs_cover_weight_bodies_choices_and_constraints():
    kinds = set()
    for g in random_programs():
        for stmt in g.aspif.rules:
            if isinstance(stmt.body, WeightBody):
                kinds.add("weight")
            if stmt.head_type == HEAD_CHOICE:
                kinds.add("choice")
            if stmt.head_type == HEAD_DISJUNCTIVE and not stmt.head:
                kinds.add("constraint")
    assert kinds == {"weight", "choice", "constraint"}


def test_random_programs_match_reference():
    programs = list(random_programs())
    fast = [oracle.enumerate_answer_sets(g) for g in programs]
    assert fast == [reference_enumerate_answer_sets(g) for g in programs]
    assert [] in fast and any(len(found) > 1 for found in fast)


def sweep_programs():
    for seed in range(600):
        for n_atoms in (8, 9, 10):
            yield oracle.random_program(seed, n_atoms=n_atoms)


def choice_programs():
    for seed in range(200):
        for n_atoms in (6, 8, 10):
            yield oracle.random_program(seed, n_atoms=n_atoms, n_rules=12,
                                        p_choice=0.5)


@pytest.mark.parametrize("source", [sweep_programs, choice_programs])
def test_search_matches_bounded_reference(source):
    programs = list(source())
    fast = [oracle.enumerate_answer_sets(g) for g in programs]
    assert fast == [reference_bounded_enumerate_answer_sets(g)
                    for g in programs]
    assert [] in fast and any(len(found) > 2 for found in fast)


@pytest.mark.parametrize("body", [EVEN_LOOPS_WITH_D, ALL_DECIDED, NAMED_FACT],
                         ids=["even_loops_with_d", "all_decided",
                              "named_fact"])
def test_fixed_programs_match_reference(body):
    g = build(body)
    found = oracle.enumerate_answer_sets(g)
    assert found == reference_enumerate_answer_sets(g)
    assert found


def test_even_loops_with_d():
    found = oracle.enumerate_answer_sets(build(EVEN_LOOPS_WITH_D))
    assert len(found) == 16
    assert all(("d" in m) == ({"b(1)", "b(2)"} <= m or {"b(3)", "b(4)"} <= m)
               for m in found)


def counted_leaves(monkeypatch) -> list:
    """The interpretation of each call to ``_Checker.is_reduct_model`` from
    now on: one per leaf the search reaches."""
    leaves = []
    is_reduct_model = oracle._Checker.is_reduct_model

    def counting(self, total):
        leaves.append(total)
        return is_reduct_model(self, total)

    monkeypatch.setattr(oracle._Checker, "is_reduct_model", counting)
    return leaves


def counted_guesses(monkeypatch) -> list:
    """The named atoms of each call to ``reference_complete`` from now
    on: one per guess a reference tries."""
    guesses = []
    complete = reference_complete

    def counting(checker, named_true):
        guesses.append(named_true)
        return complete(checker, named_true)

    monkeypatch.setitem(globals(), "reference_complete", counting)
    return guesses


def test_even_loops_with_d_checks_only_answer_sets(monkeypatch):
    # The ten named atoms are all undecided at the root; the bounded loop
    # tried all 2^10 subsets, the search reaches one leaf per answer set.
    leaves = counted_leaves(monkeypatch)
    assert len(oracle.enumerate_answer_sets(build(EVEN_LOOPS_WITH_D))) == 16
    assert len(leaves) == 16
    guesses = counted_guesses(monkeypatch)
    reference_bounded_enumerate_answer_sets(build(EVEN_LOOPS_WITH_D))
    assert len(guesses) == 1024


# a :- not b.  b :- a.  Both are undecided at the root.  Assuming a true
# derives b, so a is outside the upper bound; assuming a false derives a.
ODD_LOOP = "1 0 1 1 0 1 -2\n1 0 1 2 0 1 1\n" + named((1, "a"), (2, "b"))

# a :- not b.  b :- not a.  :- a.  Assuming a true violates the constraint.
EVEN_LOOP_WITHOUT_A = ("1 0 1 1 0 1 -2\n1 0 1 2 0 1 -1\n1 0 0 0 1 1\n"
                       + named((1, "a"), (2, "b")))


@pytest.mark.parametrize("body, leaves", [(ODD_LOOP, 0),
                                          (EVEN_LOOP_WITHOUT_A, 1)],
                         ids=["odd_loop", "even_loop_without_a"])
def test_cut_branches_reach_no_leaf(monkeypatch, body, leaves):
    expected = reference_bounded_enumerate_answer_sets(build(body))
    counted = counted_leaves(monkeypatch)
    assert oracle.enumerate_answer_sets(build(body)) == expected
    assert len(counted) == leaves == len(expected)


def test_well_founded_model_is_computed_once():
    g = build(EVEN_LOOPS_WITH_D)
    assert g.aspif.well_founded is g.aspif.well_founded


def test_decided_program_makes_one_guess(monkeypatch):
    leaves = counted_leaves(monkeypatch)
    assert oracle.enumerate_answer_sets(build(ALL_DECIDED)) \
        == [frozenset({"p", "q", "s"})]
    assert len(leaves) == 1


def test_named_fact_is_in_every_answer_set():
    assert [sorted(m) for m in oracle.enumerate_answer_sets(build(NAMED_FACT))] \
        == [["p", "q", "r"], ["p", "q", "s"]]


def many_named(n: int, head_type: int | None) -> str:
    """Named atoms x00.. with no rules, or each the head of an empty-bodied
    rule of the given aspif head type: 0 for a fact, 1 for a free choice."""
    lines = []
    for i in range(n):
        name = f"x{i:02d}"
        if head_type is not None:
            lines.append(f"1 {head_type} 1 {i + 1} 0 0")
        lines.append(f"4 {len(name)} {name} 1 {i + 1}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("head_type", [None, 0], ids=["no_rules", "facts"])
def test_named_atom_cap_skips_decided_atoms(head_type):
    # Without rules every atom is well-founded false; as facts every atom
    # is well-founded true.  Either way none is undecided, so the search
    # has nothing to branch on.  The reference still counts all 21.
    g = build(many_named(21, head_type))
    everything = frozenset(f"x{i:02d}" for i in range(21))
    assert oracle.enumerate_answer_sets(g) \
        == [everything if head_type == 0 else frozenset()]
    with pytest.raises(TooLarge, match="21 named atoms"):
        reference_enumerate_answer_sets(g)


def test_named_atom_cap_counts_undecided_atoms():
    g = build(many_named(21, 1))
    with pytest.raises(TooLarge, match="21 undecided named atoms"):
        oracle.enumerate_answer_sets(g)
    with pytest.raises(TooLarge, match="21 named atoms"):
        reference_enumerate_answer_sets(g)


def free_aux_text(pairs: int) -> str:
    """p has no rule and q :- not p; aux pairs x :- p, not y.  y :- not x.
    and :- x, y. stay undetermined on every guess with p true."""
    lines = ["1 0 1 2 0 1 -1"]
    for i in range(pairs):
        x, y = 10 + 2 * i, 11 + 2 * i
        lines += [f"1 0 1 {x} 0 2 1 -{y}", f"1 0 1 {y} 0 1 -{x}",
                  f"1 0 0 0 2 {x} {y}"]
    return "\n".join(lines) + "\n" + named((1, "p"), (2, "q"))


def test_free_aux_cap_skips_guesses_the_well_founded_model_excludes():
    g = build(free_aux_text(7))
    with pytest.raises(TooLarge, match="14 auxiliary atoms"):
        reference_enumerate_answer_sets(g)
    assert oracle.enumerate_answer_sets(g) == [frozenset({"q"})]


def test_free_aux_cap_counts_only_atoms_the_search_leaves_open():
    # p :- x(1).  x(i) :- x(i+1).  x(13) :- x(1).  q :- not p.  The clamped
    # pass of reference_complete() cannot refute the unfounded loop, the
    # well-founded bounds the search starts from make every x(i) false.
    lines = ["1 0 1 1 0 1 10", "1 0 1 2 0 1 -1"]
    lines += [f"1 0 1 {10 + i} 0 1 {11 + i}" for i in range(12)]
    lines += ["1 0 1 22 0 1 10"]
    g = build("\n".join(lines) + "\n" + named((1, "p"), (2, "q")))
    with pytest.raises(TooLarge, match="13 auxiliary atoms"):
        reference_bounded_enumerate_answer_sets(g)
    assert oracle.enumerate_answer_sets(g) == [frozenset({"q"})]


def aux_pairs_text(pairs: int) -> str:
    """{p}.  x :- p, not y.  y :- not x.  for each of ``pairs`` unnamed
    pairs: with p true, every pair is an even loop propagation leaves
    open, so the search branches on auxiliary atoms."""
    lines = ["asp 1 0 0", "1 1 1 1 0 0"]
    for i in range(pairs):
        x, y = 10 + 2 * i, 11 + 2 * i
        lines += [f"1 0 1 {x} 0 2 1 -{y}", f"1 0 1 {y} 0 1 -{x}"]
    return "\n".join(lines) + "\n" + named((1, "p")) + "0\n"


@pytest.mark.parametrize("pairs", [3, 6])
def test_search_branches_on_open_auxiliary_atoms(monkeypatch, pairs):
    g = reconstruct(parse_aspif(aux_pairs_text(pairs)))
    assert reference_enumerate_answer_sets(g) \
        == reference_bounded_enumerate_answer_sets(g) \
        == [frozenset(), frozenset({"p"})]
    assert reference_check_answer_set(g, ["p"])
    leaves = counted_leaves(monkeypatch)
    assert oracle.enumerate_answer_sets(g) == [frozenset(), frozenset({"p"})]
    # One leaf for p false, and with p true the first completion tried,
    # every x false, is stable: its siblings are skipped.
    assert len(leaves) == 2
    assert oracle.check_answer_set(g, ["p"])
    assert oracle.check_answer_set(g, [])


def test_open_auxiliary_atoms_past_the_cap(capsys, tmp_path):
    g = reconstruct(parse_aspif(aux_pairs_text(7)))
    message = "14 auxiliary atoms undetermined; enumeration cap is 12"
    for call in (oracle.enumerate_answer_sets,
                 reference_enumerate_answer_sets,
                 lambda g: oracle.check_answer_set(g, ["p"]),
                 lambda g: reference_check_answer_set(g, ["p"])):
        with pytest.raises(TooLarge, match=message):
            call(g)
    path = tmp_path / "pairs.aspif"
    path.write_text(aux_pairs_text(7))
    code = cli.main(["explain", str(path), "--answer", "p", "--root", "p"])
    assert code == 6
    assert capsys.readouterr().err == f"error: {message}\n"
