"""Tests for tentative assumptions, derivation analysis, and minimal U."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aspexplain import assumptions, nodes, oracle
from aspexplain.aspif import parse_aspif
from aspexplain.assumptions import (
    _EXACT_SEARCH_LIMIT,
    _stuck_after,
    derivation_analysis,
    min_cycle_break,
    minimal_assumption_sets,
    tentative_assumptions,
    well_founded,
)
from aspexplain.constraints import constraint_preprocessing
from aspexplain.egraph import SupportTable, merge_supports
from aspexplain.errors import TooLarge
from aspexplain.ground import reconstruct
from aspexplain.support import build_er


def build(body: str):
    return reconstruct(parse_aspif("asp 1 0 0\n" + body + "0\n"))


def names(g, ids):
    return frozenset(g.display_atom(a) for a in ids)


EVEN_LOOP = (
    "1 0 1 1 0 1 -2\n"
    "1 0 1 2 0 1 -1\n"
    "4 1 a 1 1\n"
    "4 1 b 1 2\n"
)


def da_ring(n: int) -> str:
    """x(i) :- not y(i).  y(i) :- not x(i+1 mod n).  With every y(i) true,
    the derivation of ~x(i) stops at x(i+1), so DA is a ring of n atoms."""
    rules = "".join(f"1 0 1 {i + 1} 0 1 -{n + i + 1}\n"
                    f"1 0 1 {n + i + 1} 0 1 -{(i + 1) % n + 1}\n"
                    for i in range(n))
    symbols = "".join(f"4 {len(str(i)) + 3} x({i}) 1 {i + 1}\n"
                      f"4 {len(str(i)) + 3} y({i}) 1 {n + i + 1}\n"
                      for i in range(n))
    return rules + symbols


# a :- not b, not c.  b :- not d.  d :- not b.  c :- not e.  e :- not c.
# z :- not a.  With b, c and z true, ~a derives from d or from e.
TWO_D_SETS = (
    "1 0 1 1 0 2 -2 -3\n"
    "1 0 1 2 0 1 -4\n"
    "1 0 1 4 0 1 -2\n"
    "1 0 1 3 0 1 -5\n"
    "1 0 1 5 0 1 -3\n"
    "1 0 1 6 0 1 -1\n"
    + "".join(f"4 1 {n} 1 {i}\n" for i, n in enumerate("abcdez", start=1))
)


def two_cycles(n: int) -> str:
    """n copies of x1 :- x2.  x2 :- x1.  x1 :- not y.  y :- not z.
    z :- not y.  w :- not x1.  w :- not x2.  With every y(i) and w(i)
    true, DA has 2n participants in n disjoint 2-cycles."""
    rules = symbols = ""
    for i in range(n):
        x1, x2, y, z, w = range(5 * i + 1, 5 * i + 6)
        rules += (f"1 0 1 {x1} 0 1 {x2}\n1 0 1 {x2} 0 1 {x1}\n"
                  f"1 0 1 {x1} 0 1 -{y}\n1 0 1 {y} 0 1 -{z}\n"
                  f"1 0 1 {z} 0 1 -{y}\n1 0 1 {w} 0 1 -{x1}\n"
                  f"1 0 1 {w} 0 1 -{x2}\n")
        for name, aid in zip(("x1", "x2", "y", "z", "w"), (x1, x2, y, z, w)):
            symbol = f"{name}({i})"
            symbols += f"4 {len(symbol)} {symbol} 1 {aid}\n"
    return rules + symbols


def reference_stuck_after(da: dict):
    """The DA keys left unresolved once the broken atoms are assumed, by
    rescanning the pending keys after each key resolved."""
    keys = set(da)
    base = {a for ds in da.values() for d in ds for a in d} - keys

    def stuck_after(broken: frozenset[str]) -> set[str]:
        resolved = set(broken) | base
        pending = {k for k in keys if k not in broken}
        changed = True
        while changed and pending:
            changed = False
            for k in sorted(pending):
                if any(d <= resolved for d in da[k]):
                    resolved.add(k)
                    pending.discard(k)
                    changed = True
                    break
        return pending

    return stuck_after


def reference_min_cycle_break(da: dict) -> list[frozenset[str]]:
    """The exhaustive min(B) search: every combination of every size of
    the DA cycle participants, smallest first, kept unless a found set
    lies inside it."""
    stuck_after = reference_stuck_after(da)
    participants = sorted(stuck_after(frozenset()))
    if not participants:
        return [frozenset()]
    found: list[frozenset[str]] = []
    for size in range(1, len(participants) + 1):
        for combo in itertools.combinations(participants, size):
            candidate = frozenset(combo)
            if not any(f <= candidate for f in found) \
                    and not stuck_after(candidate):
                found.append(candidate)
    return found


class TestWellFounded:
    def test_unfounded_chain_is_false(self):
        g = build(
            "1 0 1 1 0 1 -2\n"
            "1 0 1 2 0 1 3\n"
            "4 1 x 1 1\n"
            "4 1 z 1 2\n"
            "4 1 w 1 3\n"
        )
        true, false = well_founded(g)
        assert names(g, true) == {"x"}
        assert names(g, false) == {"z", "w"}

    def test_even_loop_is_undecided(self):
        g = build(EVEN_LOOP)
        true, false = well_founded(g)
        assert true == frozenset()
        assert false == frozenset()

    def test_choice_atoms_stay_possible(self):
        g = build("1 1 1 1 0 0\n1 0 1 2 0 1 1\n4 1 p 1 1\n4 1 q 1 2\n")
        true, false = well_founded(g)
        assert true == frozenset()
        assert false == frozenset()

    def test_facts_are_true(self, p1):
        true, false = well_founded(p1)
        assert names(p1, true) == {"n(1)", "n(2)"}
        assert false == frozenset()


class TestTentativeAssumptions:
    def test_running_example(self, p1, p1_answer):
        assert tentative_assumptions(p1, p1_answer) == {"a", "b"}

    def test_well_founded_false_atoms_are_filtered(self):
        g = build(
            "1 0 1 1 0 1 -2\n"
            "1 0 1 2 0 1 3\n"
            "4 1 x 1 1\n"
            "4 1 z 1 2\n"
            "4 1 w 1 3\n"
        )
        answer = g.answer_from_names(["x"])
        assert tentative_assumptions(g, answer) == frozenset()

    def test_true_atoms_are_not_tentative(self):
        g = build(EVEN_LOOP)
        answer = g.answer_from_names(["a"])
        assert tentative_assumptions(g, answer) == {"b"}


class TestDerivationAnalysis:
    def test_running_example(self, p1, p1_answer):
        er = build_er(p1, p1_answer)
        ta = tentative_assumptions(p1, p1_answer)
        t_must, t_deferred, da = derivation_analysis(er, ta)
        assert t_must == {"a"}
        assert t_deferred == {"b"}
        assert da == {"b": [frozenset({"a"})]}

    def test_root_revisit_invalidates_the_path(self):
        g = build(EVEN_LOOP)
        answer = g.answer_from_names(["a"])
        er = build_er(g, answer)
        t_must, t_deferred, da = derivation_analysis(er, frozenset({"b"}))
        assert t_must == {"b"}
        assert t_deferred == frozenset()
        assert da == {}

    def test_d_sets_past_the_path_cap_raise(self, monkeypatch):
        g = build(TWO_D_SETS)
        answer = g.answer_from_names(["b", "c", "z"])
        er = build_er(g, answer)
        ta = tentative_assumptions(g, answer)
        monkeypatch.setattr(assumptions, "_PATH_CAP", 2)
        assert derivation_analysis(er, ta)[2] == {
            "a": [frozenset({"d"}), frozenset({"e"})]}
        monkeypatch.setattr(assumptions, "_PATH_CAP", 1)
        with pytest.raises(TooLarge, match="below ~a"):
            derivation_analysis(er, ta)

    def test_tentative_atoms_collected_from_both_answer_sets(self):
        g = build(EVEN_LOOP)
        answer = g.answer_from_names(["b"])
        er = build_er(g, answer)
        t_must, t_deferred, da = derivation_analysis(er, frozenset({"a"}))
        assert t_must == {"a"}
        assert da == {}

    def test_all_negative_cycle_closes_a_valid_path(self):
        # w could be chosen, so its falsity is not well founded; the only
        # derivation of ~w runs through the unfounded loop x/y, closed by
        # negative edges only, so no assumption is required.
        g = build(
            "1 1 1 1 0 0\n"
            "1 0 1 1 0 1 2\n"
            "1 0 1 2 0 1 3\n"
            "1 0 1 3 0 1 2\n"
            "1 0 1 4 0 1 -1\n"
            "4 1 w 1 1\n"
            "4 1 x 1 2\n"
            "4 1 y 1 3\n"
            "4 1 d 1 4\n"
        )
        answer = g.answer_from_names(["d"])
        assert oracle.check_answer_set(g, ["d"])
        er = build_er(g, answer)
        ta = tentative_assumptions(g, answer)
        assert ta == {"w"}
        t_must, t_deferred, da = derivation_analysis(er, ta)
        assert t_must == frozenset()
        assert t_deferred == {"w"}
        assert da == {"w": [frozenset()]}

    def test_cycle_with_positive_edge_is_invalid(self):
        # Hand-built table: the only path below ~r closes a cycle through
        # the positive edge into p, so it must be rejected.
        r, x, p = (nodes.neg_atom_node("r"), nodes.neg_atom_node("x"),
                   nodes.atom_node("p"))
        er = {r: [frozenset({x})], x: [frozenset({p})], p: [frozenset({x})]}
        t_must, t_deferred, da = derivation_analysis(er, frozenset({"r"}))
        assert t_must == {"r"}
        assert t_deferred == frozenset()
        assert da == {}

    def test_other_tentative_atom_terminates_the_path(self):
        g = build(
            "1 0 1 1 0 1 -2\n"
            "1 0 1 2 0 1 3\n"
            "1 0 1 3 0 1 -4\n"
            "1 0 1 4 0 1 -3\n"
            "4 1 a 1 1\n"
            "4 1 b 1 2\n"
            "4 1 x 1 3\n"
            "4 1 y 1 4\n"
        )
        answer = g.answer_from_names(["a", "y"])
        assert oracle.check_answer_set(g, ["a", "y"])
        er = build_er(g, answer)
        ta = tentative_assumptions(g, answer)
        assert ta == {"b", "x"}
        t_must, t_deferred, da = derivation_analysis(er, ta)
        assert t_must == {"x"}
        assert t_deferred == {"b"}
        assert da == {"b": [frozenset({"x"})]}

    def test_analysis_over_e_matches_the_analysis_over_e_r(
            self, p1, coloring):
        # A triggered-constraint node derives no atom, so a path ends there
        # and E gives the split E_r gives.  Some TA literal's row must hold
        # such a node, or the leaf rule is not exercised.
        programs = [p1, coloring]
        for n_atoms in (6, 8):
            programs.extend(
                oracle.random_program(seed, n_atoms=n_atoms, p_choice=0.5)
                for seed in range(100))
        answers = through_constraint = 0
        for g in programs:
            try:
                models = oracle.enumerate_answer_sets(g)
            except TooLarge:
                continue
            for model in models:
                A = g.answer_from_names(sorted(model))
                er = build_er(g, A)
                merged = merge_supports(er, constraint_preprocessing(g, A))
                ta = tentative_assumptions(g, A)
                expected = derivation_analysis(er, ta)
                assert derivation_analysis(merged, ta) == expected
                assert derivation_analysis(SupportTable(g, A), ta) == expected
                answers += 1
                through_constraint += any(
                    node.kind == nodes.CONSTRAINT for name in ta
                    for s in merged[nodes.neg_atom_node(name)] for node in s)
        assert answers > 100 and through_constraint > 10, (
            answers, through_constraint)


class TestMinCycleBreak:
    def test_two_atom_cycle(self):
        da = {"p": [frozenset({"q"})], "q": [frozenset({"p"})]}
        assert min_cycle_break(da) == [frozenset({"p"}), frozenset({"q"})]

    def test_acyclic_needs_nothing(self):
        da = {"b": [frozenset({"a"})]}
        assert min_cycle_break(da) == [frozenset()]

    def test_empty(self):
        assert min_cycle_break({}) == [frozenset()]

    def test_independent_cycles_multiply(self):
        da = {
            "p": [frozenset({"q"})],
            "q": [frozenset({"p"})],
            "r": [frozenset({"s"})],
            "s": [frozenset({"r"})],
        }
        assert min_cycle_break(da) == [
            frozenset({"p", "r"}),
            frozenset({"p", "s"}),
            frozenset({"q", "r"}),
            frozenset({"q", "s"}),
        ]

    def test_breaking_either_side_of_a_shared_cycle(self):
        da = {
            "k1": [frozenset({"k2"}), frozenset({"k3"})],
            "k2": [frozenset({"k1"})],
            "k3": [frozenset({"k1"})],
        }
        assert min_cycle_break(da) == [
            frozenset({"k1"}),
            frozenset({"k2"}),
            frozenset({"k3"}),
        ]

    def test_minimal_sets_of_different_sizes(self):
        da = {
            "p": [frozenset({"q", "r"})],
            "q": [frozenset({"p"})],
            "r": [frozenset({"p"})],
        }
        assert min_cycle_break(da) == [
            frozenset({"p"}),
            frozenset({"q", "r"}),
        ]

    def test_alternative_d_set_resolves_without_breaking(self):
        da = {
            "p": [frozenset({"q"}), frozenset()],
            "q": [frozenset({"p"})],
        }
        assert min_cycle_break(da) == [frozenset()]

    @given(st.dictionaries(
        st.sampled_from("abcdef"),
        st.lists(st.frozensets(st.sampled_from("abcdef"), max_size=3),
                 min_size=1, max_size=3),
        max_size=5))
    def test_exactly_the_minimal_break_sets(self, da):
        def everything_resolves(broken):
            resolved = set(broken) | (
                {a for ds in da.values() for d in ds for a in d} - set(da))
            remaining = set(da) - set(broken)
            progress = True
            while progress:
                progress = False
                for key in list(remaining):
                    if any(d <= resolved for d in da[key]):
                        resolved.add(key)
                        remaining.discard(key)
                        progress = True
            return not remaining

        winners = []
        for size in range(len(da) + 1):
            for combo in itertools.combinations(sorted(da), size):
                candidate = frozenset(combo)
                if any(w <= candidate for w in winners):
                    continue
                if everything_resolves(candidate):
                    winners.append(candidate)
        result = min_cycle_break(da)
        assert result
        assert set(result) == set(winners)


class TestMinCycleBreakReference:
    def test_random_da_relations(self):
        # Breaks of singletons alongside larger ones, and larger ones only.
        rng = random.Random(0)
        mixed = larger = 0
        for _ in range(3000):
            keys = rng.sample("abcdefghij", rng.randint(1, 10))
            atoms = keys + ["u", "v"]
            da = {k: [frozenset(rng.sample(atoms, rng.randint(1, 2)))
                      for _ in range(rng.randint(1, 2))] for k in keys}
            found = min_cycle_break(da)
            assert found == reference_min_cycle_break(da)
            sizes = {len(f) for f in found}
            mixed += 1 in sizes and len(sizes) > 1
            larger += min(sizes) > 1
        assert mixed > 100 and larger > 500

    def test_random_programs(self):
        cyclic = 0
        for n_atoms in (6, 8, 10):
            for seed in range(60):
                g = oracle.random_program(seed, n_atoms=n_atoms)
                try:
                    models = oracle.enumerate_answer_sets(g)
                except oracle.TooLarge:
                    continue
                for model in models:
                    answer = g.answer_from_names(sorted(model))
                    ta = tentative_assumptions(g, answer)
                    _, _, da = derivation_analysis(build_er(g, answer), ta)
                    assert min_cycle_break(da) == reference_min_cycle_break(da)
                    cyclic += bool(_stuck_after(da)(frozenset()))
        assert cyclic >= 3

    def test_stuck_keys_match_the_rescan(self):
        rng = random.Random(1)
        for _ in range(3000):
            keys = rng.sample("abcdefghij", rng.randint(1, 10))
            atoms = keys + ["u", "v"]
            da = {k: [frozenset(rng.sample(atoms, rng.randint(0, 2)))
                      for _ in range(rng.randint(1, 2))] for k in keys}
            stuck_after = _stuck_after(da)
            reference = reference_stuck_after(da)
            for _ in range(6):
                broken = frozenset(rng.sample(keys, rng.randint(
                    0, min(3, len(keys)))))
                assert stuck_after(broken) == reference(broken)

    def test_two_cycle_components(self, monkeypatch):
        n = 6
        g = build(two_cycles(n))
        answer = g.answer_from_names(
            [f"{a}({i})" for i in range(n) for a in "yw"])
        ta = tentative_assumptions(g, answer)
        _, _, da = derivation_analysis(build_er(g, answer), ta)
        found = min_cycle_break(da)
        assert len(found) == 2 ** n
        monkeypatch.setattr(assumptions, "_stuck_after",
                            reference_stuck_after)
        assert min_cycle_break(da) == found

    @pytest.mark.parametrize("n", range(16, _EXACT_SEARCH_LIMIT + 1))
    def test_da_rings(self, n):
        g = build(da_ring(n))
        answer = g.answer_from_names([f"y({i})" for i in range(n)])
        ta = tentative_assumptions(g, answer)
        _, _, da = derivation_analysis(build_er(g, answer), ta)
        assert min_cycle_break(da) == reference_min_cycle_break(da)


def assert_default_matches_whole_table(g, answer):
    """The report without a table, on the on-demand SupportTable, is the
    report over the whole merge_supports(build_er, constraint_preprocessing)."""
    whole = merge_supports(build_er(g, answer),
                           constraint_preprocessing(g, answer))
    assert minimal_assumption_sets(g, answer) == \
        minimal_assumption_sets(g, answer, table=whole)


class TestMinimalAssumptionSets:
    def test_running_example(self, p1, p1_answer):
        report = minimal_assumption_sets(p1, p1_answer)
        assert report.ta == {"a", "b"}
        assert report.t_must == {"a"}
        assert report.t_deferred == {"b"}
        assert report.da == {"b": [frozenset({"a"})]}
        assert report.min_b_candidates == [frozenset()]
        assert report.chosen_u == {"a"}

    def test_even_loop_assumes_the_false_atom(self):
        g = build(EVEN_LOOP)
        answer = g.answer_from_names(["a"])
        report = minimal_assumption_sets(g, answer)
        assert report.ta == {"b"}
        assert report.t_must == {"b"}
        assert report.min_b_candidates == [frozenset()]
        assert report.chosen_u == {"b"}

    def test_even_loop_other_answer_set(self):
        g = build(EVEN_LOOP)
        answer = g.answer_from_names(["b"])
        report = minimal_assumption_sets(g, answer)
        assert report.chosen_u == {"a"}

    def test_all_negative_cycle_needs_no_assumptions(self):
        g = build(
            "1 1 1 1 0 0\n"
            "1 0 1 1 0 1 2\n"
            "1 0 1 2 0 1 3\n"
            "1 0 1 3 0 1 2\n"
            "1 0 1 4 0 1 -1\n"
            "4 1 w 1 1\n"
            "4 1 x 1 2\n"
            "4 1 y 1 3\n"
            "4 1 d 1 4\n"
        )
        answer = g.answer_from_names(["d"])
        report = minimal_assumption_sets(g, answer)
        assert report.ta == {"w"}
        assert report.t_must == frozenset()
        assert report.min_b_candidates == [frozenset()]
        assert report.chosen_u == frozenset()

    def test_facts_only_program_is_empty(self):
        g = build("1 0 1 1 0 0\n4 1 p 1 1\n")
        answer = g.answer_from_names(["p"])
        report = minimal_assumption_sets(g, answer)
        assert report.ta == frozenset()
        assert report.min_b_candidates == [frozenset()]
        assert report.chosen_u == frozenset()

    def test_random_programs_invariants(self):
        checked = 0
        for seed in range(30):
            g = oracle.random_program(seed)
            try:
                models = oracle.enumerate_answer_sets(g)
            except oracle.TooLarge:
                continue
            for model in models[:2]:
                answer = g.answer_from_names(sorted(model))
                report = minimal_assumption_sets(g, answer)
                assert report.t_must | report.t_deferred == report.ta
                assert report.t_must & report.t_deferred == frozenset()
                assert set(report.da) == set(report.t_deferred)
                assert report.min_b_candidates
                for i, cand in enumerate(report.min_b_candidates):
                    assert report.t_must | cand <= report.ta
                    for other in report.min_b_candidates[:i]:
                        assert not cand <= other and not other <= cand
                assert report.chosen_u <= report.ta
                checked += 1
        assert checked > 10

    @pytest.mark.parametrize("n_atoms", [6, 8])
    def test_on_demand_default_matches_the_whole_table(self, n_atoms):
        for seed in range(200):
            g = oracle.random_program(seed, n_atoms=n_atoms)
            for model in oracle.enumerate_answer_sets(g):
                answer = g.answer_from_names(sorted(model))
                assert_default_matches_whole_table(g, answer)

    @pytest.mark.parametrize("example", ["p1", "coloring"])
    def test_examples_on_demand_default_matches_the_whole_table(
            self, request, example):
        assert_default_matches_whole_table(
            request.getfixturevalue(example),
            request.getfixturevalue(example + "_answer"))

    def test_small_da_ring_is_exact(self):
        g = build(da_ring(3))
        report = minimal_assumption_sets(
            g, g.answer_from_names(["y(0)", "y(1)", "y(2)"]))
        assert report.da == {f"x({i})": [frozenset({f"x({(i + 1) % 3})"})]
                             for i in range(3)}
        assert report.min_b_candidates == [
            frozenset({"x(0)"}), frozenset({"x(1)"}), frozenset({"x(2)"})]
        assert report.min_b_exact
        assert report.chosen_u == {"x(0)"}

    def test_da_ring_above_the_search_limit_is_greedy(self):
        n = _EXACT_SEARCH_LIMIT + 1
        g = build(da_ring(n))
        report = minimal_assumption_sets(
            g, g.answer_from_names([f"y({i})" for i in range(n)]))
        assert len(report.da) == n
        assert report.min_b_candidates == [frozenset({"x(0)"})]
        assert not report.min_b_exact
        assert report.chosen_u == {"x(0)"}

    @pytest.mark.parametrize("n", [3, _EXACT_SEARCH_LIMIT + 1])
    def test_stuck_keys_are_computed_once(self, monkeypatch, n):
        # min(B) and its exactness share one DA program and its one least
        # model with no key broken.
        built, unbroken = [], []
        stuck_after = assumptions._stuck_after

        def counting(da):
            built.append(da)
            inner = stuck_after(da)

            def counted(broken):
                unbroken.append(not broken)
                return inner(broken)
            return counted

        monkeypatch.setattr(assumptions, "_stuck_after", counting)
        g = build(da_ring(n))
        report = minimal_assumption_sets(
            g, g.answer_from_names([f"y({i})" for i in range(n)]))
        assert len(report.da) == n
        assert report.min_b_exact == (n <= _EXACT_SEARCH_LIMIT)
        assert len(built) == 1 and unbroken.count(True) == 1
