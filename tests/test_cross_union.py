"""The lazy capped product of a false atom's row against the iterative one.

``reference_cross_union`` is ``support._cross_union`` before the product
was read lazily: it unions every pair of a growing list and cuts the list
to _CROSS_CAP after each step.  It stays here as the slow reference; the
lazy product must return the same sets in the same order.  A false atom's
row kept as its factors (``FactoredRow``) must stand for the minimised
reference product, with {⊥} for an empty union.
"""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import math
import pathlib
import random
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from aspexplain import nodes, support
from aspexplain.aspif import parse_aspif
from aspexplain.ground import _minimize_sets, _union_product, reconstruct
from aspexplain.support import (
    _CROSS_CAP,
    FactoredRow,
    _cross_union,
    _disjoint_antichains,
    _false_row,
    build_er,
    dump_table,
    join_row,
    supported_sets_false,
)


def _load_families():
    path = pathlib.Path(__file__).parent.parent / "bench" / "families.py"
    spec = importlib.util.spec_from_file_location("bench_families", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


families = _load_families()


def reference_cross_union(option_lists) -> list[frozenset]:
    if not option_lists:
        return [frozenset()]
    out = option_lists[0][:_CROSS_CAP]
    for options in option_lists[1:]:
        out = [acc | opt for acc, opt in itertools.product(out, options)]
        if len(out) > _CROSS_CAP:
            out = out[:_CROSS_CAP]
    return out


def reference_conjoin(resolved, common=frozenset()) -> list[frozenset]:
    """The uncapped product the reconstruction built by hand."""
    alts = [common]
    for options in resolved:
        alts = [a | r for a in alts for r in options]
    return alts


def _factor(length: int, offset: int) -> list[frozenset]:
    return [frozenset({offset + i, offset + i + 1}) for i in range(length)]


factors = st.lists(
    st.lists(st.frozensets(st.integers(0, 12), max_size=3), max_size=8),
    max_size=6)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(factors)
@example([])
@example([_factor(5, 0)])
@example([_factor(_CROSS_CAP + 3, 0)])
# 7 * 9 * 3 * 11 = 2079 sets, then 10395 after the fifth factor.
@example([_factor(n, 20 * i) for i, n in enumerate((7, 9, 3, 11, 5))])
@example([_factor(70, 0), _factor(2, 100), _factor(40, 200)])
@example([_factor(3, 0), [], _factor(4, 10)])
@example([_factor(5000, 0), []])
def test_lazy_product_matches_reference(lists):
    assert _cross_union(lists) == reference_cross_union(lists)
    if math.prod(map(len, lists)) <= 20000:
        base = frozenset({99})
        assert _union_product(lists, base) == reference_conjoin(lists, base)


BOTTOM = frozenset({nodes.BOTTOM_NODE})


def reference_false_row(lists) -> list[frozenset]:
    """The row supported_sets_false built from falsifier lists before rows
    were kept as factors."""
    return [s or BOTTOM for s in _minimize_sets(reference_cross_union(lists))]


@st.composite
def disjoint_antichains(draw):
    """Two to five falsifier lists, each of distinct sets of one size over
    nodes of its own."""
    lists = []
    for i in range(draw(st.integers(2, 5))):
        size = draw(st.integers(0, 2))
        pool = [frozenset(c) for c in
                itertools.combinations(range(10 * i, 10 * i + 5), size)]
        lists.append(draw(st.lists(st.sampled_from(pool), unique=True,
                                   max_size=6)))
    return lists


def _check_factored(lists):
    row = _false_row(lists)
    expected = reference_false_row(lists)
    assert isinstance(row, FactoredRow)
    assert list(row) == expected
    assert len(row) == len(expected)
    assert row == expected and expected == row and row == _false_row(lists)
    assert row.total == math.prod(map(len, lists))
    tc = frozenset({nodes.constraint_node("p", False)})
    joined = join_row(row, tc)
    assert isinstance(joined, FactoredRow)
    assert joined == [s | tc for s in expected]


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(disjoint_antichains())
# 3 * 3 * 5 * 7 * 13, 64 * 64 and 17 * 241 combinations: the cap and
# either side of it.
@example([_factor(n, 20 * i) for i, n in enumerate((3, 3, 5, 7, 13))])
@example([_factor(64, 0), _factor(64, 100)])
@example([_factor(17, 0), _factor(241, 100)])
@example([[frozenset()]] * 3)
@example([[frozenset()], _factor(2, 10)])
@example([_factor(3, 0), []])
def test_factored_row_matches_minimised_product(lists):
    _check_factored(lists)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(factors)
@example([[frozenset("a"), frozenset("b")], [frozenset("a"), frozenset("c")]])
@example([[frozenset("a"), frozenset("ab")], [frozenset("c")]])
def test_other_falsifier_lists_give_the_minimised_list(lists):
    if not lists:
        return
    row = _false_row(lists)
    if len(lists) > 1 and _disjoint_antichains(lists):
        _check_factored(lists)
    else:
        assert type(row) is list
        assert row == reference_false_row(lists)


def test_factored_row_is_no_list():
    row = _false_row([_factor(2, 0), _factor(3, 10)])
    assert row != tuple(row) and row != set(row)
    assert row != _false_row([_factor(3, 10), _factor(2, 0)])
    assert row != reference_false_row([_factor(2, 0)])


def random_rules(rng: random.Random) -> list[list[frozenset]]:
    """Falsifier lists of a few rules, over a universe small enough that
    lists overlap often and sets nest often."""
    universe = range(rng.randint(2, 14))
    return [[frozenset(rng.sample(universe, rng.randint(0, 2)))
             for _ in range(rng.randint(1, 4))]
            for _ in range(rng.randint(1, 5))]


def test_skipped_minimise_matches_reference():
    rng = random.Random(11)
    kinds = {"skipped": 0, "overlap": 0, "not_antichain": 0}
    for _ in range(3000):
        lists = random_rules(rng)
        expected = _minimize_sets(reference_cross_union(lists))
        assert _minimize_sets(_cross_union(lists)) == expected
        if _disjoint_antichains(lists):
            kinds["skipped"] += 1
            assert _cross_union(lists) == expected
            continue
        members = [set().union(*options) for options in lists]
        kinds["overlap"] += sum(map(len, members)) \
            != len(set().union(*members))
        kinds["not_antichain"] += any(_minimize_sets(options) != options
                                      for options in lists)
    assert min(kinds.values()) > 200, kinds


def test_overlapping_antichains_are_minimised():
    a, b, c = frozenset("a"), frozenset("b"), frozenset("c")
    lists = [[a, b], [a, c]]
    assert not _disjoint_antichains(lists)
    assert _cross_union(lists) == [a, a | c, a | b, b | c]
    assert _minimize_sets(_cross_union(lists)) == [a, b | c]
    assert not _disjoint_antichains([[a, a | b], [c]])
    assert not _disjoint_antichains([[a, a], [c]])
    assert _disjoint_antichains([[a, b], [c], []])


def _loops_row(n: int, k: int):
    inst = families.loops(n, k)
    g = reconstruct(parse_aspif(inst.text))
    return g, g.answer_from_names(inst.answer)


# sha256 of dump_table(build_er(...)) for loops(n, k), recorded with the
# iterative product and its minimise pass.
GOLDEN_LOOPS_ER = {
    (24, 11): "af470562eab2e644aa62acf3785ac4ade9ef2f4e06a15e692616e4f82c110e4c",
    (24, 12): "2d8da25eaf3309985387f3db4ba8bb9bcc7a2ca10a2187a32ed3deb0266678a2",
    (26, 13): "55ea40d0283b291473ce322d2b3a4fdbeda770d7b219c2bd225292c17a5fd3c8",
}


def test_loops_tables_unchanged():
    for (n, k), digest in GOLDEN_LOOPS_ER.items():
        g, A = _loops_row(n, k)
        text = dump_table(build_er(g, A))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (n, k)


def test_false_row_of_eleven_rules_skips_the_minimise_pass(monkeypatch):
    g, A = _loops_row(24, 11)
    sizes = []

    def recording(sets):
        sizes.append(len(sets))
        return _minimize_sets(sets)

    monkeypatch.setattr(support, "_minimize_sets", recording)
    row = supported_sets_false(g, A, g.atom_id("d"))
    assert len(row) == 2048
    assert sizes and max(sizes) < 2048, sizes
