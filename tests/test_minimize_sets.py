"""The size-ordered set minimiser against the all-pairs one.

``reference_minimize_sets`` is the minimiser before sets were visited by
size: it compares every set with every other set.  It stays here as the
slow reference; ``_minimize_sets`` must return the same list in the same
order.
"""

from __future__ import annotations

import random

from aspexplain.ground import _dedupe_sets, _minimize_sets


def reference_minimize_sets(sets):
    sets = _dedupe_sets(sets)
    return [s for s in sets if not any(other < s for other in sets)]


def random_family(rng: random.Random) -> list[frozenset]:
    """Sets over a small universe, with duplicates, the empty set, mixed
    sizes and nested chains mixed in."""
    universe = range(rng.randint(1, 8))
    family = [frozenset(rng.sample(universe, rng.randint(0, len(universe))))
              for _ in range(rng.randint(0, 12))]
    if family and rng.random() < 0.3:
        family += rng.choices(family, k=rng.randint(1, 4))
    if rng.random() < 0.1:
        family.append(frozenset())
    if rng.random() < 0.3:
        members = rng.sample(universe, len(universe))
        family += [frozenset(members[:i])
                   for i in range(rng.randint(0, len(members)),
                                  len(members) + 1)]
    rng.shuffle(family)
    return family


def test_random_families_match_reference():
    rng = random.Random(7)
    kinds = {"duplicates": 0, "empty": 0, "nested": 0, "mixed_sizes": 0}
    for _ in range(3000):
        family = random_family(rng)
        deduped = _dedupe_sets(family)
        kinds["duplicates"] += len(deduped) < len(family)
        kinds["empty"] += frozenset() in family and len(deduped) > 1
        kinds["nested"] += any(a < b for a in deduped for b in deduped)
        kinds["mixed_sizes"] += len({len(s) for s in deduped}) > 1
        assert _minimize_sets(family) == reference_minimize_sets(family)
    assert min(kinds.values()) > 100, kinds


def test_product_of_falsifiers_keeps_every_set_in_order():
    # The shape of a false atom's row: one falsifier from each of k rules.
    sets = [frozenset()]
    for j in range(10):
        sets = [s | {f"~b({2 * j})"} for s in sets] \
            + [s | {f"~b({2 * j + 1})"} for s in sets]
    assert _minimize_sets(sets) == sets


def test_first_seen_order_and_small_inputs():
    a, ab, b = frozenset("a"), frozenset("ab"), frozenset("b")
    assert _minimize_sets([ab, b, a, b]) == [b, a]
    assert _minimize_sets([ab, ab]) == [ab]
    assert _minimize_sets([ab]) == [ab]
    assert _minimize_sets([]) == []
    assert _minimize_sets([ab, frozenset(), a]) == [frozenset()]
