"""Hidden-atom resolution and the derivation analysis against the
explicit-stack walks they replaced.

``ReferenceResolver`` (the earlier ``GroundProgram.resolve_aux`` with
``_resolve_leaf``, ``_open_aux`` and ``_combine_definitions``) and
``reference_path_ds`` (the earlier ``assumptions._path_ds`` with
``_Frame``) are kept below unchanged.  They ran each walk as a hand-built
frame machine; the code now recurses on ``ground.run_deep``.  Both must
give the same results in the same order, and raise the same first error.
"""

from __future__ import annotations

import importlib.util
import itertools
import pathlib
import random
import sys

import pytest

from aspexplain import assumptions, nodes, oracle
from aspexplain.aspif import HEAD_CHOICE, WeightBody, parse_aspif
from aspexplain.assumptions import (
    _OPEN,
    _leaf_ds,
    derivation_analysis,
    tentative_assumptions,
)
from aspexplain.egraph import SupportTable
from aspexplain.errors import (
    AuxCycle,
    ReconstructionError,
    TooLarge,
    UnsupportedWeightBody,
)
from aspexplain.ground import (
    _dedupe_sets,
    _minimize_sets,
    _union_product,
    reconstruct,
    run_deep,
)


def _load_families():
    path = pathlib.Path(__file__).parent.parent / "bench" / "families.py"
    spec = importlib.util.spec_from_file_location("bench_families", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


families = _load_families()
_PATH_CAP = assumptions._PATH_CAP


# --- the references: the earlier walks, unchanged ---------------------------

class ReferenceResolver:
    """The earlier resolver over a program's name table and definitions,
    with a memo of its own."""

    def __init__(self, gp):
        self.aspif, self.named, self.facts = gp.aspif, gp.named, gp.facts
        self._resolve_memo: dict[int, list[frozenset[int]]] = {}

    def resolve_aux(self, lit: int) -> list[frozenset[int]]:
        """Resolve a literal to alternative conjunctions of named literals.

        Each frozenset is one alternative; its members are signed named
        atom ids.  Named literals resolve to themselves; an unnamed
        external is a fact, so it holds with no condition and its negation
        never holds.  An auxiliary literal resolves through its
        definitions: a positive one to the alternatives of each body, a
        negative one to every way of falsifying one literal of each body.
        The walk is depth-first with an explicit stack, so a deep
        auxiliary chain costs no recursion.  It checks an atom's
        definitions before it resolves their literals, and resolves those
        in body order, so the first error raised is the one a recursive
        walk would meet.  Results are memoised per program and shared, so
        callers must not change them.
        """
        alts = self._resolve_memo.get(lit)
        if alts is None:
            alts = self._resolve_leaf(lit)
        if alts is not None:
            return alts
        path: set[int] = set()
        # A frame: an auxiliary literal, its definitions, the literals its
        # alternatives are built from, and their alternatives so far.
        frames = [self._open_aux(lit, path)]
        while True:
            lit, defs, parts, done = frames[-1]
            if len(done) < len(parts):
                part = parts[len(done)]
                alts = self._resolve_memo.get(part)
                if alts is None:
                    alts = self._resolve_leaf(part)
                if alts is None:
                    frames.append(self._open_aux(part, path))
                else:
                    done.append(alts)
                continue
            frames.pop()
            path.discard(abs(lit))
            alts = self._resolve_memo[lit] = _dedupe_sets(
                _combine_definitions(lit > 0, defs, done))
            if not frames:
                return alts
            frames[-1][3].append(alts)

    def _resolve_leaf(self, lit: int) -> list[frozenset[int]] | None:
        """The alternatives of a named literal or an unnamed external,
        which it memoises; None for an auxiliary literal."""
        if abs(lit) in self.named:
            alts = [frozenset({lit})]
        elif abs(lit) in self.facts:
            alts = [frozenset()] if lit > 0 else []
        else:
            return None
        self._resolve_memo[lit] = alts
        return alts

    def _open_aux(self, lit: int, path: set[int]) -> tuple:
        """The frame of an auxiliary literal that is about to be resolved,
        after checking that its atom is not on ``path`` and that its
        definitions are plain normal rules."""
        aid = abs(lit)
        if aid in path:
            raise AuxCycle(f"auxiliary atom {aid} is defined through itself")
        defs = self.aspif.definitions.get(aid, [])
        for stmt in defs:
            if isinstance(stmt.body, WeightBody):
                raise UnsupportedWeightBody(
                    f"auxiliary atom {aid} is defined by a weight body")
            if stmt.head_type == HEAD_CHOICE:
                raise ReconstructionError(
                    f"auxiliary atom {aid} occurs in a choice head")
        path.add(aid)
        sign = 1 if lit > 0 else -1
        parts = [sign * body_lit for stmt in defs
                 for body_lit in stmt.body.literals]
        return lit, defs, parts, []


def _combine_definitions(positive: bool, defs, resolved: list) -> list:
    """The alternatives of an auxiliary literal from those of the literals
    of its definition bodies, listed body by body.  The atom holds if some
    body holds; it is false if each body has a literal that fails."""
    per_body = []
    start = 0
    for stmt in defs:
        end = start + len(stmt.body.literals)
        per_body.append(resolved[start:end])
        start = end
    if positive:
        return [alt for parts in per_body for alt in _union_product(parts)]
    return _union_product([[f for options in parts for f in options]
                           for parts in per_body])


class _Frame:
    """An expanded node: its untried supports, the members of the support
    being tried and their D-set lists (None once a member has none), and
    the D-sets found so far."""

    def __init__(self, node, supports):
        self.node = node
        self.supports = iter(supports)
        self.members = iter(())
        self.lists: list | None = None
        self.results: list[frozenset[str]] = []


def reference_path_ds(table, start, ta, root):
    """D-sets of all valid derivation paths below a node, or None.

    A path is invalid if it re-reaches the root or closes a cycle through
    any non-minus edge; other tentative atoms terminate a path and are
    collected.  The search is depth-first with an explicit stack, so long
    chains do not meet the recursion limit.  ``on_path`` maps each node on
    the path to the number of non-negative-atom nodes above it, so closing
    a cycle is checked in constant time.  Raises TooLarge when one node's
    D-sets, before minimisation, pass _PATH_CAP.
    """
    on_path: dict[nodes.ENode, int] = {}
    non_neg = 0
    frames: list[_Frame] = []
    node = start
    while True:
        value = _leaf_ds(node, on_path, non_neg, ta, root)
        if value is _OPEN:
            alternatives = table.get(node)
            if alternatives is None:
                value = None
            else:
                on_path[node] = non_neg
                non_neg += node.kind != nodes.NEG_ATOM
                frames.append(_Frame(node, alternatives))
        # Hand the value to the frame below it, finishing frames whose
        # supports are all tried, until a member is left to evaluate.
        while True:
            if value is not _OPEN:
                if not frames:
                    return value
                if value is None:
                    frames[-1].lists = None
                else:
                    frames[-1].lists.append(value)
                value = _OPEN
            frame = frames[-1]
            if frame.lists is not None:
                node = next(frame.members, None)
                if node is not None:
                    break
                for combo in itertools.product(*frame.lists):
                    frame.results.append(frozenset().union(*combo))
                    if len(frame.results) > _PATH_CAP:
                        raise TooLarge(
                            f"the derivation paths below "
                            f"{frame.node.render()} have more than "
                            f"{_PATH_CAP} D-sets")
            support = next(frame.supports, None)
            if support is None:
                frames.pop()
                non_neg = on_path.pop(frame.node)
                value = _minimize_sets(frame.results) or None
            else:
                frame.members = iter(nodes.sorted_nodes(support))
                frame.lists = []


# --- helpers -----------------------------------------------------------------

def outcome(call, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call(*args)
    except Exception as err:  # the error is the outcome
        return type(err), str(err)


def hidden_literals(gp) -> list[int]:
    """Every unnamed atom of the program, each with its negation."""
    atoms = {s.atom for s in gp.aspif.externals}
    for stmt in gp.aspif.rules:
        atoms.update(stmt.head)
        atoms.update(abs(lit) for lit in stmt.body.literals)
    return [lit for aid in sorted(atoms - set(gp.named))
            for lit in (aid, -aid)]


def check_resolution(gp, fresh=None) -> None:
    """``resolve_aux`` against the reference for every hidden literal of a
    program just built: in one pass that shares each side's memo, then
    each literal of ``fresh`` (every one by default) on an empty memo."""
    lits = hidden_literals(gp)
    reference = ReferenceResolver(gp)
    for lit in lits:
        assert outcome(gp.resolve_aux, lit) == \
            outcome(reference.resolve_aux, lit), lit
    for lit in lits if fresh is None else fresh:
        gp._resolve_memo.clear()
        assert outcome(gp.resolve_aux, lit) == \
            outcome(ReferenceResolver(gp).resolve_aux, lit), lit


def build(text: str):
    return reconstruct(parse_aspif(text))


def aspif(rules: list[str], n_named: int, facts=()) -> str:
    names = [f"4 1 {chr(96 + a)} 1 {a}" for a in range(1, n_named + 1)]
    return "\n".join(["asp 1 0 0", *(f"5 {a} 2" for a in facts), *rules,
                      *names, "0"]) + "\n"


def rule(head, body, choice=False) -> str:
    return " ".join(map(str, [1, int(choice), len(head), *head, 0,
                              len(body), *body]))


def hidden_program(seed: int) -> str:
    """Named atoms 1..4 and hidden atoms above them, each undefined, a
    fact, in a choice head, defined by a weight body, or defined by up to
    three normal bodies over named and earlier hidden atoms (chains,
    diamonds, several definitions), now and then over a later one (a
    possible cycle)."""
    rng = random.Random(seed)
    n_named, n_hidden = 4, rng.randint(3, 9)
    top = n_named + n_hidden
    rules: list[str] = []
    facts = [a for a in range(1, top + 1) if rng.random() < 0.08]
    for h in range(n_named + 1, top + 1):
        kind = rng.choices(("normal", "weight", "choice", "none"),
                           (12, 1, 1, 1))[0]
        if kind == "none":
            continue
        if kind == "choice":
            rules.append(rule([h], [], choice=True))
            continue
        if kind == "weight":
            elems = rng.sample(range(1, h), min(2, h - 1))
            rules.append(" ".join(map(str, [1, 0, 1, h, 1, 1, len(elems),
                                            *[x for e in elems
                                              for x in (e, 1)]])))
            continue
        for _ in range(rng.choice((1, 1, 2, 2, 3))):
            pool = range(1, top + 1 if rng.random() < 0.1 else h)
            body = rng.sample(pool, min(rng.randint(0, 3), len(pool)))
            rules.append(rule([h], [a if rng.random() < 0.6 else -a
                                    for a in body]))
    return aspif(rules, n_named, facts)


# --- run_deep ----------------------------------------------------------------

def _depth(n: int):
    if n == 0:
        return 0
    return (yield _depth(n - 1)) + 1


def test_run_deep_returns_from_a_deep_chain():
    assert sys.getrecursionlimit() < 20_000
    assert run_deep(_depth(20_000)) == 20_000


def test_run_deep_passes_an_error_from_the_bottom_unchanged():
    error = ValueError("at the bottom")

    def walk(n: int):
        if n == 0:
            raise error
        return (yield walk(n - 1))

    with pytest.raises(ValueError) as info:
        run_deep(walk(20_000))
    assert info.value is error


# --- resolve_aux -------------------------------------------------------------

@pytest.mark.parametrize("seed", range(150))
def test_resolution_of_random_programs(seed):
    check_resolution(oracle.random_program(seed))
    check_resolution(oracle.random_program(seed, n_atoms=6, p_choice=0.5))


def test_resolution_of_hidden_programs():
    kinds = set()
    for seed in range(400):
        gp = build(hidden_program(seed))
        check_resolution(gp)
        gp._resolve_memo.clear()
        for lit in hidden_literals(gp):
            got = outcome(gp.resolve_aux, lit)
            kinds.add(got[0] if isinstance(got, tuple) else list)
    # Every error is met, and so are results.
    assert kinds == {AuxCycle, UnsupportedWeightBody, ReconstructionError,
                     list}


def test_resolution_of_a_deep_hidden_chain():
    # l(i) :- not l(i-1), a.  l(i) :- b, for 3000 hidden atoms.
    n = 3000
    rules = [rule([5], [1])]
    for h in range(6, 5 + n):
        rules += [rule([h], [-(h - 1), 1]), rule([h], [2])]
    top = 4 + n
    check_resolution(build(aspif(rules, 4)), fresh=[top, -top])


def test_resolution_of_diamonds():
    # A ladder of diamonds l(i) :- m(i-1).  l(i) :- n(i-1) with
    # m(i) :- l(i), a and n(i) :- not l(i), b.
    rules = [rule([5], [3]), rule([5], [-4])]
    last = 5
    for _ in range(6):
        m, n, top = last + 1, last + 2, last + 3
        rules += [rule([m], [last, 1]), rule([n], [-last, 2]),
                  rule([top], [m]), rule([top], [n])]
        last = top
    check_resolution(build(aspif(rules, 4)))


# --- derivation_analysis -----------------------------------------------------

def check_analysis(g, A):
    """T, T' and DA (or the first error) of the analysis against the
    reference, with each DA list in order; returns them."""
    table = SupportTable(g, A)
    ta = tentative_assumptions(g, A)
    new = outcome(derivation_analysis, table, ta)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(assumptions, "_path_ds", reference_path_ds)
        old = outcome(derivation_analysis, table, ta)
    assert new == old
    if isinstance(new[-1], dict):
        assert list(new[-1].items()) == list(old[-1].items())
    return new


def sweep_answers():
    for seed in range(1000):
        g = oracle.random_program(seed)
        for model in oracle.enumerate_answer_sets(g):
            yield g, g.answer_from_names(sorted(model))


def loops_grid():
    for inst in ([families.loops(n) for n in families.LOOP_SIZES]
                 + [families.loops(n, k) for n, k in families.LOOP_D]):
        g = build(inst.text)
        yield g, g.answer_from_names(inst.answer)


def linear_probe(n: int) -> str:
    """c(0) :- not d.  d :- not c(0).  c(i) :- c(i-1).  t(i) :- not c(i).
    w :- not t(i): TA has n + 1 atoms, each ~t(i) walks down to ~d."""
    c = list(range(1, n + 1))
    t = list(range(n + 1, 2 * n + 1))
    d, w = 2 * n + 1, 2 * n + 2
    rules = [rule([c[0]], [-d]), rule([d], [-c[0]])]
    rules += [rule([c[i]], [c[i - 1]]) for i in range(1, n)]
    for i in range(n):
        rules += [rule([t[i]], [-c[i]]), rule([w], [-t[i]])]
    names = ([f"c({i})" for i in range(n)] + [f"t({i})" for i in range(n)]
             + ["d", "w"])
    outputs = [f"4 {len(s)} {s} 1 {a}" for a, s in enumerate(names, 1)]
    return "\n".join(["asp 1 0 0", *rules, *outputs, "0"]) + "\n"


def test_analysis_keeps_the_product_order():
    # x :- p.  x :- q.  p :- u1, u2.  q :- v1, v2.  z :- not x, and each
    # of u1, u2, v1, v2 in an even loop with a true partner: ~x has one
    # support {~p, ~q}, whose members have two D-sets each.
    loops = [line for k in range(4) for line in
             (rule([5 + k], [-(9 + k)]), rule([9 + k], [-(5 + k)]))]
    text = "\n".join([
        "asp 1 0 0", rule([1], [2]), rule([1], [3]), rule([2], [5, 6]),
        rule([3], [7, 8]), rule([4], [-1]), *loops,
        *(f"4 {len(n)} {n} 1 {a}" for a, n in enumerate(
            ["x", "p", "q", "z", "u1", "u2", "v1", "v2",
             "u1b", "u2b", "v1b", "v2b"], 1)),
        "0"]) + "\n"
    g = build(text)
    A = g.answer_from_names(["z", "u1b", "u2b", "v1b", "v2b"])
    _, _, da = check_analysis(g, A)
    assert da["x"] == [frozenset(pair) for pair in
                       (("u1", "v1"), ("u1", "v2"), ("u2", "v1"),
                        ("u2", "v2"))]


def test_analysis_of_the_sweep_answer_sets():
    count = 0
    for g, A in sweep_answers():
        check_analysis(g, A)
        count += 1
    assert count >= 500


def test_analysis_of_the_loops_grid():
    for g, A in loops_grid():
        check_analysis(g, A)


def test_analysis_of_the_linear_probe():
    n = 250
    g = build(linear_probe(n))
    A = g.answer_from_names([f"c({i})" for i in range(n)] + ["w"])
    assert len(tentative_assumptions(g, A)) == n + 1
    check_analysis(g, A)


@pytest.mark.parametrize("cap", [1, 2])
def test_analysis_under_a_small_path_cap(monkeypatch, cap):
    monkeypatch.setattr(assumptions, "_PATH_CAP", cap)
    monkeypatch.setattr(sys.modules[__name__], "_PATH_CAP", cap)
    raised = 0
    for g, A in itertools.chain(itertools.islice(sweep_answers(), 400),
                                loops_grid()):
        raised += check_analysis(g, A)[0] is TooLarge
    assert raised
