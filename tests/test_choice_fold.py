"""The choice folding of ``reconstruct`` against the folder it replaced.

``_ChoiceFolder``, ``_build_rules``, ``_drop_consumed``, ``_build_index``
and ``_compute_nant`` below are the earlier reconstruction, kept unchanged as
the reference: it kept each fold's consumed statements in per-atom
clusters and dropped them in a second pass.  The new folder keeps one fold
per (atom, body) and consumes as it goes.  Both must give the same rules,
index, warnings, NANT and errors on grounder-shaped programs, except where
a named atom is defined by two different weight bodies: there the
reference consumed only the last fold's tuple definitions, and the new
folder consumes every used fold's; and except for a weight body with no
element, which the reference kept opaque and the new folder folds.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from aspexplain import ground
from aspexplain.aspif import (
    HEAD_CHOICE,
    HEAD_DISJUNCTIVE,
    NormalBody,
    RuleStatement,
    WeightBody,
    parse_aspif,
)
from aspexplain.errors import ReconstructionError
from aspexplain.ground import (
    CHOICE,
    CONSTRAINT,
    NORMAL,
    ChoiceAtomSpec,
    GroundProgram,
    GroundRule,
    reconstruct,
)


# --- the reference: the earlier folder, unchanged ---------------------------

class _ChoiceFolder:
    """Recognizes the compiled bound-test patterns around choice rules."""

    def __init__(self, gp: GroundProgram):
        self.gp = gp
        self.named = gp.named
        self.choice_heads = {
            h for stmt in gp.aspif.rules if stmt.head_type == HEAD_CHOICE
            for h in stmt.head}
        self._spec_memo: dict[int, ChoiceAtomSpec | None] = {}
        # tuple atom -> what _element_for gives.  A bound pair's two weight
        # bodies hold the same elements, which are read once.
        self._element_memo: dict[int, tuple | None] = {}
        # (atom, weight body) -> what _read_elements gives.  Each is read
        # once, though a bound pair ``ok :- lo, not hi`` folds ``lo`` again
        # with its upper bound.
        self._elements: dict[tuple, tuple | None] = {}
        # aux id -> statements consumed when its fold is used
        self.clusters: dict[int, list[RuleStatement]] = {}
        self.used: set[int] = set()

    def spec_for(self, aid: int) -> ChoiceAtomSpec | None:
        if aid in self._spec_memo:
            return self._spec_memo[aid]
        spec = self._fold(aid)
        self._spec_memo[aid] = spec
        return spec

    def direct_spec(self, stmt: RuleStatement) -> ChoiceAtomSpec | None:
        """Fold a rule whose own body is a weight body (lower bound only)."""
        return self._fold_weight(stmt.head[0], stmt.body, upper_arm=None)

    def _single_def(self, aid: int) -> RuleStatement | None:
        if aid in self.named or aid in self.choice_heads:
            return None
        defs = self.gp.aspif.definitions.get(aid, [])
        if len(defs) != 1 or len(defs[0].head) != 1:
            return None
        return defs[0]

    def _weight_def(self, aid: int) -> WeightBody | None:
        stmt = self._single_def(aid)
        if stmt is None or not isinstance(stmt.body, WeightBody):
            return None
        return stmt.body

    def _fold(self, aid: int) -> ChoiceAtomSpec | None:
        stmt = self._single_def(aid)
        if stmt is None:
            return None
        if isinstance(stmt.body, WeightBody):
            return self._fold_weight(aid, stmt.body, upper_arm=None)
        lits = stmt.body.literals
        if len(lits) == 2 and lits[0] > 0 and lits[1] < 0:
            lo = self._weight_def(lits[0])
            hi = self._weight_def(-lits[1])
            if lo is not None and hi is not None \
                    and sorted(lo.elements) == sorted(hi.elements) \
                    and hi.lower > lo.lower:
                spec = self._fold_weight(lits[0], lo, upper_arm=hi.lower)
                if spec is not None:
                    self.clusters[aid] = [stmt] + self.clusters.pop(lits[0], [])
                    return spec
        return None

    def _fold_weight(self, aid: int, body: WeightBody,
                     upper_arm: int | None) -> ChoiceAtomSpec | None:
        key = (aid, body)
        if key in self._elements:
            folded = self._elements[key]
        else:
            folded = self._elements[key] = self._read_elements(aid, body)
        if folded is None:
            return None
        weight, elements, consumed = folded
        lower = math.ceil(body.lower / weight)
        upper = None if upper_arm is None else math.ceil(upper_arm / weight) - 1
        self.clusters[aid] = consumed
        return ChoiceAtomSpec(lower, upper, elements)

    def _read_elements(self, aid: int, body: WeightBody):
        """The common weight of an atom's weight body, its elements and the
        statements its fold consumes; None if it does not fold, with a
        warning if its weights differ."""
        weights = {w for _, w in body.elements}
        if len(weights) != 1:
            self.gp.warnings.append(
                f"weight body for atom {aid} mixes weights {sorted(weights)}; "
                "kept opaque")
            return None
        weight = weights.pop()
        if weight < 1:
            return None
        elements = []
        consumed = [] if aid in self.named \
            else [self.gp.aspif.definitions[aid][0]]
        memo = self._element_memo
        for lit, _ in body.elements:
            if lit <= 0:
                return None
            if lit not in memo:
                memo[lit] = self._element_for(lit)
            element = memo[lit]
            if element is None:
                return None
            element, tuple_stmt = element
            elements.append(element)
            if tuple_stmt is not None:
                consumed.append(tuple_stmt)
        return weight, tuple(elements), consumed

    def _element_for(self, aid: int):
        if aid in self.named:
            return (aid,), None
        stmt = self._single_def(aid)
        if stmt is None or not isinstance(stmt.body, NormalBody):
            return None
        lits = stmt.body.literals
        if not lits:
            return None
        element = None
        for lit in reversed(lits):
            if lit > 0 and lit in self.choice_heads:
                element = lit
                break
        if element is None:
            positives = [l for l in lits if l > 0]
            if len(positives) == 1:
                element = positives[0]
        if element is None:
            return tuple(lits), stmt
        ordered = (element,) + tuple(l for l in lits if l != element)
        return ordered, stmt


def _build_rules(gp: GroundProgram, folder: _ChoiceFolder) -> None:
    named = gp.named
    rules: list[GroundRule] = []
    for idx, stmt in enumerate(gp.aspif.rules):
        head_type, head, body = stmt
        if head_type == HEAD_DISJUNCTIVE and len(head) > 1:
            raise ReconstructionError(
                f"statement {idx}: disjunctive heads are not supported")
        kind = CHOICE if head_type == HEAD_CHOICE else (
            CONSTRAINT if not head else NORMAL)
        if isinstance(body, WeightBody):
            # A named atom defined directly by a weight body becomes a
            # lower-bound-only choice occurrence; aux heads of the same
            # shape stay as-is and fold at their use sites instead.
            spec = None
            if len(head) == 1 and head[0] in named:
                spec = folder.direct_spec(stmt)
            if spec is not None:
                rules.append(GroundRule(kind, head, (spec,), (), idx))
                folder.used.add(head[0])
            else:
                rules.append(GroundRule(kind, head, statement_index=idx,
                                        raw_weight=body))
            continue
        pos: list = []
        neg: list = []
        for lit in body.literals:
            aid = abs(lit)
            spec = None if aid in named else folder.spec_for(aid)
            if spec is not None:
                folder.used.add(aid)
            (pos if lit > 0 else neg).append(aid if spec is None else spec)
        rules.append(GroundRule(kind, head, tuple(pos), tuple(neg), idx))
    _drop_consumed(gp, folder, rules)


def _drop_consumed(gp: GroundProgram, folder: _ChoiceFolder,
                   rules: list[GroundRule]) -> None:
    consumed_stmts = {id(stmt) for aid in folder.used
                      for stmt in folder.clusters.get(aid, ())}
    if not consumed_stmts:
        gp.rules = rules
        return
    stmts = gp.aspif.rules
    consumed = [id(stmts[rule.statement_index]) in consumed_stmts
                for rule in rules]
    # A consumed definition must stay if its head is still referenced by a
    # surviving rule body.
    referenced: set[int] = set()
    for rule, gone in zip(rules, consumed):
        if gone:
            continue
        referenced.update(term for term in rule.pos_body + rule.neg_body
                          if isinstance(term, int))
        if rule.raw_weight is not None:
            referenced.update(abs(l) for l in rule.raw_weight.literals)
    gp.rules = [rule for rule, gone in zip(rules, consumed)
                if not gone or not referenced.isdisjoint(rule.heads)]


def _build_index(gp: GroundProgram) -> None:
    for rule in gp.rules:
        for head in (None,) if rule.kind == CONSTRAINT else rule.heads:
            gp.index.setdefault(head, []).append(rule)


class _EveryNamedFold(_ChoiceFolder):
    """The reference with the one intended change: every used fold of a
    named head consumes its tuple definitions, where the reference kept
    only the last fold's in the head's cluster."""

    def direct_spec(self, stmt: RuleStatement) -> ChoiceAtomSpec | None:
        earlier = self.clusters.get(stmt.head[0], [])
        spec = super().direct_spec(stmt)
        if spec is not None:
            self.clusters[stmt.head[0]] = earlier + self.clusters[stmt.head[0]]
        return spec


class _IntendedFold(_EveryNamedFold):
    """The reference with the second intended change too: a weight body
    with no element folds, as weight 1, where the reference warned that it
    mixes weights [] and kept it opaque."""

    def _read_elements(self, aid: int, body: WeightBody):
        if body.elements:
            return super()._read_elements(aid, body)
        return 1, (), [] if aid in self.named \
            else [self.gp.aspif.definitions[aid][0]]


def _compute_nant(gp: GroundProgram) -> set[int]:
    """Named atoms that occur negated in a rule body, directly or through
    auxiliary definitions.  The walk keeps an explicit stack, so a deep
    auxiliary chain costs no recursion."""
    named = gp.named
    nant: set[int] = set()
    visited: set[tuple[int, bool]] = set()
    stack: list[tuple[int, bool]] = []
    for rule in gp.rules:
        if rule.raw_weight is not None:
            stack.extend((lit, False) for lit in rule.raw_weight.literals)
            continue
        # A named atom is in NANT when it occurs under "not"; only the
        # auxiliary atoms need the walk.
        stack.extend((term, False) for term in rule.pos_body
                     if isinstance(term, int) and term not in named)
        for term in rule.neg_body:
            if isinstance(term, int):
                if term in named:
                    nant.add(term)
                else:
                    stack.append((term, True))
    while stack:
        lit, negated = stack.pop()
        aid = abs(lit)
        here = negated != (lit < 0)
        if aid in named:
            if here:
                nant.add(aid)
            continue
        if (lit, negated) in visited:
            continue
        visited.add((lit, negated))
        for stmt in gp.aspif.definitions.get(aid, ()):
            stack.extend((inner, here) for inner in stmt.body.literals)
    return nant


def reference_reconstruct(program, folder=_ChoiceFolder) -> GroundProgram:
    gp = GroundProgram(program)
    ground._read_symbols(gp)
    _build_rules(gp, folder(gp))
    _build_index(gp)
    gp.nant = frozenset(_compute_nant(gp))
    return gp


def outcome(build, text: str):
    """Every rule with its text, the index, the mixed-weight warnings and
    NANT of the reconstruction of ``text``, or the type and message of its
    error.  The reference warned only about mixed weights; the folder now
    warns about every weight body it keeps opaque, and ``test_ground``
    pins those other warnings."""
    try:
        gp = build(parse_aspif(text))
    except ReconstructionError as error:
        return type(error), str(error)
    index = {head: [r.statement_index for r in rules]
             for head, rules in gp.index.items()}
    return ([(rule, gp.rule_text(rule)) for rule in gp.rules], index,
            [w for w in gp.warnings if "mixes weights" in w], gp.nant)


# --- grounder-shaped programs ------------------------------------------------

NAMED = 5


@st.composite
def programs(draw):
    """The aspif text of a program made of compiled choice rules, named
    weight heads and plain rules over named atoms 1..5 and the hidden
    atoms of the machinery, with statements permuted and duplicated."""
    lines: list[str] = []
    hidden: list[int] = []
    next_id = NAMED + 1

    def fresh() -> int:
        nonlocal next_id
        hidden.append(next_id)
        next_id += 1
        return next_id - 1

    def rule(head, body, choice=False):
        lines.append(" ".join(map(str, [1, int(choice), len(head), *head, 0,
                                        len(body), *body])))

    def weight_rule(head, lower, elems):
        pairs = [x for pair in elems for x in pair]
        lines.append(" ".join(map(str, [1, 0, len(head), *head, 1, lower,
                                        len(elems), *pairs])))

    named = st.integers(1, NAMED)

    def weights(k):
        # Mostly one common weight; sometimes mixed, zero or negative lits.
        kind = draw(st.sampled_from(("one", "one", "one", "two", "mixed",
                                     "zero")))
        if kind == "mixed" and k > 1:
            return [1] + [2] * (k - 1)
        return [{"one": 1, "two": 2, "zero": 0}.get(kind, 1)] * k

    def elements(k):
        """Tuple atoms (ring-style: condition first, element last), named
        elements, or a negative literal."""
        elems = []
        for element in draw(st.lists(named, min_size=k, max_size=k)):
            shape = draw(st.sampled_from(("tuple", "tuple", "named", "cond",
                                          "negcond", "neg", "twopos")))
            if shape == "named":
                elems.append(element)
                continue
            if shape == "neg":
                elems.append(-element)
                continue
            t = fresh()
            cond = draw(named)
            body = {"tuple": [cond, element], "cond": [element, -cond],
                    "negcond": [-cond, element],
                    "twopos": [cond, element, draw(named)]}.get(shape)
            rule([t], body)
            elems.append(t)
        return elems

    for _ in range(draw(st.integers(1, 4))):
        part = draw(st.sampled_from(("choice", "choice", "named_head",
                                     "rule", "raw")))
        if part == "choice":
            k = draw(st.integers(1, 3))
            heads = draw(st.lists(named, min_size=k, max_size=k,
                                  unique=True))
            body = fresh() if draw(st.booleans()) else None
            if body is not None:
                rule([body], [draw(named)])
            for h in heads:
                rule([h], [body] if body else [], choice=True)
            elems = elements(k)
            ws = weights(k)
            pairs = list(zip(elems, ws))
            guard = [body] if body else []
            bound = draw(st.sampled_from(("pair", "pair", "lo", "hi")))
            lower = draw(st.integers(0, k))
            if bound == "pair":
                lo, hi, ok = fresh(), fresh(), fresh()
                weight_rule([lo], lower * ws[0], pairs)
                upper = draw(st.integers(lower - 1, k))
                hi_pairs = pairs if draw(st.integers(0, 5)) else pairs[1:]
                weight_rule([hi], (upper + 1) * ws[0],
                            draw(st.permutations(hi_pairs)))
                rule([ok], [lo, -hi])
                rule([], guard + [-ok])
            elif bound == "lo":
                lo = fresh()
                weight_rule([lo], max(lower, 1) * ws[0], pairs)
                rule([], guard + [-lo])
            else:
                hi = fresh()
                weight_rule([hi], max(lower, 1) * ws[0], pairs)
                rule([], guard + [hi])
        elif part == "named_head":
            k = draw(st.integers(1, 3))
            weight_rule([draw(named)], draw(st.integers(0, k)),
                        list(zip(elements(k), weights(k))))
        elif part == "rule" or not hidden:
            # A plain rule, which may read the machinery's hidden atoms.
            pool = st.integers(1, next_id - 1)
            lits = draw(st.lists(st.tuples(pool, st.booleans()), max_size=3))
            head = draw(st.sampled_from(([], [draw(named)],
                                         [draw(named), draw(named)])))
            rule(head, [a if positive else -a for a, positive in lits])
        else:
            # A weight rule kept opaque that reads a hidden atom.
            weight_rule([draw(named)], 1,
                        [(draw(st.sampled_from(hidden)), 1), (draw(named), 2)])
    lines = draw(st.permutations(lines))
    for line in draw(st.lists(st.sampled_from(lines), max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    outputs = [f"4 1 {chr(96 + a)} 1 {a}" for a in range(1, NAMED + 1)]
    return "\n".join(["asp 1 0 0", *lines, *outputs, "0"]) + "\n"


def named_weight_bodies(text: str) -> dict[int, set]:
    program = parse_aspif(text)
    bodies: dict[int, set] = {}
    for stmt in program.rules:
        if isinstance(stmt.body, WeightBody) and len(stmt.head) == 1 \
                and stmt.head[0] <= NAMED:
            bodies.setdefault(stmt.head[0], set()).add(stmt.body)
    return bodies


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(programs())
# Two equal statements h :- 2 <= {p=1, q=2}: one warning, not two.
@example("asp 1 0 0\n1 0 1 3 1 2 2 1 1 2 2\n1 0 1 3 1 2 2 1 1 2 2\n"
         "4 1 p 1 1\n4 1 q 1 2\n4 1 h 1 3\n0\n")
def test_folding_matches_the_reference(text):
    new = outcome(reconstruct, text)
    assert new == outcome(lambda p: reference_reconstruct(p, _IntendedFold),
                          text)
    if any(isinstance(stmt.body, WeightBody) and not stmt.body.elements
           for stmt in parse_aspif(text).rules):
        return
    if all(len(b) < 2 for b in named_weight_bodies(text).values()):
        assert new == outcome(reference_reconstruct, text)


def test_every_fold_of_a_named_head_consumes_its_tuples():
    # p :- 1 <= {(x, not y)}.  p :- 1 <= {y}: the tuple definition
    # l(5) :- x, not y is consumed, whichever statement comes last.
    first = "1 0 1 2 1 1 1 5 1"
    second = "1 0 1 2 1 1 1 6 1"
    head = "asp 1 0 0\n1 1 1 3 0 0\n1 1 1 4 0 0\n1 0 1 5 0 2 3 -4\n" \
        "1 0 1 6 0 1 4\n"
    tail = "4 1 p 1 2\n4 1 x 1 3\n4 1 y 1 4\n0\n"
    for order in ((first, second), (second, first)):
        gp = reconstruct(parse_aspif(head + "\n".join(order) + "\n" + tail))
        texts = [gp.rule_text(r) for r in gp.rules]
        assert "l(5) :- x, not y." not in texts
        assert "p :- 1<={(x, not y)}." in texts
        assert gp.nant == frozenset()
