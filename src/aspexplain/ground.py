"""Rebuild a ground rule view from parsed aspif statements.

Grounders compile choice rules into auxiliary machinery: per-element choice
statements, tuple-defining rules, a pair of weight-body atoms testing the
lower bound and the upper bound + 1, a combiner atom, and an integrity
constraint.  This module folds that machinery back into
:class:`ChoiceAtomSpec` occurrences so the engines can reason at the level
of the source program.

A fold that a rule uses consumes the definitions of the hidden atoms it
stands for: a weight atom's, with the tuple atoms' of its elements, and a
combiner's, with its lower weight atom's; the weight body of a named head
or of a constraint consumes the definitions of its tuple atoms.  A
consumed definition is dropped from the rules unless a kept rule reads its
head, in its body or in an opaque weight body.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

from . import nodes
from .aspif import (
    HEAD_CHOICE,
    HEAD_DISJUNCTIVE,
    AspifProgram,
    NormalBody,
    WeightBody,
)
from .errors import (
    AuxCycle,
    DuplicateSymbol,
    MultiLiteralOutputCondition,
    ReconstructionError,
    UnknownLiteral,
    UnsupportedWeightBody,
)

NORMAL = "normal"
CHOICE = "choice"
CONSTRAINT = "constraint"


@dataclass(frozen=True, slots=True)
class ChoiceAtomSpec:
    lower: int
    upper: int | None
    elements: tuple[tuple[int, ...], ...]  # each one's literals, element first
    # Whether an element holds a hidden literal, which may raise.
    hidden: bool = field(default=False, compare=False, repr=False)


@dataclass(slots=True)
class GroundRule:
    kind: str
    heads: tuple[int, ...]
    # Atom ids (positive, also in neg_body) and ChoiceAtomSpec occurrences.
    pos_body: tuple = ()
    neg_body: tuple = ()
    statement_index: int = -1
    # Set when the statement's weight body could not be interpreted.
    raw_weight: WeightBody | None = None
    # Whether the table's check pass can raise on it: an opaque weight
    # body, a hidden body literal or a hidden choice occurrence.
    can_raise: bool = field(default=False, compare=False, repr=False)

    def check_interpreted(self) -> None:
        """Raise UnsupportedWeightBody if the weight body was kept opaque,
        whatever kept it so: a head that is neither one named atom nor
        empty, weights that differ or are below 1, a negative element, or
        an element that is neither a named atom nor a tuple atom."""
        if self.raw_weight is not None:
            what = "constraint" if self.kind == CONSTRAINT else "rule"
            raise UnsupportedWeightBody(
                f"{what} from statement {self.statement_index} kept opaque: "
                "its weight body does not fold into a choice atom")


class GroundProgram:
    """The rule view of an aspif program, with its one name table.

    ``named`` maps each named atom id to its symbol, in the order of the
    output statements, and ``facts`` holds the atoms of the external
    statements.  Every other atom is a hidden (auxiliary) atom, which
    :meth:`display_atom` shows as ``l(id)``.  The answer-set oracle reads
    names and facts from this table too.
    """

    def __init__(self, aspif_program: AspifProgram):
        self.aspif = aspif_program
        self.named: dict[int, str] = {}
        self.facts: set[int] = {s.atom for s in aspif_program.externals}
        self.rules: list[GroundRule] = []
        self.warnings: list[str] = []
        self.nant: frozenset[int] = frozenset()
        # Head atom -> its rules in statement order; None -> constraints.
        self.index: dict[int | None, list[GroundRule]] = {}
        # Symbol -> atom id, the reverse of ``named``.
        self._by_name: dict[str, int] = {}
        self._resolve_memo: dict[int, list[frozenset[int]]] = {}
        self._body_memo: dict[int, list[frozenset[int]]] = {}
        self._lit_nodes: dict[int, nodes.ENode] = {}
        self._lit_options: dict[int, list[frozenset[nodes.ENode]]] = {}

    # --- naming -----------------------------------------------------------

    def display_atom(self, aid: int) -> str:
        name = self.named.get(aid)
        return name if name is not None else f"l({aid})"

    def atom_id(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownLiteral(f"unknown atom {name!r}") from None

    def named_ids(self) -> list[int]:
        return list(self.named)

    def answer_from_names(self, names) -> frozenset[int]:
        return frozenset(self.atom_id(n) for n in names)

    def nant_names(self) -> list[str]:
        return sorted(self.display_atom(a) for a in self.nant)

    # --- node construction ------------------------------------------------

    def lit_node(self, lit: int) -> nodes.ENode:
        """The node of a signed atom id, memoised per literal."""
        node = self._lit_nodes.get(lit)
        if node is None:
            node = self._lit_nodes[lit] = nodes.literal_node(
                self.display_atom(abs(lit)), lit > 0)
        return node

    def lit_option(self, lit: int) -> list[frozenset[nodes.ENode]]:
        """[{lit_node(lit)}], memoised per literal: do not change it."""
        option = self._lit_options.get(lit)
        if option is None:
            option = self._lit_options[lit] = [frozenset({self.lit_node(lit)})]
        return option

    def element_payload(self, element: tuple[int, ...]) -> tuple:
        return tuple((self.display_atom(abs(lit)), lit > 0) for lit in element)

    def tuple_node(self, element: tuple[int, ...]) -> nodes.ENode:
        return nodes.tuple_node(self.element_payload(element))

    def spec_node(self, spec: ChoiceAtomSpec, positive: bool = True) -> nodes.ENode:
        payload = tuple(self.element_payload(e) for e in spec.elements)
        return nodes.choice_node(spec.lower, spec.upper, payload, positive)

    # --- rule access ------------------------------------------------------

    def rules_for_head(self, aid: int) -> list[GroundRule]:
        return self.index.get(aid, [])

    def constraints(self) -> list[GroundRule]:
        return self.index.get(None, [])

    # --- evaluation -------------------------------------------------------

    def lit_holds(self, lit: int, answer: frozenset[int]) -> bool:
        """Whether a literal holds under the named answer set.

        A named literal holds by membership in ``answer``.  Any other
        literal holds iff one of its :meth:`resolve_aux` alternatives does,
        so a hidden atom reads the same in a choice element's condition as
        in a rule or constraint body, and raises the same errors there.
        """
        if abs(lit) in self.named:
            return (abs(lit) in answer) == (lit > 0)
        return any(alternative_holds(alt, answer)
                   for alt in self.resolve_aux(lit))

    def satisfied_elements(self, spec: ChoiceAtomSpec,
                           answer: frozenset[int]) -> tuple[tuple[int, ...], ...]:
        return tuple(e for e in spec.elements
                     if all(self.lit_holds(lit, answer) for lit in e))

    def spec_holds(self, spec: ChoiceAtomSpec, answer: frozenset[int]) -> bool:
        count = len(self.satisfied_elements(spec, answer))
        if count < spec.lower:
            return False
        return spec.upper is None or count <= spec.upper

    # --- auxiliary resolution --------------------------------------------

    def resolve_aux(self, lit: int) -> list[frozenset[int]]:
        """Resolve a literal to alternative conjunctions of named literals.

        Each frozenset is one alternative; its members are signed named
        atom ids.  Named literals resolve to themselves; an unnamed
        external is a fact, so it holds with no condition and its negation
        never holds.  An auxiliary literal resolves through its
        definitions: a positive one to the alternatives of each body, a
        negative one to every way of falsifying one literal of each body.
        The walk recurses on :func:`run_deep`, so a deep auxiliary chain
        costs no Python recursion.  Results are memoised per program and
        shared, so callers must not change them.
        """
        alts = self._resolved(lit)
        return run_deep(self._resolve(lit, set())) if alts is None else alts

    def _resolved(self, lit: int) -> list[frozenset[int]] | None:
        """The memoised alternatives of a literal, or those of a named
        literal or an unnamed external, which it memoises; None for an
        auxiliary literal not resolved yet."""
        alts = self._resolve_memo.get(lit)
        if alts is not None:
            return alts
        if abs(lit) in self.named:
            alts = [frozenset({lit})]
        elif abs(lit) in self.facts:
            alts = [frozenset()] if lit > 0 else []
        else:
            return None
        self._resolve_memo[lit] = alts
        return alts

    def _resolve(self, lit: int, path: set[int]):
        """Resolve an auxiliary literal whose atom must not be on ``path``.
        It checks the atom's definitions before it resolves their literals,
        in body order, so the first error raised is the first one met."""
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
        # The atom holds if some body holds; it is false if each body has a
        # literal that fails.
        holds, fails = [], []
        for stmt in defs:
            parts = []
            for body_lit in stmt.body.literals:
                alts = self._resolved(sign * body_lit)
                if alts is None:
                    alts = yield self._resolve(sign * body_lit, path)
                parts.append(alts)
            if lit > 0:
                holds += _union_product(parts)
            else:
                fails.append([f for options in parts for f in options])
        path.discard(aid)
        alts = self._resolve_memo[lit] = _dedupe_sets(
            holds if lit > 0 else _union_product(fails))
        return alts

    def constraint_bodies(self, rule: GroundRule) -> list[frozenset[int]]:
        """A constraint's body with its auxiliary atoms resolved.

        Each alternative is a set of signed named atom ids and acts as a
        separate constraint with the same choice occurrences, which are
        left out here.  Memoised per constraint; reconstruction files the
        body of each constraint whose literals are all named.
        """
        bodies = self._body_memo.get(rule.statement_index)
        if bodies is None:
            rule.check_interpreted()
            lits = [t for t in rule.pos_body if isinstance(t, int)] \
                + [-t for t in rule.neg_body if isinstance(t, int)]
            named = self.named
            # A named literal resolves to itself, so only the auxiliary
            # literals have alternatives to conjoin.
            base = frozenset(lit for lit in lits if abs(lit) in named)
            aux = [self.resolve_aux(lit) for lit in lits
                   if abs(lit) not in named]
            bodies = _dedupe_sets(_union_product(aux, base))
            self._body_memo[rule.statement_index] = bodies
        return bodies

    @cached_property
    def constraint_index(self) -> dict[int, list[tuple[GroundRule,
                                                       frozenset[int]]]]:
        """Signed named atom id -> each constraint with a resolved body that
        holds the literal, and that body, in constraint order.  It does not
        depend on the answer set, so it is built once per program."""
        index: dict[int, list[tuple[GroundRule, frozenset[int]]]] = {}
        for rule in self.constraints():
            for body in self.constraint_bodies(rule):
                for lit in body:
                    index.setdefault(lit, []).append((rule, body))
        return index

    # --- rendering --------------------------------------------------------

    def term_text(self, term, positive: bool) -> str:
        if isinstance(term, ChoiceAtomSpec):
            text = self.spec_node(term).render()
        else:
            text = self.display_atom(abs(term))
        return text if positive else "not " + text

    def rule_text(self, rule: GroundRule) -> str:
        pos = sorted(self.term_text(t, True) for t in rule.pos_body)
        neg = sorted(self.term_text(t, False) for t in rule.neg_body)
        if rule.raw_weight is not None:
            pairs = ", ".join(
                f"{self.term_text(abs(l), l > 0)}={w}"
                for l, w in rule.raw_weight.elements)
            pos = [f"{rule.raw_weight.lower}<={{{pairs}}}"]
        body = ", ".join(pos + neg)
        if rule.kind == CONSTRAINT:
            return f":- {body}."
        head = ", ".join(self.display_atom(h) for h in rule.heads)
        if rule.kind == CHOICE:
            head = "{" + head + "}"
        return f"{head} :- {body}." if body else f"{head}."


def alternative_holds(alt: frozenset[int], answer: frozenset[int]) -> bool:
    """Whether a resolved alternative holds under the named answer set: each
    of its signed named atom ids by membership in ``answer``."""
    for lit in alt:
        if (lit not in answer) if lit > 0 else (-lit in answer):
            return False
    return True


def _union_product(factors, base=frozenset(), cap=None) -> list[frozenset]:
    """The union of ``base`` and one set from each factor, for every
    combination in product order (the first factor outermost), or for the
    first ``cap`` of them.  The product is read lazily, so a cap bounds the
    work as well as the output."""
    combos = itertools.islice(itertools.product(*factors), cap)
    return [base.union(*combo) for combo in combos]


def _dedupe_sets(sets) -> list[frozenset]:
    """Drop duplicates, preserving first-seen order."""
    return list(dict.fromkeys(sets))


def _minimize_sets(sets: list[frozenset]) -> list[frozenset]:
    """Drop duplicates and strict supersets, preserving first-seen order.

    The sets are visited by size, and one is kept unless a kept set of a
    smaller size lies inside it.  That suffices: a non-minimal set holds a
    minimal one, which is smaller and so was visited and kept first.  Sets
    of equal size are never compared, so a product of one-member falsifier
    lists costs no comparison at all.
    """
    sets = _dedupe_sets(sets)
    if len(sets) < 2:
        return sets
    kept: list[frozenset] = []
    for _, group in itertools.groupby(sorted(sets, key=len), key=len):
        kept.extend([s for s in group if not any(k <= s for k in kept)])
    keep = set(kept)
    return [s for s in sets if s in keep]


def run_deep(gen):
    """Run a recursive generator on a list as its stack, so its depth costs
    no Python recursion.  Where the walk would call itself it yields the
    child generator, and it receives the child's return value; the value
    the outermost generator returns is the result."""
    stack = [gen]
    value = None
    while True:
        try:
            child = stack[-1].send(value)
        except StopIteration as stop:
            stack.pop()
            if not stack:
                return stop.value
            value = stop.value
        else:
            stack.append(child)
            value = None


def reconstruct(aspif_program: AspifProgram) -> GroundProgram:
    gp = GroundProgram(aspif_program)
    _read_symbols(gp)
    _build_rules(gp)
    return gp


def _read_symbols(gp: GroundProgram) -> None:
    for stmt in gp.aspif.outputs:
        if len(stmt.condition) != 1 or stmt.condition[0] <= 0:
            raise MultiLiteralOutputCondition(
                f"output {stmt.symbol!r} needs a single positive condition "
                f"literal, got {stmt.condition!r}")
        aid = stmt.condition[0]
        if stmt.symbol in gp._by_name:
            raise DuplicateSymbol(f"symbol {stmt.symbol!r} named twice")
        if aid in gp.named:
            raise DuplicateSymbol(
                f"atom {aid} named twice ({gp.named[aid]!r} and "
                f"{stmt.symbol!r})")
        gp.named[aid] = stmt.symbol
        gp._by_name[stmt.symbol] = aid


class _ChoiceFolder:
    """Recognizes the compiled bound-test patterns around choice rules.

    A fold is the choice atom that an atom's definition compiles, with the
    other hidden atoms whose definitions it consumes.
    """

    def __init__(self, gp: GroundProgram):
        self.gp = gp
        self.named = gp.named
        self.choice_heads = {
            h for stmt in gp.aspif.rules if stmt.head_type == HEAD_CHOICE
            for h in stmt.head}
        # What a fold gives, per hidden atom, which has one definition and
        # is folded once, and per (named head, weight body): a named head is
        # folded, and warned about, once per distinct weight body.
        self._folds: dict = {}
        # tuple atom -> what _element_for gives.  A bound pair's two weight
        # bodies hold the same elements, which are read once.
        self._element_memo: dict[int, tuple[int, ...] | None] = {}

    def fold_hidden(self, aid: int) -> tuple | None:
        """The fold of a hidden atom's one definition, or None."""
        if aid not in self._folds:
            body = self._single_def(aid)
            self._folds[aid] = None if body is None else self._fold(aid, body)
        return self._folds[aid]

    def fold(self, aid: int, body: WeightBody) -> tuple | None:
        """The fold of a weight body of the named atom ``aid``, or None."""
        key = (aid, body)
        if key not in self._folds:
            self._folds[key] = self._fold(aid, body)
        return self._folds[key]

    def _fold(self, aid: int, body) -> tuple | None:
        """``(spec, consumed atoms)`` for atom ``aid`` defined by ``body``;
        a fold that a rule uses consumes ``aid``'s definition too.

        A weight body folds to a lower-bound occurrence.  A pair
        ``ok :- lo, not hi``, where ``lo`` and ``hi`` are weight bodies over
        the same elements and ``hi``'s bound is the higher, is ``lo``'s fold
        with the upper bound just below ``hi``'s, and consumes ``lo`` and
        ``hi`` too; ``hi``'s own fold is not built.
        """
        if isinstance(body, WeightBody):
            return self._read_elements(body, f"for atom {aid}")
        if len(lits := body.literals) == 2 and lits[0] > 0 and lits[1] < 0:
            lo, hi = self._single_def(lits[0]), self._single_def(-lits[1])
            if isinstance(lo, WeightBody) and isinstance(hi, WeightBody) \
                    and sorted(lo.elements) == sorted(hi.elements) \
                    and hi.lower > lo.lower \
                    and (low := self.fold_hidden(lits[0])) is not None:
                spec, consumed = low
                # lo's elements share one weight; none reads as 1.
                weight = max((w for _, w in lo.elements), default=1)
                upper = math.ceil(hi.lower / weight) - 1
                return (ChoiceAtomSpec(spec.lower, upper, spec.elements,
                                       spec.hidden),
                        (lits[0], *consumed, -lits[1]))
        return None

    def _single_def(self, aid: int):
        """The body of a hidden atom's only rule, if that rule has one head
        and the atom is in no choice head; None otherwise."""
        if aid in self.named or aid in self.choice_heads:
            return None
        defs = self.gp.aspif.definitions.get(aid, [])
        if len(defs) != 1 or len(defs[0].head) != 1:
            return None
        return defs[0].body

    def _read_elements(self, body: WeightBody, subject: str) -> tuple | None:
        """The lower-bound fold of a weight body, which consumes the hidden
        tuple atoms of its elements; None if it does not fold, with a
        warning about the weight body ``subject``.
        A body with no element holds iff 0 >= lower: it reads as weight 1."""
        weights = {w for _, w in body.elements} or {1}
        if len(weights) != 1:
            return self._opaque(subject, f"mixes weights {sorted(weights)}")
        weight = weights.pop()
        if weight < 1:
            return self._opaque(subject, f"has weight {weight}, below 1")
        elements, consumed = [], []
        memo = self._element_memo
        for lit, _ in body.elements:
            if lit <= 0:
                return self._opaque(subject, f"has a negative element {lit}")
            if lit not in memo:
                memo[lit] = self._element_for(lit)
            if memo[lit] is None:
                return self._opaque(subject, f"has element {lit}, which is "
                                    "neither named nor a tuple atom")
            elements.append(memo[lit])
            if lit not in self.named:
                consumed.append(lit)
        hidden = any(abs(l) not in self.named for e in elements for l in e)
        spec = ChoiceAtomSpec(math.ceil(body.lower / weight), None,
                              tuple(elements), hidden)
        return spec, tuple(consumed)

    def _opaque(self, subject: str, why: str) -> None:
        self.gp.warnings.append(f"weight body {subject} {why}; kept opaque")

    def _element_for(self, aid: int) -> tuple[int, ...] | None:
        if aid in self.named:
            return (aid,)
        body = self._single_def(aid)
        if not isinstance(body, NormalBody) or not body.literals:
            return None
        lits = body.literals
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
            return lits
        return (element,) + tuple(l for l in lits if l != element)


def _build_rules(gp: GroundProgram) -> None:
    """Build the rules in statement order, folding choice machinery, and
    file each kept rule as it is built: in the index, with the literals
    NANT walks from (NANT: the named atoms negated in a kept rule's body,
    directly or through auxiliary definitions), and a constraint whose
    literals are all named with its resolved body.  A rule whose head a
    fold may consume (a hidden atom with one definition, in no choice
    head) waits: it is kept if its head is not consumed, or if a kept rule
    that is not consumed reads it."""
    named = gp.named
    folder = _ChoiceFolder(gp)
    rules: list[GroundRule | None] = [None] * len(gp.aspif.rules)
    consumed: set[int] = set()
    waiting: dict[int, tuple] = {}  # head -> the arguments of keep
    # The hidden and negative named literals of the kept rules' bodies and
    # opaque weight bodies: the stack of the NANT walk.
    walk: list[int] = []

    def build(idx: int, kind: str, head, literals) -> tuple:
        """The rule of a normal body, and the literals NANT walks from."""
        pos, neg, reads = [], [], []
        can_raise, all_named = False, True
        for lit in literals:
            term = aid = abs(lit)
            if aid in named:
                if lit < 0:
                    reads.append(lit)
            elif (folded := folder.fold_hidden(aid)) is None:
                reads.append(lit)
                can_raise, all_named = True, False
            else:
                term, took = folded
                consumed.add(aid)
                consumed.update(took)
                can_raise = can_raise or term.hidden
                all_named = False
            (pos if lit > 0 else neg).append(term)
        if kind == CONSTRAINT and all_named:
            # A named literal resolves to itself.
            gp._body_memo[idx] = [frozenset(literals)]
        return GroundRule(kind, head, tuple(pos), tuple(neg), idx, None,
                          can_raise), reads

    def keep(idx: int, rule: GroundRule | None, reads) -> None:
        if rule is None:  # a bound pair, built only if kept
            _, head, body = gp.aspif.rules[idx]
            rule, reads = build(idx, NORMAL, head, body.literals)
        rules[idx] = rule
        for head in (None,) if rule.kind == CONSTRAINT else rule.heads:
            gp.index.setdefault(head, []).append(rule)
        walk.extend(rule.raw_weight.literals if rule.raw_weight else reads)

    for idx, stmt in enumerate(gp.aspif.rules):
        head_type, head, body = stmt
        if head_type == HEAD_DISJUNCTIVE and len(head) > 1:
            raise ReconstructionError(
                f"statement {idx}: disjunctive heads are not supported")
        kind = CHOICE if head_type == HEAD_CHOICE else (
            CONSTRAINT if not head else NORMAL)
        waits = kind == NORMAL and head[0] not in named \
            and folder._single_def(head[0]) is not None
        if isinstance(body, WeightBody):
            # The weight body of a named atom or of a constraint becomes a
            # lower-bound-only choice occurrence; aux heads of the same
            # shape stay as-is and fold at their use sites instead.
            folded = None
            if len(head) == 1 and head[0] in named:
                folded = folder.fold(head[0], body)
            elif kind == CONSTRAINT:
                folded = folder._read_elements(
                    body, f"of the constraint from statement {idx}")
            if folded is None:
                rule = GroundRule(kind, head, (), (), idx, body, True)
            else:
                rule = GroundRule(kind, head, (folded[0],), (), idx, None,
                                  folded[0].hidden)
                consumed.update(folded[1])
            reads = ()
        elif waits and (pair := folder.fold_hidden(head[0])):
            # ok :- lo, not hi: the fold consumes lo, hi and their tuple
            # atoms, but not ok, which its use sites consume.
            consumed.update(pair[1])
            rule, reads = None, ()
        else:
            rule, reads = build(idx, kind, head, body.literals)
        if waits:
            waiting[head[0]] = (idx, rule, reads)
        else:
            keep(idx, rule, reads)
    # A consumed atom has one defining rule, which waits.
    for head in waiting.keys() - consumed:
        keep(*waiting[head])
    for head in consumed.intersection(map(abs, walk)):
        keep(*waiting[head])
    gp.rules = [rule for rule in rules if rule is not None]
    nant: set[int] = set()
    visited: set[int] = set()
    while walk:
        lit = walk.pop()
        if abs(lit) in named:
            if lit < 0:
                nant.add(-lit)
        elif lit not in visited:
            visited.add(lit)
            for stmt in gp.aspif.definitions.get(abs(lit), ()):
                inner = stmt.body.literals
                walk.extend(inner if lit > 0 else [-l for l in inner])
    gp.nant = frozenset(nant)
