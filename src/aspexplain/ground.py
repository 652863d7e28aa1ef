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
from dataclasses import dataclass
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


@dataclass(frozen=True)
class ChoiceAtomSpec:
    lower: int
    upper: int | None
    elements: tuple[tuple[int, ...], ...]  # each one's literals, element first


@dataclass
class GroundRule:
    kind: str
    heads: tuple[int, ...]
    # Atom ids (positive, also in neg_body) and ChoiceAtomSpec occurrences.
    pos_body: tuple = ()
    neg_body: tuple = ()
    statement_index: int = -1
    # Set when the statement's weight body could not be interpreted.
    raw_weight: WeightBody | None = None

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
        left out here.  Memoised per constraint.
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
            bodies = _dedupe_sets(_union_product(aux, base)) if aux else [base]
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
    gp.nant = frozenset(_compute_nant(gp))
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
    hidden atoms whose definitions it consumes.
    """

    def __init__(self, gp: GroundProgram):
        self.gp = gp
        self.named = gp.named
        self.choice_heads = {
            h for stmt in gp.aspif.rules if stmt.head_type == HEAD_CHOICE
            for h in stmt.head}
        # (atom, body) -> what fold gives.  A hidden atom has one
        # definition, so it is folded once; a named head is folded, and
        # warned about, once per distinct weight body.
        self._folds: dict[tuple, tuple | None] = {}
        # tuple atom -> what _element_for gives.  A bound pair's two weight
        # bodies hold the same elements, which are read once.
        self._element_memo: dict[int, tuple[int, ...] | None] = {}

    def fold_hidden(self, aid: int) -> tuple | None:
        """The fold of a hidden atom's one definition, or None."""
        body = self._single_def(aid)
        return None if body is None else self.fold(aid, body)

    def fold(self, aid: int, body) -> tuple | None:
        """``(spec, consumed atoms)`` for atom ``aid`` defined by ``body``.

        A weight body folds to a lower-bound occurrence.  A pair
        ``ok :- lo, not hi``, where ``lo`` and ``hi`` are weight bodies over
        the same elements and ``hi``'s bound is the higher, is ``lo``'s fold
        with the upper bound just below ``hi``'s, and consumes ``ok`` too.
        """
        key = (aid, body)
        if key in self._folds:
            return self._folds[key]
        folded = None
        if isinstance(body, WeightBody):
            folded = self._read_elements(
                body, f"for atom {aid}", () if aid in self.named else (aid,))
        elif len(lits := body.literals) == 2 and lits[0] > 0 and lits[1] < 0:
            lo, hi = self._single_def(lits[0]), self._single_def(-lits[1])
            if isinstance(lo, WeightBody) and isinstance(hi, WeightBody) \
                    and sorted(lo.elements) == sorted(hi.elements) \
                    and hi.lower > lo.lower:
                low = self.fold(lits[0], lo)
                if low is not None:
                    spec, consumed = low
                    upper = math.ceil(hi.lower / lo.elements[0][1]) - 1
                    folded = (ChoiceAtomSpec(spec.lower, upper, spec.elements),
                              (aid, *consumed))
        self._folds[key] = folded
        return folded

    def _single_def(self, aid: int):
        """The body of a hidden atom's only rule, if that rule has one head
        and the atom is in no choice head; None otherwise."""
        if aid in self.named or aid in self.choice_heads:
            return None
        defs = self.gp.aspif.definitions.get(aid, [])
        if len(defs) != 1 or len(defs[0].head) != 1:
            return None
        return defs[0].body

    def _read_elements(self, body: WeightBody, subject: str,
                       consumed=()) -> tuple | None:
        """The lower-bound fold of a weight body, which consumes
        ``consumed`` and the hidden tuple atoms of its elements; None if it
        does not fold, with a warning about the weight body ``subject``."""
        weights = {w for _, w in body.elements}
        if len(weights) != 1:
            return self._opaque(subject, f"mixes weights {sorted(weights)}")
        weight = weights.pop()
        if weight < 1:
            return self._opaque(subject, f"has weight {weight}, below 1")
        elements = []
        consumed = list(consumed)
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
        spec = ChoiceAtomSpec(math.ceil(body.lower / weight), None,
                              tuple(elements))
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
    """Build the rules in statement order, folding choice machinery, then
    keep and index each rule that is not a consumed definition, or whose
    head a kept rule reads."""
    named = gp.named
    folder = _ChoiceFolder(gp)
    rules: list[GroundRule] = []
    consumed: set[int] = set()
    for idx, stmt in enumerate(gp.aspif.rules):
        head_type, head, body = stmt
        if head_type == HEAD_DISJUNCTIVE and len(head) > 1:
            raise ReconstructionError(
                f"statement {idx}: disjunctive heads are not supported")
        kind = CHOICE if head_type == HEAD_CHOICE else (
            CONSTRAINT if not head else NORMAL)
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
            if folded is not None:
                rules.append(GroundRule(kind, head, (folded[0],), (), idx))
                consumed.update(folded[1])
            else:
                rules.append(GroundRule(kind, head, statement_index=idx,
                                        raw_weight=body))
            continue
        pos: list = []
        neg: list = []
        for lit in body.literals:
            term = aid = abs(lit)
            folded = None if aid in named else folder.fold_hidden(aid)
            if folded is not None:
                term = folded[0]
                consumed.update(folded[1])
            (pos if lit > 0 else neg).append(term)
        rules.append(GroundRule(kind, head, tuple(pos), tuple(neg), idx))
    # A consumed atom has one defining rule, so a rule is consumed iff
    # its head is.
    read: set[int] = set()
    for rule in rules:
        if consumed.isdisjoint(rule.heads):
            read.update(term for term in rule.pos_body + rule.neg_body
                        if isinstance(term, int))
            if rule.raw_weight is not None:
                read.update(abs(l) for l in rule.raw_weight.literals)
    for rule in rules:
        if consumed.isdisjoint(rule.heads) or not read.isdisjoint(rule.heads):
            gp.rules.append(rule)
            for head in (None,) if rule.kind == CONSTRAINT else rule.heads:
                gp.index.setdefault(head, []).append(rule)


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
