"""Reader and writer for the aspif ground format (header ``asp 1 0 0``).

Only the statement kinds the explanation pipeline consumes are modelled
structurally: rules (tag 1), outputs (tag 4) and externals (tag 5).  Any
other tag is preserved opaquely and re-emitted verbatim.  Each line kind
has one reader, which reads the line's integers once and checks its fields
by position in field order: it returns the statement, or raises the error
of the first faulty field.  The parser files each line once, as it reads
it: into the typed lists, the constraints, the definitions, the atom ids
and the counter rows of the one least-model operator of the package,
:meth:`AspifProgram.least_model`.
The alternating fixpoint and the well-founded model built on that operator
work on these parsed statements.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .errors import MalformedHeader, MissingTerminator, TruncatedStatement

HEAD_DISJUNCTIVE = 0
HEAD_CHOICE = 1

BODY_NORMAL = 0
BODY_WEIGHT = 1


class NormalBody(NamedTuple):
    literals: tuple[int, ...] = ()


class WeightBody(NamedTuple):
    lower: int
    elements: tuple[tuple[int, int], ...]  # (literal, weight) pairs

    @property
    def literals(self) -> tuple[int, ...]:
        return tuple(lit for lit, _ in self.elements)


class RuleStatement(NamedTuple):
    head_type: int
    head: tuple[int, ...]
    body: NormalBody | WeightBody


class OutputStatement(NamedTuple):
    symbol: str
    condition: tuple[int, ...]


class ExternalStatement(NamedTuple):
    atom: int
    value: int


class OpaqueStatement(NamedTuple):
    """A statement with a tag we do not interpret, kept verbatim."""

    raw: str


Statement = RuleStatement | OutputStatement | ExternalStatement | OpaqueStatement

# The parser builds its statements with the tuple constructor, which gives
# the same named tuples without the Python-level ``__new__`` of each type.
_new = tuple.__new__


@dataclass
class AspifProgram:
    """Parsed statements in file order.

    Each statement is filed once, as the program gets it: into the typed
    lists ``rules``, ``constraints``, ``outputs`` and ``externals``, into
    ``definitions`` and the atom ids, and into the counter rows of
    :meth:`least_model`.  :func:`parse_aspif` files each line from the tag
    branch that read it, and a program built from a list of statements
    files them in order by their type, through the same routine per kind.
    Equality compares ``statements`` alone.  The frozen atom ids and the
    well-founded model are computed on first access and kept.
    """

    statements: list[Statement] = field(default_factory=list)

    def __post_init__(self) -> None:
        statements, self.statements = self.statements, []
        self.rules: list[RuleStatement] = []
        self.outputs: list[OutputStatement] = []
        self.externals: list[ExternalStatement] = []
        self.constraints: list[RuleStatement] = []
        # Each head atom's rule statements, in file order.
        self.definitions: dict[int, list[RuleStatement]] = {}
        # The atoms of constraints, outputs and externals; the indexes
        # below hold the others.
        self._ids: set[int] = set()
        # The counter rows: each rule that is not a constraint is a weight
        # rule with its head atoms and whether it is a choice rule.  A
        # normal body reads as a weight body whose literals weigh 1 and
        # whose lower bound is its length, so it holds iff every literal
        # does; a repeated literal counts per occurrence.
        self._heads: list[tuple[tuple[int, ...], bool]] = []
        # Per rule, the body weight missing while no negative literal holds.
        self._template: list[int] = []
        # The rules that fire with no literal at all, and the rules with
        # negative literals.
        self._ready: list[int] = []
        self._negated: list[int] = []
        # Per atom, the (rule, weight) pairs of its positive and of its
        # negative body occurrences.
        self._positive: dict[int, list[tuple[int, int]]] = defaultdict(list)
        self._negative: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for stmt in statements:
            self._file(stmt)

    def _file(self, stmt: Statement) -> None:
        """Append a statement and file it by its type."""
        if isinstance(stmt, RuleStatement):
            return self._file_rule(stmt)
        self.statements.append(stmt)
        if isinstance(stmt, OutputStatement):
            self.outputs.append(stmt)
            self._ids.update(map(abs, stmt.condition))
        elif isinstance(stmt, ExternalStatement):
            self.externals.append(stmt)
            self._ids.add(stmt.atom)

    def _file_rule(self, stmt: RuleStatement) -> None:
        """Append a rule and file it; a constraint has no counter row."""
        self.statements.append(stmt)
        self.rules.append(stmt)
        head_type, head, body = stmt
        definitions = self.definitions
        for atom in head:
            if atom in definitions:
                definitions[atom].append(stmt)
            else:
                definitions[atom] = [stmt]
        if head_type == HEAD_DISJUNCTIVE and not head:
            self.constraints.append(stmt)
            self._ids.update(map(abs, body.literals))
            return
        index = len(self._heads)
        self._heads.append((head, head_type == HEAD_CHOICE))
        positive, negative = self._positive, self._negative
        negated = False
        if type(body) is NormalBody:
            lower = len(body[0])
            # Every literal weighs 1, so the occurrences share one pair.
            entry = (index, 1)
            for lit in body[0]:
                if lit > 0:
                    positive[lit].append(entry)
                else:
                    negative[-lit].append(entry)
                    negated = True
        else:
            lower, pairs = body
            for lit, weight in pairs:
                if lit > 0:
                    positive[lit].append((index, weight))
                else:
                    negative[-lit].append((index, weight))
                    negated = True
        self._template.append(lower)
        if negated:
            self._negated.append(index)
        elif lower <= 0:
            self._ready.append(index)

    @cached_property
    def atom_ids(self) -> frozenset[int]:
        """Every atom id referenced by a structural statement."""
        return frozenset(self._ids).union(
            self.definitions, self._positive, self._negative)

    def _fired(self, index: int, choosable):
        """The heads a rule derives when its body holds."""
        head, choice = self._heads[index]
        if not choice:
            return head
        if choosable is None:
            return ()
        return [h for h in head if h in choosable]

    def _start(self, interpretation, choosable, facts):
        """The counters of every rule with its negative literals read
        against ``interpretation``, and the atoms derived before any body
        atom is: one full pass over the program.

        The counters start from the per-program template, in which no
        negative literal holds, and only the negative occurrences are read
        again.
        """
        missing = self._template.copy()
        for atom, occurrences in self._negative.items():
            if atom not in interpretation:
                for index, weight in occurrences:
                    missing[index] -= weight
        queue = [s.atom for s in self.externals]
        queue.extend(facts)
        for index in self._ready:
            queue.extend(self._fired(index, choosable))
        for index in self._negated:
            if missing[index] <= 0:
                queue.extend(self._fired(index, choosable))
        return missing, queue

    def _propagate(self, missing, queue, derived, choosable,
                   blocked=frozenset()) -> None:
        """Add to ``derived`` the atoms of ``queue`` and all they derive.

        Each derived atom lowers the counter of each of its positive body
        occurrences; a rule fires when its counter first reaches zero.  No
        atom of ``blocked`` is derived.
        """
        occurrences, heads = self._positive, self._heads
        while queue:
            atom = queue.pop()
            if atom in derived or atom in blocked:
                continue
            derived.add(atom)
            for index, weight in occurrences.get(atom, ()):
                need = missing[index] - weight
                missing[index] = need
                if need <= 0 < need + weight:
                    head, choice = heads[index]
                    if not choice:
                        queue.extend(head)
                    elif choosable is not None:
                        queue.extend(h for h in head if h in choosable)

    def least_model(self, interpretation, choosable, facts=(),
                    blocked=frozenset()) -> set[int]:
        """Least model of the rules with their negative literals fixed.

        ``~a`` holds iff ``a`` is not in ``interpretation``; externals and
        the atoms of ``facts`` are facts, and no atom of ``blocked`` is
        derived.  A choice rule derives only its heads in ``choosable``,
        and none when ``choosable`` is None; constraints are ignored.  Each
        rule keeps a counter of the body weight still missing, so every
        positive occurrence is visited once (Dowling & Gallier 1984):
        linear in the program size, whatever the statement order.  The
        counters start from per-program template counts, and only the
        negative occurrences are read against ``interpretation``; the
        propagation is the one the lower bound of
        :meth:`alternating_fixpoint` continues.  Weights are assumed
        non-negative; the parser rejects negative ones.

        With ``interpretation`` and ``choosable`` both a total
        interpretation M, this is the least model of M's reduct.  If M
        equals it, M holds every external and satisfies every rule that is
        not a constraint, since a body that holds in M fires in the reduct
        and puts its head in M; so M is an answer set iff, in addition, no
        constraint body holds in M.
        """
        missing, queue = self._start(interpretation, choosable, facts)
        derived: set[int] = set()
        self._propagate(missing, queue, derived, choosable, blocked)
        return derived

    def alternating_fixpoint(self, true=frozenset(), false=frozenset(),
                             possible=None) -> tuple[set[int], set[int]]:
        """(lower, upper) bounds of the answer sets that contain ``true``
        and miss ``false``.

        The alternating fixpoint of Van Gelder, Ross & Schlipf under these
        assumptions: the lower bound is the least model with negation read
        against the upper bound, choice rules off and ``true`` as facts;
        the upper bound is the least model with negation read against the
        lower bound, every choice head allowed and ``false`` blocked.  Every
        such answer set lies between the two.  The upper bound starts at
        ``possible``, by default every atom; the upper bound of weaker
        assumptions less ``false`` is a sound start, and both steps are
        monotone, so it reaches the same fixpoint sooner.

        Only the upper bound is computed from scratch each round.  The
        lower bound keeps its counters between rounds: each atom that left
        the upper bound lowers the counters of the rules where it occurs
        negatively, and what fires is propagated.  That equals the least
        model from scratch as long as the upper bounds only shrink, so that
        no negative literal that held stops holding.  They do when
        ``possible`` is None, or is the upper bound U of weaker assumptions
        (some of ``true`` and of ``false``, lower bound L) less ``false``,
        as ``oracle._Checker.bounds`` passes it, L and U being ∅ and every
        atom at the root of an answer check.  The first lower bound is read
        against a part of U with more facts, so it holds L; the first upper
        bound is read against a superset of L with more atoms blocked, so
        it lies inside U, the upper bound of L, and misses ``false``.  From
        there on a larger lower bound gives a smaller upper bound, and a
        smaller upper bound a larger lower bound.
        """
        atoms = self.atom_ids
        upper = atoms if possible is None else possible
        missing, queue = self._start(upper, None, true)
        lower: set[int] = set()
        self._propagate(missing, queue, lower, None)
        negative = self._negative
        while True:
            new_upper = self.least_model(lower, atoms, (), false)
            for atom in upper - new_upper:
                for index, weight in negative.get(atom, ()):
                    need = missing[index] - weight
                    missing[index] = need
                    if need <= 0 < need + weight:
                        queue.extend(self._fired(index, None))
            upper = new_upper
            size = len(lower)
            self._propagate(missing, queue, lower, None)
            if len(lower) == size:
                return lower, upper

    @cached_property
    def well_founded(self) -> tuple[frozenset[int], frozenset[int]]:
        """(true, false) atom ids of the well-founded model, computed once.

        This is the alternating fixpoint without assumptions: every answer
        set contains the true atoms and none of the false ones.
        """
        true, possible = self.alternating_fixpoint()
        return frozenset(true), self.atom_ids - possible


def _integers(tokens: list[str]) -> tuple[int, ...]:
    """The line's tokens as integers, or, if one is not an integer, the
    integers before it."""
    try:
        return tuple(map(int, tokens))
    except ValueError:
        ints = []
        for token in tokens:
            try:
                ints.append(int(token))
            except ValueError:
                break
        return tuple(ints)


def _expected(what: str, tokens: list[str], ints: tuple[int, ...],
              line: str, lineno: int) -> TruncatedStatement:
    """The error of a field ``what`` read just past the integer prefix: the
    token there is not an integer, or the statement ends before it."""
    pos = len(ints)
    if pos < len(tokens):
        return TruncatedStatement(
            f"line {lineno}: expected integer {what}, got {tokens[pos]!r}")
    return TruncatedStatement(
        f"line {lineno}: expected {what}, statement ends early: {line!r}")


def _trailing(tokens: list[str], end: int, lineno: int) -> TruncatedStatement:
    """The error of tokens after the statement's last field, at ``end``."""
    extra = " ".join(tokens[end:])
    return TruncatedStatement(
        f"line {lineno}: trailing tokens {extra!r} after statement")


def _negative(what: str, n: int, lineno: int) -> TruncatedStatement:
    return TruncatedStatement(f"line {lineno}: negative {what} {n}")


def _parse_rule(tokens: list[str], line: str, lineno: int) -> RuleStatement:
    """Read a rule line, the one reader of tag 1.

    The line's integers are read once; the fields are then checked by
    position in field order, so a faulty line raises the error of its
    first faulty field: a field past the integer prefix, a negative count,
    an unknown head or body type, a negative weight, or trailing tokens.
    """
    ints = _integers(tokens)
    n = len(ints)
    # Field 0 is the tag.
    if n < 2:
        raise _expected("head type", tokens, ints, line, lineno)
    head_type = ints[1]
    if head_type not in (HEAD_DISJUNCTIVE, HEAD_CHOICE):
        raise TruncatedStatement(
            f"line {lineno}: unknown head type {head_type}")
    if n < 3:
        raise _expected("head atom count", tokens, ints, line, lineno)
    if ints[2] < 0:
        raise _negative("head atom count", ints[2], lineno)
    pos = 3 + ints[2]
    if pos >= n:
        raise _expected("head atom" if pos > n else "body type",
                        tokens, ints, line, lineno)
    body_type = ints[pos]
    if body_type == BODY_NORMAL:
        if pos + 1 >= n:
            raise _expected("body literal count", tokens, ints, line, lineno)
        count = ints[pos + 1]
        if count < 0:
            raise _negative("body literal count", count, lineno)
        start = pos + 2
        end = start + count
        if end > n:
            raise _expected("body literal", tokens, ints, line, lineno)
        body = _new(NormalBody, (ints[start:end],))
    elif body_type == BODY_WEIGHT:
        if pos + 1 >= n:
            raise _expected("lower bound", tokens, ints, line, lineno)
        if pos + 2 >= n:
            raise _expected("weight element count", tokens, ints, line, lineno)
        count = ints[pos + 2]
        if count < 0:
            raise _negative("weight element count", count, lineno)
        start = pos + 3
        end = start + 2 * count
        if end > n:
            raise _expected("weight" if (n - start) % 2 else "weight literal",
                            tokens, ints, line, lineno)
        weights = ints[start + 1:end:2]
        if min(weights, default=0) < 0:
            raise TruncatedStatement(
                f"line {lineno}: negative weight in a weight body")
        body = _new(WeightBody, (ints[pos + 1],
                                 tuple(zip(ints[start:end:2], weights))))
    else:
        raise TruncatedStatement(
            f"line {lineno}: unknown body type {body_type}")
    if end != len(tokens):
        raise _trailing(tokens, end, lineno)
    return _new(RuleStatement, (head_type, ints[3:pos], body))


def _parse_output(line: str, lineno: int) -> OutputStatement:
    # "4 <len> <symbol> <n> <lits...>": the symbol is length-delimited, so it
    # may contain anything but a newline.
    rest = line.split(None, 2)
    if len(rest) < 3:
        raise TruncatedStatement(f"line {lineno}: output statement too short: {line!r}")
    try:
        length = int(rest[1])
    except ValueError:
        raise TruncatedStatement(
            f"line {lineno}: bad symbol length {rest[1]!r}") from None
    if length < 0:
        raise _negative("symbol length", length, lineno)
    tail = rest[2]
    if len(tail) < length:
        raise TruncatedStatement(f"line {lineno}: symbol shorter than declared length")
    symbol = tail[:length]
    tail = tail[length:]
    tokens = tail.split()
    ints = _integers(tokens)
    if not ints:
        raise _expected("condition literal count", tokens, ints, line, lineno)
    if ints[0] < 0:
        raise _negative("condition literal count", ints[0], lineno)
    end = 1 + ints[0]
    if end > len(ints):
        raise _expected("condition literal", tokens, ints, line, lineno)
    if end != len(tokens):
        raise _trailing(tokens, end, lineno)
    return _new(OutputStatement, (symbol, ints[1:]))


def parse_aspif(text: str) -> AspifProgram:
    """Parse aspif text into an :class:`AspifProgram`, filing each
    statement as it is read.

    Blank lines and ``%`` comment lines are tolerated anywhere.
    """
    program = AspifProgram()
    file, file_rule = program._file, program._file_rule
    saw_header = False
    saw_terminator = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        if not saw_header:
            if line.split() != ["asp", "1", "0", "0"]:
                raise MalformedHeader(
                    f"line {lineno}: expected 'asp 1 0 0' header, got {line!r}")
            saw_header = True
            continue
        if saw_terminator:
            raise TruncatedStatement(
                f"line {lineno}: content after the '0' terminator: {line!r}")
        if line == "0":
            saw_terminator = True
            continue
        tokens = line.split()
        tag = tokens[0]
        if tag == "1":
            file_rule(_parse_rule(tokens, line, lineno))
        elif tag == "4":
            file(_parse_output(line, lineno))
        elif tag == "5":
            ints = _integers(tokens)
            if len(ints) < 3:
                raise _expected("atom" if len(ints) < 2 else "external value",
                                tokens, ints, line, lineno)
            if len(tokens) != 3:
                raise _trailing(tokens, 3, lineno)
            file(_new(ExternalStatement, ints[1:]))
        else:
            file(_new(OpaqueStatement, (line,)))
    if not saw_header:
        raise MalformedHeader("empty input: no 'asp 1 0 0' header")
    if not saw_terminator:
        raise MissingTerminator("input ended without the '0' terminator")
    return program


def _emit_rule(stmt: RuleStatement) -> str:
    parts = [1, stmt.head_type, len(stmt.head), *stmt.head]
    if isinstance(stmt.body, NormalBody):
        parts += [BODY_NORMAL, len(stmt.body.literals), *stmt.body.literals]
    else:
        parts += [BODY_WEIGHT, stmt.body.lower, len(stmt.body.elements)]
        for lit, weight in stmt.body.elements:
            parts += [lit, weight]
    return " ".join(str(p) for p in parts)


def emit_aspif(program: AspifProgram) -> str:
    """Render a program back to aspif text (inverse of :func:`parse_aspif`)."""
    lines = ["asp 1 0 0"]
    for stmt in program.statements:
        if isinstance(stmt, RuleStatement):
            lines.append(_emit_rule(stmt))
        elif isinstance(stmt, OutputStatement):
            cond = " ".join(str(lit) for lit in stmt.condition)
            line = f"4 {len(stmt.symbol)} {stmt.symbol} {len(stmt.condition)}"
            lines.append(f"{line} {cond}" if cond else line)
        elif isinstance(stmt, ExternalStatement):
            lines.append(f"5 {stmt.atom} {stmt.value}")
        else:
            lines.append(stmt.raw)
    lines.append("0")
    return "\n".join(lines) + "\n"
