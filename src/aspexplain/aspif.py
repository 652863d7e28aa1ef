"""Reader and writer for the aspif ground format (header ``asp 1 0 0``).

Only the statement kinds the explanation pipeline consumes are modelled
structurally: rules (tag 1), outputs (tag 4) and externals (tag 5).  Any
other tag is preserved opaquely and re-emitted verbatim.  The parser files
each line once, from its integers, as it reads it: into the typed lists,
the constraints, the definitions, the atom ids and the counter rows of the
one least-model operator of the package, :meth:`AspifProgram.least_model`.
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

    @property
    def is_constraint(self) -> bool:
        return self.head_type == HEAD_DISJUNCTIVE and not self.head

    @property
    def is_choice(self) -> bool:
        return self.head_type == HEAD_CHOICE


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
    def _atom_ids(self) -> frozenset[int]:
        return frozenset(self._ids).union(
            self.definitions, self._positive, self._negative)

    def atom_ids(self) -> frozenset[int]:
        """Every atom id referenced by a structural statement."""
        return self._atom_ids

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
        as ``oracle._Checker.bounds`` passes it.  The first lower bound is
        read against a part of U with more facts, so it holds L; the first
        upper bound is read against a superset of L with more atoms
        blocked, so it lies inside U, the upper bound of L, and misses
        ``false``.  From there on a larger lower bound gives a smaller
        upper bound, and a smaller upper bound a larger lower bound.
        """
        atoms = self.atom_ids()
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
    def _well_founded(self) -> tuple[frozenset[int], frozenset[int]]:
        true, possible = self.alternating_fixpoint()
        return frozenset(true), self.atom_ids() - possible

    def well_founded(self) -> tuple[frozenset[int], frozenset[int]]:
        """(true, false) atom ids of the well-founded model, computed once.

        This is the alternating fixpoint without assumptions: every answer
        set contains the true atoms and none of the false ones.
        """
        return self._well_founded


class _Fields:
    """The whitespace-separated integer fields of one line, for a line the
    positional reads reject.

    The tokens are converted at once; ``ints`` holds them all, or, if one is
    not an integer, the integers before it.  Readers take fields by position
    and in field order, and a read past ``ints`` raises the error of that
    first missing or non-integer field, so the message is built only when a
    line fails.
    """

    __slots__ = ("tokens", "line", "lineno", "ints")

    def __init__(self, tokens: list[str], line: str, lineno: int):
        self.tokens = tokens
        self.line = line
        self.lineno = lineno
        try:
            self.ints = tuple(map(int, tokens))
        except ValueError:
            ints = []
            for token in tokens:
                try:
                    ints.append(int(token))
                except ValueError:
                    break
            self.ints = tuple(ints)

    def missing(self, what: str) -> TruncatedStatement:
        """The error of reading ``what`` just past the integer prefix."""
        pos = len(self.ints)
        if pos < len(self.tokens):
            return TruncatedStatement(
                f"line {self.lineno}: expected integer {what}, "
                f"got {self.tokens[pos]!r}")
        return TruncatedStatement(
            f"line {self.lineno}: expected {what}, statement ends early: "
            f"{self.line!r}")

    def take(self, pos: int, what: str) -> int:
        if pos < len(self.ints):
            return self.ints[pos]
        raise self.missing(what)

    def count(self, pos: int, what: str) -> int:
        if pos >= len(self.ints):
            raise self.missing(what)
        n = self.ints[pos]
        if n < 0:
            raise TruncatedStatement(f"line {self.lineno}: negative {what} {n}")
        return n

    def span(self, pos: int, end: int, what: str) -> tuple[int, ...]:
        if end > len(self.ints):
            raise self.missing(what)
        return self.ints[pos:end]

    def finish(self, pos: int) -> None:
        if pos != len(self.tokens):
            extra = " ".join(self.tokens[pos:])
            raise TruncatedStatement(
                f"line {self.lineno}: trailing tokens {extra!r} after statement")


def _parse_rule(tokens: list[str], line: str, lineno: int) -> RuleStatement:
    """Read a rule line.  A well-formed line is read from its integers by
    position; any other is read again field by field, which raises the
    error of its first faulty field."""
    try:
        ints = tuple(map(int, tokens))
        head_type = ints[1]
        pos = 3 + ints[2]
        body_type = ints[pos]
        if head_type in (HEAD_DISJUNCTIVE, HEAD_CHOICE) and pos >= 3:
            if body_type == BODY_NORMAL:
                start = pos + 2
                end = start + ints[pos + 1]
                if start <= end == len(ints):
                    return _new(RuleStatement, (head_type, ints[3:pos], _new(
                        NormalBody, (ints[start:end],))))
            elif body_type == BODY_WEIGHT:
                start = pos + 3
                end = start + 2 * ints[pos + 2]
                weights = ints[start + 1:end:2]
                if start <= end == len(ints) and min(weights, default=0) >= 0:
                    return _new(RuleStatement, (head_type, ints[3:pos], _new(
                        WeightBody, (ints[pos + 1],
                                     tuple(zip(ints[start:end:2], weights))))))
    except (ValueError, IndexError):
        pass
    return _read_rule(_Fields(tokens, line, lineno))


def _read_rule(fields: _Fields) -> RuleStatement:
    # Field 0 is the tag.
    head_type = fields.take(1, "head type")
    if head_type not in (HEAD_DISJUNCTIVE, HEAD_CHOICE):
        raise TruncatedStatement(
            f"line {fields.lineno}: unknown head type {head_type}")
    pos = 3 + fields.count(2, "head atom count")
    head = fields.span(3, pos, "head atom")
    body_type = fields.take(pos, "body type")
    if body_type == BODY_NORMAL:
        end = pos + 2 + fields.count(pos + 1, "body literal count")
        body: NormalBody | WeightBody = NormalBody(
            fields.span(pos + 2, end, "body literal"))
    elif body_type == BODY_WEIGHT:
        lower = fields.take(pos + 1, "lower bound")
        start = pos + 3
        end = start + 2 * fields.count(pos + 2, "weight element count")
        ints = fields.ints
        if end > len(ints):
            raise fields.missing(
                "weight" if (len(ints) - start) % 2 else "weight literal")
        weights = ints[start + 1:end:2]
        if any(weight < 0 for weight in weights):
            raise TruncatedStatement(
                f"line {fields.lineno}: negative weight in a weight body")
        body = WeightBody(lower, tuple(zip(ints[start:end:2], weights)))
    else:
        raise TruncatedStatement(
            f"line {fields.lineno}: unknown body type {body_type}")
    fields.finish(end)
    return RuleStatement(head_type, head, body)


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
    tail = rest[2]
    if len(tail) < length:
        raise TruncatedStatement(f"line {lineno}: symbol shorter than declared length")
    symbol = tail[:length]
    tail = tail[length:]
    tokens = tail.split()
    try:
        ints = tuple(map(int, tokens))
        if ints[0] == len(ints) - 1:
            return _new(OutputStatement, (symbol, ints[1:]))
    except (ValueError, IndexError):
        pass
    fields = _Fields(tokens, tail, lineno)
    end = 1 + fields.count(0, "condition literal count")
    condition = fields.span(1, end, "condition literal")
    fields.finish(end)
    return OutputStatement(symbol, condition)


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
            try:
                _, atom, value = map(int, tokens)
            except ValueError:
                fields = _Fields(tokens, line, lineno)
                atom = fields.take(1, "atom")
                value = fields.take(2, "external value")
                fields.finish(3)
            file(_new(ExternalStatement, (atom, value)))
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
