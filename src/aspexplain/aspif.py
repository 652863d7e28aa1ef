"""Reader and writer for the aspif ground format (header ``asp 1 0 0``).

Only the statement kinds the explanation pipeline consumes are modelled
structurally: rules (tag 1), outputs (tag 4) and externals (tag 5).  Any
other tag is preserved opaquely and re-emitted verbatim.  The one
least-model operator of the package, :meth:`AspifProgram.least_model`,
and the well-founded model built on it work on these parsed statements.
"""

from __future__ import annotations

import math
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


@dataclass
class AspifProgram:
    """Parsed statements in file order.

    The typed lists and the indexes over them are computed on first access
    and then shared, so ``statements`` must not change once they have been
    read.
    """

    statements: list[Statement] = field(default_factory=list)

    @cached_property
    def rules(self) -> list[RuleStatement]:
        return [s for s in self.statements if isinstance(s, RuleStatement)]

    @cached_property
    def outputs(self) -> list[OutputStatement]:
        return [s for s in self.statements if isinstance(s, OutputStatement)]

    @cached_property
    def externals(self) -> list[ExternalStatement]:
        return [s for s in self.statements if isinstance(s, ExternalStatement)]

    @cached_property
    def definitions(self) -> dict[int, list[RuleStatement]]:
        """Each head atom's rule statements, in file order."""
        defs: dict[int, list[RuleStatement]] = {}
        for stmt in self.rules:
            for head in stmt.head:
                defs.setdefault(head, []).append(stmt)
        return defs

    @cached_property
    def _atom_ids(self) -> frozenset[int]:
        ids = {stmt.atom for stmt in self.externals}
        for stmt in self.rules:
            ids.update(stmt.head)
            ids.update(map(abs, stmt.body.literals))
        for stmt in self.outputs:
            ids.update(map(abs, stmt.condition))
        return frozenset(ids)

    def atom_ids(self) -> frozenset[int]:
        """Every atom id referenced by a structural statement."""
        return self._atom_ids

    @cached_property
    def _counters(self) -> tuple[list[tuple],
                                 dict[int, list[tuple[int, int]]]]:
        """The non-constraint rules as weight rules, and for each atom the
        (rule index, weight) pairs of its positive body occurrences.

        A rule is (head atoms, is choice, lower bound, negative (atom,
        weight) pairs).  A normal body reads as a weight body whose
        literals weigh 1 and whose lower bound is its length, so it holds
        iff every literal does; a repeated literal counts per occurrence.
        """
        rules = []
        occurrences: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for head_type, head, body in self.rules:
            if head_type == HEAD_DISJUNCTIVE and not head:
                continue
            index = len(rules)
            negatives = []
            if isinstance(body, WeightBody):
                lower = body.lower
                for lit, weight in body.elements:
                    if lit > 0:
                        occurrences[lit].append((index, weight))
                    else:
                        negatives.append((-lit, weight))
            else:
                lower = len(body.literals)
                for lit in body.literals:
                    if lit > 0:
                        occurrences[lit].append((index, 1))
                    else:
                        negatives.append((-lit, 1))
            rules.append((head, head_type == HEAD_CHOICE, lower, negatives))
        return rules, occurrences

    def least_model(self, interpretation, choosable, facts=(),
                    blocked=frozenset()) -> set[int]:
        """Least model of the rules with their negative literals fixed.

        ``~a`` holds iff ``a`` is not in ``interpretation``; externals and
        the atoms of ``facts`` are facts, and no atom of ``blocked`` is
        derived.  A choice rule derives only its heads in ``choosable``,
        and none when ``choosable`` is None; constraints are ignored.  Each
        rule keeps a counter of the body weight still missing, so every
        positive occurrence is visited once (Dowling & Gallier 1984):
        linear in the program size, whatever the statement order.  Weights
        are assumed non-negative, as grounders emit them.

        With ``interpretation`` and ``choosable`` both a total
        interpretation M, this is the least model of M's reduct.  If M
        equals it, M holds every external and satisfies every rule that is
        not a constraint, since a body that holds in M fires in the reduct
        and puts its head in M; so M is an answer set iff, in addition, no
        constraint body holds in M.
        """
        rules, occurrences = self._counters
        missing: list[float] = []
        queue = [s.atom for s in self.externals]
        queue.extend(facts)
        for head, choice, lower, negatives in rules:
            if choice and choosable is None:
                need: float = math.inf
            elif negatives:
                need = lower - sum(w for atom, w in negatives
                                   if atom not in interpretation)
            else:
                need = lower
            missing.append(need)
            if need <= 0:
                if choice:
                    queue.extend(h for h in head if h in choosable)
                else:
                    queue.extend(head)
        derived: set[int] = set()
        while queue:
            atom = queue.pop()
            if atom in derived or atom in blocked:
                continue
            derived.add(atom)
            for index, weight in occurrences.get(atom, ()):
                need = missing[index] - weight
                missing[index] = need
                if need <= 0 < need + weight:
                    head, choice, _, _ = rules[index]
                    if choice:
                        queue.extend(h for h in head if h in choosable)
                    else:
                        queue.extend(head)
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
        assumptions is a sound start, and both steps are monotone, so it
        reaches the same fixpoint sooner.
        """
        atoms = self.atom_ids()
        upper = atoms if possible is None else possible
        lower = None
        while True:
            new_lower = self.least_model(upper, None, true)
            if new_lower == lower:
                return lower, upper
            lower = new_lower
            upper = self.least_model(lower, atoms, (), false)

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
    """The whitespace-separated integer fields of one line.

    The tokens are converted at once; ``ints`` holds them all, or, if one is
    not an integer, the integers before it.  Readers take fields by position
    and in field order, and a read past ``ints`` raises the error of that
    first missing or non-integer field.
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


def _parse_rule(fields: _Fields) -> RuleStatement:
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
    fields = _Fields(tail.split(), tail, lineno)
    end = 1 + fields.count(0, "condition literal count")
    condition = fields.span(1, end, "condition literal")
    fields.finish(end)
    return OutputStatement(symbol, condition)


def parse_aspif(text: str) -> AspifProgram:
    """Parse aspif text into an :class:`AspifProgram`.

    Blank lines and ``%`` comment lines are tolerated anywhere.
    """
    lines = text.splitlines()
    program = AspifProgram()
    append = program.statements.append
    saw_header = False
    saw_terminator = False
    for lineno, raw in enumerate(lines, start=1):
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
            append(_parse_rule(_Fields(tokens, line, lineno)))
        elif tag == "4":
            append(_parse_output(line, lineno))
        elif tag == "5":
            fields = _Fields(tokens, line, lineno)
            atom = fields.take(1, "atom")
            value = fields.take(2, "external value")
            fields.finish(3)
            append(ExternalStatement(atom, value))
        else:
            append(OpaqueStatement(line))
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
