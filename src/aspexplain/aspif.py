"""Reader and writer for the aspif ground format (header ``asp 1 0 0``).

Only the statement kinds the explanation pipeline consumes are modelled
structurally: rules (tag 1), outputs (tag 4) and externals (tag 5).  Any
other tag is preserved opaquely and re-emitted verbatim.  The one
least-model operator of the package, :meth:`AspifProgram.least_model`,
and the well-founded model built on it work on these parsed statements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import MalformedHeader, MissingTerminator, TruncatedStatement

HEAD_DISJUNCTIVE = 0
HEAD_CHOICE = 1

BODY_NORMAL = 0
BODY_WEIGHT = 1


@dataclass(frozen=True)
class NormalBody:
    literals: tuple[int, ...] = ()


@dataclass(frozen=True)
class WeightBody:
    lower: int
    elements: tuple[tuple[int, int], ...]  # (literal, weight) pairs

    @property
    def literals(self) -> tuple[int, ...]:
        return tuple(lit for lit, _ in self.elements)


@dataclass(frozen=True)
class RuleStatement:
    head_type: int
    head: tuple[int, ...]
    body: NormalBody | WeightBody

    @property
    def is_constraint(self) -> bool:
        return self.head_type == HEAD_DISJUNCTIVE and not self.head

    @property
    def is_choice(self) -> bool:
        return self.head_type == HEAD_CHOICE

    def body_literals(self) -> tuple[int, ...]:
        return self.body.literals


@dataclass(frozen=True)
class OutputStatement:
    symbol: str
    condition: tuple[int, ...]


@dataclass(frozen=True)
class ExternalStatement:
    atom: int
    value: int


@dataclass(frozen=True)
class OpaqueStatement:
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
            ids.update(abs(lit) for lit in stmt.body_literals())
        for stmt in self.outputs:
            ids.update(abs(lit) for lit in stmt.condition)
        return frozenset(ids)

    def atom_ids(self) -> frozenset[int]:
        """Every atom id referenced by a structural statement."""
        return self._atom_ids

    @cached_property
    def _positive_occurrences(self) -> tuple[list[RuleStatement],
                                             dict[int, list[tuple[int, int]]]]:
        """The non-constraint rules, and for each atom the (rule index,
        weight) pairs of its positive body occurrences; a normal body
        literal weighs 1, and a repeated literal counts per occurrence."""
        rules = [s for s in self.rules if not s.is_constraint]
        occurrences: dict[int, list[tuple[int, int]]] = {}
        for index, stmt in enumerate(rules):
            body = stmt.body
            elements = body.elements if isinstance(body, WeightBody) \
                else [(lit, 1) for lit in body.literals]
            for lit, weight in elements:
                if lit > 0:
                    occurrences.setdefault(lit, []).append((index, weight))
        return rules, occurrences

    def least_model(self, interpretation, choosable) -> set[int]:
        """Least model of the rules with their negative literals fixed.

        ``~a`` holds iff ``a`` is not in ``interpretation``; externals are
        facts.  A choice rule derives only its heads in ``choosable``, and
        none when ``choosable`` is None; constraints are ignored.  Each rule
        keeps a counter of the body weight still missing, so every positive
        occurrence is visited once (Dowling & Gallier 1984): linear in the
        program size, whatever the statement order.  Weights are assumed
        non-negative, as grounders emit them.
        """
        rules, occurrences = self._positive_occurrences
        missing: list[float] = []
        queue = [s.atom for s in self.externals]

        def fire(stmt: RuleStatement) -> None:
            if stmt.is_choice:
                queue.extend(h for h in stmt.head if h in choosable)
            else:
                queue.extend(stmt.head)

        for stmt in rules:
            body = stmt.body
            if stmt.is_choice and choosable is None:
                need: float = math.inf
            elif isinstance(body, WeightBody):
                need = body.lower - sum(
                    w for lit, w in body.elements
                    if lit < 0 and -lit not in interpretation)
            elif any(lit < 0 and -lit in interpretation
                     for lit in body.literals):
                need = math.inf
            else:
                need = sum(1 for lit in body.literals if lit > 0)
            missing.append(need)
            if need <= 0:
                fire(stmt)
        derived: set[int] = set()
        while queue:
            atom = queue.pop()
            if atom in derived:
                continue
            derived.add(atom)
            for index, weight in occurrences.get(atom, ()):
                need = missing[index] - weight
                missing[index] = need
                if need <= 0 < need + weight:
                    fire(rules[index])
        return derived

    def well_founded(self) -> tuple[frozenset[int], frozenset[int]]:
        """(true, false) atom ids of the well-founded model.

        The alternating fixpoint of Van Gelder, Ross & Schlipf: the true
        atoms are the least model with negation read against the possible
        atoms, choice rules off; the possible atoms are the least model
        with negation read against the true atoms, every choice head
        allowed.  Every answer set contains the true atoms and none of the
        false ones.
        """
        atoms = self.atom_ids()
        true: set[int] = set()
        possible: frozenset[int] | set[int] = atoms
        while True:
            new_true = self.least_model(possible, None)
            new_possible = self.least_model(new_true, atoms)
            if new_true == true and new_possible == possible:
                return frozenset(true), frozenset(atoms - possible)
            true, possible = new_true, new_possible


class _Fields:
    """Cursor over the whitespace-separated integer fields of one line."""

    def __init__(self, line: str, lineno: int):
        self.tokens = line.split()
        self.pos = 0
        self.line = line
        self.lineno = lineno

    def take(self, what: str) -> int:
        if self.pos >= len(self.tokens):
            raise TruncatedStatement(
                f"line {self.lineno}: expected {what}, statement ends early: {self.line!r}")
        token = self.tokens[self.pos]
        self.pos += 1
        try:
            return int(token)
        except ValueError:
            raise TruncatedStatement(
                f"line {self.lineno}: expected integer {what}, got {token!r}") from None

    def finish(self) -> None:
        if self.pos != len(self.tokens):
            extra = " ".join(self.tokens[self.pos:])
            raise TruncatedStatement(
                f"line {self.lineno}: trailing tokens {extra!r} after statement")


def _parse_rule(fields: _Fields) -> RuleStatement:
    head_type = fields.take("head type")
    if head_type not in (HEAD_DISJUNCTIVE, HEAD_CHOICE):
        raise TruncatedStatement(
            f"line {fields.lineno}: unknown head type {head_type}")
    n_head = fields.take("head atom count")
    head = tuple(fields.take("head atom") for _ in range(n_head))
    body_type = fields.take("body type")
    if body_type == BODY_NORMAL:
        n_body = fields.take("body literal count")
        literals = tuple(fields.take("body literal") for _ in range(n_body))
        body: NormalBody | WeightBody = NormalBody(literals)
    elif body_type == BODY_WEIGHT:
        lower = fields.take("lower bound")
        n_body = fields.take("weight element count")
        elements = tuple(
            (fields.take("weight literal"), fields.take("weight"))
            for _ in range(n_body))
        if any(weight < 0 for _, weight in elements):
            raise TruncatedStatement(
                f"line {fields.lineno}: negative weight in a weight body")
        body = WeightBody(lower, elements)
    else:
        raise TruncatedStatement(
            f"line {fields.lineno}: unknown body type {body_type}")
    fields.finish()
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
    fields = _Fields(tail[length:], lineno)
    n_cond = fields.take("condition literal count")
    condition = tuple(fields.take("condition literal") for _ in range(n_cond))
    fields.finish()
    return OutputStatement(symbol, condition)


def parse_aspif(text: str) -> AspifProgram:
    """Parse aspif text into an :class:`AspifProgram`.

    Blank lines and ``%`` comment lines are tolerated anywhere.
    """
    lines = text.splitlines()
    program = AspifProgram()
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
        tag = line.split(None, 1)[0]
        if tag == "1":
            fields = _Fields(line, lineno)
            fields.take("tag")
            program.statements.append(_parse_rule(fields))
        elif tag == "4":
            program.statements.append(_parse_output(line, lineno))
        elif tag == "5":
            fields = _Fields(line, lineno)
            fields.take("tag")
            atom = fields.take("atom")
            value = fields.take("external value")
            fields.finish()
            program.statements.append(ExternalStatement(atom, value))
        else:
            program.statements.append(OpaqueStatement(line))
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
