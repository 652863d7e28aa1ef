"""Command-line front end: parse, explain, assumptions, answersets.

explain and assumptions share _analyse, which checks the answer, makes E
and computes U; main maps each error class to its exit code."""

from __future__ import annotations

import argparse
import functools
import sys

from . import nodes, oracle
from .aspif import parse_aspif
from .assumptions import _EXACT_SEARCH_LIMIT, minimal_assumption_sets
from .constraints import constraint_preprocessing
from .egraph import (
    SupportTable,
    build_egraph,
    merge_supports,
    to_dot,
    to_json,
)
from .errors import (
    AspifError,
    NotAnAnswerSet,
    NoValidGraph,
    ReconstructionError,
    TooLarge,
    UnknownLiteral,
)
from .ground import GroundProgram, reconstruct
from .support import FactoredRow, build_er, dump_table

EXIT_OK = 0
EXIT_PARSE_ERROR = 1
EXIT_RECONSTRUCTION_ERROR = 2
EXIT_NOT_ANSWER_SET = 3
EXIT_UNKNOWN_LITERAL = 4
EXIT_NO_VALID_GRAPH = 5
EXIT_TOO_LARGE = 6
EXIT_USAGE = 7


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AspifError as err:
        return _fail(err, EXIT_PARSE_ERROR)
    except ReconstructionError as err:
        return _fail(err, EXIT_RECONSTRUCTION_ERROR)
    except NotAnAnswerSet as err:
        return _fail(err, EXIT_NOT_ANSWER_SET)
    except UnknownLiteral as err:
        return _fail(err, EXIT_UNKNOWN_LITERAL)
    except NoValidGraph as err:
        return _fail(err, EXIT_NO_VALID_GRAPH)
    except TooLarge as err:
        return _fail(err, EXIT_TOO_LARGE)
    except (OSError, UnicodeDecodeError) as err:
        return _fail(err, EXIT_PARSE_ERROR)


def _fail(err: BaseException, code: int) -> int:
    print(f"error: {err}", file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    """Exits with EXIT_USAGE on a bad command line, not argparse's 2,
    which the exit-code table gives to reconstruction failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process on first use: a caller
    that runs several commands in one process reuses it."""
    parser = _Parser(
        prog="aspexplain",
        description="Explain why literals hold in an answer set of a "
                    "ground logic program (aspif input).")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", help="aspif file, or '-' for stdin")
        p.add_argument(
            "--ground-cmd", metavar="CMD", type=_split_command,
            help="run CMD as an external grounder and read aspif from its "
                 "stdout; '{}' in CMD expands to INPUT, otherwise INPUT is "
                 "appended")
        p.add_argument("--out", metavar="FILE",
                       help="write output to FILE instead of stdout")
        p.add_argument("--ascii", action="store_true",
                       help="use ASCII-only glyphs in rendered output")

    def answered(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument(
            "--answer-set", metavar="FILE",
            help="file of atom names separated by whitespace; lines "
                 "starting with '%%' are comments")
        group.add_argument("--answer", metavar="ATOMS",
                           help="answer set as a space-separated string")
        p.add_argument("--no-check", action="store_true",
                       help="skip answer-set verification")

    p = sub.add_parser("parse",
                       help="print the reconstructed rules, symbols, NANT")
    common(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("explain",
                       help="build the explanation graph for one literal")
    common(p)
    answered(p)
    p.add_argument("--root", required=True, metavar="LIT",
                   help="literal to explain: 'a', '~a', or 'not a'")
    p.add_argument("--format", choices=("dot", "json", "text"),
                   default="dot", help="output format (default: dot)")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("assumptions",
                       help="report which atoms must be assumed false")
    common(p)
    answered(p)
    p.add_argument("--enumerate-assumption-sets", action="store_true",
                   help="print every minimal assumption-set candidate")
    p.set_defaults(func=cmd_assumptions)

    p = sub.add_parser("answersets",
                       help="enumerate all answer sets (exhaustive search)")
    common(p)
    p.set_defaults(func=cmd_answersets)
    return parser


def _split_command(text: str) -> list[str]:
    """The words of a --ground-cmd value, split as a POSIX shell would."""
    import shlex

    try:
        cmd = shlex.split(text)
        if not cmd:
            raise ValueError("no command given")
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    return cmd


def _read_program_text(args) -> str:
    if args.ground_cmd:
        import subprocess

        cmd = args.ground_cmd
        if "{}" in cmd:
            cmd = [args.input if part == "{}" else part for part in cmd]
        elif args.input != "-":
            cmd = cmd + [args.input]
        proc = subprocess.run(cmd, capture_output=True)
        if proc.returncode != 0:
            raise AspifError(
                f"grounder exited with status {proc.returncode}: "
                f"{proc.stderr.decode(errors='replace').strip()}")
        return proc.stdout.decode("utf-8")
    if args.input == "-":
        return sys.stdin.read()
    with open(args.input, encoding="utf-8") as handle:
        return handle.read()


def _load_program(args) -> GroundProgram:
    g = reconstruct(parse_aspif(_read_program_text(args)))
    for warning in g.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return g


def parse_answer_text(text: str) -> list[str]:
    """Atom names from an answer-set file; '%' lines are comments."""
    names: list[str] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("%"):
            continue
        names.extend(line.split())
    return names


def parse_root(text: str) -> nodes.ENode:
    """'a', '~a', or 'not a' to a literal node."""
    text = text.strip()
    if text.startswith("not "):
        return nodes.neg_atom_node(text[4:].strip())
    if text.startswith("~"):
        return nodes.neg_atom_node(text[1:].strip())
    return nodes.atom_node(text)


def _fmt_set(items) -> str:
    return "{" + ", ".join(sorted(items)) + "}"


def _fmt_set_list(sets) -> str:
    return "[" + ", ".join(_fmt_set(s) for s in sets) + "]"


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _analyse(args, whole: bool = False):
    """(E_r, E_c, E, report) for the program and the answer of ``args``.

    The answer is checked first, unless --no-check is given.  E is built
    whole when ``whole`` is set or the answer is unchecked, since that may
    fail in any row; otherwise E_r and E_c are None and E is a SupportTable,
    which builds each row when it is first read.
    """
    g = _load_program(args)
    if args.answer is not None:
        names = args.answer.split()
    else:
        with open(args.answer_set, encoding="utf-8") as handle:
            names = parse_answer_text(handle.read())
    answer = g.answer_from_names(names)
    if not args.no_check and not oracle.check_answer_set(g, names):
        raise NotAnAnswerSet("the given interpretation is not an answer set "
                             "of the program")
    er = ec = None
    if whole or args.no_check:
        er = build_er(g, answer)
        ec = constraint_preprocessing(g, answer)
        table = merge_supports(er, ec)
    else:
        table = SupportTable(g, answer)
    return er, ec, table, minimal_assumption_sets(g, answer, table=table)


def cmd_parse(args) -> int:
    g = _load_program(args)
    lines = [g.rule_text(rule) for rule in g.rules]
    for aid, name in g.named.items():
        lines.append(f"% symbol: {name} = {aid}")
    nant = g.nant_names()
    if nant:
        lines.append("% nant: " + _fmt_set(nant))
    _emit(args, "".join(line + "\n" for line in lines))
    return EXIT_OK


def cmd_explain(args) -> int:
    # The text report prints both tables whole.
    er, ec, table, report = _analyse(args, whole=args.format == "text")
    graph = build_egraph(table, report.chosen_u, parse_root(args.root),
                         max_graphs=1)[0]
    _warn(table, report)
    if args.format == "dot":
        text = to_dot(graph, ascii_only=args.ascii)
    elif args.format == "json":
        text = to_json(graph)
    else:
        text = _text_report(er, ec, report, graph, args.ascii)
    _emit(args, text)
    return EXIT_OK


def _warn(table, report) -> None:
    """On stderr, one warning for each row built that holds more supported
    sets than it keeps, then a note if min(B) is one greedy break."""
    for key, row in table.items():
        if isinstance(row, FactoredRow) and row.total > len(row):
            print(f"warning: the supported sets of {key.render()} are cut "
                  f"at {len(row)} of {row.total}", file=sys.stderr)
    if not report.min_b_exact:
        print(f"note: min(B) is one greedy cycle break, not every minimal "
              f"set: more than {_EXACT_SEARCH_LIMIT} atoms take part in DA "
              f"cycles", file=sys.stderr)


def _text_report(er, ec, report, graph, ascii_only: bool) -> str:
    lines = ["E_r:"]
    lines.extend(dump_table(er, ascii_only).splitlines())
    lines.append("E_c:")
    lines.extend(dump_table(ec, ascii_only).splitlines())
    lines.append("U = " + _fmt_set(report.chosen_u))
    lines.append(f"graph {graph.root.render(ascii_only)}:")
    for edge in graph.edges:
        lines.append(f"{edge.source.render(ascii_only)} -> "
                     f"{edge.target.render(ascii_only)} [{edge.label}]")
    return "".join(line + "\n" for line in lines)


def cmd_assumptions(args) -> int:
    _, _, table, report = _analyse(args)
    _warn(table, report)
    lines = [
        "TA = " + _fmt_set(report.ta),
        "T = " + _fmt_set(report.t_must),
        "T' = " + _fmt_set(report.t_deferred),
    ]
    if report.da:
        lines.append("DA:")
        for key in sorted(report.da):
            lines.append(f"{key} : " + _fmt_set_list(report.da[key]))
    lines.append("min(B) = " + _fmt_set_list(report.min_b_candidates))
    lines.append("U = " + _fmt_set(report.chosen_u))
    if args.enumerate_assumption_sets:
        lines.append("U candidates:")
        for candidate in report.min_b_candidates:
            lines.append(_fmt_set(report.t_must | candidate))
    _emit(args, "".join(line + "\n" for line in lines))
    return EXIT_OK


def cmd_answersets(args) -> int:
    g = _load_program(args)
    models = oracle.enumerate_answer_sets(g)
    if not models:
        print("UNSAT: the program has no answer set", file=sys.stderr)
        return EXIT_OK
    _emit(args, "".join(" ".join(sorted(m)) + "\n" for m in models))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
