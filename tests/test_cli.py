"""Tests for the command-line front end."""

from __future__ import annotations

import ast
import dataclasses
import io
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from aspexplain import cli, oracle
from aspexplain.aspif import parse_aspif
from aspexplain.constraints import constraint_preprocessing
from aspexplain.egraph import (
    build_egraph,
    egraph_from_json,
    merge_supports,
    to_json,
    validate_egraph,
)
from aspexplain.ground import reconstruct
from aspexplain.support import build_er

from test_assumptions import TWO_D_SETS, da_ring
from test_enumeration import reference_enumerate_answer_sets

DATA = Path(__file__).parent / "data"
P1 = str(DATA / "p1.aspif")
P1_ANSWER = str(DATA / "p1_answer.txt")
COLORING = str(DATA / "coloring.aspif")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


TWO_CANDIDATE_PROGRAM = (
    "asp 1 0 0\n"
    "1 1 1 1 0 0\n"
    "1 1 1 2 0 0\n"
    "1 0 1 1 0 1 2\n"
    "1 0 1 2 0 1 1\n"
    "1 0 1 3 0 1 -1\n"
    "1 0 1 4 0 1 -2\n"
    "4 1 p 1 1\n"
    "4 1 q 1 2\n"
    "4 1 d 1 3\n"
    "4 1 e 1 4\n"
    "0\n"
)


class TestParse:
    def test_running_example(self, capsys):
        code, out, err = run(capsys, "parse", P1)
        assert code == 0
        assert err == ""
        assert ":- b, m(1).\n" in out
        assert "{m(1)} :- l(6), n(1).\n" in out
        assert "% nant: {a, b, c}\n" in out
        assert out.count("% symbol:") == 7

    def test_empty_program_prints_nothing(self, capsys, tmp_path):
        path = write(tmp_path, "empty.aspif", "asp 1 0 0\n0\n")
        code, out, err = run(capsys, "parse", path)
        assert code == 0
        assert out == ""

    def test_truncated_file_exits_1_with_line(self, capsys, tmp_path):
        path = write(tmp_path, "bad.aspif", "asp 1 0 0\n1 0 1\n0\n")
        code, out, err = run(capsys, "parse", path)
        assert code == 1
        assert err.startswith("error:")
        assert "2" in err

    def test_negative_count_exits_1(self, capsys, tmp_path):
        path = write(tmp_path, "neg.aspif", "asp 1 0 0\n1 0 -1 0 0\n0\n")
        code, out, err = run(capsys, "parse", path)
        assert (code, out) == (1, "")
        assert err == "error: line 2: negative head atom count -1\n"

    def test_negative_symbol_length_exits_1(self, capsys, tmp_path):
        path = write(tmp_path, "neg.aspif",
                     "asp 1 0 0\n1 0 1 7 0 0\n4 -3 abc 1 1 7\n0\n")
        code, out, err = run(capsys, "parse", path)
        assert (code, out) == (1, "")
        assert err == "error: line 3: negative symbol length -3\n"

    def test_missing_file_exits_1(self, capsys):
        code, out, err = run(capsys, "parse", "no-such-file.aspif")
        assert code == 1
        assert "error:" in err

    def test_reconstruction_error_exits_2(self, capsys, tmp_path):
        path = write(tmp_path, "dup.aspif",
                     "asp 1 0 0\n4 1 p 1 1\n4 1 p 1 2\n0\n")
        code, out, err = run(capsys, "parse", path)
        assert code == 2
        assert "error:" in err

    def test_stdin_input(self, capsys, monkeypatch):
        text = Path(P1).read_text()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "parse", "-")
        assert code == 0
        assert "% nant: {a, b, c}\n" in out


class TestExplain:
    def test_dot_output(self, capsys):
        code, out, err = run(
            capsys, "explain", P1, "--answer-set", P1_ANSWER,
            "--root", "m(1)")
        assert code == 0
        assert out.startswith("digraph explanation {")
        assert '"m(1)" -> "c" [style=solid];' in out
        assert '"~a" -> "assume" [style=dotted];' in out
        assert '"m(1)" -> "+choice" [style=dotted, color=orange];' in out
        assert out.count(" -> ") == 13

    def test_answer_as_string(self, capsys):
        code, out, _ = run(
            capsys, "explain", P1, "--answer", "n(1) n(2) c m(1)",
            "--root", "m(1)")
        assert code == 0
        assert out.count(" -> ") == 13

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "explain", P1, "--answer-set", P1_ANSWER,
            "--root", "m(1)", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["edges"]) == 13
        graph = egraph_from_json(out)
        assert graph.root.render() == "m(1)"

    def test_text_output(self, capsys):
        code, out, _ = run(
            capsys, "explain", P1, "--answer-set", P1_ANSWER,
            "--root", "m(1)", "--format", "text")
        assert code == 0
        assert "E_r:\n" in out
        assert "E_c:\n" in out
        assert "m(1) : [{c, n(1), +choice}]\n" in out
        assert "U = {a}\n" in out
        assert "m(1) -> c [plus]\n" in out

    def test_tilde_and_not_roots_agree(self, capsys):
        code1, out1, _ = run(
            capsys, "explain", P1, "--answer-set", P1_ANSWER,
            "--root", "~m(2)")
        code2, out2, _ = run(
            capsys, "explain", P1, "--answer-set", P1_ANSWER,
            "--root", "not m(2)")
        assert code1 == code2 == 0
        assert out1 == out2
        assert '"~m(2)" -> "-choice" [style=dotted, color=orange];' in out1

    def test_wrong_polarity_exits_4(self, capsys):
        code, out, err = run(
            capsys, "explain", P1, "--answer-set", P1_ANSWER,
            "--root", "~m(1)")
        assert code == 4
        assert "true" in err

    def test_unknown_atom_exits_4(self, capsys):
        code, out, err = run(
            capsys, "explain", P1, "--answer-set", P1_ANSWER,
            "--root", "zzz")
        assert code == 4

    def test_bad_answer_set_exits_3(self, capsys):
        code, out, err = run(
            capsys, "explain", P1, "--answer", "n(1) n(2) b",
            "--root", "b")
        assert code == 3
        assert "answer set" in err

    @pytest.mark.parametrize("command, extra", [
        ("explain", ["--root", "b"]), ("assumptions", [])])
    def test_failed_check_is_one_error_line(self, capsys, tmp_path, command,
                                            extra):
        out_file = tmp_path / "out.txt"
        code, out, err = run(capsys, command, P1, "--answer", "n(1) n(2) b",
                             "--out", str(out_file), *extra)
        assert (code, out) == (3, "")
        assert not out_file.exists()
        assert err == ("error: the given interpretation is not an answer set "
                       "of the program\n")

    def test_no_check_skips_verification(self, capsys):
        # The same non-answer-set is accepted until support building,
        # which reports the first row that shows it: c is false, but the
        # body of c :- not a holds.
        code, out, err = run(
            capsys, "explain", P1, "--answer", "n(1) n(2) b",
            "--root", "b", "--no-check")
        assert code == 3
        assert 'the body of "c :- not a." holds' in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "graph.dot"
        code, out, _ = run(
            capsys, "explain", P1, "--answer-set", P1_ANSWER,
            "--root", "m(1)", "--out", str(target))
        assert code == 0
        assert out == ""
        assert '"m(1)" -> "c" [style=solid];' in target.read_text()

    def test_ascii_flag(self, capsys):
        code, out, _ = run(
            capsys, "explain", P1, "--answer-set", P1_ANSWER,
            "--root", "n(1)", "--ascii")
        assert code == 0
        assert '"n(1)" -> "T" [style=dotted];' in out
        assert "⊤" not in out

    def test_comment_lines_in_answer_file(self, capsys, tmp_path):
        path = write(tmp_path, "answer.txt",
                     "% the m(1) variant\nn(1) n(2)\nc m(1)\n")
        code, out, _ = run(
            capsys, "explain", P1, "--answer-set", path, "--root", "n(1)")
        assert code == 0

    def test_coloring_root(self, capsys):
        code, out, _ = run(
            capsys, "explain", COLORING,
            "--answer-set", str(DATA / "coloring_answer.txt"),
            "--root", "colored(1,red)")
        assert code == 0
        assert ('"colored(1,red)" -> "+choice" '
                "[style=dotted, color=orange];" in out)
        assert ('"~colored(2,red)" -> "-choice" '
                "[style=dotted, color=orange];" in out)

    def test_repeat_runs_are_byte_identical(self, capsys):
        outs = []
        for fmt in ("dot", "json"):
            pair = []
            for _ in range(2):
                code, out, _ = run(
                    capsys, "explain", P1, "--answer-set", P1_ANSWER,
                    "--root", "m(1)", "--format", fmt)
                assert code == 0
                pair.append(out)
            assert pair[0] == pair[1]
            outs.append(pair[0])
        assert outs[0] != outs[1]

    @pytest.mark.parametrize("body, answer, root, edge", [
        ("1 0 1 1 0 1 3\n", "p", "p", "p -> ⊤ [circ]"),
        ("1 0 1 1 0 1 -3\n", "", "~p", "~p -> ⊥ [circ]"),
    ])
    def test_unnamed_external_is_a_fact(self, capsys, tmp_path, body,
                                        answer, root, edge):
        path = write(tmp_path, "ext.aspif",
                     "asp 1 0 0\n5 3 2\n" + body + "4 1 p 1 1\n0\n")
        code, out, _ = run(capsys, "answersets", path)
        assert (code, out) == (0, answer + "\n")
        code, out, err = run(capsys, "explain", path, "--answer", answer,
                             "--root", root, "--format", "text")
        assert (code, err) == (0, "")
        assert out.endswith(f"graph {root}:\n{edge}\n")

    def test_long_forward_chain_tip(self, capsys, tmp_path):
        # x(i) :- x(i-1) from the fact x(1): the graph search goes one
        # level deeper per link, past the interpreter's recursion limit.
        n = 1500
        lines = ["asp 1 0 0", "5 1 2"]
        lines += [f"1 0 1 {i} 0 1 {i - 1}" for i in range(2, n + 1)]
        lines += [f"4 {len(f'x({i})')} x({i}) 1 {i}" for i in range(1, n + 1)]
        path = write(tmp_path, "chain.aspif", "\n".join(lines + ["0\n"]))
        answer = " ".join(f"x({i})" for i in range(1, n + 1))
        code, out, err = run(capsys, "explain", path, "--answer", answer,
                             "--root", f"x({n})", "--format", "text")
        assert code == 0, err
        edges = out.split(f"graph x({n}):\n")[1].splitlines()
        expected = [f"x({i}) -> x({i - 1}) [plus]" for i in range(2, n + 1)]
        assert sorted(edges) == sorted(expected + ["x(1) -> ⊤ [circ]"])

    @pytest.mark.parametrize("root", ["~x(1)", "~x(2)"])
    def test_long_false_chain(self, capsys, tmp_path, root):
        # x(i) :- x(i+1), x(n) :- not y, y :- not x(1); answer {y}.  The
        # derivation analysis of ~x(1) walks the chain back to the root,
        # one level per link.  The recursion limit is set below n, so the
        # chain stays short enough for U-shrinking, quadratic in n, to be
        # quick.
        n = 400
        lines = ["asp 1 0 0"]
        lines += [f"1 0 1 {i} 0 1 {i + 1}" for i in range(1, n)]
        lines += [f"1 0 1 {n} 0 1 -{n + 1}", f"1 0 1 {n + 1} 0 1 -1"]
        lines += [f"4 {len(f'x({i})')} x({i}) 1 {i}" for i in range(1, n + 1)]
        lines += [f"4 1 y 1 {n + 1}", "0\n"]
        path = write(tmp_path, "false_chain.aspif", "\n".join(lines))
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + n // 2)
        try:
            code, out, err = run(capsys, "explain", path, "--answer", "y",
                                 "--root", root, "--format", "text")
        finally:
            sys.setrecursionlimit(limit)
        assert code == 0, err
        report, edges = out.split(f"graph {root}:\n")
        assert report.endswith("U = {x(1)}\n")
        expected = ["~x(1) -> assume [circ]"]
        if root == "~x(2)":
            expected += [f"~x({i}) -> ~x({i + 1}) [minus]"
                         for i in range(2, n)]
            expected += [f"~x({n}) -> y [plus]", "y -> ~x(1) [minus]"]
        assert sorted(edges.splitlines()) == sorted(expected)


def named(*names: str) -> str:
    return "".join(f"4 {len(n)} {n} 1 {i}\n" for i, n in enumerate(names, 1))


# q.  h :- q.  1 <= {p : h}.  with h hidden: the condition of p's choice
# element is the hidden atom 3, which is also the body of p's choice rule.
HIDDEN_CONDITION = (
    "asp 1 0 0\n1 0 1 1 0 0\n1 0 1 3 0 1 1\n1 1 1 2 0 1 3\n"
    "1 0 1 4 0 2 2 3\n1 0 1 5 1 1 1 4 1\n1 0 0 0 1 -5\n"
    "4 1 q 1 1\n4 1 p 1 2\n0\n")

# The same with 1 {p : h; r : h} 1: r is atom 5 and its tuple atom 6.
HIDDEN_CONDITION_PAIR = (
    "asp 1 0 0\n1 0 1 1 0 0\n1 0 1 3 0 1 1\n1 1 1 2 0 1 3\n"
    "1 1 1 5 0 1 3\n1 0 1 4 0 2 2 3\n1 0 1 6 0 2 5 3\n"
    "1 0 1 7 1 1 2 4 1 6 1\n1 0 1 8 1 2 2 4 1 6 1\n1 0 1 9 0 2 7 -8\n"
    "1 0 0 0 1 -9\n4 1 q 1 1\n4 1 p 1 2\n4 1 r 1 5\n0\n")


class TestHiddenElementCondition:
    """A choice atom's row is its rule body plus the choice marker, so an
    element condition that no output names adds no node without a row."""

    def explain(self, capsys, tmp_path, text, root):
        path = write(tmp_path, "hidden.aspif", text)
        code, out, err = run(capsys, "explain", path, "--answer", "p q",
                             "--root", root, "--format", "text")
        assert (code, err) == (0, "")
        return out.splitlines()

    def test_true_choice_atom(self, capsys, tmp_path):
        lines = self.explain(capsys, tmp_path, HIDDEN_CONDITION, "p")
        assert "p : [{q, +choice}]" in lines
        assert lines[lines.index("graph p:") + 1:] == [
            "p -> q [plus]", "p -> +choice [bullet]", "q -> ⊤ [circ]"]

    def test_false_choice_atom(self, capsys, tmp_path):
        lines = self.explain(capsys, tmp_path, HIDDEN_CONDITION_PAIR, "~r")
        assert "~r : [{q, -choice}]" in lines
        assert "~r -> -choice [bullet]" in lines


def empty_weight_body(lower: int) -> str:
    """h :- lower <= {}."""
    return f"asp 1 0 0\n1 0 1 1 1 {lower} 0\n4 1 h 1 1\n0\n"


def empty_bound_pair(lower: int, above: int) -> str:
    """lo :- lower <= {}.  hi :- above <= {}.  ok :- lo, not hi.  h :- ok."""
    return (f"asp 1 0 0\n1 0 1 2 1 {lower} 0\n1 0 1 3 1 {above} 0\n"
            "1 0 1 4 0 2 2 -3\n1 0 1 1 0 1 4\n4 1 h 1 1\n0\n")


class TestEmptyWeightBody:
    """A weight body with no element holds iff 0 reaches its lower bound,
    whatever the weight: it folds to a choice atom with no element, alone or
    as a bound pair, where it was kept opaque with a warning that it mixes
    weights []."""

    @pytest.mark.parametrize("text, rule, answer", [
        (empty_weight_body(0), "h :- 0<={}.", ["h"]),
        (empty_weight_body(1), "h :- 1<={}.", []),
        (empty_bound_pair(0, 1), "h :- 0<={}<=0.", ["h"]),
        (empty_bound_pair(1, 2), "h :- 1<={}<=1.", []),
        (empty_bound_pair(-1, 0), "h :- -1<={}<=-1.", []),
    ])
    def test_folds_and_explains(self, capsys, tmp_path, text, rule, answer):
        path = write(tmp_path, "p.aspif", text)
        code, out, err = run(capsys, "parse", path)
        assert (code, out, err) == (0, f"{rule}\n% symbol: h = 1\n", "")
        g = reconstruct(parse_aspif(text))
        assert [sorted(m) for m in oracle.enumerate_answer_sets(g)] == \
            [sorted(m) for m in reference_enumerate_answer_sets(g)] == [answer]
        code, out, err = run(capsys, "answersets", path)
        assert (code, out, err) == (0, " ".join(answer) + "\n", "")
        A = g.answer_from_names(answer)
        table = merge_supports(build_er(g, A), constraint_preprocessing(g, A))
        root = "h" if answer else "~h"
        code, out, err = run(capsys, "explain", path, "--answer",
                             " ".join(answer), "--root", root,
                             "--format", "json")
        assert (code, err) == (0, "")
        graph = build_egraph(table, frozenset(), cli.parse_root(root))[0]
        assert validate_egraph(graph, table, frozenset())
        assert out == to_json(graph)


class TestExplainExitCodes:
    """An error anywhere in the support tables fails every query, also
    where the queried literal's graph never reaches it."""

    @pytest.mark.parametrize("body, names, answer, message", [
        # b :- 1 <= {c=1, d=2}.
        ("1 0 1 1 0 0\n1 0 1 2 1 1 2 3 1 4 2\n", "abcd", "a",
         "rule from statement 1 kept opaque: its weight body does not fold "
         "into a choice atom"),
        # b :- l(5).  l(5) :- l(6).  l(6) :- l(5).
        ("1 0 1 1 0 0\n1 0 1 2 0 1 5\n1 0 1 5 0 1 6\n1 0 1 6 0 1 5\n",
         "ab", "a", "auxiliary atom 5 is defined through itself"),
        # b :- l(5).  l(5) :- 1 <= {c=1, d=2}.
        ("1 0 1 1 0 0\n1 0 1 2 0 1 5\n1 0 1 5 1 1 2 3 1 4 2\n", "abcd",
         "a", "auxiliary atom 5 is defined by a weight body"),
        # {l(5)}.  b :- l(5).
        ("1 0 1 1 0 0\n1 1 1 5 0 0\n1 0 1 2 0 1 5\n", "ab", "a",
         "auxiliary atom 5 occurs in a choice head"),
        # :- l(5).  l(5) :- l(6).  l(6) :- l(5).
        ("1 0 1 1 0 0\n1 0 0 0 1 5\n1 0 1 5 0 1 6\n1 0 1 6 0 1 5\n",
         "ab", "a", "auxiliary atom 5 is defined through itself"),
        # :- 1 <= {c=1, d=2}.
        ("1 0 1 1 0 0\n1 0 0 1 1 2 3 1 4 2\n", "abcd", "a",
         "constraint from statement 1 kept opaque: its weight body does not "
         "fold into a choice atom"),
        # {x}.  {l(9)}.  b :- 1 <= {(x, l(9))}: evaluating the element
        # reaches l(9) only when x is true.
        ("1 0 1 1 0 0\n1 1 1 3 0 0\n1 1 1 9 0 0\n1 0 1 5 0 2 9 3\n"
         "1 0 1 6 1 1 1 5 1\n1 0 1 2 0 1 6\n", "abx", "a x",
         "auxiliary atom 9 occurs in a choice head"),
        # The same element in a constraint: :- not 1 <= {(x, l(9))}.
        ("1 0 1 1 0 0\n1 1 1 3 0 0\n1 1 1 9 0 0\n1 0 1 5 0 2 9 3\n"
         "1 0 1 6 1 1 1 5 1\n1 0 0 0 1 -6\n", "abx", "a x",
         "auxiliary atom 9 occurs in a choice head"),
    ])
    @pytest.mark.parametrize("fmt", ["dot", "json", "text"])
    def test_unreached_reconstruction_error_exits_2(
            self, capsys, tmp_path, body, names, answer, message, fmt):
        text = "asp 1 0 0\n" + body + named(*names) + "0\n"
        path = write(tmp_path, "p.aspif", text)
        code, out, err = run(capsys, "explain", path, "--answer", answer,
                             "--root", "a", "--format", fmt)
        # A weight body with mixed weights is also reported as a warning.
        warnings = "".join(f"warning: {w}\n" for w in
                           reconstruct(parse_aspif(text)).warnings)
        assert (code, out, err) == (2, "", f"{warnings}error: {message}\n")

    @pytest.mark.parametrize("rule, answer, root", [
        # h :- 1 <= {not p = 1}: the weights agree, an element is negative.
        ("1 0 1 3 1 1 1 -2 1", "h", "h"),
        # h :- 0 <= {p = 0}: the common weight is 0.
        ("1 0 1 3 1 0 1 2 0", "h", "h"),
        # h :- 1 <= {l(5) = 1}: the element is no tuple atom.
        ("1 0 1 3 1 1 1 5 1", "", "~h"),
    ])
    def test_opaque_uniform_weight_body_exits_2(self, capsys, tmp_path,
                                                rule, answer, root):
        path = write(tmp_path, "p.aspif",
                     f"asp 1 0 0\n{rule}\n" + named("a", "p", "h") + "0\n")
        why = {"1 0 1 3 1 1 1 -2 1": "has a negative element -2",
               "1 0 1 3 1 0 1 2 0": "has weight 0, below 1",
               "1 0 1 3 1 1 1 5 1": "has element 5, which is neither "
                                    "named nor a tuple atom"}[rule]
        warning = f"warning: weight body for atom 3 {why}; kept opaque\n"
        code, out, err = run(capsys, "parse", path)
        assert (code, err) == (0, warning)
        code, out, err = run(capsys, "explain", path, "--answer", answer,
                             "--root", root)
        assert (code, out, err) == (
            2, "", warning + "error: rule from statement 0 kept opaque: its "
                   "weight body does not fold into a choice atom\n")

    def test_constraint_weight_body_folds(self, capsys, tmp_path):
        # {c; d}.  :- 2 <= {c=1, d=1}.
        path = write(tmp_path, "p.aspif", "asp 1 0 0\n1 1 2 1 2 0 0\n"
                     "1 0 0 1 2 2 1 1 2 1\n" + named("c", "d") + "0\n")
        code, out, err = run(capsys, "parse", path)
        assert (code, out.splitlines()[:2], err) == (
            0, ["{c, d}.", ":- 2<={c, d}."], "")
        g = reconstruct(parse_aspif(Path(path).read_text()))
        A = g.answer_from_names(["c"])
        table = merge_supports(build_er(g, A), constraint_preprocessing(g, A))
        for root in ("c", "~d"):
            code, out, err = run(capsys, "explain", path, "--answer", "c",
                                 "--root", root, "--format", "json")
            assert (code, err) == (0, "")
            graph = build_egraph(table, frozenset(), cli.parse_root(root))[0]
            assert validate_egraph(graph, table, frozenset())
            assert out == to_json(graph)
        code, out, err = run(capsys, "explain", path, "--answer", "c d",
                             "--root", "c")
        assert code == 3

    @pytest.mark.parametrize("rule", [
        # {} :- a.
        "1 1 0 0 1 1",
        # {} :- 1 <= {a=1, b=2}: an opaque weight body, which no check
        # reads.
        "1 1 0 1 1 2 1 1 2 2",
    ])
    def test_choice_rule_with_empty_head_is_no_constraint(
            self, capsys, tmp_path, rule):
        # {a}.  A choice rule with no head atom derives nothing, and {a}
        # is an answer set.
        text = "asp 1 0 0\n1 1 1 1 0 0\n" + rule + "\n" + named("a", "b") \
            + "0\n"
        path = write(tmp_path, "p.aspif", text)
        assert reconstruct(parse_aspif(text)).constraints() == []
        for argv in (["explain", path, "--root", "a"],
                     ["assumptions", path]):
            code, out, err = run(capsys, *argv, "--answer", "a")
            assert (code, err) == (0, "")

    def test_unchecked_unsupported_atom_exits_3(self, capsys, tmp_path):
        # a.  b :- c.  The answer {a, b} is not checked, and b, which the
        # root does not reach, has no support.
        path = write(tmp_path, "p.aspif", "asp 1 0 0\n1 0 1 1 0 0\n"
                     "1 0 1 2 0 1 3\n" + named("a", "b", "c") + "0\n")
        code, out, err = run(capsys, "explain", path, "--answer", "a b",
                             "--root", "a", "--no-check")
        assert (code, out) == (3, "")
        assert err == ("error: b is in the answer set but no rule supports "
                       "it; the interpretation is not an answer set\n")

    @pytest.mark.parametrize("answer, message", [
        ("", 'c is not in the answer set but the body of "c :- not a." '
             "holds"),
        ("c", "n(1) is a fact but not in the answer set")])
    def test_unchecked_derived_false_atom_exits_3(self, capsys, answer,
                                                  message):
        code, out, err = run(capsys, "explain", P1, "--answer", answer,
                             "--root", "~m(2)", "--no-check")
        assert (code, out) == (3, "")
        assert err == (f"error: {message}; the interpretation is not an "
                       "answer set\n")

    def test_hidden_atom_on_negative_cycle_in_element_exits_2(
            self, capsys, tmp_path):
        # p.  l3 :- not l4.  l4 :- not l3.  t :- p, l3.  r :- 1 <= {t = 1}.
        # The element (p, l3) reads l3 through its definitions, as a rule
        # body does, and l3 is defined through itself.
        path = write(tmp_path, "p.aspif",
                     "asp 1 0 0\n1 0 1 1 0 0\n1 0 1 3 0 1 -4\n"
                     "1 0 1 4 0 1 -3\n1 0 1 5 0 2 1 3\n1 0 1 2 1 1 1 5 1\n"
                     "4 1 p 1 1\n4 1 r 1 2\n0\n")
        code, out, err = run(capsys, "answersets", path)
        assert (code, out) == (0, "p\np r\n")
        code, out, err = run(capsys, "explain", path, "--answer", "p r",
                             "--root", "r")
        assert (code, out, err) == (
            2, "", "error: auxiliary atom 3 is defined through itself\n")

    def test_no_valid_graph_exits_5(self, capsys, monkeypatch):
        # p1's m(1) needs ~a assumed; an empty U leaves it no graph.
        shrink = cli.minimal_assumption_sets
        monkeypatch.setattr(cli, "minimal_assumption_sets", lambda *a, **k:
                            dataclasses.replace(shrink(*a, **k),
                                                chosen_u=frozenset()))
        code, out, err = run(capsys, "explain", P1, "--answer-set",
                             P1_ANSWER, "--root", "m(1)")
        assert (code, out, err) == (
            5, "", "error: no valid explanation graph for m(1) under "
                   "assumed set {}\n")

    @pytest.mark.parametrize("root, message", [
        ("zzz", "cannot explain zzz: not a literal of the program"),
        ("~zzz", "cannot explain ~zzz: not a literal of the program"),
        ("~m(1)", "cannot explain ~m(1): m(1) is true in the answer set; "
                  "query m(1) instead"),
        ("m(2)", "cannot explain m(2): m(2) is false in the answer set; "
                 "query ~m(2) instead"),
    ])
    @pytest.mark.parametrize("extra", [[], ["--no-check"]])
    def test_bad_root_exits_4(self, capsys, root, message, extra):
        code, out, err = run(capsys, "explain", P1, "--answer-set",
                             P1_ANSWER, "--root", root, *extra)
        assert (code, out, err) == (4, "", f"error: {message}\n")


class TestUsage:
    def test_unknown_flag_exits_usage(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["explain", P1, "--answer-set", P1_ANSWER,
                      "--root", "c", "--max-graphs", "3"])
        assert exit_info.value.code == cli.EXIT_USAGE == 7
        assert "unrecognized arguments: --max-graphs 3" in \
            capsys.readouterr().err

    def test_missing_required_argument_exits_usage(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["explain", P1, "--answer-set", P1_ANSWER])
        assert exit_info.value.code == cli.EXIT_USAGE
        assert "the following arguments are required: --root" in \
            capsys.readouterr().err

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["parse", "--help"])
        assert exit_info.value.code == 0
        assert "usage: aspexplain parse" in capsys.readouterr().out

    def test_parser_built_once_gives_first_run_results(self, capsys):
        commands = [
            ["explain", P1, "--answer-set", P1_ANSWER, "--root", "m(1)",
             "--ascii"],
            ["explain", P1, "--answer-set", P1_ANSWER, "--root", "~m(2)",
             "--format", "json"],
            ["parse", COLORING],
            ["explain", P1, "--answer-set", P1_ANSWER],
        ]

        def outcome(argv):
            try:
                code = cli.main(argv)
            except SystemExit as exit_info:
                code = exit_info.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        first = []
        for argv in commands:
            cli._build_parser.cache_clear()
            first.append(outcome(argv))
        assert [code for code, _, _ in first] == [0, 0, 0, cli.EXIT_USAGE]
        cli._build_parser.cache_clear()
        parser = cli._build_parser()
        for _ in range(2):
            assert [outcome(argv) for argv in commands] == first
        assert cli._build_parser() is parser

    def test_module_runs_the_cli(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-m", "aspexplain", "--help"],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: aspexplain ")

    def test_modules_import_no_rarely_used_stdlib_module_at_load(self):
        # Each of these is imported inside the function that uses it: the
        # external grounder, node ids and JSON, and the random program
        # generator.  Only statements run at load time are checked, so
        # function bodies are skipped.
        lazy = {"shlex", "subprocess", "hashlib", "json", "random"}
        found = []
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            pending = list(ast.parse(path.read_text()).body)
            while pending:
                node = pending.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    names = []
                found += [(path.name, name) for name in names
                          if name.split(".")[0] in lazy]
                pending.extend(ast.iter_child_nodes(node))
        assert found == []


class TestAssumptions:
    def test_running_example(self, capsys):
        code, out, err = run(
            capsys, "assumptions", P1, "--answer-set", P1_ANSWER)
        assert code == 0
        assert "TA = {a, b}\n" in out
        assert "T = {a}\n" in out
        assert "T' = {b}\n" in out
        assert "b : [{a}]\n" in out
        assert "min(B) = [{}]\n" in out
        assert "U = {a}\n" in out

    def test_facts_only(self, capsys, tmp_path):
        path = write(tmp_path, "facts.aspif",
                     "asp 1 0 0\n1 0 1 1 0 0\n4 1 p 1 1\n0\n")
        code, out, _ = run(capsys, "assumptions", path, "--answer", "p")
        assert code == 0
        assert "TA = {}\n" in out
        assert "U = {}\n" in out

    def test_enumerate_candidates(self, capsys, tmp_path):
        path = write(tmp_path, "two.aspif", TWO_CANDIDATE_PROGRAM)
        code, out, _ = run(
            capsys, "assumptions", path, "--answer", "d e",
            "--enumerate-assumption-sets")
        assert code == 0
        assert "min(B) = [{p}, {q}]\n" in out
        assert out.endswith("U candidates:\n{p}\n{q}\n")
        # The negative cycle between p and q closes through minus edges
        # only, so the graphs need no assumption even though the cycle
        # analysis offers two ways to break it.
        assert "U = {}\n" in out

    @pytest.mark.parametrize("n, exact", [(3, True), (21, False)])
    def test_greedy_min_b_is_noted_on_stderr(self, capsys, tmp_path, n,
                                              exact):
        path = write(tmp_path, "ring.aspif",
                     "asp 1 0 0\n" + da_ring(n) + "0\n")
        answer = " ".join(f"y({i})" for i in range(n))
        code, out, err = run(capsys, "assumptions", path, "--answer", answer)
        assert code == 0
        xs = ", ".join(sorted(f"x({i})" for i in range(n)))
        da = "".join(f"x({i}) : [{{x({(i + 1) % n})}}]\n"
                     for i in sorted(range(n), key=lambda i: f"x({i})"))
        min_b = ("[" + ", ".join(f"{{x({i})}}" for i in range(n)) + "]"
                 if exact else "[{x(0)}]")
        assert out == (f"TA = {{{xs}}}\nT = {{}}\nT' = {{{xs}}}\nDA:\n{da}"
                       f"min(B) = {min_b}\nU = {{x(0)}}\n")
        if exact:
            assert err == ""
        else:
            assert err.count("\n") == 1
            assert err.startswith("note: min(B) is one greedy cycle break")

    def test_explain_notes_a_greedy_min_b_too(self, capsys, tmp_path):
        # 11 copies of x1 :- x2.  x2 :- x1.  x1 :- not y.  y :- not z.
        # z :- not y.  w :- not x1.  w :- not x2.  With y and w true,
        # 22 atoms take part in DA cycles.
        n, rules, names = 11, [], ""
        for i in range(n):
            x1, x2, y, z, w = range(5 * i + 1, 5 * i + 6)
            rules += [f"{x1} 0 1 {x2}", f"{x2} 0 1 {x1}", f"{x1} 0 1 -{y}",
                      f"{y} 0 1 -{z}", f"{z} 0 1 -{y}", f"{w} 0 1 -{x1}",
                      f"{w} 0 1 -{x2}"]
            names += "".join(f"4 {len(a) + len(str(i + 1)) + 2} "
                             f"{a}({i + 1}) 1 {5 * i + k}\n" for k, a in
                             enumerate(("x1", "x2", "y", "z", "w"), 1))
        path = write(tmp_path, "probe.aspif", "asp 1 0 0\n" + "".join(
            f"1 0 1 {r}\n" for r in rules) + names + "0\n")
        answer = " ".join(f"{a}({i})" for i in range(1, n + 1)
                          for a in ("y", "w"))
        note = ("note: min(B) is one greedy cycle break, not every minimal "
                "set: more than 20 atoms take part in DA cycles\n")
        code, out, err = run(capsys, "assumptions", path, "--answer", answer)
        assert (code, err) == (0, note)
        assert out.endswith("U = {" + ", ".join(
            sorted(f"z({i})" for i in range(1, n + 1))) + "}\n")
        code, out, err = run(capsys, "explain", path, "--answer", answer,
                             "--root", "w(1)")
        assert (code, err) == (0, note)
        assert out == (
            'digraph explanation {\n  "w(1)";\n  "y(1)";\n  "~x1(1)";\n'
            '  "~x2(1)";\n  "~z(1)";\n  "assume";\n'
            '  "w(1)" -> "~x1(1)" [style=dashed];\n'
            '  "y(1)" -> "~z(1)" [style=dashed];\n'
            '  "~x1(1)" -> "y(1)" [style=solid];\n'
            '  "~x1(1)" -> "~x2(1)" [style=dashed];\n'
            '  "~x2(1)" -> "~x1(1)" [style=dashed];\n'
            '  "~z(1)" -> "assume" [style=dotted];\n}\n')

    def test_d_sets_past_the_path_cap_exit_6(self, capsys, tmp_path,
                                             monkeypatch):
        path = write(tmp_path, "two.aspif",
                     "asp 1 0 0\n" + TWO_D_SETS + "0\n")
        argv = ("assumptions", path, "--answer", "b c z")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "a : [{d}, {e}]\n" in out
        monkeypatch.setattr("aspexplain.assumptions._PATH_CAP", 1)
        code, out, err = run(capsys, *argv)
        assert code == 6
        assert out == ""
        assert err.startswith("error: the derivation paths below ~a")

    @pytest.mark.parametrize("command", [["assumptions"],
                                         ["explain", "--root", "a"]],
                             ids=["assumptions", "explain"])
    def test_unchecked_firing_constraint_exits_3(self, capsys, tmp_path,
                                                 command):
        # {a}.  :- a.  The answer {a} fires the constraint; both commands
        # read E_c before any graph, so both report it.
        path = write(tmp_path, "p.aspif", "asp 1 0 0\n1 1 1 1 0 0\n"
                     "1 0 0 0 1 1\n" + named("a") + "0\n")
        code, out, err = run(capsys, command[0], path, "--answer", "a",
                             "--no-check", *command[1:])
        assert (code, out) == (3, "")
        assert err == ('error: constraint ":- a." fires under the given '
                       "interpretation; it is not an answer set\n")


class TestAnswersets:
    def test_running_example_three_models(self, capsys):
        code, out, err = run(capsys, "answersets", P1)
        assert code == 0
        assert out.splitlines() == [
            "a n(1) n(2)",
            "c m(1) n(1) n(2)",
            "c m(2) n(1) n(2)",
        ]

    def test_single_fact(self, capsys, tmp_path):
        path = write(tmp_path, "fact.aspif",
                     "asp 1 0 0\n1 0 1 1 0 0\n4 1 p 1 1\n0\n")
        code, out, _ = run(capsys, "answersets", path)
        assert code == 0
        assert out == "p\n"

    def test_unsat_prints_note_on_stderr(self, capsys, tmp_path):
        path = write(tmp_path, "odd.aspif",
                     "asp 1 0 0\n1 0 1 1 0 1 -1\n4 1 p 1 1\n0\n")
        code, out, err = run(capsys, "answersets", path)
        assert code == 0
        assert out == ""
        assert "UNSAT" in err

    def test_over_cap_exits_6(self, capsys, tmp_path):
        names = "".join(f"4 3 a{i:02d} 1 {i}\n" for i in range(1, 22))
        # 21 facts leave nothing undecided, so the search is under the cap.
        body = "".join(f"1 0 1 {i} 0 0\n" for i in range(1, 22)) + names
        path = write(tmp_path, "big.aspif", "asp 1 0 0\n" + body + "0\n")
        code, out, err = run(capsys, "answersets", path)
        assert (code, err) == (0, "")
        assert out == " ".join(f"a{i:02d}" for i in range(1, 22)) + "\n"
        body = "".join(f"1 1 1 {i} 0 0\n" for i in range(1, 22)) + names
        path = write(tmp_path, "free.aspif", "asp 1 0 0\n" + body + "0\n")
        code, out, err = run(capsys, "answersets", path)
        assert code == 6
        assert err == ("error: 21 undecided named atoms exceed the "
                       "enumeration cap of 20\n")


def element_chain(n: int) -> str:
    """p.  q.  t :- p, l(1).  l(i) :- l(i+1).  l(n) :- q.
    r :- 1 <= {t = 1}.  The element (p, l(1)) of r's choice atom is
    evaluated through the whole chain."""
    lines = ["asp 1 0 0", "1 0 1 1 0 0", "1 0 1 2 0 0", "1 0 1 4 0 2 1 5"]
    lines += [f"1 0 1 {4 + i} 0 1 {5 + i}" for i in range(1, n)]
    lines += [f"1 0 1 {4 + n} 0 1 2", "1 0 1 3 1 1 1 4 1",
              "4 1 p 1 1", "4 1 q 1 2", "4 1 r 1 3", "0\n"]
    return "\n".join(lines)


class TestDeepAuxChain:
    @staticmethod
    def run_below_depth(capsys, n, *argv):
        """Run the CLI with the recursion limit set below ``n`` levels."""
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + n // 2)
        try:
            return run(capsys, *argv)
        finally:
            sys.setrecursionlimit(limit)

    @pytest.mark.parametrize("command, expected", [
        ("parse", "p :- l(3).\n"), ("answersets", "p\n"),
        ("assumptions --answer p", "U = {}\n"),
        ("explain --answer p --root p", '"p" -> "~q" [style=dashed];\n'),
        ("explain --answer p --root ~q", '"~q" -> "⊥" [style=dotted];\n')])
    def test_long_aux_chain(self, capsys, tmp_path, command, expected):
        # p :- l(3).  l(i) :- l(i+1).  l(n) :- not q.  Each auxiliary
        # definition level is one level deeper, and the recursion limit is
        # set below the chain length.
        n = 2000
        lines = ["asp 1 0 0", "1 0 1 1 0 1 3"]
        lines += [f"1 0 1 {i} 0 1 {i + 1}" for i in range(3, n)]
        lines += [f"1 0 1 {n} 0 1 -2", "4 1 p 1 1", "4 1 q 1 2", "0\n"]
        path = write(tmp_path, "aux_chain.aspif", "\n".join(lines))
        name, *options = command.split()
        code, out, err = self.run_below_depth(capsys, n, name, path, *options)
        assert code == 0, err
        assert expected in out

    @pytest.mark.parametrize("command, expected", [
        ("assumptions", "U = {}\n"),
        ("explain --root r",
         '"1<={(p, l(5))}" -> "(p, l(5))" [style=solid];\n')])
    def test_long_choice_element_chain(self, capsys, tmp_path, command,
                                       expected):
        n = 3000
        path = write(tmp_path, "element_chain.aspif", element_chain(n))
        name, *options = command.split()
        code, out, err = self.run_below_depth(
            capsys, n, name, path, *options, "--answer", "q p r")
        assert code == 0, err
        assert expected in out


class TestGroundCmd:
    def make_grounder(self, tmp_path, body):
        script = tmp_path / "grounder.sh"
        script.write_text("#!/bin/sh\n" + body)
        script.chmod(script.stat().st_mode | stat.S_IXUSR)
        return str(script)

    def test_appended_input(self, capsys, tmp_path):
        grounder = self.make_grounder(tmp_path, 'cat "$1"\n')
        code, out, _ = run(capsys, "parse", P1, "--ground-cmd", grounder)
        assert code == 0
        assert "% nant: {a, b, c}\n" in out

    def test_placeholder_substitution(self, capsys, tmp_path):
        grounder = self.make_grounder(tmp_path, 'cat "$1"\n')
        code, out, _ = run(capsys, "parse", P1,
                           "--ground-cmd", f"{grounder} {{}}")
        assert code == 0
        assert "% nant: {a, b, c}\n" in out

    @pytest.mark.parametrize("input_, command", [
        (P1, '"cat'), ("-", " ")], ids=["unclosed_quote", "blank"])
    def test_bad_command_exits_usage(self, capsys, input_, command):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["parse", input_, "--ground-cmd", command])
        assert exit_info.value.code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "error: argument --ground-cmd: " in err
        assert "Traceback" not in err

    def test_grounder_failure_exits_1(self, capsys, tmp_path):
        grounder = self.make_grounder(tmp_path,
                                      'echo "boom" >&2\nexit 7\n')
        code, out, err = run(capsys, "parse", P1, "--ground-cmd", grounder)
        assert code == 1
        assert "7" in err
        assert "boom" in err


# {a}.  {b}.  t1 :- a.  t2 :- b.  lo :- 1 {t1=1, t2=2}.
# hi :- 2 {t1=1, t2=2}.  ok :- lo, not hi.  :- not ok.
MIXED_WEIGHT_PAIR = (
    "1 1 1 1 0 0\n1 1 1 2 0 0\n1 0 1 4 0 1 1\n1 0 1 5 0 1 2\n"
    "1 0 1 7 1 1 2 4 1 5 2\n1 0 1 8 1 2 2 4 1 5 2\n"
    "1 0 1 9 0 2 7 -8\n1 0 0 0 1 -9\n"
    "4 1 a 1 1\n4 1 b 1 2\n"
)


@pytest.mark.parametrize("command, code, first_line", [
    ("parse", 0, "{a}."),
    ("answersets", 0, "a"),
    ("explain --answer a --root a", 2, None),
    ("assumptions --answer a", 2, None),
])
def test_reconstruction_warnings_go_to_stderr(capsys, tmp_path, command,
                                              code, first_line):
    path = write(tmp_path, "mixed.aspif",
                 "asp 1 0 0\n" + MIXED_WEIGHT_PAIR + "0\n")
    name, *options = command.split()
    got, out, err = run(capsys, name, path, *options)
    assert got == code
    assert err.splitlines()[:2] == [
        f"warning: weight body for atom {aid} mixes weights [1, 2]; "
        "kept opaque" for aid in (7, 8)]
    assert (out.splitlines() or [None])[0] == first_line


@pytest.mark.parametrize("options", [
    ["explain", "--root", "~d", "--no-check"],
    ["explain", "--root", "~d", "--ascii"],
    ["explain", "--root", "a(1)"],
    ["assumptions", "--no-check"],
    ["assumptions", "--enumerate-assumption-sets"],
])
def test_a_cut_row_warns_once_on_stderr(capsys, tmp_path, options):
    # ~d has 13 rules of two falsifiers each: 8192 sets, cut at 4096.  The
    # shrink of U builds a graph of every named literal, so explaining
    # a(1) builds the row of ~d too.
    from test_shrink import families

    inst = families.loops(26, 13)
    path = write(tmp_path, "loops.aspif", inst.text)
    name, *rest = options
    answered = [path, "--answer", " ".join(inst.answer)]
    code, out, err = run(capsys, name, *answered, *rest)
    assert code == 0
    assert err == "warning: the supported sets of ~d are cut at 4096 of 8192\n"
    # 2^12 sets fill the cap exactly: nothing is cut.
    small = families.loops(26, 12)
    path = write(tmp_path, "small.aspif", small.text)
    code, _, err = run(capsys, name, path, "--answer",
                       " ".join(small.answer), *rest)
    assert (code, err) == (0, "")


class TestNotUtf8:
    """Input that does not decode as UTF-8 exits 1 with an error line."""

    def expect_decode_error(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")

    def test_program_file(self, capsys, tmp_path):
        path = tmp_path / "p.aspif"
        path.write_bytes(b"asp 1 0 0\n4 1 \xff 1 1\n0\n")
        self.expect_decode_error(capsys, "parse", str(path))

    def test_answer_set_file(self, capsys, tmp_path):
        path = tmp_path / "answer.txt"
        path.write_bytes(b"n(1) n(2) c m(1) \xff\n")
        self.expect_decode_error(capsys, "assumptions", P1,
                                 "--answer-set", str(path))

    def test_ground_cmd_output(self, capsys, tmp_path):
        grounder = tmp_path / "grounder.sh"
        grounder.write_text("#!/bin/sh\nprintf 'asp 1 0 0\\n\\377\\n'\n")
        grounder.chmod(grounder.stat().st_mode | stat.S_IXUSR)
        self.expect_decode_error(capsys, "parse", P1,
                                 "--ground-cmd", str(grounder))


class TestHelpers:
    def test_parse_root_forms(self):
        assert cli.parse_root("a").render() == "a"
        assert cli.parse_root("~a").render() == "~a"
        assert cli.parse_root("not a").render() == "~a"
        assert cli.parse_root("  not  m(1) ").render() == "~m(1)"

    def test_parse_answer_text(self):
        text = "% comment\np q\n\n  r\n% other\n"
        assert cli.parse_answer_text(text) == ["p", "q", "r"]
