"""Fuzzed command line: mutated bundled programs map to documented exit
codes, never to an uncaught exception."""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from aspexplain import cli

DATA = Path(__file__).parent / "data"
PROGRAMS = {path.stem: path.read_text().splitlines()
            for path in sorted(DATA.glob("*.aspif"))}
TOKENS = ["0", "1", "2", "-1", "-2", "3", "5", "99", "-99", "x", "asp", "%"]
EDITS = ["drop line", "duplicate line", "corrupt line",
         "drop token", "duplicate token", "corrupt token"]


@st.composite
def mutated_programs(draw):
    name = draw(st.sampled_from(sorted(PROGRAMS)))
    lines = list(PROGRAMS[name])
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(EDITS))
        i = draw(st.integers(0, len(lines) - 1))
        if edit == "drop line":
            del lines[i]
        elif edit == "duplicate line":
            lines.insert(i, lines[i])
        elif edit == "corrupt line":
            lines[i] = " ".join(draw(st.lists(st.sampled_from(TOKENS),
                                              max_size=8)))
        else:
            tokens = lines[i].split()
            j = draw(st.integers(0, len(tokens)))
            if edit == "corrupt token":
                tokens[j:j + 1] = [draw(st.sampled_from(TOKENS))]
            elif tokens:
                j = min(j, len(tokens) - 1)
                tokens[j:j + 1] = [] if edit == "drop token" \
                    else [tokens[j]] * 2
            lines[i] = " ".join(tokens)
        if not lines:
            break
    return name, "\n".join(lines) + "\n"


def run_on_stdin(text: str, *argv: str) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([argv[0], "-", *argv[1:]])
    finally:
        sys.stdin = stdin
    return code, err.getvalue()


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(mutated_programs())
def test_mutated_programs_exit_with_documented_codes(program):
    name, text = program
    answer = str(DATA / f"{name}_answer.txt")
    for argv in (["parse"], ["answersets"],
                 ["assumptions", "--answer-set", answer]):
        code, err = run_on_stdin(text, *argv)
        assert code in range(8), (argv, code, err)
        assert "Traceback" not in err
