"""Fuzzed command line: mutated bundled programs map to documented exit
codes, never to an uncaught exception.  The programs are written as raw
bytes to a file, so a mutation can also make text that is not UTF-8."""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from aspexplain import cli

DATA = Path(__file__).parent / "data"
PROGRAMS = {path.stem: path.read_bytes().splitlines()
            for path in sorted(DATA.glob("*.aspif"))}
TOKENS = [b"0", b"1", b"2", b"-1", b"-2", b"3", b"5", b"99", b"-99", b"x",
          b"asp", b"%"]
# An invalid UTF-8 start byte, a lone continuation byte, a truncated
# two-byte sequence and a valid one.
RAW_BYTES = [b"\xff", b"\x80", b"\xc3", "\u00e9".encode()]
EDITS = ["drop line", "duplicate line", "corrupt line",
         "drop token", "duplicate token", "corrupt token", "insert byte"]


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
            lines[i] = b" ".join(draw(st.lists(st.sampled_from(TOKENS),
                                               max_size=8)))
        elif edit == "insert byte":
            j = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:j] + draw(st.sampled_from(RAW_BYTES)) \
                + lines[i][j:]
        else:
            tokens = lines[i].split()
            j = draw(st.integers(0, len(tokens)))
            if edit == "corrupt token":
                tokens[j:j + 1] = [draw(st.sampled_from(TOKENS))]
            elif tokens:
                j = min(j, len(tokens) - 1)
                tokens[j:j + 1] = [] if edit == "drop token" \
                    else [tokens[j]] * 2
            lines[i] = b" ".join(tokens)
        if not lines:
            break
    return name, b"\n".join(lines) + b"\n"


def run_on_file(data: bytes, *argv: str) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "program.aspif"
        path.write_bytes(data)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([argv[0], str(path), *argv[1:]])
    return code, err.getvalue()


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(mutated_programs())
def test_mutated_programs_exit_with_documented_codes(program):
    name, data = program
    answer = str(DATA / f"{name}_answer.txt")
    for argv in (["parse"], ["answersets"],
                 ["assumptions", "--answer-set", answer]):
        code, err = run_on_file(data, *argv)
        assert code in range(8), (argv, code, err)
        assert "Traceback" not in err
