"""Command-line behavior: parsing, formats, exit codes."""

import argparse
import csv
import gc
import io
import json
import os
import random
import resource
import subprocess
import sys
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from itertools import chain
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reorderlab import buffer_sizes
from reorderlab.cli import (
    COMMANDS,
    EXIT_INPUT,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_PIPE,
    TraceParseError,
    _plain,
    build_parser,
    main,
    parse_trace,
    resolve_trace,
)
from reorderlab.oracle import IdentityViolation

from _oracles import (
    oracle_build_parser,
    oracle_parse_trace,
    oracle_rd_counts,
    oracle_resolve_trace,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = Path(__file__).resolve().parent.parent / "src"


def child(*args, env=None, **keywords):
    """``python *args`` on ``SRC``, in this environment with ``env`` added."""
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": str(SRC), **(env or {})},
        timeout=60,
        **keywords,
    )


class TestTraceParsing:
    def test_comments_and_blanks(self):
        text = "# header\n1 2\n\n3  # trailing\n"
        assert parse_trace(text, "t") == [1, 2, 3]

    def test_error_carries_line_number(self):
        with pytest.raises(TraceParseError, match="t:3"):
            parse_trace("1\n2\nx\n", "t")

    def test_error_line_number_without_comments(self):
        # a text with no "#" takes the whole-text path; errors still name the line
        with pytest.raises(TraceParseError) as exc:
            parse_trace("1 2\n3\f4\n\n5 6x 7\n", "t")
        assert str(exc.value) == "t:5: not an integer: '6x'"  # \f ends a line

    def test_unicode_line_breaks_split_tokens(self):
        assert parse_trace("1\x1c2\u20283\r\n4\x855", "t") == [1, 2, 3, 4, 5]

    def test_inline_tokens(self):
        assert resolve_trace(["4", "3", "2", "1"]) == [4, 3, 2, 1]

    @pytest.mark.parametrize(
        "token, shown",
        [
            ("1" * 5000, "'" + "1" * 40 + "'... (5000 characters)"),
            ("x" * 41, "'" + "x" * 40 + "'... (41 characters)"),
            ("x" * 40, "'" + "x" * 40 + "'"),
        ],
        ids=["5000-digits", "41-chars", "40-chars"],
    )
    def test_overlong_token_is_cut(self, capsys, token, shown):
        # int rejects more than 4,300 digits; the message echoes 40 characters
        with pytest.raises(TraceParseError) as exc:
            parse_trace(f"1\n2 {token}\n", "t")
        assert str(exc.value) == f"t:2: not an integer: {shown}"
        code, out, err = run_cli(capsys, "map", "1", token)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == f"error: not a readable trace file and not an integer: {shown}\n"

    def test_inline_quoted(self):
        assert resolve_trace(["4 3 2 1"]) == [4, 3, 2, 1]

    def test_file(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("4\n3\n2\n1\n")
        assert resolve_trace([str(path)]) == [4, 3, 2, 1]

    def test_stdin(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("2 1\n"))
        assert resolve_trace(["-"]) == [2, 1]


# every str.splitlines boundary, other whitespace, integers int accepts in
# unusual spellings, and tokens it rejects
LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
TRACE_PIECES = ["#", *LINE_BREAKS, " ", "\t", "\x1f", "1", "23", "0", "-5", "+4", "1_0", "\u0663"]
TRACE_PIECES += ["-", "6x", "x", "_1", "1__0", "\x00", "#x"]
trace_texts = st.lists(st.sampled_from(TRACE_PIECES), max_size=30).map("".join)


def _read(fn, *args):
    """A reader's list, or the message of the ``TraceParseError`` it raised."""
    try:
        return "ok", fn(*args)
    except TraceParseError as exc:
        return "error", str(exc)


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "t.txt"


class TestReaderMatchesOracle:
    """The one-pass reader against the loop that called ``int`` per token."""

    @given(trace_texts)
    @settings(max_examples=1000, deadline=None)
    @example("1\r# c\r2 x\n")
    @example("1\n# c\n2 y\n")
    @example("1 " + "6x" * 25 + "\n")
    def test_parse_trace(self, text):
        assert _read(parse_trace, text, "t") == _read(oracle_parse_trace, text, "t")

    @given(st.lists(trace_texts, max_size=4).filter(lambda tokens: tokens != ["-"]))
    @settings(max_examples=500, deadline=None)
    def test_inline_tokens(self, tokens):
        assert _read(resolve_trace, tokens) == _read(oracle_resolve_trace, tokens)

    @given(trace_texts)
    @settings(max_examples=300, deadline=None)
    def test_stdin(self, text):
        outcomes = []
        for fn in (resolve_trace, oracle_resolve_trace):
            with mock.patch("sys.stdin", io.StringIO(text)):
                outcomes.append(_read(fn, ["-"]))
        assert outcomes[0] == outcomes[1]

    @given(trace_texts, st.sampled_from([b"", b"\xff"]))
    @settings(max_examples=200, deadline=None)
    def test_file(self, trace_path, text, tail):
        trace_path.write_bytes(text.encode() + tail)
        for tokens in ([str(trace_path)], [str(trace_path), "1"]):
            assert _read(resolve_trace, tokens) == _read(oracle_resolve_trace, tokens)

    def test_missing_file_and_directory(self, tmp_path):
        for tokens in ([str(tmp_path / "missing")], [str(tmp_path)], ["-", "-"], ["- 1"]):
            outcome = _read(resolve_trace, tokens)
            assert outcome[0] == "error"
            assert outcome == _read(oracle_resolve_trace, tokens)


class TestMap:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "map", "4", "3", "2", "1")
        assert code == EXIT_OK
        assert out == "4\n4\n4\n0\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--format", "json", "4 3 2 1")
        assert code == EXIT_OK
        assert json.loads(out) == {"values": [4, 4, 4, 0]}

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--format", "csv", "1 2")
        assert code == EXIT_OK
        assert out == "position,value\n1,0\n2,0\n"

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# fourteen arrivals\n1 2 3 6 5 7 4 8 9 10 12 13 14 11\n")
        code, out, _ = run_cli(capsys, "map", str(path))
        assert code == EXIT_OK
        assert out.split() == "0 0 0 3 3 4 0 0 0 0 2 3 4 0".split()

    def test_inline_integers_beside_same_named_files(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "1").write_text("2 1\n")
        (tmp_path / "3 4").write_text("2 1\n")
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, "map", "1") == (EXIT_OK, "0\n", "")
        assert run_cli(capsys, "map", "3 4") == (EXIT_OK, "3\n4\n", "")

    def test_empty_trace_prints_nothing(self, capsys):
        assert run_cli(capsys, "map", "") == (EXIT_OK, "", "")

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1\nbogus\n")
        code, _, err = run_cli(capsys, "map", str(path))
        assert code == EXIT_INPUT
        assert "2" in err and "bogus" in err

    def test_non_utf8_file_exit_2(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "bad.txt").write_bytes(b"1 2 \xff 3\n")
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "map", "bad.txt")
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith("error: cannot read bad.txt: ")
        assert "in position 4" in err and err.count("\n") == 1

    def test_duplicate_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "map", "1 1")
        assert code == EXIT_INPUT
        assert "duplicate" in err


def test_exit_codes_are_the_documented_ones():
    # the other tests compare with the constants, so pin their values once
    assert (EXIT_OK, EXIT_NEGATIVE, EXIT_INPUT, EXIT_PIPE) == (0, 1, 2, 141)


class TestAck:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "ack", "4 3 2 1")
        assert code == EXIT_OK
        assert out == "1\n1\n1\n5\n"


class TestSus:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "sus", "6 5 8 7 10 9 12 11 4 3 2")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "sus 5"
        assert out.splitlines()[1] == "list 6 8 10 12"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "sus", "--format", "json", "4 2 3 1")
        assert code == EXIT_OK
        assert json.loads(out) == {"lists": [[4], [2, 3], [1]], "sus": 3}


class TestEpisodes:
    def test_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "episodes", "1 2 3 6 5 7 4 8 9 10 12 13 14 11"
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "episode O 1 3"
        assert lines[1] == "episode U 4 7"
        assert "pivots 1 2 3 7 8 9 10 14" in lines
        assert "pivot-packets 1 2 3 4 8 9 10 11" in lines

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "episodes", "--format", "csv", "2 1")
        assert code == EXIT_OK
        assert out == "position,id,state,pivot\n1,2,U,0\n2,1,U,1\n"


class TestRd:
    def test_text_fractions(self, capsys):
        code, out, _ = run_cli(capsys, "rd", "--dt", "inf", "4 2 3 1")
        assert code == EXIT_OK
        assert out == "-3 1/4\n0 2/4\n3 1/4\n"

    def test_truncated_json(self, capsys):
        code, out, _ = run_cli(capsys, "rd", "--dt", "1", "--format", "json", "4 3 2 1")
        assert code == EXIT_OK
        assert json.loads(out) == {"counts": {"-1": 1, "1": 1}, "dt": 1, "total": 4}

    @pytest.mark.parametrize("dt", ["1", "3", "inf"])
    def test_matches_oracle_sorted(self, capsys, dt):
        rng = random.Random(2000)
        perm = rng.sample(range(1, 2001), 2000)
        counts, total = oracle_rd_counts(perm, float(dt) if dt == "inf" else int(dt))
        ordered = sorted(counts.items())
        trace = " ".join(map(str, perm))
        expected = {
            "text": "".join(f"{d} {c}/{total}\n" for d, c in ordered),
            "json": json.dumps(
                {
                    "counts": {str(d): c for d, c in ordered},
                    "dt": dt if dt == "inf" else int(dt),
                    "total": total,
                },
                sort_keys=True,
                separators=(",", ":"),
            )
            + "\n",
            "csv": "displacement,count,total\n"
            + "".join(f"{d},{c},{total}\n" for d, c in ordered),
        }
        for fmt, out in expected.items():
            assert run_cli(capsys, "rd", "--dt", dt, "--format", fmt, trace) == (EXIT_OK, out, "")

    def test_dt_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rd", "1 2 3"])
        assert exc.value.code == 2

    def test_bad_dt_exit_2(self, capsys):
        # rejected by argparse, which exits with status 2
        with pytest.raises(SystemExit) as exc:
            main(["rd", "--dt", "0", "1 2 3"])
        assert exc.value.code == EXIT_INPUT
        assert "dt" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["rd", "1 2"],
            ["consistency", "--metric", "rd", "--n", "3"],
            ["consistency", "--metric", "mean-buffer", "--n", "3"],
        ],
    )
    def test_non_integer_dt_message(self, capsys, command):
        # argparse rejects a dt that is not a positive integer, for every metric
        for dt in ("1e3", "0", "-1"):
            with pytest.raises(SystemExit) as exc:
                main([command[0], "--dt", dt, *command[1:]])
            captured = capsys.readouterr()
            assert exc.value.code == 2
            assert captured.out == ""
            assert captured.err.endswith(
                f"error: argument --dt: must be a positive integer or 'inf', got '{dt}'\n"
            )


class TestRcvWindow:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "rcvwindow", "--rcv-buffer", "4", "4 3 2 1")
        assert code == EXIT_OK
        assert out == "0\n0\n0\n4\n"

    def test_overflow_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "rcvwindow", "--rcv-buffer", "3", "4 3 2 1")
        assert code == EXIT_NEGATIVE
        assert "position 1" in err


class TestEquiv:
    def test_equivalent_pair(self, capsys):
        code, out, _ = run_cli(capsys, "equiv", "4 3 2 1", "4 2 3 1")
        assert code == EXIT_OK
        assert out == "fb-equivalent true\nbehaviorally-equivalent true\n"

    def test_behavioral_only(self, capsys):
        code, out, _ = run_cli(capsys, "equiv", "2 4 1 3", "4 2 1 3")
        assert code == EXIT_NEGATIVE
        assert out == "fb-equivalent false\nbehaviorally-equivalent true\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "equiv", "--format", "json", "1 2", "2 1")
        assert code == EXIT_NEGATIVE
        assert json.loads(out) == {
            "behaviorally_equivalent": False,
            "fb_equivalent": False,
        }

    def test_both_from_stdin_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("2 1"))
        assert run_cli(capsys, "equiv", "-", "-") == (
            EXIT_INPUT,
            "",
            "error: at most one trace can come from standard input\n",
        )

    def test_file_inputs(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("4\n3\n2\n1\n")
        b.write_text("4\n2\n3\n1\n")
        code, out, _ = run_cli(capsys, "equiv", str(a), str(b))
        assert code == EXIT_OK


class TestReconstruct:
    def test_success(self, capsys):
        code, out, _ = run_cli(capsys, "reconstruct", "4 4 4 0")
        assert code == EXIT_OK
        assert out == "4 2 3 1\n"

    def test_no_preimage(self, capsys):
        code, out, _ = run_cli(capsys, "reconstruct", "1")
        assert code == EXIT_NEGATIVE
        assert out == "NO PERMUTATION EXISTS\n"

    def test_json_null(self, capsys):
        code, out, _ = run_cli(capsys, "reconstruct", "--format", "json", "2 2")
        assert code == EXIT_NEGATIVE
        assert json.loads(out) == {"permutation": None}

    def test_stdin_pipe(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("3\n4\n3\n0\n"))
        code, out, _ = run_cli(capsys, "reconstruct", "-")
        assert code == EXIT_OK
        assert out == "3 4 1 2\n"


class TestVerify:
    def test_small_n(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "5")
        assert code == EXIT_OK
        assert out == "theorem pass\nidentities pass\n"

    def test_identities_skipped_above_guard(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "8", "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["theorem"] == "pass"
        assert data["identities"] == "skipped"

    def test_guard_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "12")
        assert code == EXIT_INPUT


class TestConsistency:
    def test_rd_inconsistent(self, capsys):
        code, out, _ = run_cli(
            capsys, "consistency", "--metric", "rd", "--dt", "inf", "--n", "4"
        )
        assert code == EXIT_NEGATIVE
        assert out == "inconsistent\nwitness-a 4 2 3 1\nwitness-b 4 3 2 1\n"

    def test_mean_buffer_consistent(self, capsys):
        code, out, _ = run_cli(
            capsys, "consistency", "--metric", "mean-buffer", "--n", "5"
        )
        assert code == EXIT_OK
        assert out == "consistent\n"

    def test_rd_requires_dt(self, capsys):
        code, _, err = run_cli(capsys, "consistency", "--metric", "rd", "--n", "4")
        assert code == EXIT_INPUT
        assert "--dt" in err

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "consistency",
            "--metric",
            "rd",
            "--dt",
            "2",
            "--n",
            "4",
            "--format",
            "json",
        )
        assert code == EXIT_NEGATIVE
        data = json.loads(out)
        assert data["consistent"] is False
        assert data["witness"] == [[4, 2, 3, 1], [4, 3, 2, 1]]


class TestClosedStdout:
    """A reader that closes stdout early ends the run quietly with EXIT_PIPE."""

    ARGVS = pytest.mark.parametrize("argv", [["map", "1", "2"], ["ack", "-"], ["episodes", "-"]])

    def check(self, argv, env=None):
        read_end, write_end = os.pipe()
        os.close(read_end)  # no reader at all: the first write fails
        try:
            proc = child(
                "-m",
                "reorderlab",
                *argv,
                input="\n".join(map(str, range(1, 50_001))).encode(),
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == EXIT_PIPE

    @ARGVS
    def test_no_traceback(self, argv):
        self.check(argv)

    @ARGVS
    def test_no_traceback_unbuffered(self, argv):
        """Under ``-u`` the run writes through the buffered layer it adds."""
        self.check(argv, {"PYTHONUNBUFFERED": "1"})


class TestUnwritableStderr:
    """An error message that standard error cannot take is dropped; the exit code stays."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            pytest.param(argv, code, id=" ".join(argv))
            for argv, code in [
                (["map", "1", "2", "2"], EXIT_INPUT),
                (["map", "x"], EXIT_INPUT),
                (["map"], EXIT_INPUT),  # a usage error, written by the parser
                (["rcvwindow", "--rcv-buffer", "1", "3", "1", "2"], EXIT_NEGATIVE),
            ]
        ],
    )
    @pytest.mark.parametrize("stderr", ["closed", "read-only", "no reader"])
    def test_exit_code_kept(self, argv, code, stderr):
        read_end, write_end = os.pipe()
        os.close(read_end)  # a pipe with no reader
        try:
            with open(os.devnull, "rb") as read_only:
                target = {"closed": None, "read-only": read_only, "no reader": write_end}[stderr]
                proc = child(
                    "-m",
                    "reorderlab",
                    *argv,
                    stdout=subprocess.PIPE,
                    stderr=target,
                    preexec_fn=(lambda: os.close(2)) if stderr == "closed" else None,
                )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stdout) == (code, b"")


FSIZE_LIMIT = 16_384  # bytes; every output of TestUnusableStreams' trace is larger


def limit_file_size():
    """In the child before exec: a file it writes may not grow past ``FSIZE_LIMIT``."""
    resource.setrlimit(resource.RLIMIT_FSIZE, (FSIZE_LIMIT, FSIZE_LIMIT))


WRITE_ERROR = "error: cannot write standard output: "
READ_ERROR = "error: cannot read <stdin>: "
EBADF = "[Errno 9] Bad file descriptor"

# name: (trace argument, child keywords, error line); a file name given as
# stdout or stdin is opened for writing, with "{dir}" the test's directory
STREAM_CASES = {
    "stdout closed": ("{trace}", dict(preexec_fn=lambda: os.close(1)), WRITE_ERROR + EBADF),
    "stdout full": pytest.param(
        "{trace}",
        dict(stdout="/dev/full"),
        WRITE_ERROR + "[Errno 28] No space left on device",
        marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"),
    ),
    "stdout over size limit": (
        "{trace}",
        dict(stdout="{dir}/out.txt", preexec_fn=limit_file_size),
        WRITE_ERROR + "[Errno 27] File too large",
    ),
    "stdin closed": ("-", dict(preexec_fn=lambda: os.close(0)), READ_ERROR + EBADF),
    "stdin write-only": ("-", dict(stdin="{dir}/in.txt"), READ_ERROR + EBADF),
    "stdin undecodable": (
        "-",
        dict(input=b"1 \xff\n", env={"PYTHONIOENCODING": "utf-8:strict"}),
        READ_ERROR + "'utf-8' codec can't decode byte 0xff in position 2: invalid start byte",
    ),
}
BUFFERING = pytest.mark.parametrize(
    "buffering", [{}, {"PYTHONUNBUFFERED": "1"}], ids=["buffered", "unbuffered"]
)


class TestUnusableStreams:
    """A standard stream that cannot be used ends the run with exit 2 and one error line.

    Buffered and unbuffered alike: unbuffered, the text layer sits on the
    raw file, which a short write under a file-size limit would truncate
    silently.
    """

    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("streams") / "in-order.txt"
        path.write_text("".join(f"{i}\n" for i in range(1, 30_001)))
        return str(path)

    def run(self, argv, keywords, buffering, directory):
        keywords = {**keywords, "env": {**buffering, **keywords.get("env", {})}}
        with ExitStack() as stack:
            for stream in {"stdout", "stdin"} & set(keywords):
                name = keywords[stream].format(dir=directory)
                keywords[stream] = stack.enter_context(open(name, "wb"))
            return child("-m", "reorderlab", *argv, stderr=subprocess.PIPE, **keywords)

    @pytest.mark.parametrize("source, keywords, error", STREAM_CASES.values(), ids=STREAM_CASES)
    @pytest.mark.parametrize("argv", [["map"], ["episodes", "--format", "json"]], ids=" ".join)
    @BUFFERING
    def test_one_error_line(self, tmp_path, trace, source, keywords, error, argv, buffering):
        proc = self.run([*argv, source.format(trace=trace)], keywords, buffering, tmp_path)
        assert (proc.returncode, proc.stderr.decode()) == (EXIT_INPUT, error + "\n")

    @BUFFERING
    def test_input_error_with_stdout_closed(self, tmp_path, buffering):
        _, keywords, _ = STREAM_CASES["stdout closed"]
        proc = self.run(["map", "1", "x"], keywords, buffering, tmp_path)
        error = "error: not a readable trace file and not an integer: 'x'\n"
        assert (proc.returncode, proc.stderr.decode()) == (EXIT_INPUT, error)

    @BUFFERING
    def test_help_with_stdout_closed(self, tmp_path, monkeypatch, buffering):
        """argparse writes the help to standard error instead, and the run succeeds."""
        monkeypatch.setenv("COLUMNS", "80")
        _, keywords, _ = STREAM_CASES["stdout closed"]
        proc = self.run(["-h"], keywords, buffering, tmp_path)
        assert (proc.returncode, proc.stderr.decode()) == (EXIT_OK, build_parser().format_help())


# Runs commands one after another in one interpreter and prints, after each,
# the modules loaded since just before the package was imported.
IMPORT_PROBE = """
import io, sys
before = set(sys.modules)
from reorderlab.cli import main
for name, argv in [
    ("text", ["map", "1"]),
    ("json", ["map", "--format", "json", "1"]),
    ("csv", ["map", "--format", "csv", "1"]),
    ("rcvwindow", ["rcvwindow", "--rcv-buffer", "2", "1"]),
    ("rd", ["rd", "--dt", "inf", "1"]),
    ("mean-buffer-3", ["consistency", "--metric", "mean-buffer", "--n", "3"]),
    ("mean-buffer-4", ["consistency", "--metric", "mean-buffer", "--n", "4"]),
]:
    sys.stdout = io.StringIO()
    code = main(argv)
    sys.stdout = sys.__stdout__
    print(name, code, *sorted(set(sys.modules) - before))
"""


def bare_python(*args):
    """Run ``python -S`` (no site start-up, so no site hook has loaded anything) on ``src``."""
    return child("-S", *args, capture_output=True, text=True)


class TestImportHygiene:
    """A run loads only the package modules and standard-library modules its command uses."""

    HEAVY = {"dataclasses", "inspect", "json", "csv", "fractions", "decimal", "argparse", "gettext"}
    # what ``map 1`` loads: the package and the modules it imports eagerly
    MAP = {
        "reorderlab",
        "reorderlab.buffering",
        "reorderlab.cli",
        "reorderlab.disorder",
        "reorderlab.errors",
        "reorderlab.reconstruct",
    }

    def test_modules_added_per_command(self):
        proc = bare_python("-c", IMPORT_PROBE)
        assert proc.stderr == ""
        added = {}
        for line in proc.stdout.splitlines():
            name, code, *modules = line.split()
            assert code == "0"
            added[name] = {m for m in modules if m in self.HEAVY or m.startswith("reorderlab")}
        metrics = {"json", "reorderlab.metrics", *self.MAP}
        assert added == {
            "text": self.MAP,
            "json": {"json", *self.MAP},
            "csv": {"json", *self.MAP},
            "rcvwindow": metrics,
            "rd": metrics,
            # every class of S_3 is a singleton, so the metric never runs
            "mean-buffer-3": {"reorderlab.oracle", *metrics},
            "mean-buffer-4": {"fractions", "decimal", "reorderlab.oracle", *metrics},
        }

    @pytest.mark.parametrize(
        "argv, parser", [(["map", "1"], False), (["map", "-h"], True), (["map"], True)]
    )
    def test_process_loads_argparse_only_off_the_table_path(self, argv, parser):
        """``-X importtime`` names every module the process imports, to standard error."""
        proc = bare_python("-X", "importtime", "-m", "reorderlab", *argv)
        loaded = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}
        expected = {"argparse", "gettext"} if parser else set()
        assert loaded & {"argparse", "gettext"} == expected

    def test_library_import_loads_no_cli(self):
        probe = "import sys; from reorderlab import enumerate_classes; print(*sorted(sys.modules))"
        proc = bare_python("-c", probe)
        assert proc.stderr == ""
        loaded = set(proc.stdout.split())
        assert "reorderlab.oracle" in loaded
        assert not loaded & {"reorderlab.cli", "argparse"}


# the package's sorted dir() from when it imported every module at start-up,
# whichever submodule was imported first; importing cli adds "cli"
PACKAGE_DIR = [
    "CapacityExceededError", "DisplacementDistribution", "Episode", "EpisodeSegmentation",
    "EquivalenceClassReport", "IdentityViolation", "InvalidParameterError",
    "InvalidSequenceError", "MAX_SUS", "ORDERED", "RcvWindowSeries", "ReceiverState",
    "ReconstructionTrace", "ReorderError", "SusPartition", "UNORDERED", "__all__",
    "__builtins__", "__cached__", "__doc__", "__file__", "__loader__", "__name__",
    "__package__", "__path__", "__spec__", "__version__", "ack_from_buffer", "ack_sequence",
    "behaviorally_equivalent", "buffer_sizes", "buffering", "check_ids", "check_permutation",
    "consistency_counterexample", "disorder", "enumerate_classes", "errors", "fb_equivalent",
    "lds_bruteforce", "mean_buffer_size", "metrics", "oracle", "rcv_window_series",
    "reconstruct", "reconstruct_trace", "reorder_density", "segment_episodes", "sus",
    "sus_partition", "verify_identities", "verify_theorem",
]  # fmt: skip

# Imports one submodule first, then checks the package's exports against the
# modules that define them, and prints its dir() before and after.
EXPORTS_PROBE = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
import reorderlab
listed = sorted(dir(reorderlab))
homes = json.loads(sys.argv[2])
assert sorted(n for names in homes.values() for n in names) == sorted(reorderlab.__all__)
for module, names in homes.items():
    for name in names:
        assert getattr(reorderlab, name) is getattr(importlib.import_module(module), name), name
assert callable(reorderlab.reconstruct)
try:
    reorderlab.no_such_export
except AttributeError as exc:
    missing = str(exc)
print(json.dumps([listed, sorted(dir(reorderlab)), missing]))
"""

# each export of the package, by the module that defines it
EXPORT_HOMES = {
    "reorderlab": ["__version__"],
    "reorderlab.buffering": [
        "ORDERED", "UNORDERED", "Episode", "EpisodeSegmentation", "ReceiverState",
        "ack_from_buffer", "ack_sequence", "behaviorally_equivalent", "buffer_sizes",
        "check_ids", "check_permutation", "fb_equivalent", "segment_episodes",
    ],
    "reorderlab.disorder": ["SusPartition", "lds_bruteforce", "sus", "sus_partition"],
    "reorderlab.errors": [
        "CapacityExceededError", "InvalidParameterError", "InvalidSequenceError",
        "ReorderError",
    ],
    "reorderlab.metrics": [
        "DisplacementDistribution", "RcvWindowSeries", "consistency_counterexample",
        "mean_buffer_size", "rcv_window_series", "reorder_density",
    ],
    "reorderlab.oracle": [
        "EquivalenceClassReport", "IdentityViolation", "enumerate_classes",
        "verify_identities", "verify_theorem",
    ],
    "reorderlab.reconstruct": ["MAX_SUS", "ReconstructionTrace", "reconstruct", "reconstruct_trace"],
}  # fmt: skip


# Patches each lazy export in its module, reads it once through the package,
# undoes the patch, and prints whether the package gave the fake and then the
# original.
PATCH_PROBE = """
import importlib, json, sys
import reorderlab
for module, names in json.loads(sys.argv[1]).items():
    home = importlib.import_module(module)
    for name in names:
        original, fake = getattr(home, name), object()
        setattr(home, name, fake)
        seen = getattr(reorderlab, name)
        setattr(home, name, original)
        print(name, seen is fake, getattr(reorderlab, name) is original)
assert reorderlab.verify_theorem is reorderlab.oracle.verify_theorem
"""


class TestLazyExports:
    """Whichever submodule loads first, the exports are the defining modules' objects.

    ``metrics`` and ``oracle`` load on first use; ``reconstruct``, which a late
    submodule import would rebind to the module, stays a function.
    """

    @pytest.mark.parametrize("first", ["oracle", "reconstruct", "metrics", "cli"])
    def test_exports_after_first_import(self, first):
        proc = bare_python("-c", EXPORTS_PROBE, f"reorderlab.{first}", json.dumps(EXPORT_HOMES))
        assert proc.stderr == ""
        before, after, missing = json.loads(proc.stdout)
        expected = sorted(PACKAGE_DIR + ["cli"] * (first == "cli"))
        assert before == after == expected
        assert missing == "module 'reorderlab' has no attribute 'no_such_export'"

    def test_patch_undone_shows_through_the_package(self):
        lazy = {m: EXPORT_HOMES[m] for m in ("reorderlab.metrics", "reorderlab.oracle")}
        proc = bare_python("-c", PATCH_PROBE, json.dumps(lazy))
        assert proc.stderr == ""
        assert proc.stdout.splitlines() == [
            f"{name} True True" for names in lazy.values() for name in names
        ]


# Runs ``python -m reorderlab`` with the probe's own arguments.  An atexit hook
# reports if interpreter teardown runs; os._exit is wrapped to report whether
# the cyclic garbage collector is on when the process ends.
EXIT_PROBE = """
import atexit, gc, os, runpy, sys
atexit.register(lambda: print("atexit ran", file=sys.stderr))
hard_exit = os._exit
def report_exit(code):
    os.write(2, b"collector on at exit\\n" if gc.isenabled() else b"collector off at exit\\n")
    hard_exit(code)
os._exit = report_exit
sys.argv = ["reorderlab", *sys.argv[1:]]
runpy.run_module("reorderlab", run_name="__main__", alter_sys=True)
"""


def exit_probe(*argv, stdin=None):
    return child("-c", EXIT_PROBE, *argv, input=stdin, capture_output=True, env={"COLUMNS": "80"})


class TestCollectorPolicy:
    """The process entry point switches the cyclic collector off and ends with ``os._exit``.

    So no ``atexit`` hook runs, on a result and on argparse's exits alike,
    and exit code, stdout and stderr are those of ``main``.  ``main`` leaves
    the collector be.
    """

    OFF = b"collector off at exit\n"

    def check(self, capsys, monkeypatch, argv, code):
        """The probe ends as ``main`` returns or exits on ``argv``, at the same help width."""
        monkeypatch.setenv("COLUMNS", "80")
        try:
            got = main(argv)
        except SystemExit as exc:  # argparse's exits
            got = exc.code
        out, err = capsys.readouterr()
        assert got == code and (out or err)
        proc = exit_probe(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code,
            out.encode(),
            err.encode() + self.OFF,
        )

    def test_process_runs_without_collector(self, capsys, monkeypatch):
        self.check(capsys, monkeypatch, ["map", "4", "3", "2", "1"], EXIT_OK)

    def test_usage_error_exit_skips_teardown_too(self, capsys, monkeypatch):
        self.check(capsys, monkeypatch, ["map"], EXIT_INPUT)

    def test_help_exit_skips_teardown_too(self, capsys, monkeypatch):
        self.check(capsys, monkeypatch, ["-h"], EXIT_OK)

    def test_multi_megabyte_stdout_arrives_whole(self):
        n = 3 * 10**5
        trace = "".join(f"{i}\n" for i in range(n, 0, -1))  # size n until the last ID, then 0
        proc = exit_probe("map", "--format", "csv", "-", stdin=trace.encode())
        expected = "position,value\n" + "".join(f"{i},{n}\n" for i in range(1, n)) + f"{n},0\n"
        assert len(expected) > 3 * 10**6
        assert (proc.returncode, proc.stderr) == (EXIT_OK, self.OFF)
        assert proc.stdout == expected.encode()

    @pytest.mark.parametrize("argv", [["map", "4 3 2 1"], ["map", "x"], ["map"]], ids=" ".join)
    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_collector_as_found(self, capsys, enabled, argv):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                main(argv)
            except SystemExit:  # the usage error of a trace-less map
                pass
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()


def mild_trace(n, seed):
    """1..n with each adjacent pair swapped with probability 0.1, swaps not overlapping."""
    rng = random.Random(seed)
    ids = list(range(1, n + 1))
    i = 0
    while i < n - 1:
        if rng.random() < 0.1:
            ids[i], ids[i + 1] = ids[i + 1], ids[i]
            i += 2
        else:
            i += 1
    return ids


def trace_files(directory, n):
    """Files of two mild n-ID traces and the first one's buffer series, by placeholder name."""
    trace = mild_trace(n, seed=1)
    files = {}
    for name, values in [
        ("trace", trace),
        ("other", mild_trace(n, seed=2)),
        ("series", buffer_sizes(trace)),
    ]:
        files[name] = directory / f"{name}-{n}.txt"
        files[name].write_text("".join(f"{v}\n" for v in values))
    return files


def cyclic_garbage(argv):
    """What ``gc.collect()`` finds after ``main(argv)`` has run with the collector off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        with open(os.devnull, "w") as sink, redirect_stdout(sink):
            assert main(argv) in (EXIT_OK, EXIT_NEGATIVE)  # a result, not an input error
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def garbage_by_length(argv, traces):
    """``cyclic_garbage`` of ``argv``, its placeholders filled from each of ``traces``."""
    runs = [[arg.format(**files) for arg in argv] for files in traces]
    cyclic_garbage(runs[0])  # a first run may import modules
    return [cyclic_garbage(run) for run in runs]


# every trace subcommand, with placeholders for trace_files' files
GARBAGE_ARGVS = [
    *(
        [command, *options, "--format", fmt, "{trace}"]
        for command, options in [
            ("map", []),
            ("ack", []),
            ("rcvwindow", ["--rcv-buffer", "8"]),
            ("episodes", []),
        ]
        for fmt in ("text", "json", "csv")
    ),
    ["sus", "{trace}"],
    ["rd", "--dt", "inf", "{trace}"],
    ["rd", "--dt", "3", "{trace}"],
    ["equiv", "{trace}", "{other}"],
    ["reconstruct", "{series}"],
]


class TestCyclicGarbage:
    """A run leaves no more cyclic garbage on a long trace than on a short one.

    So the collector that ``run`` switches off would find nothing that grows
    with the input.
    """

    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("garbage")
        return [trace_files(directory, n) for n in (10, 10**5)]

    @pytest.mark.parametrize("argv", GARBAGE_ARGVS, ids=" ".join)
    def test_same_at_10_and_10_to_the_5_ids(self, traces, argv):
        short, long = garbage_by_length(argv, traces)
        assert long == short


# one run of each subcommand, with placeholders for trace_files' files
DEV_MODE_ARGVS = {
    "map": ["map", "{trace}"],
    "ack": ["ack", "--format", "csv", "{trace}"],
    "sus": ["sus", "--format", "json", "{trace}"],
    "episodes": ["episodes", "{trace}"],
    "rd": ["rd", "--dt", "3", "{trace}"],
    "rcvwindow": ["rcvwindow", "--rcv-buffer", "8", "{trace}"],
    "equiv": ["equiv", "{trace}", "{other}"],
    "reconstruct": ["reconstruct", "{series}"],
    "verify": ["verify", "--n", "4"],
    "consistency": ["consistency", "--metric", "mean-buffer", "--n", "4"],
}

# ``main`` in an interpreter that ends normally, so teardown reports what is left open
MAIN_PROBE = "import sys; from reorderlab.cli import main; sys.exit(main(sys.argv[1:]))"


class TestDevMode:
    """Each subcommand run through ``main`` in development mode, warnings as errors.

    ``python -m reorderlab`` ends with ``os._exit``, which skips the teardown
    that would report a file or stream left open; this child tears down.
    """

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        return trace_files(tmp_path_factory.mktemp("devmode"), 10)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_no_warning_and_same_result(self, files, command):
        argv = [arg.format(**files) for arg in DEV_MODE_ARGVS[command]]
        dev, plain = (
            child(*args, *argv, capture_output=True)
            for args in (["-X", "dev", "-W", "error", "-c", MAIN_PROBE], ["-m", "reorderlab"])
        )
        assert dev.stderr == b""
        assert (dev.returncode, dev.stdout) == (plain.returncode, plain.stdout)
        assert dev.stdout


# (argv, exit code, stdout) of TestExactOutput
EXACT_CASES = [
    (["ack", "--format", "json", "4 3 2 1"], EXIT_OK, '{"values":[1,1,1,5]}\n'),
    (
        ["ack", "--format", "csv", "4 3 2 1"],
        EXIT_OK,
        "position,value\n1,1\n2,1\n3,1\n4,5\n",
    ),
    (["sus", "--format", "csv", "4 2 3 1"], EXIT_OK, "list,id\n1,4\n2,2\n2,3\n3,1\n"),
    (
        ["episodes", "--format", "json", "1 2 3 6 5 7 4 8 9 10 12 13 14 11"],
        EXIT_OK,
        '{"episodes":[{"end":3,"start":1,"state":"O"},'
        '{"end":7,"start":4,"state":"U"},{"end":10,"start":8,"state":"O"},'
        '{"end":14,"start":11,"state":"U"}],'
        '"pivot_packets":[1,2,3,4,8,9,10,11],"pivots":[1,2,3,7,8,9,10,14]}\n',
    ),
    (
        ["rd", "--dt", "inf", "--format", "csv", "4 2 3 1"],
        EXIT_OK,
        "displacement,count,total\n-3,1,4\n0,2,4\n3,1,4\n",
    ),
    (
        ["rcvwindow", "--rcv-buffer", "4", "--format", "json", "4 3 2 1"],
        EXIT_OK,
        '{"rcv_buffer":4,"values":[0,0,0,4]}\n',
    ),
    (
        ["rcvwindow", "--rcv-buffer", "4", "--format", "csv", "4 3 2 1"],
        EXIT_OK,
        "position,value\n1,0\n2,0\n3,0\n4,4\n",
    ),
    (
        ["equiv", "--format", "csv", "2 4 1 3", "4 2 1 3"],
        EXIT_NEGATIVE,
        "predicate,value\nfb-equivalent,false\nbehaviorally-equivalent,true\n",
    ),
    (
        ["reconstruct", "--format", "csv", "4 4 4 0"],
        EXIT_OK,
        "position,id\n1,4\n2,2\n3,3\n4,1\n",
    ),
    (["reconstruct", "--format", "csv", "1"], EXIT_NEGATIVE, "position,id\n"),
    # empty traces: blocks with no rows, which the block formatter gets as no columns
    (["rd", "", "--dt", "inf"], EXIT_OK, ""),
    (["rd", "", "--dt", "3", "--format", "csv"], EXIT_OK, "displacement,count,total\n"),
    (["episodes", "", "--format", "text"], EXIT_OK, "pivots\npivot-packets\n"),
    (["episodes", "", "--format", "csv"], EXIT_OK, "position,id,state,pivot\n"),
    # identities run at their guard, n = MAX_IDENTITY_N
    (["verify", "--n", "7"], EXIT_OK, "theorem pass\nidentities pass\n"),
    (
        ["verify", "--n", "5", "--format", "csv"],
        EXIT_OK,
        "check,result\ntheorem,pass\nidentities,pass\n",
    ),
    (
        ["verify", "--n", "8", "--format", "csv"],
        EXIT_OK,
        "check,result\ntheorem,pass\nidentities,skipped\n",
    ),
    (
        ["consistency", "--metric", "rd", "--dt", "inf", "--n", "4", "--format", "csv"],
        EXIT_NEGATIVE,
        "field,value\nconsistent,false\nwitness-a,4 2 3 1\nwitness-b,4 3 2 1\n",
    ),
    (
        ["consistency", "--metric", "mean-buffer", "--n", "4", "--format", "csv"],
        EXIT_OK,
        "field,value\nconsistent,true\n",
    ),
]


class TestExactOutput:
    """Byte-exact stdout for (command, format) pairs pinned nowhere else."""

    @pytest.mark.parametrize(
        "argv, code, out", EXACT_CASES, ids=[" ".join(argv) for argv, _, _ in EXACT_CASES]
    )
    def test_stdout(self, capsys, argv, code, out):
        assert run_cli(capsys, *argv) == (code, out, "")


THEOREM_WITNESS = ((4, 2, 3, 1), (4, 3, 2, 1))
IDENTITY_WITNESS = IdentityViolation((2, 1, 3), "sus-vs-lds")


class TestVerifyWitness:
    """The witness branches of ``verify``, which no correct engine reaches."""

    @pytest.fixture
    def witnesses(self, monkeypatch):
        def install(theorem, identities):
            # cmd_verify imports the engines from oracle when it runs, so patch them there
            monkeypatch.setattr("reorderlab.oracle.verify_theorem", lambda n: theorem)
            monkeypatch.setattr("reorderlab.oracle.verify_identities", lambda n: identities)

        return install

    @pytest.mark.parametrize(
        "theorem, identities, n, text, obj, rows",
        [
            (
                THEOREM_WITNESS,
                IDENTITY_WITNESS,
                3,
                "theorem fail\nwitness-a 4 2 3 1\nwitness-b 4 3 2 1\n"
                "identities fail\nwitness 2 1 3\ncheck sus-vs-lds\n",
                '{"identities":"fail","identities_witness":'
                '{"check":"sus-vs-lds","permutation":[2,1,3]},"n":3,'
                '"theorem":"fail","theorem_witness":[[4,2,3,1],[4,3,2,1]]}\n',
                "check,result\ntheorem,fail\nwitness-a,4 2 3 1\nwitness-b,4 3 2 1\n"
                "identities,fail\nwitness,2 1 3\ncheck,sus-vs-lds\n",
            ),
            (
                None,
                IDENTITY_WITNESS,
                3,
                "theorem pass\nidentities fail\nwitness 2 1 3\ncheck sus-vs-lds\n",
                '{"identities":"fail","identities_witness":'
                '{"check":"sus-vs-lds","permutation":[2,1,3]},"n":3,'
                '"theorem":"pass","theorem_witness":null}\n',
                "check,result\ntheorem,pass\nidentities,fail\nwitness,2 1 3\ncheck,sus-vs-lds\n",
            ),
            (
                THEOREM_WITNESS,
                None,
                8,
                "theorem fail\nwitness-a 4 2 3 1\nwitness-b 4 3 2 1\nidentities skipped\n",
                '{"identities":"skipped","identities_witness":null,"n":8,'
                '"theorem":"fail","theorem_witness":[[4,2,3,1],[4,3,2,1]]}\n',
                "check,result\ntheorem,fail\nwitness-a,4 2 3 1\nwitness-b,4 3 2 1\n"
                "identities,skipped\n",
            ),
        ],
        ids=["both-fail n3", "identities-fail n3", "theorem-fail n8"],
    )
    def test_formats(self, capsys, witnesses, theorem, identities, n, text, obj, rows):
        witnesses(theorem, identities)
        for fmt, out in (("text", text), ("json", obj), ("csv", rows)):
            assert run_cli(capsys, "verify", "--n", str(n), "--format", fmt) == (
                EXIT_NEGATIVE,
                out,
                "",
            )


def _csv_rows(out):
    return list(csv.reader(io.StringIO(out)))[1:]


def _values_text(out):
    return [int(line) for line in out.splitlines()]


def _values_csv(out):
    rows = _csv_rows(out)
    assert [int(pos) for pos, _ in rows] == list(range(1, len(rows) + 1))
    return [int(v) for _, v in rows]


def _sus_text(out):
    head, *lists = [line.split() for line in out.splitlines()]
    assert head[0] == "sus" and all(words[0] == "list" for words in lists)
    return int(head[1]), [[int(v) for v in words[1:]] for words in lists]


def _sus_csv(out):
    lists: list[list[int]] = []
    for index, v in _csv_rows(out):
        if int(index) > len(lists):
            lists.append([])
        lists[int(index) - 1].append(int(v))
    return len(lists), lists


def _episode_states(episodes):
    return [state for state, start, end in episodes for _ in range(start, end + 1)]


def _episodes_text(out):
    words = [line.split() for line in out.splitlines()]
    episodes = [(w[1], int(w[2]), int(w[3])) for w in words if w[0] == "episode"]
    tail = {w[0]: [int(v) for v in w[1:]] for w in words if w[0] != "episode"}
    return _episode_states(episodes), tail["pivots"], tail["pivot-packets"]


def _episodes_json(out):
    obj = json.loads(out)
    episodes = [(ep["state"], ep["start"], ep["end"]) for ep in obj["episodes"]]
    return _episode_states(episodes), obj["pivots"], obj["pivot_packets"]


def _episodes_csv(out):
    rows = _csv_rows(out)
    pivots = [(int(pos), int(i)) for pos, i, _, pivot in rows if pivot == "1"]
    return (
        [state for _, _, state, _ in rows],
        [pos for pos, _ in pivots],
        sorted(i for _, i in pivots),
    )


def _rd_text(out):
    pairs = [line.split() for line in out.splitlines()]
    return [(int(d), *map(int, frac.split("/"))) for d, frac in pairs]


def _rd_json(out):
    obj = json.loads(out)
    return sorted((int(d), c, obj["total"]) for d, c in obj["counts"].items())


def _equiv_text(out):
    return {k: v == "true" for k, v in (line.split() for line in out.splitlines())}


def _equiv_json(out):
    return {k.replace("_", "-"): v for k, v in json.loads(out).items()}


def _equiv_csv(out):
    return {k: v == "true" for k, v in _csv_rows(out)}


def _perm_text(out):
    return None if out == "NO PERMUTATION EXISTS\n" else [int(v) for v in out.split()]


def _perm_csv(out):
    return [int(v) for _, v in _csv_rows(out)] or None


def _verify_text(out):
    return dict(line.split() for line in out.splitlines())


def _verify_json(out):
    obj = json.loads(out)
    return {"theorem": obj["theorem"], "identities": obj["identities"]}


def _consistency_text(out):
    head, *witness = [line.split() for line in out.splitlines()]
    return head == ["consistent"], [[int(v) for v in w[1:]] for w in witness] or None


def _consistency_json(out):
    obj = json.loads(out)
    return obj["consistent"], obj["witness"]


def _consistency_csv(out):
    rows = _csv_rows(out)
    witness = [[int(v) for v in value.split()] for _, value in rows[1:]]
    return rows[0] == ["consistent", "true"], witness or None


_VALUES = (_values_text, lambda out: json.loads(out)["values"], _values_csv)
FORMAT_READERS = {
    "map": _VALUES,
    "ack": _VALUES,
    "rcvwindow": _VALUES,
    "sus": (
        _sus_text,
        lambda out: (json.loads(out)["sus"], json.loads(out)["lists"]),
        _sus_csv,
    ),
    "episodes": (_episodes_text, _episodes_json, _episodes_csv),
    "rd": (_rd_text, _rd_json, lambda out: [tuple(map(int, r)) for r in _csv_rows(out)]),
    "equiv": (_equiv_text, _equiv_json, _equiv_csv),
    "reconstruct": (_perm_text, lambda out: json.loads(out)["permutation"], _perm_csv),
    "verify": (_verify_text, _verify_json, lambda out: dict(_csv_rows(out))),
    "consistency": (_consistency_text, _consistency_json, _consistency_csv),
}


FORMAT_CASES = [
    ["map", "1 2 3 6 5 7 4 8 9 10 12 13 14 11"],
    ["ack", "3 1 2 6 4 5"],
    ["rcvwindow", "--rcv-buffer", "5", "3 1 2 6 4 5"],
    ["sus", "6 5 8 7 10 9 12 11 4 3 2"],
    ["episodes", "2 1 3 4 7 5 6 8"],
    ["rd", "--dt", "2", "5 1 4 2 3"],
    ["equiv", "2 4 1 3", "4 2 1 3"],
    ["equiv", "4 3 2 1", "4 2 3 1"],
    ["reconstruct", "3 4 3 0"],
    ["reconstruct", "2 2"],
    ["verify", "--n", "4"],
    ["consistency", "--metric", "rd", "--dt", "inf", "--n", "4"],
    ["consistency", "--metric", "mean-buffer", "--n", "4"],
]


class TestFormatsAgree:
    """text, json and csv of one run carry the same values and exit code."""

    @pytest.mark.parametrize("argv", FORMAT_CASES, ids=" ".join)
    def test_same_values(self, capsys, argv):
        codes, values = set(), []
        for fmt, read in zip(("text", "json", "csv"), FORMAT_READERS[argv[0]]):
            code, out, err = run_cli(capsys, *argv, "--format", fmt)
            assert err == ""
            codes.add(code)
            values.append(read(out))
        assert len(codes) == 1
        assert values[0] == values[1] == values[2]

    def test_every_subcommand_covered(self):
        sub = _subcommands(build_parser())
        assert {argv[0] for argv in FORMAT_CASES} == set(FORMAT_READERS) == set(sub)


def _subcommands(parser):
    """A parser's subparsers by name, in the order they were added."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _parsed(build, argv):
    """``vars`` of the namespace, or the exit code and what was printed when parsing exits."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            return vars(build().parse_args(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


def _pieces(argv):
    """An argv's options, each with its value, and its positionals, one piece each."""
    tokens = iter(argv)
    return [[token, next(tokens)] if token.startswith("--") else [token] for token in tokens]


# argvs on which parsing exits: help, and usage errors
PARSE_EXITS = [
    [],
    ["-h"],
    ["bogus", "1"],
    ["map"],
    ["map", "--format", "xml", "1"],
    ["map", "-h"],
    ["rd", "1"],
    ["rd", "--dt", "0", "1"],
    ["rd", "--dt", "x", "1"],
    ["rcvwindow", "--rcv-buffer", "x", "1"],
    ["equiv", "1"],
    ["equiv", "1", "2", "3"],
    ["verify"],
    ["verify", "--n", "x"],
    ["consistency", "--n", "4"],
    ["consistency", "--metric", "max", "--n", "4"],
    ["--format", "json", "map", "1"],
]
VALID_ARGVS = FORMAT_CASES + [argv for argv, _, _ in EXACT_CASES]


class TestParserMatchesOracle:
    """The command table builds the parser that the parent parser and closure built."""

    @pytest.mark.parametrize("command", [None, *_subcommands(oracle_build_parser())])
    def test_help_and_usage(self, command):
        new, old = build_parser(), oracle_build_parser()
        if command is not None:
            new, old = _subcommands(new)[command], _subcommands(old)[command]
        assert new.format_help() == old.format_help()
        assert new.format_usage() == old.format_usage()

    @pytest.mark.parametrize("argv", VALID_ARGVS, ids=" ".join)
    def test_namespace(self, argv):
        parsed = _parsed(build_parser, argv)
        assert isinstance(parsed, dict)
        assert parsed == _parsed(oracle_build_parser, argv)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_namespace_any_order(self, data):
        argv = data.draw(st.sampled_from(VALID_ARGVS))
        order = data.draw(st.permutations(_pieces(argv[1:] + ["--format", "json"])))
        argv = [argv[0], *chain.from_iterable(order)]
        assert _parsed(build_parser, argv) == _parsed(oracle_build_parser, argv)

    @pytest.mark.parametrize("argv", PARSE_EXITS, ids=lambda argv: " ".join(argv) or "(none)")
    def test_exit_and_messages(self, argv):
        parsed = _parsed(build_parser, argv)
        assert isinstance(parsed, tuple)
        assert parsed == _parsed(oracle_build_parser, argv)


def _main_exit(argv):
    """What ``main`` prints and exits with on an ``argv`` whose parsing exits."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSE_EXITS, ids=lambda argv: " ".join(argv) or "(none)")
def test_main_exits_as_the_oracle_parser(argv):
    assert _main_exit(argv) == _parsed(oracle_build_parser, argv)


# (argv, whether the table reader reads it): each form of a plain argv, and
# each form it leaves to argparse, whether argparse then accepts it or exits
READER_CASES = [
    (["map", "4", "3", "2", "1"], True),
    (["map", "-"], True),
    (["map", ""], True),
    (["map", "--format", "csv", "--format", "json", "1"], True),
    (["verify", "--n", "3", "--n", "1_0"], True),
    (["rcvwindow", "1", "2", "--rcv-buffer", "+2"], True),
    (["rd", "--dt", "inf", "1"], True),
    (["equiv", "-", "1 2"], True),
    (["consistency", "--metric", "rd", "--n", "3"], True),
    (["reconstruct", "-", "--format", "json"], True),
    ([], False),
    (["bogus", "1"], False),
    (["--format", "json", "map", "1"], False),
    (["map"], False),
    (["map", "-h"], False),
    (["map", "--help", "1"], False),
    (["map", "--form", "csv", "1"], False),
    (["map", "--format=csv", "1"], False),
    (["map", "--", "1"], False),
    (["map", "-1"], False),
    (["map", "1", "--format"], False),
    (["map", "--format", "-", "1"], False),
    (["map", "--format", "xml", "--format", "csv", "1"], False),
    (["map", "1", "--format", "csv", "2"], False),
    (["equiv", "1", "--format", "csv", "2"], False),  # argparse reads it
    (["equiv", "1"], False),
    (["equiv", "1", "2", "3"], False),
    (["verify"], False),
    (["verify", "1", "--n", "3"], False),
    (["verify", "--n", "-1"], False),  # argparse reads it
    (["verify", "--n", "-1_0"], False),
    (["verify", "--n", "x"], False),
    (["rd", "1"], False),
    (["rd", "--dt", "0", "1"], False),
    (["consistency", "--metric", "max", "--n", "3"], False),
    (["consistency", "--n", "3"], False),
]

# tokens the fuzzed argvs are drawn from: every option name, the forms the
# reader leaves to argparse, and values that pass or fail a type or choice
FUZZ_TOKENS = sorted(
    {flag for _, _, arguments in COMMANDS.values() for flag, _ in arguments if flag[:1] == "-"}
) + [
    "--format", "--form", "--d", "--rcv", "--n=3", "--metric=rd", "--", "-h", "--help",
    "-", "-1", "-5", "-1_0", "", " 1", "1_0", "+2", "inf", "0", "1", "3", "x",
    "text", "json", "csv", "xml", "rd", "mean-buffer", "max", "4 3 2 1", "trace.txt",
]  # fmt: skip


class TestPlainReader:
    """``_plain`` gives argparse's namespace or declines, and declines whenever argparse exits."""

    PARSER = build_parser()

    def check(self, argv):
        """Whether ``_plain`` read ``argv``, after comparing its namespace with argparse's."""
        plain, parsed = _plain(argv), _parsed(lambda: self.PARSER, argv)
        assert plain is None or vars(plain) == parsed
        return plain is not None

    @pytest.mark.parametrize("argv, plain", READER_CASES, ids=lambda v: repr(v)[:60])
    def test_cases(self, argv, plain):
        assert self.check(argv) == plain

    @given(
        st.sampled_from([*COMMANDS, "bogus", "Map", "-h", "--format"]),
        st.lists(st.sampled_from(FUZZ_TOKENS), max_size=7),
    )
    @settings(max_examples=600, deadline=None)
    def test_fuzzed_argvs(self, command, tokens):
        self.check([command, *tokens])

    @pytest.mark.parametrize("argv", VALID_ARGVS, ids=" ".join)
    def test_valid_argvs_take_the_table_path(self, argv):
        assert self.check(argv)

    def test_benchmark_argvs_take_the_table_path(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(SRC.parent / "perfbench"))
        import workloads

        for name in workloads.WORKLOADS:
            for command in workloads.build(name, 1, tmp_path).commands:
                # the classes operation is a library call, not a command line
                assert command.key == "classes" or self.check(command.argv), command.argv
