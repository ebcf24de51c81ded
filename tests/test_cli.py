"""Command-line behavior: parsing, formats, exit codes."""

import argparse
import csv
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reorderlab.cli import (
    EXIT_INPUT,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_PIPE,
    TraceParseError,
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

    @pytest.mark.parametrize("argv", [["map", "1", "2"], ["ack", "-"], ["episodes", "-"]])
    def test_no_traceback(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)  # no reader at all: the first write fails
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "reorderlab", *argv],
                input="\n".join(map(str, range(1, 50_001))).encode(),
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == EXIT_PIPE


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
    ("mean-buffer", ["consistency", "--metric", "mean-buffer", "--n", "3"]),
]:
    sys.stdout = io.StringIO()
    code = main(argv)
    sys.stdout = sys.__stdout__
    print(name, code, *sorted(set(sys.modules) - before))
"""


class TestImportHygiene:
    """A run loads only the standard-library modules its command and format use."""

    HEAVY = {"dataclasses", "inspect", "json", "csv", "fractions", "decimal"}

    def test_modules_added_per_command(self):
        src = Path(__file__).resolve().parent.parent / "src"
        # -S: no site start-up, so no site hook has loaded any of these already
        proc = subprocess.run(
            [sys.executable, "-S", "-c", IMPORT_PROBE],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=60,
        )
        assert proc.stderr == ""
        added = {}
        for line in proc.stdout.splitlines():
            name, code, *modules = line.split()
            assert code == "0"
            added[name] = self.HEAVY.intersection(modules)
        assert added == {
            "text": set(),
            "json": {"json"},
            "csv": {"json"},
            "mean-buffer": {"json", "fractions", "decimal"},
        }


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
            monkeypatch.setattr("reorderlab.cli.verify_theorem", lambda n: theorem)
            monkeypatch.setattr("reorderlab.cli.verify_identities", lambda n: identities)

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
