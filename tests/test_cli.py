"""Command-line behavior: parsing, formats, exit codes."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from reorderlab.cli import (
    EXIT_INPUT,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_PIPE,
    TraceParseError,
    main,
    parse_trace,
    resolve_trace,
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

    def test_inline_quoted(self):
        assert resolve_trace(["4 3 2 1"]) == [4, 3, 2, 1]

    def test_file(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("4\n3\n2\n1\n")
        assert resolve_trace([str(path)]) == [4, 3, 2, 1]

    def test_stdin(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("2 1\n"))
        assert resolve_trace(["-"]) == [2, 1]


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

    def test_dt_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rd", "1 2 3"])
        assert exc.value.code == 2

    def test_bad_dt_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "rd", "--dt", "0", "1 2 3")
        assert code == EXIT_INPUT
        assert "dt" in err


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
