"""README.md's examples: each shell example's output and each commented library result."""

import io
import re
import shlex
from pathlib import Path

import pytest

from reorderlab.cli import COMMANDS, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def _shell_examples():
    """(command line, expected stdout) for each ``$ reorderlab`` line of the sh blocks."""
    examples = []
    for block in _blocks("sh"):
        for example in re.split(r"\n\s*\n", block):
            command, *output = example.strip("\n").splitlines()
            if command.startswith("$ reorderlab "):
                examples.append((command[2:], "".join(line + "\n" for line in output)))
    return examples


SHELL_EXAMPLES = _shell_examples()


def test_every_subcommand_has_an_example():
    shown = {shlex.split(line)[1] for line, _ in SHELL_EXAMPLES}
    assert shown == set(COMMANDS)


@pytest.mark.parametrize("line, expected", SHELL_EXAMPLES, ids=[x[0] for x in SHELL_EXAMPLES])
def test_shell_example(capsys, monkeypatch, line, expected):
    out = ""
    # each stage of a pipe reads the previous stage's stdout
    for stage in line.split(" | "):
        program, *argv = shlex.split(stage)
        assert program == "reorderlab"
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        main(argv)
        out, err = capsys.readouterr()
        assert err == ""
    assert out == expected


def test_library_results():
    """Each line of the python block commented with a result without ``...`` gives that repr."""
    (block,) = _blocks("python")
    namespace, pending, checked = {}, [], []
    for line in block.splitlines():
        code, _, result = line.partition("  # ")
        if not result:
            pending.append(line)
            continue
        exec("\n".join(pending), namespace)
        pending = []
        if "..." not in result:
            checked.append((code.strip(), result, repr(eval(code, namespace))))
    assert checked
    assert [(code, got) for code, _, got in checked] == [(code, want) for code, want, _ in checked]
