"""The README's library quick start and command-line examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from limachor import cli
from limachor.admissibility import InadmissibleError

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def test_quick_start_runs_until_its_deliberate_error():
    (block,) = fenced_blocks("python")
    # The block's last line raises on purpose; an earlier failure would
    # surface as a different error.
    with pytest.raises(InadmissibleError, match="P_MINUS_1_DIV_N"):
        exec(compile(block, "README.md", "exec"), {})


def cli_lines():
    lines = []
    for block in fenced_blocks("sh"):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["limachor"]:
                lines.append(words[1:])
            elif words[:3] == ["python", "-m", "limachor"]:
                lines.append(words[3:])
    return lines


def test_examples_cover_every_command():
    assert {argv[0] for argv in cli_lines()} == set(cli._HANDLERS)


@pytest.mark.parametrize("argv", cli_lines(), ids=" ".join)
def test_cli_example_exits_zero(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # --out files land here
    assert cli.run(argv) == 0
