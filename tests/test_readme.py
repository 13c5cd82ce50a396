"""Every `surfcond` line of the README's CLI block runs and exits 0, so the
documented examples cannot drift from the CLI."""

import re
import shlex
from pathlib import Path

import pytest

from surfcond.cli import COMMANDS, main

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_examples() -> list[list[str]]:
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", README.read_text(), re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("surfcond ")]


EXAMPLES = cli_examples()


def test_every_subcommand_but_selftest_has_an_example():
    assert {argv[0] for argv in EXAMPLES} == set(COMMANDS) - {"selftest"}


@pytest.mark.parametrize("argv", EXAMPLES, ids=" ".join)
def test_example_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # --dump-pages writes into the working directory
    assert main(argv) == 0
    assert capsys.readouterr().out
