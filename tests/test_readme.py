"""README.md's examples run as shown: each `$ lindsum ...` transcript prints
exactly its output, each `lindsum ...` line of the sh blocks exits 0, and
the python blocks execute.  The bare `lindsum verify` (the full battery) is
left to the acceptance gate, which runs the same checks."""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from lindsum.cli import SEED_ENV_VAR, main

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks() -> list[tuple[str, list[str]]]:
    """(info string, lines) of each fenced block of the README."""
    blocks, lang, body = [], None, []
    for line in README.read_text().splitlines():
        if not line.startswith("```"):
            body.append(line)
        elif lang is None:
            lang, body = line[3:].strip(), []
        else:
            blocks.append((lang, body))
            lang, body = None, []
    return blocks


TRANSCRIPTS = [
    (body[0][2:], "".join(f"{line}\n" for line in body[1:]))
    for lang, body in _blocks()
    if lang == "text" and body[0].startswith("$ lindsum ")
]
COMMANDS = [
    command
    for lang, body in _blocks()
    if lang == "sh"
    for command in (line.split("#")[0].strip() for line in body)
    if command.startswith("lindsum ") and command != "lindsum verify"
]
PYTHON = ["\n".join(body) for lang, body in _blocks() if lang == "python"]


@pytest.fixture(autouse=True)
def default_seed(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


def test_every_kind_of_example_is_found():
    assert (len(TRANSCRIPTS), len(COMMANDS), len(PYTHON)) == (3, 4, 3)


@pytest.mark.parametrize("command,output", TRANSCRIPTS, ids=[c for c, _ in TRANSCRIPTS])
def test_transcript(capsys, command, output):
    code = main(shlex.split(command)[1:])
    assert (code, capsys.readouterr().out) == (0, output)


@pytest.mark.parametrize("command", COMMANDS)
def test_command_exits_0(capsys, command):
    assert main(shlex.split(command)[1:]) == 0


def test_python_blocks():
    # in order and in one namespace, as a reader pastes them: later blocks use
    # the imports of the first
    namespace = {}
    for i, source in enumerate(PYTHON):
        exec(compile(source, f"<README.md python block {i}>", "exec"), namespace)
