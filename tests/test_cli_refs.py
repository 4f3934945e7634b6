"""Byte-identity of CLI commands that no benchmark job runs.

``cli_refs.json`` holds the exit code and stdout sha256 of each command
below, recorded on the commit whose output is the reference.  Each
command runs through ``mclab.cli.main``; an output change fails here.
To record the table again (only when an output change is intended):

    PYTHONPATH=src python tests/test_cli_refs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

import pytest

from mclab.cli import main

REFS = Path(__file__).resolve().with_name("cli_refs.json")

COMMANDS = [
    "selftest --seed 7",
    "mc A 2 --hessenberg type-2",
    "mc A 2 --hessenberg a,b",
    "mc A 4 --hessenberg type-2",
    "mc A 4 --hessenberg type-3",
    "mc C 3 --hessenberg type-3",
    "mc C 4 --hessenberg type-2",
    "mc A 3 --hessenberg type-3 --degree-bound 6",
    "mc C 3 --hessenberg type-2 --degree-bound 6",
    "mc C 2 --hessenberg type-2 --format pretty",
    "mc A 3 --hessenberg type-2 --format csv",
    "hessdefs A 3 --H standard --hessenberg type-2",
    "hessdefs A 3 --H standard --hessenberg type-2 --format csv",
    "hessdefs C 2 --hessenberg a,b,a+b --symbolic",
    "hessdefs C 2 --hessenberg a,b,a+b --H 1,3",
    "hessdefs C 3 --hessenberg type-2",
    "polybasis A 2",
    "polybasis C 2",
    "polybasis A 3",
]


def run(command: str) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(shlex.split(command))
    return {"exit_code": code,
            "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}


def test_every_command_has_a_reference():
    assert sorted(json.loads(REFS.read_text())) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_command_matches_reference(command):
    assert run(command) == json.loads(REFS.read_text())[command]


if __name__ == "__main__":
    refs = {command: run(command) for command in COMMANDS}
    REFS.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    sys.exit(0)
