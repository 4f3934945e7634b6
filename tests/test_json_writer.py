"""``cli.dump_json`` against the standard library's encoder.

The writer must give exactly ``json.dumps(value, sort_keys=True,
indent=2)`` on every payload the CLI emits for a benchmark job or a CLI
reference command, and on generated nested values of every type it
writes, including the lists of one scalar type it writes in one join;
any other type raises ``TypeError``.
"""

from __future__ import annotations

import json
import shlex
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclab import cli

from test_bench_refs import JOBS
from test_cli_refs import COMMANDS


def _reference(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("command", sorted(set(JOBS) | set(COMMANDS)))
def test_every_emitted_payload(command, monkeypatch, capsys):
    job = JOBS.get(command)
    for key, value in (job.env.items() if job is not None else ()):
        monkeypatch.setenv(key, value)
    payloads = []
    real_emit = cli.emit

    def recording(payload, *args, **kwargs):
        payloads.append(payload)
        return real_emit(payload, *args, **kwargs)

    monkeypatch.setattr(cli, "emit", recording)
    code = cli.main(shlex.split(command))
    capsys.readouterr()
    assert len(payloads) == (code != 2)     # an error emits no payload
    for payload in payloads:
        assert cli.dump_json(payload) == _reference(payload)


_scalars = st.none() | st.booleans() | st.integers() | st.text()
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_values)
def test_generated_values(value):
    assert cli.dump_json(value) == _reference(value)


def test_edge_values():
    for value in ({}, [], "", [[]], {"": {}}, ["é", "☃", "\U0001f600"],
                  {"b": [1, "x"], "a": None, "\n": True}, -2 ** 70,
                  [False, 0, True, 1], [1, True, 2], [0, None], ["a", 1],
                  [1, "a"], [[1, 2], [3]]):
        assert cli.dump_json(value) == _reference(value)


@pytest.mark.parametrize("value", [1.5, Q(1, 2), (1, 2), {1: "x"}, {3},
                                   [b"x"]])
def test_unwritten_type_raises(value):
    with pytest.raises(TypeError):
        cli.dump_json(value)
