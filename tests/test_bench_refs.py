"""Byte-identity of the CLI against the benchmark's recorded references.

Every job in ``perfbench/expected.json`` (exit code and stdout sha256,
recorded by ``perfbench/record_refs.py``) runs through ``mclab.cli.main``
with the environment its workload declares in ``perfbench/workloads.py``,
so an output change fails here without a benchmark run.  Nothing under
``perfbench/`` is written.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from mclab.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


JOBS = {job.command: job
        for jobs in _load_workloads().WORKLOADS.values() for job in jobs}
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text())


def test_every_reference_is_a_workload_job():
    assert sorted(EXPECTED) == sorted(JOBS)


@pytest.mark.parametrize("command", sorted(EXPECTED))
def test_job_matches_reference(command, monkeypatch):
    job = JOBS[command]
    for key, value in job.env.items():
        monkeypatch.setenv(key, value)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(job.argv)
    ref = EXPECTED[command]
    assert code == ref["exit_code"]
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == \
        ref["sha256"]
