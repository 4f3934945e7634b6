"""The benchmark's workloads: fixed mclab CLI jobs and their correctness checks.

Each job is one ``mclab.cli.main(argv)`` call with stdout captured.  A job
run is correct when its exit code and stdout sha256 equal the references
in ``expected.json`` (recorded from the seed code, the byte-identity gate)
and its headline values equal numbers taken from sources other than the
code under test: W-Catalan counts, dimensions stated in the README and
the paper, and the program's own oracle flags.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Callable

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def _catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _count_sets(n: int) -> Callable[[dict], list[str]]:
    def check(doc):
        got = len(doc["reports"])
        return [] if got == n else [f"{got} Hessenberg sets, expected {n}"]
    return check


def _mc_dims(dimension: int, nu: int | None = None,
             conjecture: int | None = None) -> Callable[[dict], list[str]]:
    def check(doc):
        problems = []
        got = doc["solution"]["dimension"]
        if got != dimension:
            problems.append(f"solver dimension {got}, expected {dimension}")
        cmp = doc["comparison"]
        if nu is not None and cmp["nu_dimension"] != nu:
            problems.append(f"nu dimension {cmp['nu_dimension']}, expected {nu}")
        if conjecture is not None and cmp["conjecture_dimension"] != conjecture:
            problems.append(f"conjecture dimension "
                            f"{cmp['conjecture_dimension']}, expected "
                            f"{conjecture}")
        return problems
    return check


def _oracle_equal(doc) -> list[str]:
    flags = doc["oracle_equal"]
    bad = sorted(k for k, v in flags.items() if v is not True)
    if not flags:
        return ["no oracle comparisons"]
    return [f"oracle_equal false for {', '.join(bad)}"] if bad else []


def _identity_holds(doc) -> list[str]:
    if doc["certificate"]["identity_holds"] is not True:
        return ["determinant identity does not hold"]
    return []


@dataclass(frozen=True)
class Job:
    command: str                                  # argv joined by spaces
    check: Callable[[dict], list[str]] | None = None
    env: dict[str, str] = field(default_factory=dict)

    @property
    def argv(self) -> list[str]:
        return self.command.split()


WORKLOADS: dict[str, list[Job]] = {
    "mc-solve": [
        Job("mc C 3 --hessenberg type-2"),
        Job("mc A 3 --hessenberg type-2", _mc_dims(9)),
    ],
    "mc-structure": [
        # the full slice of A3 is the whole group: dim sl(4) = 15
        Job("mc A 3 --hessenberg type-3", _mc_dims(4 * 4 - 1)),
        Job("mc C 2 --hessenberg a,b,a+b", _mc_dims(8, nu=6, conjecture=8)),
    ],
    "algebra": [
        Job("polybasis A 4", _oracle_equal),
        Job("hessdefs A 4 --hessenberg type-3 --symbolic", _identity_holds),
    ],
    "enumerate": [
        # W-Catalan numbers: C(2n,n) for C_n, Cat(n+1) for A_n,
        # C(2n,n) - C(2n-2,n-1) for D_n
        Job("hess C 4 --hessenberg all", _count_sets(comb(8, 4))),
        Job("hess A 5 --hessenberg all", _count_sets(_catalan(6)),
            env={"MCLAB_MAX_RANK": "5"}),
        Job("hess D 4 --hessenberg all", _count_sets(comb(8, 4) - comb(6, 3))),
    ],
}


def load_expected() -> dict[str, dict]:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


@dataclass
class JobRun:
    job: Job
    seconds: float                  # wall time of the cli_main call
    exit_code: int
    output: bytes
    problems: list[str]

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def run_job(cli_main, job: Job, expected: dict[str, dict] | None) -> JobRun:
    """Run one job in this process and check it.  Only the ``cli_main``
    call is timed; the garbage collection before it and the checks after
    it are not.  ``expected`` None skips the reference comparison (used
    when recording the references)."""
    saved = {k: os.environ.get(k) for k in job.env}
    os.environ.update(job.env)
    buf = io.StringIO()
    gc.collect()
    try:
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            code = cli_main(job.argv)
            seconds = time.perf_counter() - t0
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    output = buf.getvalue().encode()
    return JobRun(job, seconds, code, output, check_output(job, code, output,
                                                           expected))


def check_output(job: Job, code: int, output: bytes,
                 expected: dict[str, dict] | None) -> list[str]:
    problems = []
    if expected is not None:
        ref = expected.get(job.command)
        if ref is None:
            return [f"no reference recorded for {job.command!r}"]
        if code != ref["exit_code"]:
            problems.append(f"exit code {code}, expected {ref['exit_code']}")
        sha = hashlib.sha256(output).hexdigest()
        if sha != ref["sha256"]:
            problems.append(f"stdout sha256 {sha[:16]}..., expected "
                            f"{ref['sha256'][:16]}...")
    if job.check is not None:
        try:
            problems += job.check(json.loads(output))
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"headline check failed: {exc!r}")
    return problems
