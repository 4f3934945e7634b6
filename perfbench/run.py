"""Benchmark of mclab command-line jobs.

Run from the repository root:

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1]

One process and one thread run a closed loop of CLI jobs: each job is one
``mclab.cli.main(argv)`` call with stdout captured, and the next job starts
when the previous one returns.  Every job is as cold as a real CLI run,
because mclab's only caches live on objects built per call.  A pass runs
each job of the workload once, in an order drawn from the seed; passes
repeat until ``--seconds`` have gone by (at least one pass).  Every job
run is checked against ``expected.json`` and the headline values in
``workloads.py``.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median
wall time of a fresh interpreter importing ``mclab.cli``.  End-to-end times
are wall times divided by the run's host speed factor (see
``hostspeed.py``); the raw wall times are printed above them.  ``--trace 1``
adds one traced pass after the untraced ones and reports the per-layer
metrics (see ``layertrace.py``); its spans and the per-block solver table
go to ``perfbench/out/``.  Without ``--workload`` every workload runs, each
in its own process, in an order drawn from the seed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace
from hostspeed import KERNEL_REF_S, HostSpeed
from workloads import WORKLOADS, load_expected, run_job

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 9


class BenchError(RuntimeError):
    pass


def import_cli():
    """Import ``mclab.cli`` from the checkout's ``src``, and only there."""
    if not (SRC / "mclab" / "cli.py").is_file():
        raise BenchError(f"no src/mclab/cli.py under {ROOT}; run from the "
                         "repository root")
    sys.path.insert(0, str(SRC))
    import mclab.cli
    if SRC.resolve() not in Path(mclab.cli.__file__).resolve().parents:
        raise BenchError(f"mclab imported from {mclab.cli.__file__}, "
                         f"not from {SRC}")
    return mclab.cli


def setup_times(speed: HostSpeed) -> list[float]:
    """Wall times of fresh interpreters that import ``mclab.cli``.  One
    untimed run first writes the bytecode cache, as an install would."""
    cmd = [sys.executable, "-c", "import mclab.cli"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    speed.sample()
    return times


def run_pass(cli, jobs, expected, speed, tracer=None):
    runs = []
    for job in jobs:
        if tracer is not None:
            tracer.job = job.command
        runs.append(run_job(cli.main, job, expected))
        speed.sample()
    return runs


def untraced_passes(cli, jobs, expected, seconds, rng, speed):
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(cli, rng.sample(jobs, len(jobs)), expected,
                               speed))
    return passes


def traced_pass(cli, jobs, expected, rng, tracer, speed):
    tracer.install()
    try:
        return run_pass(cli, rng.sample(jobs, len(jobs)), expected, speed,
                        tracer)
    finally:
        tracer.uninstall()


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with ten samples beyond it.  Below 20
    samples that order statistic is not above the median, so the maximum
    is reported instead."""
    s = sorted(samples)
    n = len(s)
    if n >= 20:
        return s[n - 11], f"p{100 * (n - 11) / (n - 1):.0f}, 10 beyond"
    return s[-1], "max, fewer than 20 samples"


def pass_seconds(runs) -> float:
    return sum(r.seconds for r in runs)


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    cli = import_cli()
    expected = load_expected()
    jobs = WORKLOADS[name]
    rng = random.Random(seed)
    speed = HostSpeed()
    speed.sample()
    setup = None if trace else setup_times(speed)
    passes = untraced_passes(cli, jobs, expected, seconds, rng, speed)
    tracer = layertrace.Tracer() if trace else None
    traced = (traced_pass(cli, jobs, expected, rng, tracer, speed) if trace
              else [])
    runs = [r for p in passes for r in p] + traced
    failed = sum(r.failed for r in runs)

    print(f"== workload {name}  seed {seed}  seconds {seconds}  "
          f"trace {int(trace)}")
    print(f"job runs {len(runs)}  failed {failed}")
    for r in runs:
        if r.failed:
            print(f"FAILED {r.job.command}: {'; '.join(r.problems)}")
    pass_s = [pass_seconds(p) for p in passes]
    per_job = {j.command: [r.seconds for p in passes for r in p
                           if r.job is j]
               for j in jobs}
    print(f"host speed factor {speed.factor:.4f} (median of "
          f"{len(speed.times)} kernel samples over {KERNEL_REF_S} s); "
          "raw wall times:")
    print("  pass seconds: " + " ".join(f"{t:.3f}" for t in pass_s))
    for cmd, ts in per_job.items():
        print(f"  job {cmd:<44} median {statistics.median(ts):.4f} s  "
              f"runs {len(ts)}")

    if trace:
        # the machine's speed drifts over tens of seconds, so the traced
        # pass is compared with the untraced pass just before it
        metrics = layer_metrics(name, seed, tracer, traced, pass_s[-1])
    else:
        f = speed.factor
        tail_s, tail_note = tail(pass_s)
        geo = math.exp(statistics.fmean(
            math.log(statistics.median(ts)) for ts in per_job.values()))
        rows = [
            ("setup_s", statistics.median(setup) / f, "s", len(setup),
             "median, fresh interpreter to mclab.cli imported"),
            ("pass_s", statistics.median(pass_s) / f, "s", len(pass_s),
             "median wall time of one pass"),
            ("pass_s_tail", tail_s / f, "s", len(pass_s), tail_note),
            ("job_s_geomean", geo / f, "s",
             f"{len(per_job)}x{len(pass_s)}",
             "geometric mean over jobs of each job's median"),
            ("peak_rss_mb",
             resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
             "MB", 1, "peak RSS of this process"),
        ]
        metrics = {m: {"value": v, "unit": unit} for m, v, unit, _, _ in rows}
        # failed_share reads 0 on correct code, so it is not a bounded
        # metric; the result line carries it as attempted and failed.
        rows.append(("failed_share", failed / len(runs), "ratio", len(runs),
                     "failed job runs over job runs"))
        print(f"{'metric':<16}{'value':>12}  {'unit':<5} {'samples':>8}  note")
        for m, v, unit, n, note in rows:
            print(f"{m:<16}{v:>12.4f}  {unit:<5} {n!s:>8}  {note}")
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": metrics}


def layer_metrics(name, seed, tracer, traced, untraced_pass_s: float) -> dict:
    values = layertrace.layer_values(
        tracer, sum(len(r.output) for r in traced))
    values["trace.overhead_share"] = \
        pass_seconds(traced) / untraced_pass_s - 1
    if tracer.missing:
        print("missing wrapped names (their metrics are left out): "
              + ", ".join(tracer.missing))
    print(f"{'per-layer metric':<32}{'value':>14}  unit")
    for m, v in values.items():
        print(f"{m:<32}{v:>14.6g}  {layertrace.LAYER_METRICS[m][0]}")

    table = layertrace.block_table(tracer)
    if table:
        print("per-block solver table (sparse_nullspace calls, call order):")
        print(f"  {'job':<30}{'degree':>7}{'cols':>8}{'rows':>8}{'nnz':>9}"
              f"{'nullity':>8}{'seconds':>10}")
        for job in dict.fromkeys(r["job"] for r in table):
            rows = [r for r in table if r["job"] == job]
            useful = sum(1 for r in rows if r["nullity"])
            for r in rows:
                print(f"  {job:<30}{r['degree']!s:>7}{r['cols']:>8}"
                      f"{r['rows']:>8}{r['nnz']:>9}{r['nullity']:>8}"
                      f"{r['seconds']:>10.4f}")
            print(f"  {job}: {useful}/{len(rows)} calls with nullity > 0")
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"trace-{name}-seed{seed}.json"
    with open(out_path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "missing": tracer.missing,
                   "spans": tracer.spans, "block_table": table}, fh)
    print(f"spans written to {out_path}")
    return {m: {"value": v, "unit": layertrace.LAYER_METRICS[m][0]}
            for m, v in values.items()}


def run_all(args) -> dict:
    """Every workload in its own process, in an order drawn from the seed."""
    order = random.Random(args.seed).sample(sorted(WORKLOADS), len(WORKLOADS))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in order:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited {proc.returncode}")
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update(
            {f"{name}.{m}": v for m, v in res["metrics"].items()})
    return combined


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    try:
        if args.workload is None:
            result = run_all(args)
        else:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
