"""Quick self-check of the benchmark; run from the repository root:

    python3 perfbench/selfcheck.py

It runs the ``enumerate`` jobs and ``mc C 2`` a few times (about 10 s)
and checks that the references accept correct output and fire on a
corrupted expected sha256, that traced output equals untraced output, that
every wrapper is gone after the traced pass, and that a wrapped name which
no longer exists is reported as missing rather than as zero.  Exits 1 if
any check fails.
"""

from __future__ import annotations

import random
import sys

import layertrace
from hostspeed import HostSpeed
from run import import_cli, traced_pass
from workloads import WORKLOADS, Job, load_expected, run_job


def mclab_bindings() -> dict:
    """Every global of every loaded mclab module, and every attribute of
    the classes they define, keyed by where it is bound."""
    out = {}
    for mname, mod in list(sys.modules.items()):
        if mname != "mclab" and not mname.startswith("mclab."):
            continue
        for name, value in vars(mod).items():
            out[(mname, name)] = value
            if isinstance(value, type) and value.__module__ == mname:
                for attr, member in vars(value).items():
                    out[(mname, name, attr)] = member
    return out


def main() -> int:
    cli = import_cli()
    expected = load_expected()
    mc_c2 = next(j for j in WORKLOADS["mc-structure"]
                 if j.command == "mc C 2 --hessenberg a,b,a+b")
    jobs = WORKLOADS["enumerate"] + [mc_c2]
    results = []

    def check(name, ok):
        results.append(ok)
        print(("PASS " if ok else "FAIL ") + name)

    runs = [run_job(cli.main, j, expected) for j in jobs]
    check("every job matches its references",
          not any(r.failed for r in runs))

    corrupted = {k: dict(v) for k, v in expected.items()}
    corrupted[mc_c2.command]["sha256"] = "0" * 64
    bad = run_job(cli.main, mc_c2, corrupted)
    check("a corrupted expected sha256 fails the job",
          bad.failed and any("sha256" in p for p in bad.problems))
    wrong_headline = Job(mc_c2.command, lambda doc: ["forced failure"])
    check("a failing headline check fails the job",
          run_job(cli.main, wrong_headline, expected).failed)

    before = mclab_bindings()
    tracer = layertrace.Tracer()
    traced = traced_pass(cli, jobs, expected, random.Random(0), tracer,
                         HostSpeed())
    after = mclab_bindings()
    check("traced output has the reference sha256",
          len(traced) == len(jobs) and not any(r.failed for r in traced))
    check("the traced pass recorded spans of every layer it reached",
          {"cli.emit", "hessenberg.enumerate", "linalg.nullspace",
           "fields.bracket"} <= {s["name"] for s in tracer.spans})
    check("every wrapper is uninstalled after the traced pass",
          before.keys() == after.keys()
          and all(after[k] is v for k, v in before.items()))

    renamed = [layertrace.Target(t.layer, t.module, t.attr + "_renamed")
               if t.layer == "linalg.rref" else t
               for t in layertrace.TARGETS]
    tracer = layertrace.Tracer(renamed)
    traced_pass(cli, [mc_c2], expected, random.Random(0), tracer, HostSpeed())
    values = layertrace.layer_values(tracer, 0)
    check("a wrapped name that no longer exists is reported missing",
          tracer.missing == ["mclab.linalg.rref_renamed"]
          and "linalg.rref_s" not in values
          and "linalg.rref_calls" not in values
          and values["linalg.nullspace_calls"] > 0)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
