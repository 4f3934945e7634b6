"""Write ``expected.json``: each job's exit code, stdout sha256 and size.

Run once from the repository root on the commit whose output is the
reference (the byte-identity gate):

    python3 perfbench/record_refs.py

A job whose headline values fail their independent check is not recorded.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import import_cli
from workloads import EXPECTED_PATH, WORKLOADS, run_job


def main() -> int:
    cli = import_cli()
    refs = {}
    for jobs in WORKLOADS.values():
        for job in jobs:
            run = run_job(cli.main, job, None)
            if run.failed:
                print(f"{job.command}: {'; '.join(run.problems)}",
                      file=sys.stderr)
                return 1
            refs[job.command] = {
                "exit_code": run.exit_code,
                "sha256": hashlib.sha256(run.output).hexdigest(),
                "bytes": len(run.output),
            }
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(refs, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
