"""Write goldens.json: the content digest of every job's output at the
default seed, for every workload.  Run from the root of a checkout:

    python3 perfbench/make_goldens.py

Regenerate only when an output is meant to change; the run then compares
the mathematical content (values, not formatting) against these.
"""

import json
import sys

import checks
import run
import workloads


def main() -> int:
    run.RESULTS.mkdir(exist_ok=True)
    goldens = {}
    for name in sorted(workloads.WORKLOADS):
        bench = run.Run(name, run.DEFAULT_SEED, workloads.jobs_for(name, run.DEFAULT_SEED))
        bench.goldens = None
        for job in bench.jobs:
            bench.run_job(job)
        if bench.failures:
            print(f"{name}: {bench.failures}", file=sys.stderr)
            return 1
        goldens[name] = {j["id"]: checks.content_digest(bench.done[j["id"]][1]) for j in bench.jobs}
    run.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
