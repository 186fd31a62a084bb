#!/usr/bin/env python3
"""Digests of what the command line prints, for comparing two revisions.

Usage, from the root of a checkout:

    python3 scripts/stdout_digests.py --seed 0 --seed 1 > digests.txt

For each seed (0 when none is given) it runs every job that
``perfbench/workloads.py`` lists for that seed, then every ``verify``
suite at that seed and its default degree, then the runs that print
the parser's own text (the help of the program and of each command, and
usage errors), the runs of lines in other forms than ``--name=value``
and two tables whose weights hold a zero.  Each run is a fresh
``python -m youngfock`` process, the entry point a user runs, with this
checkout's ``src`` first on ``PYTHONPATH`` and ``COLUMNS=80``, the width
argparse wraps help to.  It prints one line per run:

    <workload> <seed> <job id> rc=<exit code> out=<sha256> err=<sha256>

where ``<workload>`` is one of the ``perfbench`` workloads, ``suites``
for the suite runs or ``cli`` for the parser runs and the two tables,
which read no seed,
and the digests are of the exact stdout and stderr text.  Run it in two
checkouts and diff the outputs: equal files mean equal stdout, stderr
and exit codes on every job.  It imports ``youngfock`` from this
checkout's ``src`` only for the suite names, and only reads ``perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from youngfock.suites import SUITES  # noqa: E402


def _load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()


# (job id, argv) of the runs whose output is the parser's own text, then
# of runs in other forms than --name=value: separated values, and three
# lines that only argparse reads (an abbreviation, a repeated flag and a
# separated value that starts with "-"); last, two tables with a zero weight
CLI_RUNS = [("help", ["--help"])] + [
    (f"{name}-help", [name, "--help"])
    for name in ("measure", "convert", "correlations", "verify", "decompose")
] + [
    ("no-command", []),
    ("bogus-command", ["bogus-command"]),
    ("bogus-option", ["--bogus", "measure", "--kind=schur"]),
    ("measure-bogus-option", ["measure", "--kind=schur", "--bogus"]),
    ("separated-values",
     ["measure", "--kind", "schur", "--x", "1=1", "--y", "1=1/2", "--max-degree", "2"]),
    ("abbreviation", ["convert", "--x=1=1", "--max-deg=2"]),
    ("repeated-flag", ["convert", "--x=1=1", "--max-degree=2", "--max-degree=3"]),
    ("separated-negative-value", ["decompose", "--z=1/3", "--w", "-2/5"]),
] + [
    # poly-z tables whose lam = (1) weight is a zero, printed as {"poly": []}
    # where the other side carries a Poly and as "0" where it does not
    ("zero-weight-poly", ["measure", "--x=1=1/3,2=1/5", "--kind=virasoro", "--ring=poly-z",
                          "--y=2=2/5", "--w=-2/5", "--max-degree=5"]),
    ("zero-weight-rational", ["measure", "--x=2=1/3", "--kind=virasoro", "--ring=poly-z",
                              "--y=1=2/5,2=-1/7", "--w=-2/5", "--max-degree=5"]),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv: List[str]) -> Tuple[int, str, str]:
    """Exit code, stdout and stderr of one ``python -m youngfock`` run."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": src + os.pathsep + path if path else src}
    proc = subprocess.run([sys.executable, "-m", "youngfock", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def jobs(workload: str, seed: int) -> List[Tuple[str, List[str]]]:
    """(job id, argv) of the runs of one workload at one seed."""
    if workload == "cli":
        return CLI_RUNS
    if workload == "suites":
        return [(f"verify-{name}-default", ["verify", f"--suite={name}", f"--seed={seed}"])
                for name in SUITES]
    return [(job["id"], job["argv"]) for job in WORKLOADS.jobs_for(workload, seed)]


def digest_lines(workloads: List[str], seeds: List[int]) -> Iterator[str]:
    for seed in seeds:
        for workload in workloads:
            for jid, argv in jobs(workload, seed):
                code, out, err = run(argv)
                yield f"{workload} {seed} {jid} rc={code} out={_sha(out)} err={_sha(err)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append",
                        help="a job-list seed (repeatable; default 0)")
    args = parser.parse_args(argv)
    for line in digest_lines(sorted(WORKLOADS.WORKLOADS) + ["suites", "cli"], args.seed or [0]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
