#!/usr/bin/env python3
"""Paired benchmark runs of a base revision against this checkout.

Usage, from the root of a checkout:

    python3 scripts/bench_pairs.py --base HEAD~1 --workload tables \\
        --seed-pairs 0:10 --seed-pairs 3:5 --out BENCH_8.json

For each ``SEED:N`` it runs ``perfbench/run.py --workload W --seed SEED``
N times on each side, alternating which side runs first, at the run
length ``perfbench`` sets.  The base side is a ``git archive`` copy of
the tracked files of ``--base`` in a temporary directory (under
``TMPDIR``), removed afterwards, so nothing under ``.git`` is written and
no worktree is registered; the change side is
this checkout's ``HEAD``, and the script refuses to start while tracked
files differ from it, so that both commits in the record name the code
that was measured.  Only the last stdout line of each run (its result
object) is read.  The output file holds every run's
metrics and, per (workload, metric), the medians, quartiles and wins of
the change over all pairs and per seed.  A pair's win goes to the side
whose value is better in the metric's direction (``BENCHMARK.json``;
lower when it names none); ties count for neither side.  The record also
counts the runs that were not correct and the jobs that failed over all
runs; when either is nonzero the script names each run at fault on
stderr and exits 1, after writing the record.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _directions() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def _spread(values) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs, directions=None) -> dict:
    """Per "workload.metric": base and change medians and quartiles, and
    how many pairs each side wins.  ``runs`` is a list of
    {"pair", "seed", "side", "metrics": {"workload.metric": value}}."""
    directions = directions or {}
    pairs = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    summary = {}
    for name in sorted({n for run in runs for n in run["metrics"]}):
        both = [(p["base"][name], p["change"][name]) for _, p in sorted(pairs.items())
                if name in p.get("base", {}) and name in p.get("change", {})]
        if not both:
            continue
        lower = directions.get(name.split(".", 1)[-1], "lower") == "lower"
        wins = sum(1 for b, c in both if (c < b if lower else c > b))
        losses = sum(1 for b, c in both if (c > b if lower else c < b))
        summary[name] = {"pairs": len(both), "better": "lower" if lower else "higher",
                         "base": _spread([b for b, _ in both]),
                         "change": _spread([c for _, c in both]),
                         "wins": wins, "losses": losses}
    return summary


def _run(tree: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed)],
                          cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    prefix = "" if workload == "all" else workload + "."
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {prefix + k: v["value"] for k, v in result["metrics"].items()}}


def _git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def _extract(commit: str, dest: Path) -> None:
    """Write the tracked files of commit into dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision of the base side")
    ap.add_argument("--workload", required=True, help="a perfbench workload, or all")
    ap.add_argument("--seed-pairs", action="append", required=True, metavar="SEED:N",
                    help="N alternating pairs at this seed; repeat for more seeds")
    ap.add_argument("--out", required=True, help="where to write the JSON record")
    args = ap.parse_args(argv)
    plan = []
    for item in args.seed_pairs:
        seed, _, n = item.partition(":")
        plan += [int(seed)] * int(n)

    if _git("status", "--porcelain", "--untracked-files=no"):
        ap.error("tracked files differ from HEAD; commit the change to measure first")
    base_commit = _git("rev-parse", args.base)
    change_commit = _git("rev-parse", "HEAD")
    tmp = Path(tempfile.mkdtemp(prefix="bench-base-"))
    base_tree = tmp / "base"
    base_tree.mkdir()
    runs = []
    try:
        _extract(base_commit, base_tree)
        for pair, seed in enumerate(plan):
            order = ("change", "base") if pair % 2 == 0 else ("base", "change")
            for position, side in enumerate(order):
                tree = ROOT if side == "change" else base_tree
                run = _run(tree, args.workload, seed)
                runs.append({"pair": pair, "seed": seed, "side": side, "first": position == 0,
                             **run})
                print(f"pair {pair} seed {seed} {side}: correct={run['correct']} "
                      f"failed={run['failed']}", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    directions = _directions()
    record = {
        "base": args.base, "base_commit": base_commit,
        "change_commit": change_commit,
        "workload": args.workload,
        "incorrect_runs": sum(1 for r in runs if not r["correct"]),
        "failed_jobs": sum(r["failed"] for r in runs),
        "runs": runs,
        "summary": summarize(runs, directions),
        "by_seed": {str(s): summarize([r for r in runs if r["seed"] == s], directions)
                    for s in sorted(set(plan))},
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for r in runs:
        if not r["correct"] or r["failed"]:
            print(f"at fault: pair {r['pair']} side {r['side']} seed {r['seed']}: "
                  f"correct={r['correct']} failed={r['failed']}", file=sys.stderr)
    return 1 if record["incorrect_runs"] or record["failed_jobs"] else 0


if __name__ == "__main__":
    sys.exit(main())
