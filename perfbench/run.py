"""youngfock benchmark: runs one workload's job list and prints its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 28 --trace 0

Each job is a fresh ``python -m youngfock ...`` process, run one at a
time from this single client (closed loop, concurrency 1).  The job list
is cycled until ``--seconds`` have passed, the first full pass always
completing; every run of every job is checked for exactness.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the list
once untraced and once in-process under the profiler (traced.py) and
prints the per-layer metrics.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A record of the run (seed,
argv of every job, per-rung times, interpreter and CPU) is written under
perfbench/results/.  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
GOLDENS = HERE / "goldens.json"
DEFAULT_SEED = 0
JOB_TIMEOUT_S = 120
SETUP_ARGV = [sys.executable, "-c", "import youngfock.cli"]
REFERENCE_ARGV = [sys.executable, str(HERE / "reference.py")]
# End-to-end times are given at the speed at which reference.py takes
# this long (about its time on a 2-vCPU Intel Xeon VM with Python 3.11).
REFERENCE_S = 0.1


def _env(extra=None) -> dict:
    env = dict(os.environ)
    # jobs import the package from its bytecode cache, as an installed package does
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


def spawn(argv, env) -> dict:
    """Run one child to completion: exit code, wall time, peak RSS, output."""
    out_path, err_path = RESULTS / "job.stdout", RESULTS / "job.stderr"
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=env, cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], JOB_TIMEOUT_S)[0]:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall": wall, "rss_kb": usage.ru_maxrss,
            "out": out_path.read_text(), "err": err_path.read_text()}


class Run:
    """Samples, verdicts and failures of one benchmark run."""

    def __init__(self, workload: str, seed: int, jobs: list):
        self.workload, self.seed, self.jobs = workload, seed, jobs
        self.env = _env()
        self.samples = {j["id"]: [] for j in jobs}  # raw wall times
        self.scaled = {j["id"]: [] for j in jobs}  # at the reference speed
        self.refs = []
        self.rss_kb = []
        self.setup = []
        self.done = {}  # id -> (job, stdout of its first run)
        self.cases = {}
        self.failures = []
        self.attempted = 0
        goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
        self.goldens = goldens.get(workload) if seed == DEFAULT_SEED else None

    def fail(self, job_id: str, why: str):
        self.failures.append({"job": job_id, "why": why})
        print(f"FAIL {job_id}: {why}", file=sys.stderr)

    def run_job(self, job: dict) -> dict:
        res = spawn([sys.executable, "-m", "youngfock"] + job["argv"], self.env)
        self.attempted += 1
        self.samples[job["id"]].append(res["wall"])
        self.rss_kb.append(res["rss_kb"])
        if job["id"] not in self.done:
            self.done[job["id"]] = (job, res["out"])
            ok, cases, why = checks.check(job, res["rc"], res["out"], res["err"], self.done)
            self.cases[job["id"]] = cases
            if ok and self.goldens is not None:
                digest = checks.content_digest(res["out"])
                if self.goldens.get(job["id"]) != digest:
                    ok, why = False, "content differs from the golden of the default seed"
        else:
            # outputs are byte-deterministic, so a repeat must match the checked first run
            ok = (res["rc"] == job["expect_rc"] and res["out"] == self.done[job["id"]][1]
                  and "Traceback" not in res["err"])
            why = "repeat differs from the checked first run"
        if not ok:
            self.fail(job["id"], why)
        return res

    def reference(self) -> float:
        res = spawn(REFERENCE_ARGV, self.env)
        if res["rc"] != 0:
            raise RuntimeError(f"reference program exited {res['rc']}: {res['err'][-300:]}")
        self.refs.append(res["wall"])
        return res["wall"]

    def measure(self, seconds: float):
        """Cycle the job list for ``seconds``; the first pass always completes.

        Every job and set-up sample is followed by a run of the reference
        program, and its time is scaled by REFERENCE_S over the mean of the
        reference times just before and after it.  Set-up samples are
        spread over the run."""
        spawn(SETUP_ARGV, self.env)  # warm-up: writes the bytecode cache
        before = self.reference()

        def scaled(wall: float) -> float:
            nonlocal before
            after = self.reference()
            value = wall * REFERENCE_S * 2 / (before + after)
            before = after
            return value

        def setup_sample():
            self.setup.append(scaled(spawn(SETUP_ARGV, self.env)["wall"]))

        for _ in range(3):
            setup_sample()
        every = max(2, len(self.jobs) // 3)
        t0 = time.perf_counter()
        k = 0
        while True:
            for job in self.jobs:
                if k >= len(self.jobs) and time.perf_counter() - t0 >= seconds:
                    return
                self.scaled[job["id"]].append(scaled(self.run_job(job)["wall"]))
                k += 1
                if k % every == 0:
                    setup_sample()

    def selftest(self) -> dict:
        """Corrupt one output per checker; every corruption must be flagged."""
        flagged = {}
        seen = set()
        for job in self.jobs:
            if job["check"] in seen:
                continue
            seen.add(job["check"])
            _, out = self.done[job["id"]]
            for what, rc, bad in checks.corrupt(job, job["expect_rc"], out):
                ok, _, _ = checks.check(job, rc, bad, "", self.done)
                flagged[f"{job['check']}: {what}"] = not ok
        return flagged

    def end_to_end(self) -> dict:
        per_job = {j: statistics.median(s) for j, s in self.scaled.items()}
        return {
            "wall_s": (sum(per_job.values()), "s"),
            "small_s": (statistics.median(t for j in self.jobs if j["low"]
                                          for t in self.scaled[j["id"]]), "s"),
            "peak_rss_mb": (max(self.rss_kb) / 1024, "MB"),
            "setup_s": (statistics.median(self.setup), "s"),
        }

    def traced(self) -> dict:
        """One in-process profiled pass in a child interpreter."""
        jobs_path, out_path = RESULTS / "traced-jobs.json", RESULTS / "traced-out.json"
        jobs_path.write_text(json.dumps(self.jobs))
        proc = subprocess.run([sys.executable, str(HERE / "traced.py"), str(jobs_path), str(out_path)],
                              env=_env({"PYTHONHASHSEED": "0"}), cwd=ROOT, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"traced pass exited {proc.returncode}")
        report = json.loads(out_path.read_text())
        self.attempted += len(report["jobs"])
        for res in report["jobs"]:
            job, out = self.done[res["id"]]
            same = hashlib.sha256(out.encode()).hexdigest() == res["out_sha256"]
            if res["rc"] != job["expect_rc"] or res["error"] or not same:
                self.fail(res["id"], f"traced run differs from the untraced run {res['error'] or ''}")
        return report


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "platform": platform.platform()}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload: measure, self-test, write the record, print the metrics."""
    run = Run(workload, seed, workloads.jobs_for(workload, seed))
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine()}
    if trace:
        spawn(SETUP_ARGV, run.env)  # warm-up: writes the bytecode cache
        for job in run.jobs:
            run.run_job(job)
        untraced = sum(s[0] for s in run.samples.values())
        report = run.traced()
        traced_wall = sum(j["wall_s"] for j in report["jobs"])
        metrics = {name: tuple(vu) for name, vu in report["metrics"].items()}
        metrics["trace.overhead"] = (traced_wall / untraced, "1")
        record.update(traced_wall_s=traced_wall, untraced_wall_s=untraced,
                      records=report["records"], missing=report["missing"],
                      caches=report["caches"])
    else:
        run.measure(seconds)
        metrics = run.end_to_end()

    selftest = run.selftest()
    for what, caught in selftest.items():
        if not caught:
            print(f"SELFTEST: corruption not flagged: {what}", file=sys.stderr)
    failed = len(run.failures)
    result = {"correct": all(selftest.values()) and not run.failures,
              "attempted": run.attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record.update(
        jobs=[{"id": j["id"], "argv": ["python", "-m", "youngfock"] + j["argv"], "rung": j["rung"],
               "low": j["low"], "cases": run.cases.get(j["id"], 0),
               "raw_s": run.samples[j["id"]], "scaled_s": run.scaled[j["id"]]}
              for j in run.jobs],
        reference_s=run.refs, setup_scaled_s=run.setup, selftest=selftest,
        failures=run.failures, **result)
    (RESULTS / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))

    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    print(f"{workload} fail_ratio = {failed / max(run.attempted, 1):.6g} "
          f"({failed} failed of {run.attempted} attempted)")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"], required=True,
                    help="one workload, or all four in turn")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "youngfock" / "cli.py").is_file():
        print(f"error: no youngfock sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)

    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in workloads.WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
