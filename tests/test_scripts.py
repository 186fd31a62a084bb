import hashlib
import json
import os
import subprocess
import sys

import pytest

from youngfock import cli

from .test_cli import EMPTY_SHA, PARSER_TEXT, ROOT, ZERO_WEIGHT_TABLES, _load


def test_measure_demo_runs_clean():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "measure_demo.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout


def _bench_pairs():
    return _load(ROOT / "scripts" / "bench_pairs.py")


def test_bench_pairs_summary_on_fixed_numbers():
    base = [3.0, 3.2, 3.4, 3.1, 3.3]
    change = [2.4, 2.5, 3.4, 2.3, 3.5]
    runs = [{"pair": i, "seed": 0, "side": side, "metrics": {"tables.wall_s": v,
                                                            "tables.suites.checks": v}}
            for i, (b, c) in enumerate(zip(base, change)) for side, v in (("base", b), ("change", c))]
    runs.append({"pair": 5, "seed": 0, "side": "base", "metrics": {"tables.wall_s": 9.0}})
    summary = _bench_pairs().summarize(runs, {"wall_s": "lower", "suites.checks": "higher"})
    wall = summary["tables.wall_s"]
    # the unpaired sixth run is left out; the tie at 3.4 counts for neither side
    assert wall["pairs"] == 5 and (wall["wins"], wall["losses"]) == (3, 1)
    assert wall["base"] == {"median": 3.2, "q1": 3.1, "q3": 3.3, "iqr": pytest.approx(0.2)}
    assert wall["change"]["median"] == 2.5
    assert (wall["change"]["q1"], wall["change"]["q3"]) == (2.4, 3.4)
    checks = summary["tables.suites.checks"]
    assert checks["better"] == "higher" and (checks["wins"], checks["losses"]) == (1, 3)


def _fake_bench(module, monkeypatch, results):
    """Run ``main`` with the git calls and the perfbench runs replaced:
    results[i] is (correct, failed) of the i-th run, in run order."""
    it = iter(results)

    def run(tree, workload, seed):
        correct, failed = next(it)
        return {"correct": correct, "attempted": 4, "failed": failed,
                "metrics": {"rank.wall_s": 2.0}}

    monkeypatch.setattr(module, "_run", run)
    monkeypatch.setattr(module, "_extract", lambda commit, dest: None)
    monkeypatch.setattr(module, "_git", lambda *args: "" if args[0] == "status" else "0123abc")


def test_bench_pairs_exits_1_and_names_the_runs_at_fault(tmp_path, monkeypatch, capsys):
    module = _bench_pairs()
    # pairs 0 and 2 run change first, pair 1 base first: the third run is
    # pair 1's base side and the fourth its change side
    _fake_bench(module, monkeypatch, [(True, 0), (True, 0), (False, 0), (True, 2),
                                      (True, 0), (True, 0)])
    out = tmp_path / "record.json"
    code = module.main(["--base", "HEAD~1", "--workload", "rank", "--seed-pairs", "0:2",
                        "--seed-pairs", "3:1", "--out", str(out)])
    record = json.loads(out.read_text())
    assert code == 1
    assert (record["incorrect_runs"], record["failed_jobs"]) == (1, 2)
    assert len(record["runs"]) == 6
    faults = [l for l in capsys.readouterr().err.splitlines() if l.startswith("at fault")]
    assert faults == ["at fault: pair 1 side base seed 0: correct=False failed=0",
                      "at fault: pair 1 side change seed 0: correct=True failed=2"]

    _fake_bench(module, monkeypatch, [(True, 0)] * 2)
    code = module.main(["--base", "HEAD~1", "--workload", "rank", "--seed-pairs", "0:1",
                        "--out", str(out)])
    record = json.loads(out.read_text())
    assert code == 0 and (record["incorrect_runs"], record["failed_jobs"]) == (0, 0)
    assert "at fault" not in capsys.readouterr().err


def test_bench_pairs_base_side_is_an_archive_of_the_base_commit(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()
    env = {**os.environ, "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@example.com",
           "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@example.com"}

    def git(*args):
        return subprocess.run(["git", "-C", str(repo), *args], capture_output=True, text=True,
                              check=True, env=env).stdout

    git("init", "-q")
    (repo / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [], "per_layer": []}))
    (repo / "sub").mkdir()
    (repo / "sub" / "a.txt").write_text("base\n")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "sub" / "a.txt").write_text("change\n")
    (repo / "b.txt").write_text("new\n")
    git("add", "-A")
    git("commit", "-q", "-m", "change")
    (repo / "untracked.txt").write_text("not in any commit\n")
    worktrees = git("worktree", "list", "--porcelain")
    git_entries = sorted(p.relative_to(repo) for p in (repo / ".git").rglob("*"))

    module = _bench_pairs()
    seen = {}

    def run(tree, workload, seed):
        if tree != repo:
            seen["files"] = sorted(str(p.relative_to(tree)) for p in tree.rglob("*") if p.is_file())
            seen["a"] = (tree / "sub" / "a.txt").read_text()
            seen["tree"] = tree
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {"rank.wall_s": 1.0}}

    monkeypatch.setattr(module, "ROOT", repo)
    monkeypatch.setattr(module, "_run", run)
    code = module.main(["--base", "HEAD~1", "--workload", "rank", "--seed-pairs", "0:1",
                        "--out", str(tmp_path / "record.json")])
    assert code == 0
    assert seen["files"] == ["BENCHMARK.json", "sub/a.txt"] and seen["a"] == "base\n"
    assert not seen["tree"].exists()
    assert git("worktree", "list", "--porcelain") == worktrees
    assert sorted(p.relative_to(repo) for p in (repo / ".git").rglob("*")) == git_entries


# every job of the benchmark's default seed, with the digest it must give
_WORKLOADS, _CHECKS = _load(ROOT / "perfbench" / "workloads.py"), _load(ROOT / "perfbench" / "checks.py")
_GOLDENS = json.loads((ROOT / "perfbench" / "goldens.json").read_text())
_GOLDEN_JOBS = [(name, job) for name in sorted(_WORKLOADS.WORKLOADS)
                for job in _WORKLOADS.jobs_for(name, 0)]


@pytest.mark.parametrize("workload,job", _GOLDEN_JOBS,
                         ids=[f"{name}/{job['id']}" for name, job in _GOLDEN_JOBS])
def test_benchmark_job_matches_its_golden_digest(workload, job, capsys):
    # in process through cli.main: the exit code the benchmark expects and
    # the content digest it compares against perfbench/goldens.json
    rc = cli.main(job["argv"])
    out = capsys.readouterr().out
    assert rc == job["expect_rc"]
    assert _CHECKS.content_digest(out) == _GOLDENS[workload][job["id"]]


def test_stdout_digests_match_fresh_processes_on_the_convert_jobs():
    # the script prints the digests of exactly what a fresh
    # `python -m youngfock` prints, job by job, in job-list order
    module = _load(ROOT / "scripts" / "stdout_digests.py")
    lines = list(module.digest_lines(["convert"], [0]))
    jobs = _WORKLOADS.jobs_for("convert", 0)
    assert [line.split()[:3] for line in lines] == [["convert", "0", job["id"]] for job in jobs]
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for line, job in zip(lines, jobs):
        proc = subprocess.run([sys.executable, "-m", "youngfock", *job["argv"]],
                              capture_output=True, text=True, env=env, timeout=120)
        sha = [hashlib.sha256(text.encode()).hexdigest() for text in (proc.stdout, proc.stderr)]
        assert line.split()[3:] == [f"rc={proc.returncode}", f"out={sha[0]}", f"err={sha[1]}"]
        assert proc.returncode == job["expect_rc"] and proc.stdout and not proc.stderr


def test_stdout_digests_cover_the_pinned_parser_text():
    # the cli group runs the argv lists that tests/test_cli.py pins, the
    # parser text at the same width and then the zero-weight tables, and
    # prints their pinned digests
    module = _load(ROOT / "scripts" / "stdout_digests.py")
    pinned = PARSER_TEXT + [(argv, code, sha, "") for code, sha, argv in ZERO_WEIGHT_TABLES]
    assert [argv for _, argv in module.CLI_RUNS] == [p[0] for p in pinned]
    columns = os.environ.get("COLUMNS")
    lines = list(module.digest_lines(["cli"], [0]))
    assert os.environ.get("COLUMNS") == columns  # set only for each run
    assert len(lines) == len(pinned)
    for line, (jid, _), (_, code, out_sha, err_sha) in zip(lines, module.CLI_RUNS, pinned):
        assert line == (f"cli 0 {jid} rc={code} out={out_sha or EMPTY_SHA} "
                        f"err={err_sha or EMPTY_SHA}")
